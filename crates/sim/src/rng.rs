//! Deterministic pseudo-random numbers for simulation campaigns.
//!
//! The workspace is offline (no `rand` crate) and every harness must be
//! bit-reproducible from a seed, so this is a small, explicit xorshift*
//! generator: the same seed always yields the same sequence on every
//! platform, which is exactly what the fault-injection campaign engine
//! needs for seed-stable scenario reports.

/// A deterministic xorshift64* pseudo-random generator.
///
/// Not cryptographic — it drives *simulation* choices (corruption patterns,
/// plan shuffles), never key material.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates a generator from a seed. A zero seed is remapped to a fixed
    /// non-zero constant (xorshift has a zero fixed point).
    pub fn new(seed: u64) -> Self {
        SimRng {
            state: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A uniform value in `[0, bound)`; returns 0 when `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Multiply-shift mapping: deterministic and unbiased enough for
        // simulation choices.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Fills a buffer with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            for (byte, v) in chunk.iter_mut().zip(self.next_u64().to_le_bytes()) {
                *byte = v;
            }
        }
    }

    /// Derives an independent child generator (for per-scenario streams that
    /// stay stable when the plan is reordered).
    pub fn fork(&self, label: u64) -> SimRng {
        let mut child = SimRng::new(self.state ^ label.wrapping_mul(0xff51_afd7_ed55_8ccd));
        // Decorrelate from the parent state.
        child.next_u64();
        SimRng { state: child.state }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = SimRng::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn next_below_stays_in_bounds() {
        let mut r = SimRng::new(7);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..50 {
                assert!(r.next_below(bound) < bound);
            }
        }
        assert_eq!(r.next_below(0), 0);
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = SimRng::new(9);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|b| *b != 0));
    }

    #[test]
    fn forks_are_stable_and_independent() {
        let parent = SimRng::new(5);
        let mut c1 = parent.fork(1);
        let mut c1b = parent.fork(1);
        let mut c2 = parent.fork(2);
        assert_eq!(c1.next_u64(), c1b.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }
}
