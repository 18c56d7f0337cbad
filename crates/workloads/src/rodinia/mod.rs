//! Rodinia-style GPU benchmark suite (paper Fig. 7).
//!
//! Ten workloads mirroring the Rodinia programs the paper evaluates
//! (§VI-B): backprop, bfs, gaussian, hotspot, kmeans, lud, nn, nw,
//! pathfinder and srad. Each runs a faithful (scaled-down) version of the
//! original algorithm through the [`GpuBackend`] interface — real device
//! data movement, real kernels, and a kernel-launch/memcpy pattern matching
//! the original (e.g. `nw` launches one kernel per anti-diagonal, which is
//! what makes per-call RPC overhead visible; `kmeans` round-trips centroids
//! through the host every iteration).
//!
//! Every workload returns a [`RodiniaRun`] with the simulated time and a
//! checksum validated against a CPU reference in its unit tests.

pub mod backprop;
pub mod bfs;
pub mod gaussian;
pub mod hotspot;
pub mod kmeans;
pub mod lud;
pub mod nn;
pub mod nw;
pub mod pathfinder;
pub mod srad;

use cronus_sim::SimNs;

use crate::backend::{BackendError, GpuBackend};

/// The result of one workload run.
#[derive(Clone, Debug, PartialEq)]
pub struct RodiniaRun {
    /// Workload name.
    pub name: &'static str,
    /// Simulated wall time of the run (caller clock delta).
    pub sim_time: SimNs,
    /// An output checksum for correctness comparison across systems.
    pub checksum: f64,
}

/// A workload entry point: `(backend, scale) -> run`.
pub type WorkloadFn = fn(&mut dyn GpuBackend, usize) -> Result<RodiniaRun, BackendError>;

/// The full suite in Fig. 7 order.
pub fn suite() -> Vec<(&'static str, WorkloadFn)> {
    vec![
        ("backprop", backprop::run as WorkloadFn),
        ("bfs", bfs::run as WorkloadFn),
        ("gaussian", gaussian::run as WorkloadFn),
        ("hotspot", hotspot::run as WorkloadFn),
        ("kmeans", kmeans::run as WorkloadFn),
        ("lud", lud::run as WorkloadFn),
        ("nn", nn::run as WorkloadFn),
        ("nw", nw::run as WorkloadFn),
        ("pathfinder", pathfinder::run as WorkloadFn),
        ("srad", srad::run as WorkloadFn),
    ]
}

/// Deterministic pseudo-random f32 stream used by all workloads so every
/// system computes on identical inputs.
pub(crate) fn det_f32s(seed: u64, count: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..count)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

/// Deterministic pseudo-random u32 stream.
pub(crate) fn det_u32s(seed: u64, count: usize, modulo: u32) -> Vec<u32> {
    let mut state = seed.wrapping_mul(0xD134_2543_DE82_EF95) | 1;
    (0..count)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 33) as u32 % modulo.max(1)
        })
        .collect()
}

/// Packs u32s into bytes (device buffers are untyped).
pub(crate) fn u32s_to_bytes(v: &[u32]) -> Vec<u8> {
    let mut bytes = vec![0u8; v.len() * 4];
    for (chunk, x) in bytes.chunks_exact_mut(4).zip(v) {
        chunk.copy_from_slice(&x.to_le_bytes());
    }
    bytes
}

/// Unpacks bytes into u32s.
pub(crate) fn bytes_to_u32s(b: &[u8]) -> Vec<u32> {
    b.chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::cronus_backend_fixture;

    #[test]
    fn deterministic_streams() {
        assert_eq!(det_f32s(1, 8), det_f32s(1, 8));
        assert_ne!(det_f32s(1, 8), det_f32s(2, 8));
        let ints = det_u32s(3, 100, 10);
        assert!(ints.iter().all(|v| *v < 10));
        assert_eq!(bytes_to_u32s(&u32s_to_bytes(&ints)), ints);
    }

    #[test]
    fn whole_suite_runs_on_cronus() {
        cronus_backend_fixture(|backend| {
            for (name, f) in suite() {
                let run = f(backend, 1).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(run.name, name);
                assert!(run.sim_time > SimNs::ZERO, "{name} consumed time");
                assert!(run.checksum.is_finite(), "{name} checksum finite");
            }
        });
    }
}
