//! Order statistics for the report: quartiles the way Python's
//! `statistics.quantiles(values, n=4)` gives them (so the numbers printed
//! here and the spreads the driver computes agree), and a tail percentile
//! that refuses to report a percentile with fewer than ten samples beyond it.

/// First quartile, median and third quartile (exclusive method).
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// The median; a single value is its own median.
pub fn median(values: &[f64]) -> f64 {
    match values {
        [] => panic!("median of nothing"),
        [one] => *one,
        _ => quartiles(values)[1],
    }
}

/// Interquartile range as a share of the median, in percent.
pub fn spread_pct(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, med, q3] = quartiles(values);
    100.0 * (q3 - q1) / med
}

/// Samples a percentile needs beyond it before it is reported.
pub const TAIL_GUARD: usize = 10;

/// The percentiles a tail may degrade through when samples run short.
const LADDER: [u32; 4] = [99, 95, 90, 50];

/// A tail statistic: which percentile could be supported, and its value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tail {
    /// The percentile actually reported (99, 95, 90 or 50).
    pub pct: u32,
    /// Nearest-rank value at that percentile.
    pub value: u64,
}

/// Nearest-rank index of percentile `pct` among `n` sorted samples.
fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).max(1)
}

/// The highest percentile of the ladder that still has [`TAIL_GUARD`]
/// samples beyond it, or `None` with fewer than twenty samples.
pub fn tail(samples: &mut [u64]) -> Option<Tail> {
    samples.sort_unstable();
    let n = samples.len();
    LADDER
        .into_iter()
        .find(|&pct| n >= rank(n, pct) + TAIL_GUARD)
        .map(|pct| Tail {
            pct,
            value: samples[rank(n, pct) - 1],
        })
}

/// Nearest-rank median of integer samples; `None` of none.
pub fn median_u64(samples: &mut [u64]) -> Option<u64> {
    samples.sort_unstable();
    samples.get(rank(samples.len(), 50) - 1).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let mut s: Vec<u64> = (1..=1000).collect();
        assert_eq!(
            tail(&mut s),
            Some(Tail {
                pct: 99,
                value: 990
            })
        );
        // 999 samples: rank(99) = 990, only nine beyond, so p95 it is.
        let mut s: Vec<u64> = (1..=999).collect();
        assert_eq!(tail(&mut s).map(|t| t.pct), Some(95));
        let mut s: Vec<u64> = (1..=199).collect();
        assert_eq!(tail(&mut s).map(|t| t.pct), Some(90));
        let mut s: Vec<u64> = (1..=20).collect();
        assert_eq!(tail(&mut s), Some(Tail { pct: 50, value: 10 }));
        let mut s: Vec<u64> = (1..=19).collect();
        assert_eq!(tail(&mut s), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread_pct(&v) - 100.0).abs() < 1e-9);
        assert_eq!(spread_pct(&[5.0]), 0.0);
    }
}
