//! Rodinia `nw`: Needleman–Wunsch sequence alignment.
//!
//! The DP matrix fills along anti-diagonals, one kernel launch per wave —
//! the most launch-intensive workload in the suite (2n-1 launches for an
//! n x n matrix), which is why lock-step RPC systems suffer on it (Fig. 7).

use std::sync::Arc;

use cronus_devices::gpu::{GpuError, GpuKernelDesc, KernelArg};

use crate::backend::{h2d_f32, Arg, BackendError, GpuBackend};
use crate::kernels::{area, len_of};
use crate::rodinia::{det_u32s, RodiniaRun};

const GAP: f32 = -1.0;

/// Deterministic sequences over a 4-letter alphabet.
pub fn build_sequences(n: usize) -> (Vec<u32>, Vec<u32>) {
    (det_u32s(71, n, 4), det_u32s(72, n, 4))
}

fn score(a: u32, b: u32) -> f32 {
    if a == b {
        1.0
    } else {
        -1.0
    }
}

/// CPU reference alignment score (bottom-right DP cell).
pub fn reference_score(n: usize) -> f32 {
    let (s1, s2) = build_sequences(n);
    let w = n + 1;
    let mut dp = vec![0.0f32; w * w];
    for i in 0..w {
        dp[i * w] = i as f32 * GAP;
        dp[i] = i as f32 * GAP;
    }
    for i in 1..w {
        for j in 1..w {
            let diag = dp[(i - 1) * w + (j - 1)] + score(s1[i - 1], s2[j - 1]);
            let up = dp[(i - 1) * w + j] + GAP;
            let left = dp[i * w + (j - 1)] + GAP;
            dp[i * w + j] = diag.max(up).max(left);
        }
    }
    dp[w * w - 1]
}

/// `nw_wave(dp, s1, s2, n, wave)`: fills anti-diagonal `wave`.
pub fn wave_kernel() -> cronus_devices::gpu::KernelFn {
    Arc::new(|mem, args| {
        let (dp_b, s1_b, s2_b, n, wave) = match args {
            [KernelArg::Buffer(dp), KernelArg::Buffer(s1), KernelArg::Buffer(s2), KernelArg::Int(n), KernelArg::Int(w)] => {
                (*dp, *s1, *s2, len_of(*n)?, len_of(*w)?)
            }
            _ => return Err(GpuError::BadArg("nw_wave(dp, s1, s2, n, wave)".into())),
        };
        let w = n + 1;
        let cells = area(w, w)?;
        mem.lend(&[dp_b], &[s1_b, s2_b], &mut |outs, ins| {
            let mut dp = outs[0].slice_mut(0, cells)?;
            // Sequences are u32s packed in f32 buffers' bytes.
            let (s1, s2) = (ins[0].slice(0, n)?, ins[1].slice(0, n)?);
            // Cells (i, j) with i + j == wave + 2, 1 <= i, j <= n.
            for i in 1..=n {
                let j = (wave + 2).checked_sub(i);
                let Some(j) = j else { continue };
                if j < 1 || j > n {
                    continue;
                }
                let diag = dp.f32((i - 1) * w + (j - 1))? + score(s1.u32(i - 1)?, s2.u32(j - 1)?);
                let up = dp.f32((i - 1) * w + j)? + GAP;
                let left = dp.f32(i * w + (j - 1))? + GAP;
                dp.set_f32(i * w + j, diag.max(up).max(left))?;
            }
            Ok(())
        })
    })
}

/// The checksum [`run`] at `scale` must produce, computed on the CPU alone.
pub fn reference_checksum(scale: usize) -> f64 {
    reference_score(32 * scale.max(1)) as f64
}

/// Runs nw at `scale` (sequence length = 32 * scale).
///
/// # Errors
///
/// Backend failures.
pub fn run(backend: &mut dyn GpuBackend, scale: usize) -> Result<RodiniaRun, BackendError> {
    let n = 32 * scale.max(1);
    let (s1, s2) = build_sequences(n);
    let w = n + 1;

    backend.register_kernel("nw_wave", wave_kernel())?;
    let start = backend.elapsed();

    let d_dp = backend.alloc((w * w * 4) as u64)?;
    let d_s1 = backend.alloc((n * 4) as u64)?;
    let d_s2 = backend.alloc((n * 4) as u64)?;
    let mut dp0 = vec![0.0f32; w * w];
    for i in 0..w {
        dp0[i * w] = i as f32 * GAP;
        dp0[i] = i as f32 * GAP;
    }
    h2d_f32(backend, d_dp, &dp0)?;
    backend.h2d(d_s1, &crate::rodinia::u32s_to_bytes(&s1))?;
    backend.h2d(d_s2, &crate::rodinia::u32s_to_bytes(&s2))?;

    // One launch per anti-diagonal: 2n - 1 launches.
    for wave in 0..(2 * n - 1) {
        let cells = (wave + 1).min(n).min(2 * n - 1 - wave);
        backend.launch(
            "nw_wave",
            &[
                Arg::Ptr(d_dp),
                Arg::Ptr(d_s1),
                Arg::Ptr(d_s2),
                Arg::Int(n as i64),
                Arg::Int(wave as i64),
            ],
            GpuKernelDesc {
                flops: 10.0 * cells as f64,
                mem_bytes: 24.0 * cells as f64,
                sm_demand: ((cells / 64) as u32).clamp(1, 46),
            },
        )?;
    }
    backend.sync()?;
    let dp = crate::backend::d2h_f32(backend, d_dp, w * w)?;
    for ptr in [d_dp, d_s1, d_s2] {
        backend.free(ptr)?;
    }
    backend.sync()?;

    Ok(RodiniaRun {
        name: "nw",
        sim_time: backend.elapsed() - start,
        checksum: dp[w * w - 1] as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::cronus_backend_fixture;

    #[test]
    fn alignment_matches_cpu_reference() {
        cronus_backend_fixture(|backend| {
            let result = run(backend, 1).unwrap();
            assert_eq!(result.checksum, reference_checksum(1));
        });
    }

    #[test]
    fn identical_sequences_align_perfectly() {
        // A sanity check of the scoring scheme itself.
        let n = 8;
        let w = n + 1;
        let s: Vec<u32> = (0..n as u32).map(|i| i % 4).collect();
        let mut dp = vec![0.0f32; w * w];
        for i in 0..w {
            dp[i * w] = i as f32 * GAP;
            dp[i] = i as f32 * GAP;
        }
        for i in 1..=n {
            for j in 1..=n {
                let diag = dp[(i - 1) * w + (j - 1)] + score(s[i - 1], s[j - 1]);
                let up = dp[(i - 1) * w + j] + GAP;
                let left = dp[i * w + (j - 1)] + GAP;
                dp[i * w + j] = diag.max(up).max(left);
            }
        }
        assert_eq!(dp[w * w - 1], n as f32);
    }
}
