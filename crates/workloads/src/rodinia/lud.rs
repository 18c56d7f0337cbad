//! Rodinia `lud`: in-place LU decomposition (Doolittle), one kernel per
//! elimination step, verified by reconstructing `L * U ≈ A`.

use std::sync::Arc;

use cronus_devices::gpu::{GpuError, GpuKernelDesc, KernelArg};

use crate::backend::{d2h_f32, h2d_f32, Arg, BackendError, GpuBackend};
use crate::kernels::{area, len_of};
use crate::rodinia::{det_f32s, RodiniaRun};

/// Builds a diagonally dominant matrix so no pivoting is needed.
pub fn build_matrix(n: usize) -> Vec<f32> {
    let mut a = det_f32s(51, n * n);
    for i in 0..n {
        a[i * n + i] += n as f32 + 1.0;
    }
    a
}

/// CPU reference decomposition (combined LU in one matrix).
pub fn reference_lu(n: usize) -> Vec<f32> {
    let mut a = build_matrix(n);
    for k in 0..n {
        for i in k + 1..n {
            a[i * n + k] /= a[k * n + k];
            for j in k + 1..n {
                a[i * n + j] -= a[i * n + k] * a[k * n + j];
            }
        }
    }
    a
}

/// Reconstructs `L * U` from a packed LU matrix.
pub fn reconstruct(lu: &[f32], n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut sum = 0.0f32;
            let kmax = i.min(j);
            for k in 0..=kmax {
                let l = if k == i {
                    1.0
                } else if k < i {
                    lu[i * n + k]
                } else {
                    0.0
                };
                let u = if k <= j { lu[k * n + j] } else { 0.0 };
                sum += l * u;
            }
            out[i * n + j] = sum;
        }
    }
    out
}

/// `lud_step(a, n, k)`: one elimination step.
pub fn lud_step_kernel() -> cronus_devices::gpu::KernelFn {
    Arc::new(|mem, args| {
        let (a_b, n, k) = match args {
            [KernelArg::Buffer(a), KernelArg::Int(n), KernelArg::Int(k)] => {
                (*a, len_of(*n)?, len_of(*k)?)
            }
            _ => return Err(GpuError::BadArg("lud_step(a, n, k)".into())),
        };
        let cells = area(n, n)?;
        mem.lend(&[a_b], &[], &mut |outs, _| {
            let mut a = outs[0].slice_mut(0, cells)?;
            for i in k + 1..n {
                let l = a.f32(i * n + k)? / a.f32(k * n + k)?;
                a.set_f32(i * n + k, l)?;
                for j in k + 1..n {
                    a.set_f32(i * n + j, a.f32(i * n + j)? - l * a.f32(k * n + j)?)?;
                }
            }
            Ok(())
        })
    })
}

/// The checksum [`run`] at `scale` must produce, computed on the CPU alone.
pub fn reference_checksum(scale: usize) -> f64 {
    reference_lu(16 * scale.max(1))
        .iter()
        .map(|v| *v as f64)
        .sum()
}

/// Runs LUD at `scale` (n = 16 * scale).
///
/// # Errors
///
/// Backend failures.
pub fn run(backend: &mut dyn GpuBackend, scale: usize) -> Result<RodiniaRun, BackendError> {
    let n = 16 * scale.max(1);
    let a = build_matrix(n);

    backend.register_kernel("lud_step", lud_step_kernel())?;
    let start = backend.elapsed();

    let d_a = backend.alloc((n * n * 4) as u64)?;
    h2d_f32(backend, d_a, &a)?;
    for k in 0..n {
        let rem = n - k;
        backend.launch(
            "lud_step",
            &[Arg::Ptr(d_a), Arg::Int(n as i64), Arg::Int(k as i64)],
            GpuKernelDesc {
                flops: 2.0 * (rem * rem) as f64,
                mem_bytes: 8.0 * (rem * rem) as f64,
                sm_demand: ((rem * rem / 1024) as u32).clamp(1, 46),
            },
        )?;
    }
    backend.sync()?;
    let lu = d2h_f32(backend, d_a, n * n)?;
    backend.free(d_a)?;
    backend.sync()?;

    let checksum = lu.iter().map(|v| *v as f64).sum();
    Ok(RodiniaRun {
        name: "lud",
        sim_time: backend.elapsed() - start,
        checksum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::cronus_backend_fixture;

    #[test]
    fn decomposition_matches_cpu_reference() {
        cronus_backend_fixture(|backend| {
            let result = run(backend, 1).unwrap();
            let reference = reference_checksum(1);
            assert!(
                (result.checksum - reference).abs() < 1e-2,
                "{} vs {}",
                result.checksum,
                reference
            );
        });
    }

    #[test]
    fn lu_reconstructs_original() {
        let n = 8;
        let a = build_matrix(n);
        let lu = reference_lu(n);
        let back = reconstruct(&lu, n);
        for i in 0..n * n {
            assert!(
                (a[i] - back[i]).abs() < 1e-3,
                "element {i}: {} vs {}",
                a[i],
                back[i]
            );
        }
    }
}
