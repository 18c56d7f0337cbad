//! Rodinia `gaussian`: Gaussian elimination.
//!
//! The original launches two kernels per column (`Fan1` computes the
//! multiplier column, `Fan2` updates the trailing submatrix); we preserve
//! that two-launches-per-step pattern, then back-substitute on the host.

use std::sync::Arc;

use cronus_devices::gpu::{GpuError, GpuKernelDesc, KernelArg};

use crate::backend::{d2h_f32, h2d_f32, Arg, BackendError, GpuBackend};
use crate::kernels::{area, len_of};
use crate::rodinia::{det_f32s, RodiniaRun};

/// Builds a well-conditioned `n x n` system `(A, b)`.
pub fn build_system(n: usize) -> (Vec<f32>, Vec<f32>) {
    let mut a = det_f32s(21, n * n);
    // Diagonal dominance for numeric stability.
    for i in 0..n {
        a[i * n + i] += n as f32;
    }
    let b = det_f32s(22, n);
    (a, b)
}

/// CPU reference solution via the same elimination.
pub fn reference_solve(n: usize) -> Vec<f32> {
    let (mut a, mut b) = build_system(n);
    for k in 0..n - 1 {
        for i in k + 1..n {
            let m = a[i * n + k] / a[k * n + k];
            for j in k..n {
                a[i * n + j] -= m * a[k * n + j];
            }
            b[i] -= m * b[k];
        }
    }
    back_substitute(&a, &b, n)
}

fn back_substitute(a: &[f32], b: &[f32], n: usize) -> Vec<f32> {
    let mut x = vec![0.0f32; n];
    for i in (0..n).rev() {
        let mut sum = b[i];
        for j in i + 1..n {
            sum -= a[i * n + j] * x[j];
        }
        x[i] = sum / a[i * n + i];
    }
    x
}

/// `fan1(a, m, n, k)`: multipliers `m[i] = a[i][k] / a[k][k]` for `i > k`.
pub fn fan1_kernel() -> cronus_devices::gpu::KernelFn {
    Arc::new(|mem, args| {
        let (a_b, m_b, n, k) = match args {
            [KernelArg::Buffer(a), KernelArg::Buffer(m), KernelArg::Int(n), KernelArg::Int(k)] => {
                (*a, *m, len_of(*n)?, len_of(*k)?)
            }
            _ => return Err(GpuError::BadArg("fan1(a, m, n, k)".into())),
        };
        let cells = area(n, n)?;
        mem.lend(&[m_b], &[a_b], &mut |outs, ins| {
            let a = ins[0].slice(0, cells)?;
            let mut mul = outs[0].slice_mut(0, n)?;
            for i in k + 1..n {
                mul.set_f32(i, a.f32(i * n + k)? / a.f32(k * n + k)?)?;
            }
            Ok(())
        })
    })
}

/// `fan2(a, b, m, n, k)`: trailing update of `A` and `b`.
pub fn fan2_kernel() -> cronus_devices::gpu::KernelFn {
    Arc::new(|mem, args| {
        let (a_b, b_b, m_b, n, k) = match args {
            [KernelArg::Buffer(a), KernelArg::Buffer(b), KernelArg::Buffer(m), KernelArg::Int(n), KernelArg::Int(k)] => {
                (*a, *b, *m, len_of(*n)?, len_of(*k)?)
            }
            _ => return Err(GpuError::BadArg("fan2(a, b, m, n, k)".into())),
        };
        let cells = area(n, n)?;
        mem.lend(&[a_b, b_b], &[m_b], &mut |outs, ins| {
            let [a, b] = outs else {
                return Err(GpuError::BadArg("fan2 writes a and b".into()));
            };
            let (mut a, mut b) = (a.slice_mut(0, cells)?, b.slice_mut(0, n)?);
            let mul = ins[0].slice(0, n)?;
            for i in k + 1..n {
                let mi = mul.f32(i)?;
                for j in k..n {
                    a.set_f32(i * n + j, a.f32(i * n + j)? - mi * a.f32(k * n + j)?)?;
                }
                b.set_f32(i, b.f32(i)? - mi * b.f32(k)?)?;
            }
            Ok(())
        })
    })
}

/// The checksum [`run`] at `scale` must produce, computed on the CPU alone.
pub fn reference_checksum(scale: usize) -> f64 {
    reference_solve(16 * scale.max(1))
        .iter()
        .map(|v| *v as f64)
        .sum()
}

/// Runs elimination at `scale` (n = 16 * scale).
///
/// # Errors
///
/// Backend failures.
pub fn run(backend: &mut dyn GpuBackend, scale: usize) -> Result<RodiniaRun, BackendError> {
    let n = 16 * scale.max(1);
    let (a, b) = build_system(n);

    backend.register_kernel("fan1", fan1_kernel())?;
    backend.register_kernel("fan2", fan2_kernel())?;
    let start = backend.elapsed();

    let d_a = backend.alloc((n * n * 4) as u64)?;
    let d_b = backend.alloc((n * 4) as u64)?;
    let d_m = backend.alloc((n * 4) as u64)?;
    h2d_f32(backend, d_a, &a)?;
    h2d_f32(backend, d_b, &b)?;
    h2d_f32(backend, d_m, &vec![0.0; n])?;

    for k in 0..n - 1 {
        let remaining = n - k;
        backend.launch(
            "fan1",
            &[
                Arg::Ptr(d_a),
                Arg::Ptr(d_m),
                Arg::Int(n as i64),
                Arg::Int(k as i64),
            ],
            GpuKernelDesc {
                flops: remaining as f64,
                mem_bytes: 8.0 * remaining as f64,
                sm_demand: 1,
            },
        )?;
        backend.launch(
            "fan2",
            &[
                Arg::Ptr(d_a),
                Arg::Ptr(d_b),
                Arg::Ptr(d_m),
                Arg::Int(n as i64),
                Arg::Int(k as i64),
            ],
            GpuKernelDesc {
                flops: 2.0 * (remaining * remaining) as f64,
                mem_bytes: 12.0 * (remaining * remaining) as f64,
                sm_demand: ((remaining * remaining / 1024) as u32).clamp(1, 46),
            },
        )?;
    }
    backend.sync()?;

    let a_out = d2h_f32(backend, d_a, n * n)?;
    let b_out = d2h_f32(backend, d_b, n)?;
    for ptr in [d_a, d_b, d_m] {
        backend.free(ptr)?;
    }
    backend.sync()?;

    let x = back_substitute(&a_out, &b_out, n);
    let checksum = x.iter().map(|v| *v as f64).sum();
    Ok(RodiniaRun {
        name: "gaussian",
        sim_time: backend.elapsed() - start,
        checksum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::cronus_backend_fixture;

    #[test]
    fn solution_matches_cpu_reference() {
        cronus_backend_fixture(|backend| {
            let result = run(backend, 1).unwrap();
            let reference = reference_checksum(1);
            assert!(
                (result.checksum - reference).abs() < 1e-3,
                "{} vs {}",
                result.checksum,
                reference
            );
        });
    }

    #[test]
    fn reference_solution_satisfies_system() {
        let n = 8;
        let (a, b) = build_system(n);
        let x = reference_solve(n);
        for i in 0..n {
            let mut lhs = 0.0f32;
            for j in 0..n {
                lhs += a[i * n + j] * x[j];
            }
            assert!((lhs - b[i]).abs() < 1e-3, "row {i}: {lhs} vs {}", b[i]);
        }
    }
}
