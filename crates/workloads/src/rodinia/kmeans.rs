//! Rodinia `kmeans`: iterative clustering with a device-side assignment
//! kernel and a host-side centroid update — the original round-trips the
//! membership array through the host every iteration, which is exactly the
//! memcpy-heavy pattern that punishes lock-step RPC systems.

use std::sync::Arc;

use cronus_devices::gpu::{GpuError, GpuKernelDesc, KernelArg};

use crate::backend::{h2d_f32, Arg, BackendError, GpuBackend};
use crate::kernels::{area, len_of};
use crate::rodinia::{bytes_to_u32s, det_f32s, RodiniaRun};

const DIMS: usize = 4;
const K: usize = 5;
const ITERS: usize = 8;

/// Deterministic point cloud.
pub fn build_points(n: usize) -> Vec<f32> {
    det_f32s(41, n * DIMS).iter().map(|v| v * 10.0).collect()
}

fn initial_centroids(points: &[f32]) -> Vec<f32> {
    points[..K * DIMS].to_vec()
}

/// The centroid nearest to `point` (the first of equals).
fn nearest(point: &[f32; DIMS], centroids: &[f32; K * DIMS]) -> u32 {
    let mut best = 0u32;
    let mut best_d = f32::INFINITY;
    for c in 0..K {
        let mut d = 0.0f32;
        for j in 0..DIMS {
            let diff = point[j] - centroids[c * DIMS + j];
            d += diff * diff;
        }
        if d < best_d {
            best_d = d;
            best = c as u32;
        }
    }
    best
}

fn assign_cpu(points: &[f32], centroids: &[f32], n: usize) -> Vec<u32> {
    let centroids = centroids[..K * DIMS].try_into().expect("K centroids");
    points[..n * DIMS]
        .chunks_exact(DIMS)
        .map(|p| nearest(p.try_into().expect("one point"), centroids))
        .collect()
}

fn update_centroids(points: &[f32], membership: &[u32], n: usize) -> Vec<f32> {
    let mut sums = vec![0.0f32; K * DIMS];
    let mut counts = [0u32; K];
    for i in 0..n {
        let c = membership[i] as usize;
        counts[c] += 1;
        for j in 0..DIMS {
            sums[c * DIMS + j] += points[i * DIMS + j];
        }
    }
    for c in 0..K {
        if counts[c] > 0 {
            for j in 0..DIMS {
                sums[c * DIMS + j] /= counts[c] as f32;
            }
        }
    }
    sums
}

/// CPU reference clustering.
pub fn reference_membership(n: usize, iters: usize) -> Vec<u32> {
    let points = build_points(n);
    let mut centroids = initial_centroids(&points);
    let mut membership = vec![0u32; n];
    for _ in 0..iters {
        membership = assign_cpu(&points, &centroids, n);
        centroids = update_centroids(&points, &membership, n);
    }
    membership
}

/// `kmeans_assign(points, centroids, membership, n)` device kernel.
pub fn assign_kernel() -> cronus_devices::gpu::KernelFn {
    Arc::new(|mem, args| {
        let (p_b, c_b, m_b, n) = match args {
            [KernelArg::Buffer(p), KernelArg::Buffer(c), KernelArg::Buffer(m), KernelArg::Int(n)] => {
                (*p, *c, *m, len_of(*n)?)
            }
            _ => return Err(GpuError::BadArg("kmeans_assign(p, c, m, n)".into())),
        };
        let coords = area(n, DIMS)?;
        mem.lend(&[m_b], &[p_b, c_b], &mut |outs, ins| {
            let points = ins[0].slice(0, coords)?;
            let mut centroids = [0.0f32; K * DIMS];
            for (c, v) in centroids.iter_mut().zip(ins[1].slice(0, K * DIMS)?.f32s()) {
                *c = v;
            }
            let mut membership = outs[0].slice_mut(0, n)?;
            let mut point = [0.0f32; DIMS];
            for i in 0..n {
                for (p, v) in point.iter_mut().zip(points.slice(i * DIMS, DIMS)?.f32s()) {
                    *p = v;
                }
                membership.set_u32(i, nearest(&point, &centroids))?;
            }
            Ok(())
        })
    })
}

/// The checksum [`run`] at `scale` must produce, computed on the CPU alone.
pub fn reference_checksum(scale: usize) -> f64 {
    reference_membership(128 * scale.max(1), ITERS)
        .iter()
        .map(|m| *m as f64)
        .sum()
}

/// Runs kmeans at `scale` (points = 128 * scale).
///
/// # Errors
///
/// Backend failures.
pub fn run(backend: &mut dyn GpuBackend, scale: usize) -> Result<RodiniaRun, BackendError> {
    let n = 128 * scale.max(1);
    let points = build_points(n);
    let mut centroids = initial_centroids(&points);

    backend.register_kernel("kmeans_assign", assign_kernel())?;
    let start = backend.elapsed();

    let d_p = backend.alloc((n * DIMS * 4) as u64)?;
    let d_c = backend.alloc((K * DIMS * 4) as u64)?;
    let d_m = backend.alloc((n * 4) as u64)?;
    h2d_f32(backend, d_p, &points)?;

    let mut membership = vec![0u32; n];
    for _ in 0..ITERS {
        h2d_f32(backend, d_c, &centroids)?;
        backend.launch(
            "kmeans_assign",
            &[
                Arg::Ptr(d_p),
                Arg::Ptr(d_c),
                Arg::Ptr(d_m),
                Arg::Int(n as i64),
            ],
            GpuKernelDesc {
                flops: (n * K * DIMS * 3) as f64,
                mem_bytes: (n * DIMS * 4) as f64,
                sm_demand: ((n / 256) as u32).clamp(1, 46),
            },
        )?;
        // Host-side centroid update, as in the original.
        membership = bytes_to_u32s(&backend.d2h(d_m, (n * 4) as u64)?);
        centroids = update_centroids(&points, &membership, n);
    }
    for ptr in [d_p, d_c, d_m] {
        backend.free(ptr)?;
    }
    backend.sync()?;

    let checksum = membership.iter().map(|m| *m as f64).sum();
    Ok(RodiniaRun {
        name: "kmeans",
        sim_time: backend.elapsed() - start,
        checksum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::cronus_backend_fixture;

    #[test]
    fn membership_matches_cpu_reference() {
        cronus_backend_fixture(|backend| {
            let result = run(backend, 1).unwrap();
            assert_eq!(result.checksum, reference_checksum(1));
        });
    }

    #[test]
    fn clustering_uses_multiple_clusters() {
        let membership = reference_membership(128, ITERS);
        let mut used = [false; K];
        for m in membership {
            used[m as usize] = true;
        }
        assert!(used.iter().filter(|u| **u).count() >= 2);
    }
}
