//! Rodinia `nn`: k-nearest-neighbors. Distances are computed on the device
//! in one kernel; the top-k selection happens on the host after a copy-back,
//! matching the original's structure.

use std::sync::Arc;

use cronus_devices::gpu::{GpuError, GpuKernelDesc, KernelArg};

use crate::backend::{d2h_f32, h2d_f32, Arg, BackendError, GpuBackend};
use crate::kernels::{area, len_of};
use crate::rodinia::{det_f32s, RodiniaRun};

const TOP_K: usize = 5;

/// Deterministic 2-D record set (lat/long pairs, like the original's
/// hurricane data).
pub fn build_records(n: usize) -> Vec<f32> {
    det_f32s(61, n * 2).iter().map(|v| v * 180.0).collect()
}

/// Query point.
pub const QUERY: (f32, f32) = (30.0, -90.0);

/// CPU reference distances.
pub fn reference_distances(records: &[f32]) -> Vec<f32> {
    records
        .chunks_exact(2)
        .map(|p| {
            let dx = p[0] - QUERY.0;
            let dy = p[1] - QUERY.1;
            (dx * dx + dy * dy).sqrt()
        })
        .collect()
}

/// Smallest `k` distances, sorted.
pub fn top_k(distances: &[f32], k: usize) -> Vec<f32> {
    let mut d = distances.to_vec();
    d.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
    d.truncate(k);
    d
}

/// `nn_distance(records, out, n, qx, qy)` device kernel.
pub fn distance_kernel() -> cronus_devices::gpu::KernelFn {
    Arc::new(|mem, args| {
        let (r_b, o_b, n, qx, qy) = match args {
            [KernelArg::Buffer(r), KernelArg::Buffer(o), KernelArg::Int(n), KernelArg::Float(qx), KernelArg::Float(qy)] => {
                (*r, *o, len_of(*n)?, *qx, *qy)
            }
            _ => return Err(GpuError::BadArg("nn_distance(r, o, n, qx, qy)".into())),
        };
        let coords = area(n, 2)?;
        mem.lend(&[o_b], &[r_b], &mut |outs, ins| {
            let records = ins[0].slice(0, coords)?;
            let mut out = outs[0].slice_mut(0, n)?;
            for (mut o, i) in out.f32s_mut().zip(0..) {
                let dx = records.f32(i * 2)? - qx;
                let dy = records.f32(i * 2 + 1)? - qy;
                o.set((dx * dx + dy * dy).sqrt());
            }
            Ok(())
        })
    })
}

/// The checksum [`run`] at `scale` must produce, computed on the CPU alone.
pub fn reference_checksum(scale: usize) -> f64 {
    let records = build_records(512 * scale.max(1));
    top_k(&reference_distances(&records), TOP_K)
        .iter()
        .map(|v| *v as f64)
        .sum()
}

/// Runs nn at `scale` (records = 512 * scale).
///
/// # Errors
///
/// Backend failures.
pub fn run(backend: &mut dyn GpuBackend, scale: usize) -> Result<RodiniaRun, BackendError> {
    let n = 512 * scale.max(1);
    let records = build_records(n);

    backend.register_kernel("nn_distance", distance_kernel())?;
    let start = backend.elapsed();

    let d_r = backend.alloc((n * 2 * 4) as u64)?;
    let d_o = backend.alloc((n * 4) as u64)?;
    h2d_f32(backend, d_r, &records)?;
    backend.launch(
        "nn_distance",
        &[
            Arg::Ptr(d_r),
            Arg::Ptr(d_o),
            Arg::Int(n as i64),
            Arg::Float(QUERY.0),
            Arg::Float(QUERY.1),
        ],
        GpuKernelDesc {
            flops: 6.0 * n as f64,
            mem_bytes: 12.0 * n as f64,
            sm_demand: ((n / 1024) as u32).clamp(1, 46),
        },
    )?;
    let distances = d2h_f32(backend, d_o, n)?;
    backend.free(d_r)?;
    backend.free(d_o)?;
    backend.sync()?;

    let nearest = top_k(&distances, TOP_K);
    let checksum = nearest.iter().map(|v| *v as f64).sum();
    Ok(RodiniaRun {
        name: "nn",
        sim_time: backend.elapsed() - start,
        checksum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::cronus_backend_fixture;

    #[test]
    fn nearest_neighbors_match_cpu_reference() {
        cronus_backend_fixture(|backend| {
            let result = run(backend, 1).unwrap();
            let reference = reference_checksum(1);
            assert!((result.checksum - reference).abs() < 1e-3);
        });
    }

    #[test]
    fn top_k_is_sorted_prefix() {
        let d = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(top_k(&d, 3), vec![1.0, 2.0, 3.0]);
    }
}
