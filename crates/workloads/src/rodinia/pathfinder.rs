//! Rodinia `pathfinder`: dynamic programming over a grid, one kernel per
//! row, finding the cheapest bottom-to-top path.

use std::sync::Arc;

use cronus_devices::gpu::{GpuError, GpuKernelDesc, KernelArg};

use crate::backend::{d2h_f32, h2d_f32, Arg, BackendError, GpuBackend};
use crate::kernels::{area, len_of};
use crate::rodinia::{det_u32s, RodiniaRun};

/// Deterministic cost grid (`rows x cols`).
pub fn build_grid(rows: usize, cols: usize) -> Vec<f32> {
    det_u32s(81, rows * cols, 10)
        .iter()
        .map(|v| *v as f32)
        .collect()
}

/// CPU reference: min-cost values after processing all rows.
pub fn reference_result(rows: usize, cols: usize) -> Vec<f32> {
    let grid = build_grid(rows, cols);
    let mut cur = grid[..cols].to_vec();
    for r in 1..rows {
        let mut next = vec![0.0f32; cols];
        for c in 0..cols {
            let mut best = cur[c];
            if c > 0 {
                best = best.min(cur[c - 1]);
            }
            if c + 1 < cols {
                best = best.min(cur[c + 1]);
            }
            next[c] = grid[r * cols + c] + best;
        }
        cur = next;
    }
    cur
}

/// `pathfinder_row(grid, cur, next, cols, row)` kernel.
pub fn row_kernel() -> cronus_devices::gpu::KernelFn {
    Arc::new(|mem, args| {
        let (g_b, cur_b, next_b, cols, row) = match args {
            [KernelArg::Buffer(g), KernelArg::Buffer(c), KernelArg::Buffer(n), KernelArg::Int(cols), KernelArg::Int(row)] => {
                (*g, *c, *n, len_of(*cols)?, len_of(*row)?)
            }
            _ => {
                return Err(GpuError::BadArg(
                    "pathfinder_row(g, cur, next, cols, row)".into(),
                ))
            }
        };
        let row_start = area(row, cols)?;
        mem.lend(&[next_b], &[g_b, cur_b], &mut |outs, ins| {
            let grid_row = ins[0].slice(row_start, cols)?;
            let cur = ins[1].slice(0, cols)?;
            let mut next = outs[0].slice_mut(0, cols)?;
            for c in 0..cols {
                let mut best = cur.f32(c)?;
                if c > 0 {
                    best = best.min(cur.f32(c - 1)?);
                }
                if c + 1 < cols {
                    best = best.min(cur.f32(c + 1)?);
                }
                next.set_f32(c, grid_row.f32(c)? + best)?;
            }
            Ok(())
        })
    })
}

/// The checksum [`run`] at `scale` must produce, computed on the CPU alone.
pub fn reference_checksum(scale: usize) -> f64 {
    reference_result(8 * scale.max(1), 64 * scale.max(1))
        .iter()
        .map(|v| *v as f64)
        .sum()
}

/// Runs pathfinder at `scale` (grid = (8*scale) rows x (64*scale) cols).
///
/// # Errors
///
/// Backend failures.
pub fn run(backend: &mut dyn GpuBackend, scale: usize) -> Result<RodiniaRun, BackendError> {
    let rows = 8 * scale.max(1);
    let cols = 64 * scale.max(1);
    let grid = build_grid(rows, cols);

    backend.register_kernel("pathfinder_row", row_kernel())?;
    let start = backend.elapsed();

    let d_g = backend.alloc((rows * cols * 4) as u64)?;
    let d_a = backend.alloc((cols * 4) as u64)?;
    let d_b = backend.alloc((cols * 4) as u64)?;
    h2d_f32(backend, d_g, &grid)?;
    h2d_f32(backend, d_a, &grid[..cols])?;

    let (mut cur, mut next) = (d_a, d_b);
    for r in 1..rows {
        backend.launch(
            "pathfinder_row",
            &[
                Arg::Ptr(d_g),
                Arg::Ptr(cur),
                Arg::Ptr(next),
                Arg::Int(cols as i64),
                Arg::Int(r as i64),
            ],
            GpuKernelDesc {
                flops: 4.0 * cols as f64,
                mem_bytes: 12.0 * cols as f64,
                sm_demand: ((cols / 128) as u32).clamp(1, 46),
            },
        )?;
        std::mem::swap(&mut cur, &mut next);
    }
    backend.sync()?;
    let result = d2h_f32(backend, cur, cols)?;
    for ptr in [d_g, d_a, d_b] {
        backend.free(ptr)?;
    }
    backend.sync()?;

    let checksum = result.iter().map(|v| *v as f64).sum();
    Ok(RodiniaRun {
        name: "pathfinder",
        sim_time: backend.elapsed() - start,
        checksum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::cronus_backend_fixture;

    #[test]
    fn costs_match_cpu_reference() {
        cronus_backend_fixture(|backend| {
            let result = run(backend, 1).unwrap();
            assert_eq!(result.checksum, reference_checksum(1));
        });
    }

    #[test]
    fn path_costs_stay_in_cost_range() {
        // Cell costs are in [0, 10), so an 8-row best path is below 80.
        for v in reference_result(8, 32) {
            assert!((0.0..80.0).contains(&v), "cost {v} out of range");
        }
    }
}
