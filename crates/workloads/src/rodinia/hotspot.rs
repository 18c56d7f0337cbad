//! Rodinia `hotspot`: thermal simulation via iterated 5-point stencils,
//! ping-ponging between two device grids (one kernel per timestep).

use crate::backend::{d2h_f32, h2d_f32, Arg, BackendError, GpuBackend};
use crate::kernels::stencil_desc;
use crate::rodinia::{det_f32s, RodiniaRun};

const ALPHA: f32 = 0.06;
const STEPS: usize = 20;

/// Initial temperature grid.
pub fn initial_grid(rows: usize, cols: usize) -> Vec<f32> {
    det_f32s(31, rows * cols)
        .iter()
        .map(|v| 40.0 + v * 10.0)
        .collect()
}

/// CPU reference: the same stencil iterated on the host.
pub fn reference_final(rows: usize, cols: usize, steps: usize) -> Vec<f32> {
    let mut src = initial_grid(rows, cols);
    let mut dst = vec![0.0f32; rows * cols];
    for _ in 0..steps {
        for r in 0..rows {
            for c in 0..cols {
                let idx = r * cols + c;
                let center = src[idx];
                let up = if r > 0 { src[idx - cols] } else { center };
                let down = if r + 1 < rows {
                    src[idx + cols]
                } else {
                    center
                };
                let left = if c > 0 { src[idx - 1] } else { center };
                let right = if c + 1 < cols { src[idx + 1] } else { center };
                dst[idx] = center + ALPHA * (up + down + left + right - 4.0 * center);
            }
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

/// The checksum [`run`] at `scale` must produce, computed on the CPU alone.
pub fn reference_checksum(scale: usize) -> f64 {
    let side = 16 * scale.max(1);
    reference_final(side, side, STEPS)
        .iter()
        .map(|v| *v as f64)
        .sum()
}

/// Runs hotspot at `scale` (grid = (16*scale) x (16*scale), 20 steps).
///
/// # Errors
///
/// Backend failures.
pub fn run(backend: &mut dyn GpuBackend, scale: usize) -> Result<RodiniaRun, BackendError> {
    let rows = 16 * scale.max(1);
    let cols = rows;
    let grid = initial_grid(rows, cols);

    let start = backend.elapsed();
    let d_a = backend.alloc((rows * cols * 4) as u64)?;
    let d_b = backend.alloc((rows * cols * 4) as u64)?;
    h2d_f32(backend, d_a, &grid)?;

    let (mut src, mut dst) = (d_a, d_b);
    for _ in 0..STEPS {
        backend.launch(
            "stencil5",
            &[
                Arg::Ptr(src),
                Arg::Ptr(dst),
                Arg::Int(rows as i64),
                Arg::Int(cols as i64),
                Arg::Float(ALPHA),
            ],
            stencil_desc(rows, cols),
        )?;
        std::mem::swap(&mut src, &mut dst);
    }
    backend.sync()?;
    let out = d2h_f32(backend, src, rows * cols)?;
    backend.free(d_a)?;
    backend.free(d_b)?;
    backend.sync()?;

    let checksum = out.iter().map(|v| *v as f64).sum();
    Ok(RodiniaRun {
        name: "hotspot",
        sim_time: backend.elapsed() - start,
        checksum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::cronus_backend_fixture;

    #[test]
    fn grid_matches_cpu_reference() {
        cronus_backend_fixture(|backend| {
            let result = run(backend, 1).unwrap();
            let reference = reference_checksum(1);
            assert!(
                (result.checksum - reference).abs() / reference.abs() < 1e-5,
                "{} vs {}",
                result.checksum,
                reference
            );
        });
    }

    #[test]
    fn heat_is_conserved_in_interior() {
        // With reflective borders the stencil conserves total heat closely.
        let before: f64 = initial_grid(8, 8).iter().map(|v| *v as f64).sum();
        let after: f64 = reference_final(8, 8, 50).iter().map(|v| *v as f64).sum();
        assert!((before - after).abs() / before < 0.01);
    }
}
