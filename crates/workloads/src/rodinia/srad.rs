//! Rodinia `srad`: speckle-reducing anisotropic diffusion. Two kernels per
//! iteration (diffusion-coefficient computation, then the update), as in
//! the original.

use std::sync::Arc;

use cronus_devices::gpu::{GpuError, KernelArg};

use crate::backend::{d2h_f32, h2d_f32, Arg, BackendError, GpuBackend};
use crate::kernels::{area, len_of, neighbours, stencil_desc};
use crate::rodinia::{det_f32s, RodiniaRun};

const LAMBDA: f32 = 0.25;
const ITERS: usize = 6;

/// Initial image (positive intensities).
pub fn initial_image(rows: usize, cols: usize) -> Vec<f32> {
    det_f32s(91, rows * cols)
        .iter()
        .map(|v| 1.0 + (v + 0.5).abs())
        .collect()
}

fn srad_step_cpu(img: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let coef = coefficients(img, rows, cols);
    update(img, &coef, rows, cols)
}

/// The 5-point neighbourhood of cell `idx = r * cols + c` of a host image;
/// see [`neighbours`] for the device-memory twin.
fn host_neighbours(img: &[f32], rows: usize, cols: usize, r: usize, c: usize) -> [f32; 5] {
    let idx = r * cols + c;
    let center = img[idx];
    let up = if r > 0 { img[idx - cols] } else { center };
    let down = if r + 1 < rows {
        img[idx + cols]
    } else {
        center
    };
    let left = if c > 0 { img[idx - 1] } else { center };
    let right = if c + 1 < cols { img[idx + 1] } else { center };
    [center, up, down, left, right]
}

/// The diffusion coefficient of one cell.
fn coefficient([center, up, down, left, right]: [f32; 5]) -> f32 {
    let grad = (up - center).abs()
        + (down - center).abs()
        + (left - center).abs()
        + (right - center).abs();
    let q = grad / center.max(1e-6);
    1.0 / (1.0 + q * q)
}

/// One cell's next intensity given its diffusion coefficient.
fn diffused([center, up, down, left, right]: [f32; 5], coef: f32) -> f32 {
    let div = up + down + left + right - 4.0 * center;
    center + LAMBDA * coef * div
}

fn coefficients(img: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut coef = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            coef[r * cols + c] = coefficient(host_neighbours(img, rows, cols, r, c));
        }
    }
    coef
}

fn update(img: &[f32], coef: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            let idx = r * cols + c;
            out[idx] = diffused(host_neighbours(img, rows, cols, r, c), coef[idx]);
        }
    }
    out
}

/// CPU reference image after `iters` iterations.
pub fn reference_final(rows: usize, cols: usize, iters: usize) -> Vec<f32> {
    let mut img = initial_image(rows, cols);
    for _ in 0..iters {
        img = srad_step_cpu(&img, rows, cols);
    }
    img
}

/// `srad_coef(img, coef, rows, cols)` kernel.
pub fn coef_kernel() -> cronus_devices::gpu::KernelFn {
    Arc::new(|mem, args| {
        let (i_b, c_b, rows, cols) = match args {
            [KernelArg::Buffer(i), KernelArg::Buffer(c), KernelArg::Int(r), KernelArg::Int(cl)] => {
                (*i, *c, len_of(*r)?, len_of(*cl)?)
            }
            _ => return Err(GpuError::BadArg("srad_coef(img, coef, rows, cols)".into())),
        };
        let cells = area(rows, cols)?;
        mem.lend(&[c_b], &[i_b], &mut |outs, ins| {
            let img = ins[0].slice(0, cells)?;
            let mut coef = outs[0].slice_mut(0, cells)?;
            // An empty image has nothing to update, however many rows.
            for r in 0..rows.min(cells) {
                for c in 0..cols {
                    let around = neighbours(img, (rows, cols), (r, c))?;
                    coef.set_f32(r * cols + c, coefficient(around))?;
                }
            }
            Ok(())
        })
    })
}

/// `srad_update(img, coef, out, rows, cols)` kernel.
pub fn update_kernel() -> cronus_devices::gpu::KernelFn {
    Arc::new(|mem, args| {
        let (i_b, c_b, o_b, rows, cols) = match args {
            [KernelArg::Buffer(i), KernelArg::Buffer(c), KernelArg::Buffer(o), KernelArg::Int(r), KernelArg::Int(cl)] => {
                (*i, *c, *o, len_of(*r)?, len_of(*cl)?)
            }
            _ => {
                return Err(GpuError::BadArg(
                    "srad_update(img, coef, out, rows, cols)".into(),
                ))
            }
        };
        let cells = area(rows, cols)?;
        mem.lend(&[o_b], &[i_b, c_b], &mut |outs, ins| {
            let (img, coef) = (ins[0].slice(0, cells)?, ins[1].slice(0, cells)?);
            let mut out = outs[0].slice_mut(0, cells)?;
            // An empty image has nothing to update, however many rows.
            for r in 0..rows.min(cells) {
                for c in 0..cols {
                    let idx = r * cols + c;
                    let around = neighbours(img, (rows, cols), (r, c))?;
                    out.set_f32(idx, diffused(around, coef.f32(idx)?))?;
                }
            }
            Ok(())
        })
    })
}

/// The checksum [`run`] at `scale` must produce, computed on the CPU alone.
pub fn reference_checksum(scale: usize) -> f64 {
    let side = 16 * scale.max(1);
    reference_final(side, side, ITERS)
        .iter()
        .map(|v| *v as f64)
        .sum()
}

/// Runs srad at `scale` (image = (16*scale)^2, 6 iterations).
///
/// # Errors
///
/// Backend failures.
pub fn run(backend: &mut dyn GpuBackend, scale: usize) -> Result<RodiniaRun, BackendError> {
    let rows = 16 * scale.max(1);
    let cols = rows;
    let img = initial_image(rows, cols);

    backend.register_kernel("srad_coef", coef_kernel())?;
    backend.register_kernel("srad_update", update_kernel())?;
    let start = backend.elapsed();

    let d_img = backend.alloc((rows * cols * 4) as u64)?;
    let d_coef = backend.alloc((rows * cols * 4) as u64)?;
    let d_out = backend.alloc((rows * cols * 4) as u64)?;
    h2d_f32(backend, d_img, &img)?;

    let (mut cur, mut next) = (d_img, d_out);
    for _ in 0..ITERS {
        backend.launch(
            "srad_coef",
            &[
                Arg::Ptr(cur),
                Arg::Ptr(d_coef),
                Arg::Int(rows as i64),
                Arg::Int(cols as i64),
            ],
            stencil_desc(rows, cols),
        )?;
        backend.launch(
            "srad_update",
            &[
                Arg::Ptr(cur),
                Arg::Ptr(d_coef),
                Arg::Ptr(next),
                Arg::Int(rows as i64),
                Arg::Int(cols as i64),
            ],
            stencil_desc(rows, cols),
        )?;
        std::mem::swap(&mut cur, &mut next);
    }
    backend.sync()?;
    let out = d2h_f32(backend, cur, rows * cols)?;
    for ptr in [d_img, d_coef, d_out] {
        backend.free(ptr)?;
    }
    backend.sync()?;

    let checksum = out.iter().map(|v| *v as f64).sum();
    Ok(RodiniaRun {
        name: "srad",
        sim_time: backend.elapsed() - start,
        checksum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::cronus_backend_fixture;

    #[test]
    fn image_matches_cpu_reference() {
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
    fn diffusion_smooths_the_image() {
        let rows = 12;
        let before = initial_image(rows, rows);
        let after = reference_final(rows, rows, 20);
        let var = |img: &[f32]| {
            let mean: f32 = img.iter().sum::<f32>() / img.len() as f32;
            img.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / img.len() as f32
        };
        assert!(var(&after) < var(&before), "diffusion reduces variance");
    }
}
