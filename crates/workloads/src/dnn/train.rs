//! The training loop (PyTorch-analogue driver).
//!
//! Two entry points:
//!
//! * [`train`] — the Fig. 8 / Fig. 11 measurement loop: per iteration it
//!   uploads a real-size batch, launches one forward kernel per layer,
//!   backward + SGD-update kernels per parameterized layer, and reads the
//!   loss scalar back (the per-iteration synchronization PyTorch's
//!   `loss.item()` causes). Kernel *costs* come from exact per-layer FLOP
//!   accounting; kernel *bodies* are no-ops so multi-GFLOP models stay
//!   cheap to simulate.
//! * [`train_real_mlp`] — a genuinely learning two-layer MLP (real matmul /
//!   relu / SGD kernels on device memory) whose loss provably decreases;
//!   used by tests and the quickstart example to show the stack computes.

use cronus_devices::gpu::{GpuError, GpuKernelDesc, KernelArg, KernelFn};
use cronus_sim::SimNs;

use crate::backend::{d2h_f32, h2d_f32, Arg, BackendError, GpuBackend};
use crate::dnn::data::Dataset;
use crate::dnn::layers::Layer;
use crate::dnn::models::Model;
use crate::kernels::{elementwise_desc, gemm_desc};

/// Kernel body selection for [`train`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrainMode {
    /// No-op kernel bodies with exact cost descriptors (default; scales to
    /// ImageNet-size models).
    CostModel,
}

/// Training configuration.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Batch size.
    pub batch: usize,
    /// Iterations to run.
    pub iterations: usize,
    /// Learning rate (cosmetic in cost-model mode).
    pub lr: f32,
    /// Kernel body mode.
    pub mode: TrainMode,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            batch: 64,
            iterations: 4,
            lr: 0.01,
            mode: TrainMode::CostModel,
        }
    }
}

/// The result of a training run.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainReport {
    /// Model name.
    pub model: &'static str,
    /// System the backend represents.
    pub system: String,
    /// Iterations run.
    pub iterations: usize,
    /// Batch size.
    pub batch: usize,
    /// Total simulated time.
    pub sim_time: SimNs,
}

impl TrainReport {
    /// Simulated time per iteration.
    pub fn time_per_iter(&self) -> SimNs {
        self.sim_time / self.iterations.max(1) as u64
    }

    /// Simulated training throughput in samples per second.
    pub fn samples_per_sec(&self) -> f64 {
        (self.iterations * self.batch) as f64 / self.sim_time.as_secs_f64().max(1e-12)
    }
}

fn layer_desc(layer: &Layer, batch: usize, backward_factor: f64) -> GpuKernelDesc {
    let flops = layer.forward_flops() * batch as f64 * backward_factor;
    let bytes = (layer.activations() as f64 * 4.0 * batch as f64 + layer.params() as f64 * 4.0)
        * backward_factor;
    GpuKernelDesc {
        flops,
        mem_bytes: bytes,
        // One SM per ~1 MFLOP of work: small models (LeNet) occupy a
        // fraction of the machine, which is what makes spatial sharing pay
        // off in Fig. 11a; ImageNet-scale layers saturate all 46 SMs.
        sm_demand: ((flops / 1.0e6) as u32).clamp(1, 46),
    }
}

/// Runs the cost-model training loop.
///
/// # Errors
///
/// Backend failures (including peer-partition failure under CRONUS).
pub fn train(
    backend: &mut dyn GpuBackend,
    model: &Model,
    dataset: &Dataset,
    cfg: TrainConfig,
) -> Result<TrainReport, BackendError> {
    let system = backend.system_name().to_string();
    let start = backend.elapsed();

    // Proxy parameter/gradient buffers (64 floats each) — the update kernels
    // run for real, the *cost* comes from the descriptors.
    let param_layers = model.param_layers();
    let mut weights = Vec::with_capacity(param_layers);
    for _ in 0..param_layers {
        let w = backend.alloc(256)?;
        let g = backend.alloc(256)?;
        h2d_f32(backend, w, &[0.01; 64])?;
        h2d_f32(backend, g, &[0.0; 64])?;
        weights.push((w, g));
    }
    let d_batch = backend.alloc(dataset.batch_bytes(cfg.batch))?;
    let d_loss = backend.alloc(4)?;

    for iter in 0..cfg.iterations {
        // Real-size batch upload.
        let (inputs, _labels) = dataset.synthetic_batch(iter as u64, cfg.batch);
        h2d_f32(backend, d_batch, &inputs)?;

        // Forward: one launch per layer.
        for layer in &model.layers {
            backend.launch(
                "noop",
                &[Arg::Ptr(d_batch)],
                layer_desc(layer, cfg.batch, 1.0),
            )?;
        }
        // Backward: two launches per parameterized layer (dW, dX), one per
        // other layer.
        let mut param_idx = 0usize;
        for layer in model.layers.iter().rev() {
            if layer.params() > 0 {
                let (_, g) = weights[param_idx % param_layers];
                backend.launch("noop", &[Arg::Ptr(g)], layer_desc(layer, cfg.batch, 1.0))?;
                backend.launch(
                    "noop",
                    &[Arg::Ptr(d_batch)],
                    layer_desc(layer, cfg.batch, 1.0),
                )?;
                param_idx += 1;
            } else {
                backend.launch(
                    "noop",
                    &[Arg::Ptr(d_batch)],
                    layer_desc(layer, cfg.batch, 1.0),
                )?;
            }
        }
        // Optimizer step per parameterized layer.
        for (w, g) in &weights {
            backend.launch(
                "sgd_update",
                &[Arg::Ptr(*w), Arg::Ptr(*g), Arg::Float(cfg.lr)],
                elementwise_desc(64),
            )?;
        }
        // loss.item(): the per-iteration synchronization point.
        let _ = backend.d2h(d_loss, 4)?;
    }
    backend.sync()?;
    let sim_time = backend.elapsed() - start;

    for (w, g) in weights {
        backend.free(w)?;
        backend.free(g)?;
    }
    backend.free(d_batch)?;
    backend.free(d_loss)?;
    backend.sync()?;

    Ok(TrainReport {
        model: model.name,
        system,
        iterations: cfg.iterations,
        batch: cfg.batch,
        sim_time,
    })
}

/// The shape of [`train_real_mlp`]'s network: inputs, hidden units, batch.
const IN: usize = 4;
const HIDDEN: usize = 8;
const BATCH: usize = 16;

/// `mlp_backward(x, y, w2, h, pred, err, gw1, gw2)`: the output error and
/// both weight gradients of [`train_real_mlp`]'s network.
pub fn mlp_backward_kernel() -> KernelFn {
    std::sync::Arc::new(|mem, args| {
        let bufs: Vec<_> = args
            .iter()
            .map(|a| match a {
                KernelArg::Buffer(b) => Ok(*b),
                _ => Err(GpuError::BadArg("mlp_backward takes buffers".into())),
            })
            .collect::<Result<_, _>>()?;
        let [x, y, w2, h, pred, err, gw1, gw2] = bufs[..] else {
            return Err(GpuError::BadArg("mlp_backward arity".into()));
        };
        mem.lend(&[err, gw1, gw2], &[x, y, w2, h, pred], &mut |outs, ins| {
            let ([errv, gw1v, gw2v], [xs, ys, w2v, hv, predv]) = (outs, ins) else {
                return Err(GpuError::BadArg("mlp_backward arity".into()));
            };
            let mut errv = errv.slice_mut(0, BATCH)?;
            let mut gw1v = gw1v.slice_mut(0, IN * HIDDEN)?;
            let mut gw2v = gw2v.slice_mut(0, HIDDEN)?;
            gw1v.bytes_mut().fill(0);
            gw2v.bytes_mut().fill(0);
            for b in 0..BATCH {
                let e = 2.0 * (predv.f32(b)? - ys.f32(b)?) / BATCH as f32;
                errv.set_f32(b, e)?;
                for j in 0..HIDDEN {
                    let hbj = hv.f32(b * HIDDEN + j)?;
                    gw2v.set_f32(j, gw2v.f32(j)? + e * hbj)?;
                    // relu'(h) = 1 if h > 0
                    if hbj > 0.0 {
                        let dh = e * w2v.f32(j)?;
                        for i in 0..IN {
                            let g = gw1v.f32(i * HIDDEN + j)? + dh * xs.f32(b * IN + i)?;
                            gw1v.set_f32(i * HIDDEN + j, g)?;
                        }
                    }
                }
            }
            Ok(())
        })
    })
}

/// `mse_loss(pred, y, loss)`: `loss[0]` = the batch's mean squared error.
pub fn mse_loss_kernel() -> KernelFn {
    std::sync::Arc::new(|mem, args| {
        let (pred, y, loss) = match args {
            [KernelArg::Buffer(p), KernelArg::Buffer(y), KernelArg::Buffer(l)] => (*p, *y, *l),
            _ => return Err(GpuError::BadArg("mse_loss(pred, y, loss)".into())),
        };
        mem.lend(&[loss], &[pred, y], &mut |outs, ins| {
            let squares = ins[0]
                .f32s()
                .zip(ins[1].f32s())
                .map(|(a, b)| (a - b) * (a - b));
            outs[0].set_f32(0, squares.sum::<f32>() / BATCH as f32)
        })
    })
}

/// Trains a real two-layer MLP (`y = W2·relu(W1·x)`) on a synthetic
/// regression task with genuine device kernels and returns the loss after
/// each iteration. The loss must decrease — tests assert it.
///
/// # Errors
///
/// Backend failures.
pub fn train_real_mlp(
    backend: &mut dyn GpuBackend,
    iterations: usize,
) -> Result<Vec<f32>, BackendError> {
    let lr = 0.25f32;

    // Deterministic data: y = sum(x) (learnable by a linear net).
    let xs = crate::rodinia::det_f32s(101, BATCH * IN);
    let ys: Vec<f32> = xs.chunks(IN).map(|row| row.iter().sum()).collect();
    let w1_init = crate::rodinia::det_f32s(102, IN * HIDDEN)
        .iter()
        .map(|v| v * 0.5)
        .collect::<Vec<_>>();
    let w2_init = crate::rodinia::det_f32s(103, HIDDEN)
        .iter()
        .map(|v| v * 0.5)
        .collect::<Vec<_>>();

    let d_x = backend.alloc((BATCH * IN * 4) as u64)?;
    let d_y = backend.alloc((BATCH * 4) as u64)?;
    let d_w1 = backend.alloc((IN * HIDDEN * 4) as u64)?;
    let d_w2 = backend.alloc((HIDDEN * 4) as u64)?;
    let d_h = backend.alloc((BATCH * HIDDEN * 4) as u64)?;
    let d_pred = backend.alloc((BATCH * 4) as u64)?;
    let d_err = backend.alloc((BATCH * 4) as u64)?;
    let d_gw2 = backend.alloc((HIDDEN * 4) as u64)?;
    let d_gw1 = backend.alloc((IN * HIDDEN * 4) as u64)?;
    let d_loss = backend.alloc(4)?;
    h2d_f32(backend, d_x, &xs)?;
    h2d_f32(backend, d_y, &ys)?;
    h2d_f32(backend, d_w1, &w1_init)?;
    h2d_f32(backend, d_w2, &w2_init)?;

    // Gradient kernels specific to this MLP.
    backend.register_kernel("mlp_backward", mlp_backward_kernel())?;
    backend.register_kernel("mse_loss", mse_loss_kernel())?;

    let mut losses = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        // h = relu(x W1)  [BATCH x HIDDEN]
        backend.launch(
            "matmul",
            &[
                Arg::Ptr(d_x),
                Arg::Ptr(d_w1),
                Arg::Ptr(d_h),
                Arg::Int(BATCH as i64),
                Arg::Int(HIDDEN as i64),
                Arg::Int(IN as i64),
            ],
            gemm_desc(BATCH, HIDDEN, IN),
        )?;
        backend.launch("relu", &[Arg::Ptr(d_h)], elementwise_desc(BATCH * HIDDEN))?;
        // pred = h W2  [BATCH x 1]
        backend.launch(
            "matmul",
            &[
                Arg::Ptr(d_h),
                Arg::Ptr(d_w2),
                Arg::Ptr(d_pred),
                Arg::Int(BATCH as i64),
                Arg::Int(1),
                Arg::Int(HIDDEN as i64),
            ],
            gemm_desc(BATCH, 1, HIDDEN),
        )?;
        backend.launch(
            "mse_loss",
            &[Arg::Ptr(d_pred), Arg::Ptr(d_y), Arg::Ptr(d_loss)],
            elementwise_desc(BATCH),
        )?;
        backend.launch(
            "mlp_backward",
            &[
                Arg::Ptr(d_x),
                Arg::Ptr(d_y),
                Arg::Ptr(d_w2),
                Arg::Ptr(d_h),
                Arg::Ptr(d_pred),
                Arg::Ptr(d_err),
                Arg::Ptr(d_gw1),
                Arg::Ptr(d_gw2),
            ],
            gemm_desc(BATCH, HIDDEN, IN),
        )?;
        backend.launch(
            "sgd_update",
            &[Arg::Ptr(d_w1), Arg::Ptr(d_gw1), Arg::Float(lr)],
            elementwise_desc(IN * HIDDEN),
        )?;
        backend.launch(
            "sgd_update",
            &[Arg::Ptr(d_w2), Arg::Ptr(d_gw2), Arg::Float(lr)],
            elementwise_desc(HIDDEN),
        )?;
        let loss = d2h_f32(backend, d_loss, 1)?;
        losses.push(loss[0]);
    }
    for ptr in [
        d_x, d_y, d_w1, d_w2, d_h, d_pred, d_err, d_gw1, d_gw2, d_loss,
    ] {
        backend.free(ptr)?;
    }
    backend.sync()?;
    Ok(losses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dnn::models;
    use crate::testutil::cronus_backend_fixture;

    #[test]
    fn lenet_training_produces_time() {
        cronus_backend_fixture(|backend| {
            let report = train(
                backend,
                &models::lenet5(),
                &Dataset::mnist(),
                TrainConfig {
                    iterations: 3,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(report.model, "lenet");
            assert_eq!(report.system, "cronus");
            assert!(report.sim_time > SimNs::ZERO);
            assert!(report.samples_per_sec() > 0.0);
        });
    }

    #[test]
    fn bigger_models_take_longer() {
        cronus_backend_fixture(|backend| {
            let cfg = TrainConfig {
                iterations: 2,
                batch: 16,
                ..Default::default()
            };
            let lenet = train(backend, &models::lenet5(), &Dataset::mnist(), cfg).unwrap();
            let vgg = train(backend, &models::vgg16_cifar(), &Dataset::cifar10(), cfg).unwrap();
            assert!(
                vgg.time_per_iter() > lenet.time_per_iter() * 10,
                "vgg {} vs lenet {}",
                vgg.time_per_iter(),
                lenet.time_per_iter()
            );
        });
    }

    #[test]
    fn real_mlp_learns() {
        cronus_backend_fixture(|backend| {
            let losses = train_real_mlp(backend, 80).unwrap();
            assert_eq!(losses.len(), 80);
            let first = losses[0];
            let last = *losses.last().unwrap();
            assert!(last < first * 0.5, "loss must halve: {first} -> {last}");
            assert!(last.is_finite());
        });
    }
}
