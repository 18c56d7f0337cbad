//! `accel_apps`: whole applications on the accelerators.
//!
//! A pass is the ten-program Rodinia suite in a seeded order, a LeNet/MNIST
//! and a ResNet-50/CIFAR training through the CUDA runtime, and tiled int8
//! GEMMs on the NPU. Work per sRPC request is large, so `workloads`, `runtime` (wire
//! encode, memcpy staging), `devices` (kernel bodies, the VTA interpreter,
//! PCIe DMA) and `sim` memory checks dominate and the ring does little. It
//! carries the paper's Fig. 7/8 overhead-versus-native claim: the same GPU
//! work runs once per rep on `native_backend()` and must produce the same
//! checksums.

use std::time::Instant;

use cronus_baselines::direct::native_backend;
use cronus_core::CronusSystem;
use cronus_runtime::{CudaContext, CudaOptions, VtaContext, VtaOptions};
use cronus_spm::spm::BootConfig;
use cronus_workloads::backend::{CronusGpuBackend, GpuBackend};
use cronus_workloads::dnn::models::{lenet5, resnet50_cifar};
use cronus_workloads::dnn::{train, Dataset, Model, TrainConfig};
use cronus_workloads::kernels::register_standard_kernels;
use cronus_workloads::{rodinia, vta_bench};

use super::{cpu_enclave, cpu_partition, gpu_partition, npu_partition, RepFn, RepOutcome};
use crate::rng::Rng;
use crate::timed_backend::TimedBackend;
use crate::trace::{Name, Tracer};

/// Passes per rep at scale 1 (frozen).
pub const PASSES: u64 = 25;
/// Rodinia problem scale.
pub const RODINIA_SCALE: usize = 4;
/// LeNet/MNIST batch-64 iterations per pass are drawn from this range (20 on
/// average); with the suite's order it is what the seed changes.
pub const LENET_ITERS: (u64, u64) = (19, 21);
/// ResNet-50/CIFAR batch-32 iterations per pass.
pub const RESNET_ITERS: usize = 2;
/// NPU GEMMs (dim 64, tile 16) per pass.
pub const GEMMS: usize = 10;

/// The seeded shape of one pass.
#[derive(Clone, Debug)]
struct Pass {
    /// Order in which the ten Rodinia programs run.
    order: Vec<usize>,
    lenet_iters: usize,
}

/// What the GPU part of a pass produced on one backend.
#[derive(Clone, Debug, Default, PartialEq)]
struct GpuResult {
    /// `(program index, checksum bits)` in run order.
    checksums: Vec<(usize, u64)>,
    train_iters: usize,
    /// Summed simulated time of the application runs.
    sim_ns: u64,
    /// Application runs that returned an error.
    failed_runs: u64,
}

struct Models {
    lenet: (Model, Dataset),
    resnet: (Model, Dataset),
}

/// Runs the GPU part of `pass` on `backend`.
fn gpu_pass(
    backend: &mut dyn GpuBackend,
    tracer: &Tracer,
    models: &Models,
    pass: &Pass,
) -> GpuResult {
    let suite = rodinia::suite();
    let mut res = GpuResult::default();
    for &prog in &pass.order {
        let (_, run) = suite[prog];
        match tracer.span(Name::Rodinia, || run(backend, RODINIA_SCALE)) {
            Ok(r) => {
                res.checksums.push((prog, r.checksum.to_bits()));
                res.sim_ns += r.sim_time.as_nanos();
            }
            Err(_) => res.failed_runs += 1,
        }
    }
    for ((model, dataset), batch, iterations) in [
        (&models.lenet, 64, pass.lenet_iters),
        (&models.resnet, 32, RESNET_ITERS),
    ] {
        let cfg = TrainConfig {
            batch,
            iterations,
            ..Default::default()
        };
        match tracer.span(Name::Train, || train(backend, model, dataset, cfg)) {
            Ok(r) => {
                res.train_iters += r.iterations;
                res.sim_ns += r.sim_time.as_nanos();
            }
            Err(_) => res.failed_runs += 1,
        }
    }
    res
}

pub fn prepare(seed: u64, scale_div: u64) -> RepFn {
    let passes = (PASSES / scale_div).max(1);
    let mut rng = Rng::new(seed, 3);
    let plan: Vec<Pass> = (0..passes)
        .map(|_| {
            let mut order: Vec<usize> = (0..rodinia::suite().len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            Pass {
                order,
                lenet_iters: (LENET_ITERS.0 + rng.below(LENET_ITERS.1 - LENET_ITERS.0 + 1))
                    as usize,
            }
        })
        .collect();
    let models = Models {
        lenet: (lenet5(), Dataset::mnist()),
        resnet: (resnet50_cifar(), Dataset::cifar10()),
    };

    Box::new(move |tracer| {
        let mut out = RepOutcome::new(passes);
        let t0 = Instant::now();
        let (sys, streams) = tracer.span(Name::Driver, || {
            let mut sys = tracer.span(Name::CoreBoot, || {
                CronusSystem::boot(BootConfig {
                    partitions: vec![cpu_partition(1), gpu_partition(2), npu_partition(3)],
                    ..Default::default()
                })
            });
            let cpu = tracer.span(Name::CoreCreateEnclave, || cpu_enclave(&mut sys));
            let cuda = tracer
                .span(Name::CudaNew, || {
                    CudaContext::new(&mut sys, cpu, CudaOptions::default())
                })
                .expect("cuda context");
            let mut vta =
                VtaContext::new(&mut sys, cpu, VtaOptions::default()).expect("vta context");
            let streams = [cuda.stream, vta.stream];
            let mut backend = TimedBackend::new(CronusGpuBackend::new(&mut sys, cuda), tracer);
            register_standard_kernels(&mut backend).expect("kernels");

            // The native reference runs the same GPU work once per rep, on
            // the last pass's shape, from a fresh device.
            let mut native = native_backend();
            register_standard_kernels(&mut native).expect("native kernels");

            for (i, pass) in plan.iter().enumerate() {
                tracer.set_op(i);
                let got = gpu_pass(&mut backend, tracer, &models, pass);
                let mut ok = got.failed_runs == 0;
                for _ in 0..GEMMS {
                    let sys = backend.inner_mut().system_mut();
                    ok &= tracer
                        .span(Name::VtaGemm, || vta_bench::run_gemm(sys, &mut vta, 64, 16))
                        .is_ok();
                }
                if i + 1 == plan.len() {
                    let want = tracer.span(Name::NativeRef, || {
                        gpu_pass(&mut native, &Tracer::new(false), &models, pass)
                    });
                    // Same checksums and iteration counts on both systems
                    // (and no failed run on either).
                    ok &= got.checksums == want.checksums
                        && got.train_iters == want.train_iters
                        && want.failed_runs == 0;
                    out.sim.cronus_vs_native_ns = Some((got.sim_ns, want.sim_ns));
                }
                // A pass with any failed run is a failed op.
                out.sim.failed += u64::from(!ok);
            }
            (sys, streams)
        });
        out.host_ns = t0.elapsed().as_nanos() as u64;
        out.close(&sys, &streams, tracer);
        out
    })
}
