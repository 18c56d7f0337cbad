//! Figure 11: spatial sharing and multi-GPU training.
//!
//! * Fig. 11a — LeNet training with 1/2/4 mEnclaves spatially sharing one
//!   GPU: "we observe up to 63.4% throughput growth with spatial sharing";
//!   at 4 mEnclaves "performance downgrades because of resource
//!   contentions".
//! * Fig. 11b — data-parallel LeNet across multiple GPUs, exchanging
//!   gradients over (i) direct PCIe P2P through trusted shared device
//!   memory, (ii) staging through secure CPU memory, (iii) encrypted
//!   memory. "GPU sharing using the PCIe bus results in the best
//!   performance."

use cronus_core::CronusSystem;
use cronus_obs::{FlightRecorder, Headline};
use cronus_runtime::{CudaContext, CudaOptions};
use cronus_sim::{CostModel, SimNs};
use cronus_workloads::backend::CronusGpuBackend;
use cronus_workloads::dnn::models::lenet5;
use cronus_workloads::dnn::{train, Dataset, TrainConfig};
use cronus_workloads::kernels::register_standard_kernels;

use super::{FigureRun, Params};
use crate::report::{ratio, Table};

/// One Fig. 11a point.
#[derive(Clone, Debug)]
pub struct SharingPoint {
    /// Concurrent mEnclaves on the GPU.
    pub enclaves: usize,
    /// Aggregate training throughput (samples per simulated second).
    pub throughput: f64,
}

/// Runs Fig. 11a: `k` mEnclaves train LeNet concurrently on one GPU.
pub fn run_11a(counts: &[usize]) -> Vec<SharingPoint> {
    run_11a_recorded(counts).0
}

/// [`run_11a`], also returning the flight recorder of the last (most
/// contended) sharing level's system.
pub fn run_11a_recorded(counts: &[usize]) -> (Vec<SharingPoint>, FlightRecorder) {
    let mut recorder = FlightRecorder::new();
    let points = counts
        .iter()
        .map(|&k| {
            let mut sys = CronusSystem::boot(super::standard_boot());
            sys.mark("fig11a:spatial-sharing");
            recorder = sys.recorder();
            // Create all k CUDA mEnclaves first: they spatially share the
            // GPU, so every kernel in the measurement runs under
            // k-tenant contention.
            let mut contexts = Vec::new();
            for _ in 0..k {
                let cpu = super::cpu_enclave(&mut sys);
                let cuda = CudaContext::new(
                    &mut sys,
                    cpu,
                    CudaOptions {
                        memory: 1 << 30,
                        ..Default::default()
                    },
                )
                .expect("cuda ctx");
                contexts.push(cuda);
            }
            let cfg = TrainConfig {
                batch: 64,
                iterations: 4,
                ..Default::default()
            };
            let model = lenet5();
            let dataset = Dataset::mnist();
            let mut worst = SimNs::ZERO;
            for cuda in contexts {
                let mut backend = CronusGpuBackend::new(&mut sys, cuda);
                register_standard_kernels(&mut backend).expect("kernels");
                let report = train(&mut backend, &model, &dataset, cfg).expect("training");
                worst = worst.max(report.sim_time);
            }
            // All k tenants train in parallel wall-clock; aggregate
            // throughput is k runs' samples over the slowest tenant's time.
            let samples = (k * cfg.batch * cfg.iterations) as f64;
            SharingPoint {
                enclaves: k,
                throughput: samples / worst.as_secs_f64().max(1e-12),
            }
        })
        .collect();
    (points, recorder)
}

/// Gradient-exchange path for data-parallel training.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExchangePath {
    /// Direct GPU-to-GPU over PCIe through trusted shared device memory.
    PciP2p,
    /// Staged through secure CPU memory (d2h + h2d).
    SecureMemory,
    /// Staged through untrusted memory with encryption (HIX/Graviton-style).
    EncryptedMemory,
}

impl ExchangePath {
    /// Name used in the figure.
    pub fn name(self) -> &'static str {
        match self {
            ExchangePath::PciP2p => "pcie-p2p",
            ExchangePath::SecureMemory => "secure-memory",
            ExchangePath::EncryptedMemory => "encrypted-memory",
        }
    }

    /// Time to move `bytes` of gradients between two GPUs.
    pub fn transfer_time(self, cm: &CostModel, bytes: u64) -> SimNs {
        match self {
            ExchangePath::PciP2p => cm.pcie_copy(bytes),
            ExchangePath::SecureMemory => cm.pcie_copy(bytes) * 2 + cm.memcpy(bytes),
            ExchangePath::EncryptedMemory => {
                cm.pcie_copy(bytes) * 2 + cm.memcpy(bytes) * 2 + cm.encrypt(bytes) * 2
            }
        }
    }
}

/// One Fig. 11b point.
#[derive(Clone, Debug)]
pub struct MultiGpuPoint {
    /// GPUs used.
    pub gpus: usize,
    /// Exchange path.
    pub path: ExchangePath,
    /// Per-iteration training time.
    pub iter_time: SimNs,
    /// Aggregate throughput (samples per simulated second).
    pub throughput: f64,
}

/// Runs Fig. 11b: data-parallel LeNet on `gpus` GPUs per exchange path.
///
/// The single-GPU iteration time is measured on the real stack; the ring
/// all-reduce cost (2 (k-1)/k of the gradient bytes per step) is computed
/// from the cost model per path.
pub fn run_11b(gpu_counts: &[usize]) -> Vec<MultiGpuPoint> {
    run_11b_recorded(gpu_counts).0
}

/// [`run_11b`], also returning the flight recorder of the single-GPU
/// measurement system (the multi-GPU points are scaled from it).
pub fn run_11b_recorded(gpu_counts: &[usize]) -> (Vec<MultiGpuPoint>, FlightRecorder) {
    // Measure the single-GPU iteration time.
    let mut sys = CronusSystem::boot(super::multi_gpu_boot(1));
    let cpu = super::cpu_enclave(&mut sys);
    let cuda = CudaContext::new(&mut sys, cpu, CudaOptions::default()).expect("cuda ctx");
    sys.mark("fig11b:single-gpu-measure");
    let recorder = sys.recorder();
    let mut backend = CronusGpuBackend::new(&mut sys, cuda);
    register_standard_kernels(&mut backend).expect("kernels");
    let cfg = TrainConfig {
        batch: 64,
        iterations: 4,
        ..Default::default()
    };
    let model = lenet5();
    let report = train(&mut backend, &model, &Dataset::mnist(), cfg).expect("training");
    let compute_iter = report.time_per_iter();
    let grad_bytes = model.params() * 4;
    let cm = CostModel::default();

    let mut points = Vec::new();
    for &k in gpu_counts {
        for path in [
            ExchangePath::PciP2p,
            ExchangePath::SecureMemory,
            ExchangePath::EncryptedMemory,
        ] {
            let allreduce = if k > 1 {
                // Ring all-reduce: each GPU sends 2(k-1)/k of the gradients.
                path.transfer_time(&cm, grad_bytes * 2 * (k as u64 - 1) / k as u64)
            } else {
                SimNs::ZERO
            };
            let iter_time = compute_iter + allreduce;
            let throughput = (k * cfg.batch) as f64 / iter_time.as_secs_f64().max(1e-12);
            points.push(MultiGpuPoint {
                gpus: k,
                path,
                iter_time,
                throughput,
            });
        }
    }
    (points, recorder)
}

/// Renders Fig. 11a.
pub fn print_11a(points: &[SharingPoint]) -> String {
    let base = points.first().map(|p| p.throughput).unwrap_or(1.0);
    let mut t = Table::new(
        "Figure 11a: LeNet training throughput, k mEnclaves sharing one GPU",
        &["mEnclaves", "samples/s (sim)", "speedup vs dedicated"],
    );
    for p in points {
        t.row(&[
            p.enclaves.to_string(),
            format!("{:.0}", p.throughput),
            ratio(p.throughput / base),
        ]);
    }
    let mut out = t.render();
    out.push_str(
        "temporal-sharing baseline (dedicated accelerator per tenant, tasks take turns): 1.000x at every k\n",
    );
    out
}

/// Renders Fig. 11b.
pub fn print_11b(points: &[MultiGpuPoint]) -> String {
    let mut t = Table::new(
        "Figure 11b: data-parallel LeNet across GPUs",
        &["gpus", "path", "iter time", "samples/s (sim)"],
    );
    for p in points {
        t.row(&[
            p.gpus.to_string(),
            p.path.name().to_string(),
            p.iter_time.to_string(),
            format!("{:.0}", p.throughput),
        ]);
    }
    t.render()
}

/// Headline metrics for Fig. 11a: single-tenant throughput and aggregate
/// throughput at the highest sharing level.
pub fn headlines_11a(points: &[SharingPoint]) -> Vec<Headline> {
    let mut out = Vec::new();
    if let Some(first) = points.first() {
        out.push(Headline::higher(
            "dedicated_samples_per_s",
            first.throughput,
            "samples/s",
        ));
    }
    if let Some(last) = points.last() {
        out.push(Headline::higher(
            format!("shared_{}x_samples_per_s", last.enclaves),
            last.throughput,
            "samples/s",
        ));
    }
    out
}

/// Headline metrics for Fig. 11b: throughput per exchange path at the
/// highest GPU count.
pub fn headlines_11b(points: &[MultiGpuPoint]) -> Vec<Headline> {
    let max_gpus = points.iter().map(|p| p.gpus).max().unwrap_or(0);
    points
        .iter()
        .filter(|p| p.gpus == max_gpus)
        .map(|p| {
            Headline::higher(
                format!(
                    "{}_{}gpu_samples_per_s",
                    p.path.name().replace('-', "_"),
                    p.gpus
                ),
                p.throughput,
                "samples/s",
            )
        })
        .collect()
}

/// The sharing levels (Fig. 11a) or GPU counts (Fig. 11b) up to `max`.
fn counts_up_to(max: u64) -> Vec<usize> {
    [1, 2, 4].into_iter().filter(|&k| k as u64 <= max).collect()
}

/// Fig. 11a's table row entry point: `size` is the highest sharing level.
pub fn figure_11a(p: Params) -> FigureRun {
    let (points, recorder) = run_11a_recorded(&counts_up_to(p.size));
    FigureRun {
        text: print_11a(&points),
        headlines: headlines_11a(&points),
        meta: Vec::new(),
        recorder,
    }
}

/// Fig. 11b's table row entry point: `size` is the highest GPU count.
pub fn figure_11b(p: Params) -> FigureRun {
    let (points, recorder) = run_11b_recorded(&counts_up_to(p.size));
    FigureRun {
        text: print_11b(&points),
        headlines: headlines_11b(&points),
        meta: Vec::new(),
        recorder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11a_shape_holds() {
        let points = run_11a(&[1, 2, 4]);
        let t1 = points[0].throughput;
        let t2 = points[1].throughput;
        let t4 = points[2].throughput;
        // Spatial sharing pays off at 2 tenants (paper: up to 63.4%).
        assert!(t2 > t1 * 1.3, "2 tenants: {t2:.0} vs {t1:.0}");
        // Contention bites at 4: sub-linear relative to 2.
        assert!(t4 < t2 * 2.0, "4 tenants saturate: {t4:.0} vs {t2:.0}");
        assert!(print_11a(&points).contains("Figure 11a"));
    }

    #[test]
    fn fig11b_shape_holds() {
        let points = run_11b(&[1, 2, 4]);
        // P2P is the fastest path at every GPU count > 1.
        for k in [2usize, 4] {
            let of = |path: ExchangePath| {
                points
                    .iter()
                    .find(|p| p.gpus == k && p.path == path)
                    .expect("point")
                    .throughput
            };
            let p2p = of(ExchangePath::PciP2p);
            let secure = of(ExchangePath::SecureMemory);
            let enc = of(ExchangePath::EncryptedMemory);
            assert!(p2p > secure, "k={k}: p2p {p2p:.0} > secure {secure:.0}");
            assert!(
                secure > enc,
                "k={k}: secure {secure:.0} > encrypted {enc:.0}"
            );
        }
        // Scaling: 2 GPUs with p2p beat 1 GPU.
        let one = points
            .iter()
            .find(|p| p.gpus == 1)
            .expect("1 gpu")
            .throughput;
        let two_p2p = points
            .iter()
            .find(|p| p.gpus == 2 && p.path == ExchangePath::PciP2p)
            .expect("2 gpu p2p")
            .throughput;
        assert!(two_p2p > one * 1.5);
        assert!(print_11b(&points).contains("Figure 11b"));
    }
}
