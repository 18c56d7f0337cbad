//! Figure 8: DNN training time across systems.
//!
//! LeNet/MNIST, ResNet-50/CIFAR-10, VGG-16/CIFAR-10 and DenseNet/ImageNet,
//! trained on native Linux, monolithic TrustZone, HIX-TrustZone and
//! CRONUS-PyTorch. The reproduction reports simulated time per iteration.

use cronus_baselines::direct::{hix_backend, native_backend, trustzone_backend};
use cronus_core::CronusSystem;
use cronus_obs::{FlightRecorder, Headline};
use cronus_runtime::{CudaContext, CudaOptions};
use cronus_sim::SimNs;
use cronus_workloads::backend::{CronusGpuBackend, GpuBackend};
use cronus_workloads::dnn::models::{densenet121, lenet5, resnet50_cifar, vgg16_cifar};
use cronus_workloads::dnn::{train, Dataset, Model, TrainConfig};
use cronus_workloads::kernels::register_standard_kernels;

use super::{FigureRun, Params};
use crate::report::{ratio, Table};

/// One Fig. 8 row.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    /// Model name.
    pub model: &'static str,
    /// Dataset name.
    pub dataset: &'static str,
    /// Per-iteration time per system.
    pub native: SimNs,
    /// Monolithic TrustZone.
    pub trustzone: SimNs,
    /// HIX-TrustZone.
    pub hix: SimNs,
    /// CRONUS.
    pub cronus: SimNs,
}

impl Fig8Row {
    /// CRONUS overhead relative to native.
    pub fn cronus_overhead(&self) -> f64 {
        self.cronus.as_nanos() as f64 / self.native.as_nanos().max(1) as f64 - 1.0
    }
}

fn workloads() -> Vec<(Model, Dataset, TrainConfig)> {
    vec![
        (
            lenet5(),
            Dataset::mnist(),
            TrainConfig {
                batch: 64,
                iterations: 3,
                ..Default::default()
            },
        ),
        (
            resnet50_cifar(),
            Dataset::cifar10(),
            TrainConfig {
                batch: 32,
                iterations: 2,
                ..Default::default()
            },
        ),
        (
            vgg16_cifar(),
            Dataset::cifar10(),
            TrainConfig {
                batch: 32,
                iterations: 2,
                ..Default::default()
            },
        ),
        (
            densenet121(),
            Dataset::imagenet(),
            TrainConfig {
                batch: 8,
                iterations: 2,
                ..Default::default()
            },
        ),
    ]
}

fn train_on(
    backend: &mut dyn GpuBackend,
    model: &Model,
    dataset: &Dataset,
    cfg: TrainConfig,
) -> SimNs {
    register_standard_kernels(backend).expect("kernels");
    train(backend, model, dataset, cfg)
        .expect("training run")
        .time_per_iter()
}

/// Runs the Fig. 8 experiment.
pub fn run() -> Vec<Fig8Row> {
    run_recorded().0
}

/// [`run`], also returning the flight recorder of the last workload's CRONUS
/// system (each workload trains on a fresh system; the baselines record
/// nothing).
pub fn run_recorded() -> (Vec<Fig8Row>, FlightRecorder) {
    let mut recorder = FlightRecorder::new();
    let rows = workloads()
        .into_iter()
        .map(|(model, dataset, cfg)| {
            let native = {
                let mut b = native_backend();
                train_on(&mut b, &model, &dataset, cfg)
            };
            let trustzone = {
                let mut b = trustzone_backend();
                train_on(&mut b, &model, &dataset, cfg)
            };
            let hix = {
                let mut b = hix_backend();
                train_on(&mut b, &model, &dataset, cfg)
            };
            let cronus = {
                let mut sys = CronusSystem::boot(super::standard_boot());
                let cpu = super::cpu_enclave(&mut sys);
                let cuda = CudaContext::new(&mut sys, cpu, CudaOptions::default()).expect("cuda");
                sys.mark("fig8:train");
                recorder = sys.recorder();
                let mut b = CronusGpuBackend::new(&mut sys, cuda);
                train_on(&mut b, &model, &dataset, cfg)
            };
            Fig8Row {
                model: model.name,
                dataset: dataset.name,
                native,
                trustzone,
                hix,
                cronus,
            }
        })
        .collect();
    (rows, recorder)
}

/// Renders the figure.
pub fn print(rows: &[Fig8Row]) -> String {
    let mut t = Table::new(
        "Figure 8: DNN training time per iteration",
        &[
            "model",
            "dataset",
            "linux",
            "trustzone",
            "hix-trustzone",
            "cronus",
            "cronus-vs-native",
        ],
    );
    for r in rows {
        t.row(&[
            r.model.to_string(),
            r.dataset.to_string(),
            r.native.to_string(),
            r.trustzone.to_string(),
            r.hix.to_string(),
            r.cronus.to_string(),
            ratio(1.0 + r.cronus_overhead()),
        ]);
    }
    t.render()
}

/// Headline metrics of the committed baseline: per-model CRONUS
/// iteration time plus the average overhead over native.
pub fn headlines(rows: &[Fig8Row]) -> Vec<Headline> {
    let mut out: Vec<Headline> = rows
        .iter()
        .map(|r| Headline::ns(format!("{}_cronus_ns", r.model), r.cronus))
        .collect();
    let n = rows.len().max(1) as f64;
    let avg = rows.iter().map(Fig8Row::cronus_overhead).sum::<f64>() / n;
    out.push(Headline::lower("avg_cronus_overhead_pct", avg * 100.0, "%"));
    out
}

/// The table row's entry point (no parameters).
pub fn figure(_: Params) -> FigureRun {
    let (rows, recorder) = run_recorded();
    FigureRun {
        text: print(&rows),
        headlines: headlines(&rows),
        meta: Vec::new(),
        recorder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_shape_holds() {
        let rows = run();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.cronus_overhead() < 0.15,
                "{}: CRONUS overhead {:.3}",
                r.model,
                r.cronus_overhead()
            );
            assert!(r.hix >= r.cronus, "{}: HIX must not beat CRONUS", r.model);
            assert!(r.trustzone >= r.native, "{}: TrustZone >= native", r.model);
        }
        // Bigger models take longer everywhere.
        let lenet = rows.iter().find(|r| r.model == "lenet").expect("lenet");
        let dense = rows
            .iter()
            .find(|r| r.model == "densenet")
            .expect("densenet");
        assert!(dense.native > lenet.native * 10);
        assert!(print(&rows).contains("Figure 8"));
    }
}
