//! Experiment implementations, one module per paper artifact, and
//! [`FIGURES`]: the one table of gated figures that the `fig` binary, the
//! `obs` CLI, `src/bin/chaos.rs`, `scripts/rebaseline.sh` and the identity
//! and queue-observatory tests all iterate.

pub mod chaos;
pub mod fig10;
pub mod fig11;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod interference;
pub mod rpc_micro;
pub mod saturation;
pub mod tables;

use cronus_core::{Actor, CronusSystem, EnclaveRef};
use cronus_devices::DeviceKind;
use cronus_mos::manifest::Manifest;
use cronus_obs::{FlightRecorder, Headline, TelemetryBundle};
use cronus_spm::spm::{BootConfig, DeviceSpec, PartitionSpec};
use std::collections::BTreeMap;

/// Boots the standard evaluation platform: one CPU partition, one GPU
/// partition, one NPU partition (Table II analogue).
pub fn standard_boot() -> BootConfig {
    BootConfig {
        partitions: vec![
            PartitionSpec::new(1, b"cpu-mos-v1", "v1", DeviceSpec::Cpu),
            PartitionSpec::new(
                2,
                b"cuda-mos-v3",
                "v3",
                DeviceSpec::Gpu {
                    memory: 8 << 30,
                    sms: 46,
                },
            ),
            PartitionSpec::new(
                3,
                b"npu-mos-v1",
                "v1",
                DeviceSpec::Npu { memory: 256 << 20 },
            ),
        ],
        ..Default::default()
    }
}

/// Boots a platform with `gpus` GPU partitions (Fig. 11b).
pub fn multi_gpu_boot(gpus: u8) -> BootConfig {
    let mut partitions = vec![PartitionSpec::new(1, b"cpu-mos-v1", "v1", DeviceSpec::Cpu)];
    for g in 0..gpus {
        partitions.push(PartitionSpec::new(
            2 + g,
            b"cuda-mos-v3",
            "v3",
            DeviceSpec::Gpu {
                memory: 8 << 30,
                sms: 46,
            },
        ));
    }
    BootConfig {
        partitions,
        ..Default::default()
    }
}

/// The two knobs a figure run takes; a figure ignores a knob it has no use
/// for (its row then carries 0).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Params {
    /// Problem size: the Rodinia / vta-bench scale (fig7, fig10a), the
    /// highest sharing level or GPU count (fig11a, fig11b), the number of
    /// calls (rpc_micro, saturation) or rounds (fig_interference).
    pub size: u64,
    /// Seed of the run's generator (saturation, fig_interference, chaos).
    pub seed: u64,
}

/// What one figure run produced.
pub struct FigureRun {
    /// The table the figure prints.
    pub text: String,
    /// The figure's own headline metrics.
    pub headlines: Vec<Headline>,
    /// The run parameters, as the bundle's `meta` records them.
    pub meta: Vec<(String, String)>,
    /// The run's flight recorder.
    pub recorder: FlightRecorder,
}

impl FigureRun {
    /// The telemetry bundle of this run of figure `name`: the document
    /// committed as `BUNDLE_<name>.json`.
    pub fn bundle(&self, name: &str) -> TelemetryBundle {
        TelemetryBundle::capture(
            name,
            self.headlines.clone(),
            self.meta.clone(),
            &self.recorder,
        )
    }
}

/// One gated figure.
pub struct Figure {
    /// Figure name: `BUNDLE_<name>.json` is its committed baseline.
    pub name: &'static str,
    /// The parameters the committed baseline was generated with.
    pub committed: Params,
    /// A reduced, diagnosis-friendly scale for the `obs` CLI and the
    /// queue-observatory tests.
    pub reduced: Params,
    /// Runs the figure.
    pub run: fn(Params) -> FigureRun,
}

const fn params(size: u64, seed: u64) -> Params {
    Params { size, seed }
}

/// Every gated figure, in paper order.
#[rustfmt::skip]
pub const FIGURES: [Figure; 11] = [
    Figure { name: "fig7", committed: params(4, 0), reduced: params(2, 0), run: fig7::figure },
    Figure { name: "fig8", committed: params(0, 0), reduced: params(0, 0), run: fig8::figure },
    Figure { name: "fig9", committed: params(0, 0), reduced: params(0, 0), run: fig9::figure },
    Figure { name: "fig10a", committed: params(2, 0), reduced: params(2, 0), run: fig10::figure_10a },
    Figure { name: "fig10b", committed: params(0, 0), reduced: params(0, 0), run: fig10::figure_10b },
    Figure { name: "fig11a", committed: params(4, 0), reduced: params(2, 0), run: fig11::figure_11a },
    Figure { name: "fig11b", committed: params(4, 0), reduced: params(2, 0), run: fig11::figure_11b },
    Figure { name: "rpc_micro", committed: params(1000, 0), reduced: params(200, 0), run: rpc_micro::figure },
    Figure { name: "saturation", committed: params(400, 42), reduced: params(400, 42), run: saturation::figure },
    Figure { name: "fig_interference", committed: params(24, 42), reduced: params(24, 42), run: interference::figure },
    Figure { name: "chaos", committed: params(0, 0xC401), reduced: params(0, 0xC401), run: chaos::figure },
];

/// The table row named `name`.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// Runs figure `name` at its reduced scale and returns its flight recorder,
/// or `None` for an unknown name.
pub fn recorded_figure(name: &str) -> Option<FlightRecorder> {
    figure(name).map(|f| (f.run)(f.reduced).recorder)
}

/// Creates a driving CPU mEnclave owned by a fresh app.
pub fn cpu_enclave(sys: &mut CronusSystem) -> EnclaveRef {
    let app = sys.create_app();
    sys.create_enclave(
        Actor::App(app),
        Manifest::new(DeviceKind::Cpu).with_memory(1 << 20),
        &BTreeMap::new(),
    )
    .expect("cpu enclave creation")
}
