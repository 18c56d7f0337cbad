//! The fig_interference noisy-neighbor workload.
//!
//! Not a paper figure: two CPU partitions drive the same GPU partition
//! through `.shared()` streams, so their requests contend for one shared
//! executor pool instead of private per-stream lanes. The *victim*
//! (partition p1) issues small latency-sensitive echo/saxpy calls; the
//! *noisy neighbor* (partition p4) front-runs each round with a burst of
//! heavyweight GEMM calls that seize the pool. The resource meter charges
//! every quantum to its owning partition, and the interference matrix
//! attributes the victim's backlog waits to the neighbor actually
//! occupying the contended executor — so the committed report must name
//! the noisy GEMM partition as the top interferer.

use std::collections::BTreeMap;

use cronus_core::{Actor, CronusSystem, StreamId};
use cronus_devices::DeviceKind;
use cronus_mos::manifest::{Manifest, McallDecl};
use cronus_obs::{FlightRecorder, Headline, LabelSet, Principal};
use cronus_sim::{CostModel, SimNs};
use cronus_spm::spm::{BootConfig, DeviceSpec, PartitionSpec};

use super::saturation::SatRng;

/// Everything the table row, the CI gate and the determinism tests need from one
/// run: the recorder plus the identities the interference report is about.
#[derive(Clone, Debug)]
pub struct InterferenceRun {
    /// The run's flight recorder (meter, fairness, queues, spans).
    pub recorder: FlightRecorder,
    /// The latency-sensitive partition (owns the echo/saxpy stream).
    pub victim: Principal,
    /// The injected noisy neighbor (owns the GEMM stream).
    pub noisy: Principal,
    /// The victim's stream id, for the `srpc.request_latency` histogram.
    pub victim_stream: StreamId,
}

/// Two CPU partitions beside the standard GPU partition: distinct metering
/// principals driving one shared device.
fn boot() -> BootConfig {
    BootConfig {
        partitions: vec![
            PartitionSpec::new(1, b"cpu-mos-v1", "v1", DeviceSpec::Cpu),
            PartitionSpec::new(4, b"cpu-mos-v1", "v1", DeviceSpec::Cpu),
            PartitionSpec::new(
                2,
                b"cuda-mos-v3",
                "v3",
                DeviceSpec::Gpu {
                    memory: 8 << 30,
                    sms: 46,
                },
            ),
        ],
        ..Default::default()
    }
}

/// Runs the victim/noisy mix and returns the recorder plus identities.
///
/// Deterministic in `(seed, rounds)`: enclave placement uses the
/// dispatcher's least-loaded route (first CPU enclave lands on the first
/// registered CPU partition, the second on the other), and all payload
/// sizes and burst lengths come from the seeded generator.
pub fn run_recorded(seed: u64, rounds: u64) -> InterferenceRun {
    let mut sys = CronusSystem::boot(boot());
    let cost = CostModel::default();
    let kernel_cost = cost.gpu_kernel_launch;

    let cpu_manifest = || {
        Manifest::new(DeviceKind::Cpu)
            .with_mecall(McallDecl::synchronous("prep"))
            .with_memory(1 << 20)
    };
    let victim_app = sys.create_app();
    let victim_cpu = sys
        .create_enclave(Actor::App(victim_app), cpu_manifest(), &BTreeMap::new())
        .expect("victim cpu enclave");
    let noisy_app = sys.create_app();
    let noisy_cpu = sys
        .create_enclave(Actor::App(noisy_app), cpu_manifest(), &BTreeMap::new())
        .expect("noisy cpu enclave");
    sys.register_handler(
        victim_cpu,
        "prep",
        Box::new(|_, _| Ok((Vec::new(), SimNs::from_micros(2)))),
    );
    sys.register_handler(
        noisy_cpu,
        "prep",
        Box::new(|_, _| Ok((Vec::new(), SimNs::from_micros(6)))),
    );

    // Both device-side mEnclaves live on the single GPU partition; their
    // `.shared()` streams therefore contend for that partition's executor
    // pool instead of draining on private lanes.
    let victim_gpu = sys
        .create_enclave(
            Actor::Enclave(victim_cpu),
            Manifest::new(DeviceKind::Gpu)
                .with_mecall(McallDecl::asynchronous("echo"))
                .with_mecall(McallDecl::asynchronous("saxpy"))
                .with_memory(1 << 20),
            &BTreeMap::new(),
        )
        .expect("victim gpu enclave");
    let noisy_gpu = sys
        .create_enclave(
            Actor::Enclave(noisy_cpu),
            Manifest::new(DeviceKind::Gpu)
                .with_mecall(McallDecl::asynchronous("gemm"))
                .with_memory(1 << 20),
            &BTreeMap::new(),
        )
        .expect("noisy gpu enclave");
    sys.register_handler(
        victim_gpu,
        "echo",
        Box::new(move |_, p| Ok((Vec::new(), kernel_cost * (1 + p.len() as u64 % 3)))),
    );
    sys.register_handler(
        victim_gpu,
        "saxpy",
        Box::new(move |_, _| Ok((Vec::new(), kernel_cost * 2))),
    );
    // A GEMM tile is an order of magnitude heavier than the victim's
    // kernels: one burst seizes the pool for the whole round.
    sys.register_handler(
        noisy_gpu,
        "gemm",
        Box::new(move |_, p| Ok((Vec::new(), kernel_cost * (24 + p.len() as u64 % 8)))),
    );

    let victim_stream = sys
        .stream(victim_cpu, victim_gpu)
        .rings(2)
        .depth(4)
        .shared()
        .open()
        .expect("victim stream");
    let noisy_stream = sys
        .stream(noisy_cpu, noisy_gpu)
        .rings(2)
        .depth(8)
        .shared()
        .open()
        .expect("noisy stream");

    sys.mark("interference:mixed");

    let mut rng = SatRng::new(seed);
    for _ in 0..rounds {
        // The noisy neighbor front-runs the round: its GEMM burst drains
        // first and pushes the shared pool's clocks far into the future.
        for _ in 0..(3 + rng.below(3)) {
            let payload = vec![0u8; 64 + rng.below(64) as usize];
            sys.call(noisy_stream, "gemm")
                .payload(&payload)
                .start()
                .expect("gemm call");
        }
        sys.sync(noisy_stream).expect("noisy sync");
        sys.app_ecall(noisy_app, noisy_cpu, "prep", b"noisy")
            .expect("noisy prep");

        // The victim's small calls now queue behind the neighbor's
        // occupancy; their backlog waits are what the matrix attributes.
        for _ in 0..(2 + rng.below(3)) {
            let payload = vec![0u8; 8 + rng.below(16) as usize];
            let name = if rng.below(4) == 0 { "saxpy" } else { "echo" };
            sys.call(victim_stream, name)
                .payload(&payload)
                .start()
                .expect("victim call");
        }
        sys.sync(victim_stream).expect("victim sync");
        sys.app_ecall(victim_app, victim_cpu, "prep", b"v")
            .expect("victim prep");
    }

    InterferenceRun {
        recorder: sys.recorder(),
        victim: Principal(victim_cpu.asid.as_u32()),
        noisy: Principal(noisy_cpu.asid.as_u32()),
        victim_stream,
    }
}

impl InterferenceRun {
    /// The victim stream's p99 request latency.
    pub fn victim_p99(&self) -> SimNs {
        let stream = self.victim_stream.as_u64().to_string();
        self.recorder
            .with(|r| {
                r.metrics
                    .histogram(
                        "srpc.request_latency",
                        &LabelSet::from_pairs(&[("stream", &stream)]),
                    )
                    .map(|h| h.p99())
            })
            .unwrap_or(SimNs::ZERO)
    }

    /// The partition the interference matrix convicts of delaying the
    /// victim the most (`"none"` when the victim never waited).
    pub fn top_interferer(&self) -> String {
        self.recorder
            .interference_matrix()
            .top_interferer_of(self.victim)
            .map(|(p, _)| p.to_string())
            .unwrap_or_else(|| "none".to_string())
    }

    /// The gated headlines: the victim's p99 and the Jain fairness indices
    /// over CPU and SM time.
    pub fn headlines(&self) -> Vec<Headline> {
        let fairness = self.recorder.fairness_report();
        vec![
            Headline::ns("victim_p99_ns", self.victim_p99()),
            Headline::higher(
                "jain_cpu",
                fairness.jain_of("cpu_ns").unwrap_or(1.0),
                "frac",
            ),
            Headline::higher("jain_sm", fairness.jain_of("sm_ns").unwrap_or(1.0), "frac"),
        ]
    }

    /// The report meta of a run made with `(seed, rounds)`.
    pub fn meta(&self, seed: u64, rounds: u64) -> Vec<(String, String)> {
        vec![
            ("seed".to_string(), seed.to_string()),
            ("rounds".to_string(), rounds.to_string()),
            ("victim".to_string(), self.victim.to_string()),
            ("noisy".to_string(), self.noisy.to_string()),
            ("top_interferer".to_string(), self.top_interferer()),
        ]
    }
}

/// The table row's entry point: `size` is the number of rounds. The text
/// is the headline list plus the convicted interferer.
pub fn figure(p: super::Params) -> super::FigureRun {
    let run = run_recorded(p.seed, p.size);
    run.recorder
        .meter_conservation()
        .expect("fig_interference: per-principal charges balance the profiler");
    let headlines = run.headlines();
    let mut text = format!(
        "fig_interference: victim={} noisy={}\n",
        run.victim, run.noisy
    );
    for h in &headlines {
        text += &match h.unit.as_str() {
            "ns" => format!("  {:<15} {}\n", h.key, h.value),
            _ => format!("  {:<15} {:.4}\n", h.key, h.value),
        };
    }
    text += &format!("  {:<15} {}\n", "top_interferer", run.top_interferer());
    super::FigureRun {
        text,
        headlines,
        meta: run.meta(p.seed, p.size),
        recorder: run.recorder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_and_noisy_are_distinct_principals() {
        let run = run_recorded(42, 12);
        assert_ne!(run.victim, run.noisy);
        assert_eq!(run.victim, Principal(1));
        assert_eq!(run.noisy, Principal(4));
    }

    #[test]
    fn noisy_gemm_partition_is_the_top_interferer() {
        let run = run_recorded(42, 12);
        let matrix = run.recorder.interference_matrix();
        let (top, ns) = matrix
            .top_interferer_of(run.victim)
            .expect("victim recorded waits");
        assert_eq!(top, run.noisy, "expected the GEMM neighbor to dominate");
        assert!(ns > 0);
    }

    #[test]
    fn conservation_holds_for_the_contended_mix() {
        let run = run_recorded(7, 10);
        run.recorder
            .meter_conservation()
            .expect("per-principal charges must sum to profiler totals");
    }
}
