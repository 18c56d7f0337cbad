//! The four workloads. Each is a closed loop with one client on one thread
//! (the simulator is `&mut`-single-threaded) doing a *fixed op count* per
//! rep, so a rep's simulated statistics are bit-exact for a seed; every rep
//! boots a fresh `CronusSystem` and replays the same generated inputs.

pub mod accel_apps;
pub mod lifecycle_failover;
pub mod srpc_stream;
pub mod tenants_mixed;

use std::collections::BTreeMap;

use cronus_core::{Actor, CronusSystem, EnclaveRef, StreamId};
use cronus_devices::DeviceKind;
use cronus_mos::manifest::Manifest;
use cronus_spm::spm::{DeviceSpec, PartitionSpec};

use crate::account::{ReportStats, SimAccount};
use crate::trace::Tracer;

/// Workload names, in report order.
pub const NAMES: [&str; 4] = [
    "srpc_stream",
    "tenants_mixed",
    "accel_apps",
    "lifecycle_failover",
];

/// What one rep did and measured.
#[derive(Clone, Debug, Default)]
pub struct RepOutcome {
    /// Host nanoseconds of the timed section (boot through last op).
    pub host_ns: u64,
    /// Report-derived statistics; traced reps only.
    pub report_stats: Option<ReportStats>,
    /// Everything the simulated clock and the checks decide.
    pub sim: SimOutcome,
}

/// The part of a rep that is deterministic for a seed: every rep of a run
/// must produce the same one, traced or not.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimOutcome {
    /// Ops attempted (calls, requests, passes or cycles).
    pub ops: u64,
    /// Ops that errored, were refused or returned a wrong result, plus one
    /// per end-of-rep check that missed.
    pub failed: u64,
    /// `tenants_mixed`: simulated ns of each victim round, from the victim's
    /// first enqueue to its `sync` return on the victim's own clock.
    pub victim_round_ns: Vec<u64>,
    /// The simulated-clock account of the rep.
    pub account: SimAccount,
    /// `accel_apps`: CRONUS and native simulated ns of the GPU work.
    pub cronus_vs_native_ns: Option<(u64, u64)>,
    /// `lifecycle_failover`: summed `RecoveryStats::total()`, and recoveries.
    pub recovery_ns: Option<(u64, u64)>,
}

/// One rep of a prepared workload; owns the generated inputs.
pub type RepFn = Box<dyn FnMut(&Tracer) -> RepOutcome>;

/// Generates the inputs of workload `name` from `seed` and returns its rep.
/// `scale_div` divides the frozen op counts (1 for measurement, 100 for the
/// self-tests).
pub fn prepare(name: &str, seed: u64, scale_div: u64) -> Option<RepFn> {
    Some(match name {
        "srpc_stream" => srpc_stream::prepare(seed, scale_div),
        "tenants_mixed" => tenants_mixed::prepare(seed, scale_div),
        "accel_apps" => accel_apps::prepare(seed, scale_div),
        "lifecycle_failover" => lifecycle_failover::prepare(seed, scale_div),
        _ => return None,
    })
}

fn cpu_partition(id: u8) -> PartitionSpec {
    PartitionSpec::new(id, b"cpu-mos-v1", "v1", DeviceSpec::Cpu)
}

fn gpu_partition(id: u8) -> PartitionSpec {
    PartitionSpec::new(
        id,
        b"cuda-mos-v3",
        "v3",
        DeviceSpec::Gpu {
            memory: 8 << 30,
            sms: 46,
        },
    )
}

fn npu_partition(id: u8) -> PartitionSpec {
    PartitionSpec::new(
        id,
        b"npu-mos-v1",
        "v1",
        DeviceSpec::Npu { memory: 256 << 20 },
    )
}

/// A driving CPU mEnclave owned by a fresh app.
fn cpu_enclave(sys: &mut CronusSystem) -> EnclaveRef {
    let app = sys.create_app();
    sys.create_enclave(
        Actor::App(app),
        Manifest::new(DeviceKind::Cpu).with_memory(1 << 20),
        &BTreeMap::new(),
    )
    .expect("cpu enclave creation")
}

impl RepOutcome {
    /// An outcome that will attempt `ops` ops.
    fn new(ops: u64) -> Self {
        RepOutcome {
            sim: SimOutcome {
                ops,
                ..SimOutcome::default()
            },
            ..RepOutcome::default()
        }
    }

    /// Reads the finished system's books into the outcome.
    fn close(&mut self, sys: &CronusSystem, streams: &[StreamId], tracer: &Tracer) {
        self.sim.account.absorb(sys, streams);
        self.report_stats = tracer.is_on().then(|| ReportStats::of(sys));
    }
}
