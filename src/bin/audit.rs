//! The isolation auditor CLI.
//!
//! ```text
//! cargo run --bin audit              # audit every example workload scenario
//! cargo run --bin audit -- --dump    # also dump each extracted model
//! ```
//!
//! Each scenario boots a fresh simulated platform, drives one representative
//! workload shape (boot-only, the three chaos workloads, failover with
//! trap + recovery, spatial sharing), snapshots the full mapping state at
//! every interesting point, and checks the five invariants I1–I5. Exits
//! non-zero on any violation. See `AUDIT.md`.

use std::process::ExitCode;

use cronus::audit::{audit_system, AuditReport, IsolationModel};
use cronus::chaos::workload::{self, WorkloadKind};
use cronus::core::CronusSystem;
use cronus::sim::SimRng;

/// Fixed payload seed: the auditor checks mapping state, not data paths,
/// so any deterministic request stream will do.
const PAYLOAD_SEED: u64 = 0xA0D1;

/// One audited checkpoint: scenario name, checkpoint name, report.
struct Checkpoint {
    scenario: &'static str,
    point: &'static str,
    report: AuditReport,
    model: IsolationModel,
}

fn main() -> ExitCode {
    let mut dump = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--dump" => dump = true,
            "--help" | "-h" => {
                eprintln!("usage: audit [--dump]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut checkpoints = Vec::new();
    boot_scenario(&mut checkpoints);
    for kind in WorkloadKind::ALL {
        workload_scenario(kind, &mut checkpoints);
    }
    failover_scenario(&mut checkpoints);
    spatial_scenario(&mut checkpoints);

    let mut violations = 0usize;
    let mut current = "";
    for cp in &checkpoints {
        if cp.scenario != current {
            current = cp.scenario;
            println!("scenario {current}");
        }
        println!(
            "  {}: {}",
            cp.point,
            if cp.report.passed() {
                "ok".to_string()
            } else {
                format!("{} violation(s)", cp.report.violations.len())
            }
        );
        if !cp.report.passed() {
            for v in &cp.report.violations {
                println!("    {v}");
            }
            violations += cp.report.violations.len();
        }
        if dump {
            for line in cp.model.render().lines() {
                println!("    {line}");
            }
        }
    }
    println!(
        "audit: {} checkpoint(s), {} violation(s)",
        checkpoints.len(),
        violations
    );
    if violations > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn check(
    checkpoints: &mut Vec<Checkpoint>,
    scenario: &'static str,
    point: &'static str,
    sys: &CronusSystem,
) {
    checkpoints.push(Checkpoint {
        scenario,
        point,
        report: audit_system(sys),
        model: IsolationModel::extract(sys),
    });
}

/// Freshly booted platform, before any enclave exists.
fn boot_scenario(checkpoints: &mut Vec<Checkpoint>) {
    let sys = workload::boot();
    check(checkpoints, "boot", "after-boot", &sys);
}

/// One chaos workload driven healthy end-to-end.
fn workload_scenario(kind: WorkloadKind, checkpoints: &mut Vec<Checkpoint>) {
    let scenario = kind.name();
    let mut sys = workload::boot();
    let h = workload::build(&mut sys, kind);
    check(checkpoints, scenario, "after-build", &sys);

    let mut rng = SimRng::new(PAYLOAD_SEED);
    let payload = workload::request(kind, &mut rng);
    let out = sys
        .call(h.stream, kind.mecall())
        .payload(&payload)
        .sync()
        .expect("healthy call");
    assert_eq!(out, workload::expected(kind, &payload), "workload result");
    sys.sync(h.stream).expect("sync");
    check(checkpoints, scenario, "after-calls", &sys);

    sys.close_stream(h.stream).expect("close");
    check(checkpoints, scenario, "after-close", &sys);
}

/// Kill the callee partition mid-stream, trap, recover, re-establish.
fn failover_scenario(checkpoints: &mut Vec<Checkpoint>) {
    let kind = WorkloadKind::GpuSaxpy;
    let scenario = "failover";
    let mut sys = workload::boot();
    let mut h = workload::build(&mut sys, kind);
    check(checkpoints, scenario, "after-build", &sys);

    sys.inject_partition_failure(h.callee.asid)
        .expect("inject failure");
    check(checkpoints, scenario, "after-proceed", &sys);

    // The next call takes the proceed-trap and reclaims the stream's share.
    let _err = sys
        .call(h.stream, kind.mecall())
        .payload(&[1, 2, 3])
        .sync()
        .expect_err("peer is down");
    check(checkpoints, scenario, "after-trap", &sys);

    sys.recover_partition(h.callee.asid).expect("recovery");
    check(checkpoints, scenario, "after-recovery", &sys);

    h.callee = workload::spawn_callee(&mut sys, kind, h.caller, h.dma);
    h.stream = sys
        .stream(h.caller, h.callee)
        .reopen(h.stream)
        .expect("reopen");
    let mut rng = SimRng::new(PAYLOAD_SEED);
    let payload = workload::request(kind, &mut rng);
    let out = sys
        .call(h.stream, kind.mecall())
        .payload(&payload)
        .sync()
        .expect("post-recovery call");
    assert_eq!(out, workload::expected(kind, &payload), "restored service");
    check(checkpoints, scenario, "after-reestablish", &sys);
}

/// Two independent apps spatially sharing the same accelerator partitions.
fn spatial_scenario(checkpoints: &mut Vec<Checkpoint>) {
    let scenario = "spatial";
    let mut sys = workload::boot();
    let a = workload::build(&mut sys, WorkloadKind::GpuSaxpy);
    let b = workload::build(&mut sys, WorkloadKind::GpuSaxpy);
    check(checkpoints, scenario, "after-build", &sys);

    let mut rng = SimRng::new(PAYLOAD_SEED);
    for h in [&a, &b] {
        let payload = workload::request(WorkloadKind::GpuSaxpy, &mut rng);
        let out = sys
            .call(h.stream, WorkloadKind::GpuSaxpy.mecall())
            .payload(&payload)
            .sync()
            .expect("spatial call");
        assert_eq!(
            out,
            workload::expected(WorkloadKind::GpuSaxpy, &payload),
            "spatial result"
        );
    }
    check(checkpoints, scenario, "after-calls", &sys);
}
