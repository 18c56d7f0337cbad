//! Figure 9: failover evaluation.
//!
//! Two matrix-computing tasks run on separate S-EL2 partitions; a crash is
//! injected into one. CRONUS's proceed-trap recovery restarts only the
//! fault-inducing partition in hundreds of milliseconds and the failed task
//! resumes after resubmission; the monolithic baseline reboots the whole
//! machine (~2 minutes), taking the healthy task down with it.
//!
//! The partition-failure mechanics (invalidation, clearing, mOS reload) run
//! for real on the simulated platform; the throughput timeline is
//! reconstructed from the measured recovery durations.

use cronus_core::CronusSystem;
use cronus_obs::{FlightRecorder, Headline};
use cronus_runtime::{CudaContext, CudaOptions};
use cronus_sim::SimNs;
use cronus_spm::spm::RecoveryStats;

use super::{FigureRun, Params};
use crate::report::Table;

/// Throughput sample: jobs completed by each task in one bucket.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fig9Point {
    /// Bucket start (ms).
    pub t_ms: u64,
    /// Healthy task's completed jobs in the bucket.
    pub task_a: u32,
    /// Crashing task's completed jobs in the bucket.
    pub task_b: u32,
}

/// The full experiment output.
#[derive(Clone, Debug)]
pub struct Fig9Data {
    /// CRONUS timeline (100 ms buckets).
    pub cronus: Vec<Fig9Point>,
    /// Whole-machine-reboot timeline (1 s buckets).
    pub reboot: Vec<Fig9Point>,
    /// Measured recovery statistics from the real failover run.
    pub recovery: RecoveryStats,
    /// Simulated machine reboot duration.
    pub reboot_time: SimNs,
    /// Flight recorder of the failover run (recovery-phase spans live here).
    pub recorder: FlightRecorder,
}

/// Duration of one matrix job.
const JOB: SimNs = SimNs::from_millis(25);
/// Crash instant.
const CRASH: SimNs = SimNs::from_secs(2);
/// Failure detection latency (SPM hang sweep).
const DETECT: SimNs = SimNs::from_millis(50);
/// Task resubmission + re-initialization after recovery.
const RESUBMIT: SimNs = SimNs::from_millis(60);

fn timeline(
    horizon: SimNs,
    bucket: SimNs,
    a_gaps: &[(SimNs, SimNs)],
    b_gaps: &[(SimNs, SimNs)],
) -> Vec<Fig9Point> {
    let in_gap = |t: SimNs, gaps: &[(SimNs, SimNs)]| gaps.iter().any(|(s, e)| t >= *s && t < *e);
    let mut points = Vec::new();
    let buckets = horizon.as_nanos() / bucket.as_nanos();
    for b in 0..buckets {
        let start = bucket * b;
        // Count job completions in [start, start + bucket).
        let mut a = 0u32;
        let mut bb = 0u32;
        let mut t = SimNs::ZERO;
        while t < horizon {
            let done = t + JOB;
            if done > start && done <= start + bucket {
                if !in_gap(t, a_gaps) {
                    a += 1;
                }
                if !in_gap(t, b_gaps) {
                    bb += 1;
                }
            }
            t = done;
        }
        points.push(Fig9Point {
            t_ms: start.as_millis(),
            task_a: a,
            task_b: bb,
        });
    }
    points
}

/// Runs the failover experiment.
///
/// # Panics
///
/// Panics if the real failover mechanics fail — that is a regression, not
/// an expected outcome.
pub fn run() -> Fig9Data {
    // Real mechanics: boot, create two GPU partitions with one task each,
    // crash partition 3, recover it, and measure.
    let mut sys = CronusSystem::boot(super::multi_gpu_boot(2));
    let cpu = super::cpu_enclave(&mut sys);
    let _task_a = CudaContext::new(&mut sys, cpu, CudaOptions::default()).expect("task A");
    let mut task_b = CudaContext::new(&mut sys, cpu, CudaOptions::default()).expect("task B");
    // The dispatcher placed the second context on the second GPU partition.
    let crashed = task_b.dev.asid;
    let stale = task_b.alloc(&mut sys, 4096).expect("task B buffer");
    sys.mark("fig9:crash");
    sys.inject_partition_failure(crashed)
        .expect("failure injection");
    // The survivor touches the poisoned share before recovery completes:
    // proceed-trap converts the stage-2 fault into a failure signal instead
    // of letting the caller hang (this is the "trap" phase in the trace).
    let poked = task_b.memcpy_h2d(&mut sys, stale, &[0u8; 64]);
    assert!(
        poked.is_err(),
        "survivor access to the failed partition must trap"
    );
    let recovery = sys.recover_partition(crashed).expect("recovery");
    sys.mark("fig9:recovered");
    let reboot_time = sys.spm().machine().cost().machine_reboot;

    // Acceptance check: the profiler attributes every elapsed nanosecond.
    let recorder = sys.recorder();
    {
        let inner = recorder.lock();
        let attributed: u64 = inner
            .profiler
            .attribution()
            .iter()
            .map(|(_, d)| d.as_nanos())
            .sum();
        assert_eq!(attributed, inner.profiler.total_elapsed().as_nanos());
    }

    // Task B is down from the crash until detection + recovery + resubmit.
    let b_down_until = CRASH + DETECT + recovery.total() + RESUBMIT;
    let cronus = timeline(
        SimNs::from_secs(4),
        SimNs::from_millis(100),
        &[],
        &[(CRASH, b_down_until)],
    );

    // Monolithic reboot: both tasks down from the crash for ~2 minutes.
    let both_down = (CRASH, CRASH + reboot_time + RESUBMIT);
    let reboot = timeline(
        SimNs::from_secs(130),
        SimNs::from_secs(1),
        &[both_down],
        &[both_down],
    );

    Fig9Data {
        cronus,
        reboot,
        recovery,
        reboot_time,
        recorder,
    }
}

/// Renders the figure.
pub fn print(data: &Fig9Data) -> String {
    let mut out = String::new();
    let mut t = Table::new(
        "Figure 9: CRONUS failover timeline (jobs per 100ms bucket; crash at 2.0s)",
        &["t (ms)", "task A (healthy)", "task B (crashed)"],
    );
    for p in &data.cronus {
        t.row(&[
            p.t_ms.to_string(),
            p.task_a.to_string(),
            p.task_b.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nrecovery: proceed {} + clear {} + mOS restart {} = {} total\n",
        data.recovery.proceed_time,
        data.recovery.clear_time,
        data.recovery.restart_time,
        data.recovery.total(),
    ));
    out.push_str(&format!(
        "whole-machine reboot baseline: {} (both tasks offline)\n",
        data.reboot_time
    ));
    let reboot_outage: usize = data
        .reboot
        .iter()
        .filter(|p| p.task_a == 0 && p.t_ms >= 2000)
        .count();
    out.push_str(&format!(
        "reboot baseline: healthy task offline for ~{reboot_outage}s of the 130s window\n"
    ));
    out
}

/// Headline metrics of the committed baseline: the three recovery
/// stages, their total, and the whole-machine reboot baseline.
pub fn headlines(data: &Fig9Data) -> Vec<Headline> {
    vec![
        Headline::ns("recovery_proceed_ns", data.recovery.proceed_time),
        Headline::ns("recovery_clear_ns", data.recovery.clear_time),
        Headline::ns("recovery_restart_ns", data.recovery.restart_time),
        Headline::ns("recovery_total_ns", data.recovery.total()),
        Headline::ns("reboot_total_ns", data.reboot_time),
    ]
}

/// The table row's entry point (no parameters).
pub fn figure(_: Params) -> FigureRun {
    let data = run();
    FigureRun {
        text: print(&data),
        headlines: headlines(&data),
        meta: Vec::new(),
        recorder: data.recorder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_shape_holds() {
        let data = run();
        // Recovery in hundreds of milliseconds, far below the reboot.
        assert!(data.recovery.total() >= SimNs::from_millis(100));
        assert!(data.recovery.total() <= SimNs::from_secs(1));
        assert!(data.reboot_time >= SimNs::from_secs(60));

        // The healthy task never dips under CRONUS.
        let full_rate = data.cronus[0].task_a;
        assert!(data.cronus.iter().all(|p| p.task_a == full_rate));

        // The crashed task dips to zero and recovers within the window.
        assert!(data.cronus.iter().any(|p| p.task_b == 0));
        let last = data.cronus.last().expect("points");
        assert!(last.task_b > 0, "task B recovered by 4s");

        // Under the reboot baseline, even the healthy task flatlines.
        assert!(data.reboot.iter().any(|p| p.task_a == 0));
        // And it stays down for most of the window (~2 minutes).
        let outage = data.reboot.iter().filter(|p| p.task_a == 0).count();
        assert!(outage > 100, "reboot outage ~2min: {outage}s");
        assert!(print(&data).contains("Figure 9"));

        // The trace carries each recovery step as its own span.
        let inner = data.recorder.lock();
        let names: Vec<&str> = inner
            .spans
            .spans()
            .iter()
            .map(|s| inner.spans.name(s.name()))
            .collect();
        for phase in ["invalidate", "clear", "reload", "trap"] {
            assert!(
                names.iter().any(|n| n.starts_with(phase)),
                "missing {phase} span in {names:?}"
            );
        }
    }
}
