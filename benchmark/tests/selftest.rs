//! Fast self-tests of the benchmark itself: every workload at 1/100 of its
//! frozen counts passes its own correctness gates, is deterministic on the
//! simulated clock for a seed and differs for another seed; the span wrapper
//! around the GPU backend changes nothing the system can see.

use std::time::{Duration, Instant};

use cronus_benchmark::harness::{run_end_to_end, run_traced, DEFAULT_SEED, HELD_OUT_SEED};
use cronus_benchmark::timed_backend::TimedBackend;
use cronus_benchmark::trace::{Name, Tracer};
use cronus_benchmark::workloads::{self, RepOutcome};
use cronus_runtime::{CudaContext, CudaOptions};
use cronus_workloads::backend::{CronusGpuBackend, GpuBackend};
use cronus_workloads::kernels::register_standard_kernels;
use cronus_workloads::rodinia;
use cronus_workloads::testutil::cronus_gpu_system;

const SCALE_DIV: u64 = 100;

fn rep(name: &str, seed: u64, tracer: &Tracer) -> RepOutcome {
    let mut rep = workloads::prepare(name, seed, SCALE_DIV).expect("known workload");
    rep(tracer)
}

#[test]
fn every_workload_is_correct_and_deterministic_per_seed() {
    let off = Tracer::new(false);
    for name in workloads::NAMES {
        let a = rep(name, DEFAULT_SEED, &off).sim;
        assert!(a.ops > 0, "{name}: no ops");
        assert_eq!(a.failed, 0, "{name}: failed ops");
        assert!(a.account.closes(), "{name}: simclk split does not close");
        assert!(a.account.elapsed_ns > 0, "{name}: no simulated time");

        let b = rep(name, DEFAULT_SEED, &off).sim;
        assert_eq!(a, b, "{name}: same seed, different result");

        // At this scale a seed decides only a few draws (one LeNet iteration
        // count in `accel_apps`), so two seeds can coincide; four cannot.
        let differs = (0..4).any(|k| {
            let c = rep(name, HELD_OUT_SEED + k, &off).sim;
            assert_eq!(
                c.failed,
                0,
                "{name}: failed ops on seed {}",
                HELD_OUT_SEED + k
            );
            c.account != a.account
        });
        assert!(
            differs,
            "{name}: the seed does not reach the simulated account"
        );
    }
}

#[test]
fn tracing_a_rep_changes_nothing_on_the_simulated_clock() {
    for name in workloads::NAMES {
        let plain = rep(name, DEFAULT_SEED, &Tracer::new(false));
        let on = Tracer::new(true);
        let traced = rep(name, DEFAULT_SEED, &on);
        assert!(plain.report_stats.is_none() && traced.report_stats.is_some());
        assert_eq!(plain.sim, traced.sim, "{name}: tracing moved a result");
        let spans = on.take();
        assert_eq!(spans[0].name, Name::Driver, "{name}: root span");
        assert!(spans.len() > 4, "{name}: spans recorded");
    }
}

#[test]
fn the_harness_reports_every_metric_it_promises() {
    let prepare = || workloads::prepare("lifecycle_failover", DEFAULT_SEED, SCALE_DIV).unwrap();
    let report = run_end_to_end(&prepare, Duration::ZERO, Instant::now());
    assert!(report.correct(), "{:?}", report.problems);
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        names,
        ["setup_s", "host_us_per_op", "sim_us_per_op", "peak_rss_mb"]
    );
    assert!(report.metrics.iter().all(|m| m.value > 0.0));

    let (report, spans) = run_traced(prepare(), Duration::ZERO);
    assert!(report.correct(), "{:?}", report.problems);
    assert!(!spans.is_empty());
    let get = |name: &str| {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .value
    };
    assert!(get("sim_recovery_ms") > 100.0);
    assert!(get("core.recover_partition.count") > 0.0);
    assert!(get("spm.boot_us") > 0.0);
    assert!(get("core.call_over_codec_ratio") > 1.0);
    assert_eq!(get("failed_ops_frac"), 0.0);
    // The categories of the simulated clock sum to the end-to-end figure.
    let split: f64 = report
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("simclk."))
        .map(|m| m.value)
        .sum();
    assert!(split > 0.0);
    let mut names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), report.metrics.len(), "duplicate metric names");
}

/// Runs the Rodinia suite at scale 1 and returns `(checksums, simulated ns)`.
fn rodinia_on(backend: &mut dyn GpuBackend) -> (Vec<u64>, u64) {
    register_standard_kernels(backend).expect("kernels");
    let start = backend.elapsed();
    let sums = rodinia::suite()
        .into_iter()
        .map(|(name, run)| {
            run(backend, 1)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .checksum
                .to_bits()
        })
        .collect();
    (sums, (backend.elapsed() - start).as_nanos())
}

#[test]
fn timed_backend_is_transparent() {
    let bare = {
        let (mut sys, cpu) = cronus_gpu_system();
        let cuda = CudaContext::new(&mut sys, cpu, CudaOptions::default()).expect("cuda");
        rodinia_on(&mut CronusGpuBackend::new(&mut sys, cuda))
    };
    let tracer = Tracer::new(true);
    let timed = {
        let (mut sys, cpu) = cronus_gpu_system();
        let cuda = CudaContext::new(&mut sys, cpu, CudaOptions::default()).expect("cuda");
        let inner = CronusGpuBackend::new(&mut sys, cuda);
        rodinia_on(&mut TimedBackend::new(inner, &tracer))
    };
    assert_eq!(bare, timed, "same checksums and simulated time");
    let spans = tracer.take();
    assert!(spans.iter().any(|s| s.name == Name::CudaLaunch));
    assert!(spans.iter().any(|s| s.name == Name::CudaD2h));
}
