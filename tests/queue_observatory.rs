//! End-to-end checks of the queueing & saturation observatory: every row of
//! the figure table, run at its reduced scale, must (a) leave its instrumented queues in
//! a state that passes the Little's-law cross-check, (b) name a bounding
//! queue with evidence, and (c) produce byte-identical telemetry when
//! re-run — the observatory itself is deterministic per seed.

use cronus::bench::experiments::{recorded_figure, saturation, FIGURES};
use cronus::obs::queue::DEFAULT_LITTLE_TOLERANCE;
use cronus::obs::slo::SloPolicy;

#[test]
fn every_figure_passes_littles_law_and_names_a_bottleneck() {
    for figure in FIGURES.iter().map(|f| f.name) {
        let rec = recorded_figure(figure).expect("known figure");
        // Fig. 10b is computed analytically from the cost model — no live
        // system runs, so no queues exist to instrument — and each chaos
        // scenario boots a system of its own, so the row's recorder is empty.
        if figure == "fig10b" || figure == "chaos" {
            assert!(!rec.has_queues(), "{figure}: unexpectedly grew queues");
            continue;
        }
        assert!(rec.has_queues(), "{figure}: no queues instrumented");
        let report = rec.queue_report(DEFAULT_LITTLE_TOLERANCE);
        assert!(
            report.little_all_within(),
            "{figure}: Little's-law violations:\n{}",
            report.render_text()
        );
        let bounding = report.bounding_queue().expect("active queues");
        assert!(
            bounding.wait_total_ns > 0 || bounding.mean_depth >= 0.0,
            "{figure}: bounding queue {} has no evidence",
            bounding.name
        );
        // At least one applicable (checked) verdict per figure — otherwise
        // the cross-check is vacuous. fig9 is exempt: the failover microbench
        // issues only a handful of calls, below MIN_LITTLE_DEQUEUES.
        if figure != "fig9" {
            assert!(
                report.queues.iter().any(|q| q.little.checked),
                "{figure}: no queue qualified for the Little check:\n{}",
                report.render_text()
            );
        }
    }
}

#[test]
fn figure_slo_policies_hold_at_reduced_scale() {
    for figure in FIGURES.iter().map(|f| f.name) {
        let rec = recorded_figure(figure).expect("known figure");
        let slo = rec.slo_report(&SloPolicy::for_figure(figure));
        assert!(
            slo.passed(),
            "{figure}: SLO breaches at reduced scale:\n{}",
            slo.render_text()
        );
    }
}

#[test]
fn unknown_figure_is_rejected() {
    assert!(recorded_figure("fig99").is_none());
}

#[test]
fn same_seed_telemetry_is_byte_identical() {
    let run = |seed: u64| {
        let rec = saturation::run_recorded(seed, 300);
        let report = rec.queue_report(DEFAULT_LITTLE_TOLERANCE);
        (report.render_text(), report.to_json().render())
    };
    assert_eq!(run(7), run(7), "same seed must replay byte-identically");
    let (_, a_json) = run(7);
    let (_, b_json) = run(8);
    assert_ne!(a_json, b_json, "different seeds must diverge");
}
