//! Attribution correctness of the differential forensics engine.
//!
//! Uses the `cronus_core::inject` completion-delay fault to deterministically
//! slow one device queue in fig7, then asserts the `obs diff` engine ranks
//! exactly that queue (and the `queue` critical-path category) as the top
//! regression with the right sign and magnitude. Also pins the two
//! determinism surfaces the CLI promises: bundles are byte-identical across
//! runs of the same seed, and a diff is byte-identical per (bundle, bundle)
//! pair.

use cronus::bench::experiments::fig7;
use cronus::core::{ArmedFault, FaultAction, SrpcPhase};
use cronus::obs::diff::{diff, AttributionKind, DiffConfig};
use cronus::obs::TelemetryBundle;
use cronus_sim::SimNs;

const SCALE: usize = 2;
const DELAY: SimNs = SimNs::from_millis(500);

/// Runs fig7 (optionally faulted) and captures its telemetry bundle the way
/// the figure's table row does.
fn fig7_bundle(fault: Option<ArmedFault>) -> TelemetryBundle {
    let (rows, rec) = fig7::run_recorded_faulted(SCALE, fault);
    TelemetryBundle::capture(
        "fig7",
        fig7::headlines(&rows),
        vec![("scale".to_string(), SCALE.to_string())],
        &rec,
    )
}

fn delay_fault() -> ArmedFault {
    ArmedFault {
        phase: SrpcPhase::Dispatch,
        action: FaultAction::DelayCompletion(DELAY),
        stream: None,
    }
}

#[test]
fn injected_delay_is_attributed_to_the_slowed_queue() {
    let clean = fig7_bundle(None);
    let slowed = fig7_bundle(Some(delay_fault()));
    let d = diff(&clean, &slowed, DiffConfig::default());
    // Visible with --nocapture; OBSERVABILITY.md's worked example is this.
    println!("{}", d.verdict_text());
    assert!(d.has_significant_deltas(), "500ms delay must be visible");

    // The fault strikes at dispatch on the CRONUS GPU stream, so the ring
    // the suite queues on (lane 0 of its single-lane device stream)
    // must be the top-ranked *queue* suspect...
    let top_queue = d
        .top_of_kind(AttributionKind::Queue)
        .expect("a queue suspect");
    assert_eq!(
        top_queue.subject,
        "srpc.ring:1.0",
        "wrong queue blamed: {}",
        d.verdict_text()
    );
    // ...with the right sign (regression = positive delta) and at least the
    // injected magnitude (every later arrival also waits behind the stall).
    assert!(top_queue.delta_ns > 0, "sign: {}", top_queue.delta_ns);
    // (1ms slack: the stalled slot's pre-existing wait overlaps the delay.)
    let injected = DELAY.as_nanos() as i64;
    assert!(
        top_queue.delta_ns >= injected - 1_000_000,
        "magnitude: {} well below injected {injected}",
        top_queue.delta_ns,
    );
    assert!(
        top_queue.delta_ns <= injected * 10,
        "magnitude: {} implausibly above injected {injected}",
        top_queue.delta_ns,
    );

    // The critical-path view must agree: a completion delay shows up as
    // requests waiting behind the stalled executor, i.e. the `backlog`
    // category grew most.
    let top_cat = d
        .top_of_kind(AttributionKind::Category)
        .expect("a category suspect");
    assert_eq!(
        top_cat.subject,
        "backlog",
        "wrong category blamed: {}",
        d.verdict_text()
    );
    assert!(top_cat.delta_ns > 0);

    // And the overall ranking leads with one of the two views of the same
    // injected stall.
    let top = d.top_attribution().expect("a top suspect");
    assert!(
        top.subject == "srpc.ring:1.0" || top.subject == "backlog",
        "top suspect {} is neither view of the stall: {}",
        top.subject,
        d.verdict_text()
    );

    // The verdict names the guilty queue.
    let verdict = d.verdict_text();
    assert!(verdict.contains("queue srpc.ring:1.0"), "{verdict}");
}

#[test]
fn bundles_are_byte_identical_per_seed() {
    let a = fig7_bundle(None);
    let b = fig7_bundle(None);
    assert_eq!(a.to_json(), b.to_json());
    let fa = fig7_bundle(Some(delay_fault()));
    let fb = fig7_bundle(Some(delay_fault()));
    assert_eq!(fa.to_json(), fb.to_json());
}

#[test]
fn diff_is_byte_identical_per_pair_and_self_diff_is_clean() {
    let clean = fig7_bundle(None);
    let slowed = fig7_bundle(Some(delay_fault()));
    let once = diff(&clean, &slowed, DiffConfig::default()).render_text();
    let twice = diff(&clean, &slowed, DiffConfig::default()).render_text();
    assert_eq!(once, twice);

    let self_diff = diff(&clean, &clean, DiffConfig::default());
    assert!(!self_diff.has_significant_deltas());
    assert!(
        self_diff.verdict_text().contains("no significant deltas"),
        "{}",
        self_diff.verdict_text()
    );
}
