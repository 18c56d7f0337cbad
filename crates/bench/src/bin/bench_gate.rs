//! The bench-regression gate.
//!
//! Compares the fresh `target/bench/BENCH_<name>.json` reports (written by
//! the figure binaries) against the committed repo-root baselines and exits
//! non-zero when any headline metric regressed past the tolerance
//! (`BENCH_TOLERANCE_PCT`, default 10%). Figures without a fresh report are
//! skipped, so `scripts/ci.sh --all` can gate on a fast subset while a
//! full `cargo run -p cronus-bench --bin all` enables gating on everything.
//! A report that *exists* but cannot be read (IO error, schema mismatch) is
//! a hard failure, never a silent skip.
//!
//! When a headline regresses, the gate loads the figure's committed
//! `BUNDLE_<name>.json` and the fresh bundle and prints the differential
//! attribution verdict (ranked guilty queues/categories with evidence), so
//! a red gate names the suspect instead of just the symptom.
//!
//! To accept a deliberate metric change, run `scripts/rebaseline.sh` and
//! commit the updated `BENCH_*.json` and `BUNDLE_*.json` files.
//!
//! The gate also enforces the multi-queue fast path's standing contract:
//! no figure — committed baseline or fresh run — may report
//! `bounding_category == "queue"`. Per-stream rings and doorbell batching
//! removed protocol queueing from every critical path; a figure drifting
//! back to queue-bound is a regression even if its headline numbers are
//! still inside tolerance.

use cronus_bench::baseline::{self, BenchReport, DEFAULT_TOLERANCE_PCT};
use cronus_obs::diff::{diff, DiffConfig};

/// Every figure that can emit a report, in paper order.
const FIGURES: &[&str] = &[
    "fig7",
    "fig8",
    "fig9",
    "fig10a",
    "fig10b",
    "fig11a",
    "fig11b",
    "rpc_micro",
    "saturation",
    "chaos",
    "fig_interference",
];

/// Loads a report. `Ok(None)` = file absent (skippable); `Err` = file
/// present but unreadable (gate must fail).
fn load_or_fail(path: &std::path::Path, failed: &mut bool) -> Option<BenchReport> {
    match baseline::load(path) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("[gate] unreadable report: {e}");
            *failed = true;
            None
        }
    }
}

/// Fails the gate if a report's critical path is bounded by protocol
/// queueing. Since the per-stream multi-queue rings landed, every figure is
/// expected to be kernel-, backlog- or recovery-bound; `"queue"` means the
/// sRPC fast path stopped doing its job.
fn assert_not_queue_bound(name: &str, which: &str, rep: &BenchReport, failed: &mut bool) {
    // fig_interference is contended by design: a noisy neighbor is
    // injected precisely so the victim queues behind it, and the meter's
    // interference matrix — not this gate — is the check that the blame
    // lands on the right partition.
    if name == "fig_interference" {
        return;
    }
    let is_queue_bound = rep
        .meta
        .iter()
        .any(|(k, v)| k == "bounding_category" && v == "queue");
    if is_queue_bound {
        eprintln!(
            "[gate] {name}: {which} is queue-bound (meta bounding_category == \"queue\") — \
             the multi-queue sRPC fast path must keep figures off protocol queueing"
        );
        *failed = true;
    }
}

/// Prints the attribution verdict for a regressed figure, when both bundles
/// are available.
fn print_verdict(name: &str, tol: f64) {
    let base = match baseline::load_bundle(&baseline::bundle_baseline_path(name)) {
        Ok(Some(b)) => b,
        Ok(None) => {
            eprintln!(
                "[gate] {name}: no committed bundle ({}) — run scripts/rebaseline.sh \
                 to enable regression attribution",
                baseline::bundle_baseline_path(name).display()
            );
            return;
        }
        Err(e) => {
            eprintln!("[gate] {name}: unreadable bundle: {e}");
            return;
        }
    };
    let fresh = match baseline::load_bundle(&baseline::bundle_fresh_path(name)) {
        Ok(Some(b)) => b,
        Ok(None) => {
            eprintln!("[gate] {name}: no fresh bundle, cannot attribute");
            return;
        }
        Err(e) => {
            eprintln!("[gate] {name}: unreadable fresh bundle: {e}");
            return;
        }
    };
    let cfg = DiffConfig {
        tolerance_pct: tol,
        ..DiffConfig::default()
    };
    let verdict = diff(&base, &fresh, cfg).verdict_text();
    for line in verdict.lines() {
        eprintln!("[gate] {name}: {line}");
    }
}

fn main() {
    let tol = std::env::var("BENCH_TOLERANCE_PCT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_TOLERANCE_PCT);
    println!("[gate] tolerance {tol}% (override with BENCH_TOLERANCE_PCT)");

    let mut compared = 0usize;
    let mut failed = false;
    for name in FIGURES {
        // Queue-boundedness is checked on every rebaselined figure, even
        // ones the current run produced no fresh report for.
        let base = load_or_fail(&baseline::baseline_path(name), &mut failed);
        if let Some(base) = &base {
            assert_not_queue_bound(name, "committed baseline", base, &mut failed);
        }
        let Some(fresh) = load_or_fail(&baseline::fresh_path(name), &mut failed) else {
            println!("[gate] {name}: no fresh report, skipped");
            continue;
        };
        assert_not_queue_bound(name, "fresh report", &fresh, &mut failed);
        let Some(base) = base else {
            println!(
                "[gate] {name}: no committed baseline ({}), skipped — \
                 run scripts/rebaseline.sh and commit it",
                baseline::baseline_path(name).display()
            );
            continue;
        };
        if base.meta != fresh.meta {
            println!(
                "[gate] {name}: run parameters differ from baseline ({:?} vs {:?}), skipped",
                base.meta, fresh.meta
            );
            continue;
        }
        compared += 1;
        let regressions = baseline::compare(&base, &fresh, tol);
        for b in &base.headlines {
            if !fresh.headlines.iter().any(|f| f.key == b.key) {
                eprintln!("[gate] {name}: headline `{}` missing from fresh run", b.key);
                failed = true;
            }
        }
        if regressions.is_empty() {
            println!("[gate] {name}: ok ({} headlines)", base.headlines.len());
            continue;
        }
        failed = true;
        for r in &regressions {
            eprintln!(
                "[gate] {name}: REGRESSION {}: baseline {:.1} -> fresh {:.1} ({:+.1}%, {} is better)",
                r.key,
                r.baseline,
                r.fresh,
                r.delta_pct,
                match r.better {
                    baseline::Better::Lower => "lower",
                    baseline::Better::Higher => "higher",
                }
            );
        }
        print_verdict(name, tol);
    }

    if failed {
        eprintln!(
            "[gate] FAILED — if the change is intentional, re-baseline with \
             scripts/rebaseline.sh and commit the updated BENCH_*.json and BUNDLE_*.json"
        );
        std::process::exit(1);
    }
    println!("[gate] passed ({compared} figures compared)");
}
