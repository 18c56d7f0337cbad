//! The simulated results did not move: every gated figure, regenerated
//! in-process through the entry points its binary calls, must render the
//! committed repo-root `BENCH_<name>.json` and `BUNDLE_<name>.json` byte for
//! byte.
//!
//! This is the proof obligation of any change that claims to touch only the
//! host clock (a faster recorder, a cheaper call path): identity, not a
//! tolerance. A deliberate change to a simulated result fails here until
//! `scripts/rebaseline.sh` has been run and its diff committed.
//!
//! Each figure runs with the arguments its binary defaults to, which are the
//! ones the committed files were generated with (the report's `meta` records
//! them, so a mismatch shows up as a diff in `meta`, not as a mystery).

use std::path::Path;

use cronus::bench::baseline::{self, Headline};
use cronus::bench::experiments::{
    fig10, fig11, fig7, fig8, fig9, interference, rpc_micro, saturation,
};
use cronus::obs::FlightRecorder;

fn meta(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Renders the report and bundle of one finished run exactly as
/// `baseline::emit` writes them and compares both with the committed files.
fn assert_identical(
    name: &str,
    headlines: Vec<Headline>,
    meta: Vec<(String, String)>,
    rec: &FlightRecorder,
) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let committed = |file: String| {
        std::fs::read_to_string(root.join(&file)).unwrap_or_else(|e| panic!("{file}: {e}"))
    };
    let report = baseline::report(name, headlines, meta, rec);
    assert_eq!(
        report.to_json(),
        committed(format!("BENCH_{name}.json")),
        "BENCH_{name}.json moved: a simulated headline changed"
    );
    assert_eq!(
        baseline::bundle_for(&report, rec).to_json(),
        committed(format!("BUNDLE_{name}.json")),
        "BUNDLE_{name}.json moved: simulated telemetry changed"
    );
}

#[test]
fn fig7_is_byte_identical() {
    let (rows, rec) = fig7::run_recorded(4);
    assert_identical(
        "fig7",
        fig7::headlines(&rows),
        meta(&[("scale", "4")]),
        &rec,
    );
}

#[test]
fn fig8_is_byte_identical() {
    let (rows, rec) = fig8::run_recorded();
    assert_identical("fig8", fig8::headlines(&rows), Vec::new(), &rec);
}

#[test]
fn fig9_is_byte_identical() {
    let data = fig9::run();
    assert_identical("fig9", fig9::headlines(&data), Vec::new(), &data.recorder);
}

#[test]
fn fig10a_is_byte_identical() {
    let (rows, rec) = fig10::run_10a_recorded(2);
    assert_identical(
        "fig10a",
        fig10::headlines_10a(&rows),
        meta(&[("scale", "2")]),
        &rec,
    );
}

#[test]
fn fig10b_is_byte_identical() {
    let (rows, rec) = fig10::run_10b_recorded();
    assert_identical("fig10b", fig10::headlines_10b(&rows), Vec::new(), &rec);
}

#[test]
fn fig11a_is_byte_identical() {
    let (points, rec) = fig11::run_11a_recorded(&[1, 2, 4]);
    assert_identical("fig11a", fig11::headlines_11a(&points), Vec::new(), &rec);
}

#[test]
fn fig11b_is_byte_identical() {
    let (points, rec) = fig11::run_11b_recorded(&[1, 2, 4]);
    assert_identical("fig11b", fig11::headlines_11b(&points), Vec::new(), &rec);
}

#[test]
fn rpc_micro_is_byte_identical() {
    let (costs, stats, rec) = rpc_micro::run_recorded(1000);
    let (grant_per_call, _) = rpc_micro::grant_micro(256);
    assert_identical(
        "rpc_micro",
        rpc_micro::headlines(&costs, &stats, grant_per_call),
        meta(&[("calls", "1000")]),
        &rec,
    );
}

#[test]
fn saturation_is_byte_identical() {
    let rec = saturation::run_recorded(42, 400);
    assert_identical(
        "saturation",
        vec![Headline::ns("total_sim_ns", rec.total_elapsed())],
        meta(&[("seed", "42"), ("calls", "400")]),
        &rec,
    );
}

#[test]
fn fig_interference_is_byte_identical() {
    let run = interference::run_recorded(42, 24);
    assert_identical(
        "fig_interference",
        run.headlines(),
        run.meta(42, 24),
        &run.recorder,
    );
}
