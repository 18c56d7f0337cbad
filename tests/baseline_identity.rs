//! The simulated results did not move: every row of the figure table,
//! regenerated in-process with its committed parameters, must render the
//! committed repo-root `BUNDLE_<name>.json` byte for byte.
//!
//! This is the one check on the baselines, and the proof obligation of any
//! change that claims to touch only the host clock (a faster recorder, a
//! cheaper call path): identity, not a tolerance. A deliberate change to a
//! simulated result fails here until `scripts/rebaseline.sh` has been run
//! and its diff committed. The bundle's `meta` records the run parameters,
//! so a row edited without rebaselining shows up as a diff in `meta`.
//!
//! One test per row, so a run names every figure that moved, not the first;
//! `every_row_is_checked_and_committed` keeps the tests, the table and the
//! committed files in step.

use std::path::Path;

use cronus::bench::baseline::bundle_baseline_path;
use cronus::bench::experiments::{figure, FIGURES};

/// Regenerates row `name` and compares it with the committed bundle.
fn assert_identical(name: &str) {
    let row = figure(name).unwrap_or_else(|| panic!("{name} is not in the figure table"));
    let bundle = (row.run)(row.committed).bundle(name);
    // The multi-queue fast path's standing contract: per-stream rings and
    // doorbell batching took protocol queueing off every critical path, so a
    // figure drifting back to queue-bound is a regression whatever its
    // headlines say. fig_interference is contended by design: a noisy
    // neighbor is injected precisely so the victim queues behind it, and the
    // meter's interference matrix is the check that the blame lands right.
    if name != "fig_interference" {
        let bound = bundle.meta.iter().find(|(k, _)| k == "bounding_category");
        assert_ne!(
            bound.map(|(_, v)| v.as_str()),
            Some("queue"),
            "{name} is queue-bound: the sRPC fast path must keep figures off protocol queueing"
        );
    }
    let file = Path::new(env!("CARGO_MANIFEST_DIR")).join(bundle_baseline_path(name));
    let committed =
        std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
    assert_eq!(
        bundle.to_json(),
        committed,
        "BUNDLE_{name}.json moved: a simulated result changed"
    );
}

/// Declares one identity test per named row (`<name>_is_byte_identical`)
/// and the test that their names are exactly the table's.
macro_rules! identity_tests {
    ($($test:ident)*) => {
        /// The row names, from the test names.
        const TESTED: &[&str] = &[$(stringify!($test)),*];

        fn row_of(test: &str) -> &str {
            test.strip_suffix("_is_byte_identical")
                .expect("test named <figure>_is_byte_identical")
        }

        $(#[test]
        fn $test() {
            assert_identical(row_of(stringify!($test)));
        })*

        /// Table ↔ tests ↔ files: every row has a test here and a committed
        /// bundle, every committed bundle has a row, and the predecessor
        /// format is gone.
        #[test]
        fn every_row_is_checked_and_committed() {
            let mut rows: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
            let tested: Vec<&str> = TESTED.iter().map(|t| row_of(t)).collect();
            assert_eq!(tested, rows, "one identity test per table row, in table order");

            let mut committed = Vec::new();
            for entry in std::fs::read_dir(env!("CARGO_MANIFEST_DIR")).expect("repo root") {
                let file = entry.expect("dir entry").file_name();
                let file = file.to_string_lossy().into_owned();
                assert!(!file.starts_with("BENCH_"), "{file}: BUNDLE_* is the one artefact");
                if file.starts_with("BUNDLE_") {
                    committed.push(file);
                }
            }
            committed.sort();
            rows.sort_unstable();
            let expected: Vec<_> = rows.iter().map(|r| bundle_baseline_path(r)).collect();
            let committed: Vec<_> = committed.iter().map(std::path::PathBuf::from).collect();
            assert_eq!(committed, expected, "one BUNDLE_<name>.json per table row");
        }
    };
}

identity_tests! {
    fig7_is_byte_identical
    fig8_is_byte_identical
    fig9_is_byte_identical
    fig10a_is_byte_identical
    fig10b_is_byte_identical
    fig11a_is_byte_identical
    fig11b_is_byte_identical
    rpc_micro_is_byte_identical
    saturation_is_byte_identical
    fig_interference_is_byte_identical
    chaos_is_byte_identical
}
