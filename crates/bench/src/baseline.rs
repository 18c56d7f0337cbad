//! Where the per-figure baselines live, and the one emitter that writes them.
//!
//! Every figure run is archived as one document, the `BUNDLE_<name>.json`
//! telemetry bundle ([`cronus_obs::TelemetryBundle`]): its headline metrics,
//! run parameters, critical-path split, per-queue statistics, folded stacks
//! and exemplar timelines. The copy at the repo root is committed and is the
//! baseline; `fig` writes a fresh one under `target/bench/`.
//!
//! The simulation is deterministic, so the check is byte identity
//! (`tests/baseline_identity.rs`), not a tolerance. To accept a deliberate
//! change run `scripts/rebaseline.sh`, which prints what moved (`obs diff`)
//! and promotes the fresh bundles, and commit the updated files.

use std::fs;
use std::path::{Path, PathBuf};

use crate::artifacts::ARTIFACT_DIR;
use crate::experiments::FigureRun;

/// Path of the committed telemetry bundle for figure `name` (repo root).
pub fn bundle_baseline_path(name: &str) -> PathBuf {
    PathBuf::from(format!("BUNDLE_{name}.json"))
}

/// Path of the fresh telemetry bundle for figure `name` (`target/bench/`).
pub fn bundle_fresh_path(name: &str) -> PathBuf {
    Path::new(ARTIFACT_DIR).join(format!("BUNDLE_{name}.json"))
}

/// Writes the run's bundle to `target/bench/BUNDLE_<name>.json` with a
/// one-line note; an IO error becomes a warning (the figure table is the
/// primary artifact).
pub fn emit(name: &str, run: &FigureRun) {
    let fresh = bundle_fresh_path(name);
    let written = fs::create_dir_all(ARTIFACT_DIR)
        .and_then(|()| fs::write(&fresh, run.bundle(name).to_json()));
    match written {
        Ok(()) => println!("[bench] {name}: wrote {}", fresh.display()),
        Err(e) => eprintln!("[bench] {name}: failed to write bundle: {e}"),
    }
}
