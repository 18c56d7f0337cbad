//! Differential performance forensics between two telemetry bundles.
//!
//! ```text
//! cargo run --bin obs-diff -- --baseline BUNDLE_fig7.json --candidate target/bench/BUNDLE_fig7.json
//! cargo run --bin obs-diff -- --figure fig7                 # committed vs fresh, shorthand
//! cargo run --bin obs-diff -- --figure fig7 --tolerance 5 --min-delta-ns 500
//! cargo run --bin obs-diff -- --figure fig7 --verdict       # ranked attribution only
//! ```
//!
//! Compares a baseline `BUNDLE_<name>.json` (committed by
//! `scripts/rebaseline.sh`) against a candidate bundle (written by the
//! figure binaries under `target/bench/`) and prints the ranked attribution
//! verdict: which queues and critical-path categories moved, flamegraph
//! frame deltas, bounding-queue transitions and the p99 exemplar breakdown.
//! Output is deterministic — byte-identical for the same pair of files.
//!
//! Exit codes: 0 = no significant deltas, 1 = significant deltas found,
//! 2 = usage or read/parse error. `scripts/ci.sh --all` (gate `diff`) self-diffs every
//! committed bundle against a fresh run and requires exit 0. See
//! OBSERVABILITY.md, "Explaining a regression".

use std::process::ExitCode;

use cronus::obs::diff::{diff_documents, DiffConfig};
use cronus::obs::report_document;

struct Options {
    baseline: Option<String>,
    candidate: Option<String>,
    config: DiffConfig,
    verdict_only: bool,
    json: bool,
}

fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        baseline: None,
        candidate: None,
        config: DiffConfig::default(),
        verdict_only: false,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => {
                opts.baseline = Some(args.next().ok_or("--baseline requires a path")?);
            }
            "--candidate" => {
                opts.candidate = Some(args.next().ok_or("--candidate requires a path")?);
            }
            "--figure" => {
                let name = args.next().ok_or("--figure requires a name")?;
                opts.baseline = Some(format!("BUNDLE_{name}.json"));
                opts.candidate = Some(format!("target/bench/BUNDLE_{name}.json"));
            }
            "--tolerance" => {
                opts.config.tolerance_pct = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--tolerance requires a number (percent)")?;
            }
            "--min-delta-ns" => {
                opts.config.min_delta_ns = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--min-delta-ns requires an integer")?;
            }
            "--verdict" => opts.verdict_only = true,
            "--json" => opts.json = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: obs-diff (--figure NAME | --baseline PATH --candidate PATH) \
                     [--tolerance PCT] [--min-delta-ns N] [--verdict] [--json]"
                );
                return Ok(None);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if opts.baseline.is_none() || opts.candidate.is_none() {
        return Err("need --figure NAME, or both --baseline and --candidate".to_string());
    }
    Ok(Some(opts))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("obs-diff: {e}");
            return ExitCode::from(2);
        }
    };
    let (base_path, cand_path) = (
        opts.baseline.as_deref().unwrap_or(""),
        opts.candidate.as_deref().unwrap_or(""),
    );
    let read = |path: &str| -> Result<String, String> {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    };
    let base_doc = match read(base_path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("obs-diff: baseline: {e}");
            return ExitCode::from(2);
        }
    };
    let cand_doc = match read(cand_path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("obs-diff: candidate: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match diff_documents(&base_doc, &cand_doc, opts.config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("obs-diff: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.json {
        println!("{}", report_document("diff", result.to_json()).render());
    } else if opts.verdict_only {
        print!("{}", result.verdict_text());
    } else {
        print!("{}", result.render_text());
    }
    if result.has_significant_deltas() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
