//! The cronus-lint v2 CLI: syntactic secret-taint and panic-reachability
//! analysis for the trusted surface.
//!
//! ```text
//! cargo run --bin lint                     # analyze; the gate passes at zero findings
//! cargo run --bin lint -- --json           # machine-readable report
//! cargo run --bin lint -- --explain RULE   # print a rule's catalog entry
//! cargo run --bin lint -- --rules          # list every rule
//! ```
//!
//! Exits non-zero on any finding, an unused allowlist entry included. See
//! `AUDIT.md` for the rule catalog.

use std::path::Path;
use std::process::ExitCode;

use cronus::audit::engine::{run, SourceSet};
use cronus::audit::rules::{rule, RULES};

fn main() -> ExitCode {
    let mut json = false;
    let mut explain: Option<String> = None;
    let mut list_rules = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--explain" => match args.next() {
                Some(r) => explain = Some(r),
                None => return usage("--explain needs a rule name"),
            },
            "--rules" => list_rules = true,
            "--help" | "-h" => {
                eprintln!("usage: lint [--json] [--explain RULE] [--rules]");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument: {other}")),
        }
    }

    if list_rules {
        for r in RULES {
            println!("{:<28} {}", r.name, r.summary);
        }
        return ExitCode::SUCCESS;
    }
    if let Some(name) = explain {
        return match rule(&name) {
            Some(r) => {
                println!("{}: {}\n\n{}", r.name, r.summary, r.explain);
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "lint: unknown rule `{name}`; known rules: {}",
                    RULES.iter().map(|r| r.name).collect::<Vec<_>>().join(", ")
                );
                ExitCode::FAILURE
            }
        };
    }

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let set = match SourceSet::load(root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lint: failed to load sources: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = run(&set);
    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render());
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("lint: {msg} (try --help)");
    ExitCode::FAILURE
}
