//! The cronus-lint v2 CLI: syntactic secret-taint and panic-reachability
//! analysis for the trusted surface.
//!
//! ```text
//! cargo run --bin lint                     # analyze, ratchet against LINT_BASELINE.json
//! cargo run --bin lint -- --json           # machine-readable report
//! cargo run --bin lint -- --no-baseline    # raw findings, ratchet not applied
//! cargo run --bin lint -- --baseline F     # ratchet against an alternate file
//! cargo run --bin lint -- --write-baseline # regenerate LINT_BASELINE.json (relint.sh)
//! cargo run --bin lint -- --explain RULE   # print a rule's catalog entry
//! cargo run --bin lint -- --rules          # list every rule
//! ```
//!
//! Exits non-zero on any visible finding (new finding over baseline,
//! stale baseline entry, or unused allowlist entry). See `AUDIT.md` for
//! the rule catalog and the baseline-ratchet workflow.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cronus::audit::baseline::{self, Baseline};
use cronus::audit::engine::{run, Report, SourceSet};
use cronus::audit::rules::{rule, RULES};

fn main() -> ExitCode {
    let mut json = false;
    let mut use_baseline = true;
    let mut write_baseline = false;
    let mut baseline_path: Option<PathBuf> = None;
    let mut explain: Option<String> = None;
    let mut list_rules = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--no-baseline" => use_baseline = false,
            "--write-baseline" => write_baseline = true,
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => return usage("--baseline needs a file argument"),
            },
            "--explain" => match args.next() {
                Some(r) => explain = Some(r),
                None => return usage("--explain needs a rule name"),
            },
            "--rules" => list_rules = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: lint [--json] [--no-baseline] [--baseline FILE] \
                     [--write-baseline] [--explain RULE] [--rules]"
                );
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
    let mut report = run(&set);

    let base_file = baseline_path.unwrap_or_else(|| root.join("LINT_BASELINE.json"));
    if write_baseline {
        let base = Baseline::from_findings(&report.findings);
        let n = base.entries.len();
        if let Err(e) = fs::write(&base_file, base.render()) {
            eprintln!("lint: cannot write {}: {e}", base_file.display());
            return ExitCode::FAILURE;
        }
        println!(
            "lint: wrote {} ({} entr{} accepting {} finding(s))",
            base_file.display(),
            n,
            if n == 1 { "y" } else { "ies" },
            report.findings.len(),
        );
        return ExitCode::SUCCESS;
    }

    let mut suppressed = 0usize;
    if use_baseline {
        let base = match fs::read_to_string(&base_file) {
            Ok(text) => match Baseline::parse(&text) {
                Ok(b) => b,
                Err(msg) => {
                    eprintln!("lint: malformed {}: {msg}", base_file.display());
                    return ExitCode::FAILURE;
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Baseline::default(),
            Err(e) => {
                eprintln!("lint: cannot read {}: {e}", base_file.display());
                return ExitCode::FAILURE;
            }
        };
        let (visible, n) = baseline::apply(std::mem::take(&mut report.findings), &base);
        report.findings = visible;
        suppressed = n;
    }

    render(&report, json, suppressed, use_baseline);
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn render(report: &Report, json: bool, suppressed: usize, ratcheted: bool) {
    if json {
        print!("{}", report.render_json());
        return;
    }
    print!("{}", report.render());
    if ratcheted {
        println!("baseline: {suppressed} accepted finding(s) suppressed by LINT_BASELINE.json");
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("lint: {msg} (try --help)");
    ExitCode::FAILURE
}
