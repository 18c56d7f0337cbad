//! The fault-injection campaign runner.
//!
//! ```text
//! cargo run --bin chaos                 # full sweep (every workload × phase × action)
//! cargo run --bin chaos -- --smoke      # CI subset: one injection per phase
//! cargo run --bin chaos -- --seed 7     # different (still deterministic) seed
//! ```
//!
//! Exits non-zero if any scenario violates an invariant. The full sweep is
//! the `chaos` row of the figure table (`cronus::bench::experiments`): it
//! also writes `target/bench/BUNDLE_chaos.json`, whose committed copy
//! `tests/baseline_identity.rs` holds the campaign's headline numbers to.
//!
//! See `FAULTS.md` for the injection taxonomy and how to read the report.

use std::process::ExitCode;

use cronus::bench::baseline::emit;
use cronus::bench::experiments::{chaos, figure};
use cronus::chaos::{run_campaign, InjectionPlan};

fn main() -> ExitCode {
    let row = figure("chaos").expect("the figure table has a chaos row");
    let mut smoke = false;
    let mut seed = row.committed.seed;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => {
                    eprintln!("--seed requires an integer value");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: chaos [--smoke] [--seed N]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let plan = if smoke {
        InjectionPlan::smoke(seed)
    } else {
        InjectionPlan::full(seed)
    };
    let report = run_campaign(&plan);
    print!("{}", report.render());

    if !smoke {
        emit(row.name, &chaos::of_campaign(&report, seed));
    }

    if report.violations() > 0 {
        eprintln!(
            "chaos: {} scenario(s) violated an invariant",
            report.violations()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
