//! The bottleneck-attribution report.
//!
//! ```text
//! cargo run --bin obs-report                       # saturation workload, seed 42
//! cargo run --bin obs-report -- --seed 7 --calls 800
//! cargo run --bin obs-report -- --figure fig9      # point the analyzer at a figure
//! cargo run --bin obs-report -- --figure rpc_micro --figure fig9 --slo
//! ```
//!
//! Runs a workload on the simulated platform, then prints the queue
//! observatory's ranked USE report: per-queue utilization, saturation
//! (depth/occupancy), errors, the wait/service split and the Little's-law
//! cross-check verdicts. With `--slo`, also evaluates each run against its
//! per-figure p50/p99 wait budgets and exits non-zero on any error-budget
//! burn > 1.0 or Little's-law violation — `scripts/ci.sh --all` (gate `slo`) gates on
//! exactly this. See OBSERVABILITY.md, "Diagnosing the bottleneck".

use std::process::ExitCode;

use cronus::bench::experiments::{recorded_figure, saturation};
use cronus::obs::queue::DEFAULT_LITTLE_TOLERANCE;
use cronus::obs::{report_document, FlightRecorder, Json, SloPolicy, SloReport};

const DEFAULT_SEED: u64 = 42;
const DEFAULT_CALLS: u64 = 400;

struct Options {
    seed: u64,
    calls: u64,
    figures: Vec<String>,
    slo: bool,
    json: bool,
    tolerance: f64,
}

fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        seed: DEFAULT_SEED,
        calls: DEFAULT_CALLS,
        figures: Vec::new(),
        slo: false,
        json: false,
        tolerance: DEFAULT_LITTLE_TOLERANCE,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed requires an integer value")?;
            }
            "--calls" => {
                opts.calls = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--calls requires an integer value")?;
            }
            "--figure" => {
                let name = args.next().ok_or("--figure requires a name")?;
                opts.figures.push(name);
            }
            "--tolerance" => {
                opts.tolerance = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--tolerance requires a number")?;
            }
            "--slo" => opts.slo = true,
            "--json" => opts.json = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: obs-report [--seed N] [--calls N] [--figure NAME]... \
                     [--slo] [--json] [--tolerance X]"
                );
                return Ok(None);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Some(opts))
}

/// Builds the JSON body for one figure: the queue report plus (with
/// `--slo`) the SLO evaluation, in the shared `cronus-report/v1` envelope's
/// figure shape. Gate verdicts are carried as booleans so `--json` runs
/// exit exactly like text runs.
fn analyze_json(figure: &str, rec: &FlightRecorder, opts: &Options) -> (Json, bool) {
    let report = rec.queue_report(opts.tolerance);
    let mut ok = report.little_all_within();
    let mut fields = vec![
        ("figure".to_string(), Json::Str(figure.to_string())),
        ("queue".to_string(), report.to_json()),
        (
            "little_ok".to_string(),
            Json::Bool(report.little_all_within()),
        ),
    ];
    if opts.slo {
        let policy = SloPolicy::for_figure(figure);
        let slo: SloReport = rec.slo_report(&policy);
        if !slo.passed() {
            ok = false;
        }
        fields.push(("slo".to_string(), slo.to_json()));
    }
    (Json::Obj(fields), ok)
}

/// Runs one workload and reports on it; returns `false` on a gate failure.
fn analyze(figure: &str, rec: &FlightRecorder, opts: &Options) -> bool {
    println!("=== {figure} ===");
    let report = rec.queue_report(opts.tolerance);
    print!("{}", report.render_text());
    let mut ok = report.little_all_within();
    if !ok {
        for q in report.little_violations() {
            eprintln!(
                "obs-report: {figure}: {} fails Little's law (observed {:.3}, predicted {:.3})",
                q.name, q.little.l_observed, q.little.l_predicted
            );
        }
    }
    if opts.slo {
        let policy = SloPolicy::for_figure(figure);
        let slo: SloReport = rec.slo_report(&policy);
        print!("{}", slo.render_text());
        if !slo.passed() {
            for e in slo.breaches() {
                eprintln!(
                    "obs-report: {figure}: SLO breach on {} ({})",
                    e.queue,
                    e.kind.as_str()
                );
            }
            ok = false;
        }
    }
    println!();
    ok
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("obs-report: {e}");
            return ExitCode::FAILURE;
        }
    };

    let figures = if opts.figures.is_empty() {
        if !opts.json {
            println!(
                "workload: saturation (seed {}, {} calls)",
                opts.seed, opts.calls
            );
        }
        vec!["saturation".to_string()]
    } else {
        opts.figures.clone()
    };

    let mut ok = true;
    let mut bodies = Vec::new();
    for figure in &figures {
        let rec = if figure == "saturation" {
            Some(saturation::run_recorded(opts.seed, opts.calls))
        } else {
            recorded_figure(figure)
        };
        match rec {
            Some(rec) if opts.json => {
                let (body, figure_ok) = analyze_json(figure, &rec, &opts);
                bodies.push(body);
                ok &= figure_ok;
            }
            Some(rec) => ok &= analyze(figure, &rec, &opts),
            None => {
                eprintln!("obs-report: unknown figure `{figure}`");
                ok = false;
            }
        }
    }
    if opts.json {
        let body = Json::obj([("figures", Json::Arr(bodies))]);
        println!("{}", report_document("report", body).render());
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
