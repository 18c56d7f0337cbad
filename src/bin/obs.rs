//! The observability CLI: one binary, three views of a figure run.
//!
//! ```text
//! cargo run --bin obs -- report                        # saturation workload, seed 42
//! cargo run --bin obs -- report --seed 7 --calls 800
//! cargo run --bin obs -- report --figure rpc_micro --figure fig9 --slo
//! cargo run --bin obs -- meter --figure fig_interference --expect-top p4
//! cargo run --bin obs -- meter --all                   # every figure in the table
//! cargo run --bin obs -- diff --figure fig7            # committed vs fresh bundle
//! cargo run --bin obs -- diff --baseline A.json --candidate B.json --verdict
//! ```
//!
//! `report` and `meter` run figures from the table in
//! `cronus::bench::experiments` at their reduced scale (`--seed` replaces
//! the row's seed, `--calls` the size of the default saturation workload)
//! and print, respectively:
//!
//! - the queue observatory's ranked USE report — per-queue utilization,
//!   saturation, errors, the wait/service split and the Little's-law
//!   verdicts — and, with `--slo`, each run's p50/p99 wait budgets. Exits 1
//!   on a Little's-law violation or an error-budget burn > 1.0 (OBSERVABILITY.md,
//!   "Diagnosing the bottleneck");
//! - the resource meter's per-principal ledgers, the fairness summary and
//!   the noisy-neighbor interference matrix, ending with the conservation
//!   self-test. Exits 1 on an imbalance or an `--expect-top` mismatch
//!   (OBSERVABILITY.md, "Who is using the machine?").
//!
//! `diff` compares a baseline `BUNDLE_<name>.json` with a candidate bundle
//! (the `fig` binary writes fresh ones under `target/bench/`) and prints the
//! ranked attribution verdict: which queues and critical-path categories
//! moved, flamegraph frame deltas, bounding-queue transitions and the p99
//! exemplar breakdown. Exits 0 = no significant deltas, 1 = significant
//! deltas, 2 = usage or read/parse error (OBSERVABILITY.md, "Explaining a
//! regression").
//!
//! Every view is deterministic — byte-identical for the same arguments —
//! and `--json` wraps it in the shared `cronus-report/v1` envelope.
//! `scripts/ci.sh --all` gates on all three (`slo`, `meter`, `figs`).

use std::process::ExitCode;

use cronus::bench::baseline::{bundle_baseline_path, bundle_fresh_path};
use cronus::bench::experiments::{figure, FIGURES};
use cronus::obs::diff::{diff_documents, DiffConfig};
use cronus::obs::queue::DEFAULT_LITTLE_TOLERANCE;
use cronus::obs::{report_document, FlightRecorder, Json, SloPolicy};

/// The workload `report` and `meter` run when no `--figure` is given.
const DEFAULT_FIGURE: &str = "saturation";

const USAGE: &str = "usage: obs report [--seed N] [--calls N] [--figure NAME]... [--slo] [--json] [--tolerance X]
       obs meter  [--seed N] [--calls N] [--figure NAME]... [--all] [--json] [--expect-top PRINCIPAL]
       obs diff   (--figure NAME | --baseline PATH --candidate PATH) [--tolerance PCT] [--min-delta-ns N] [--verdict] [--json]";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Cmd {
    Report,
    Meter,
    Diff,
}

impl Cmd {
    fn name(self) -> &'static str {
        match self {
            Cmd::Report => "report",
            Cmd::Meter => "meter",
            Cmd::Diff => "diff",
        }
    }

    /// Exit code of a usage, read or parse error (`diff` reserves 1 for
    /// "significant deltas found").
    fn error(self) -> ExitCode {
        match self {
            Cmd::Diff => ExitCode::from(2),
            Cmd::Report | Cmd::Meter => ExitCode::FAILURE,
        }
    }
}

struct Options {
    seed: Option<u64>,
    calls: Option<u64>,
    figures: Vec<String>,
    json: bool,
    slo: bool,
    little_tolerance: f64,
    expect_top: Option<String>,
    baseline: Option<String>,
    candidate: Option<String>,
    diff: DiffConfig,
    verdict_only: bool,
}

/// Parses the flags of subcommand `cmd`; `Ok(None)` after `--help`.
fn parse_args(cmd: Cmd, mut args: impl Iterator<Item = String>) -> Result<Option<Options>, String> {
    use Cmd::{Diff, Meter, Report};
    let mut opts = Options {
        seed: None,
        calls: None,
        figures: Vec::new(),
        json: false,
        slo: false,
        little_tolerance: DEFAULT_LITTLE_TOLERANCE,
        expect_top: None,
        baseline: None,
        candidate: None,
        diff: DiffConfig::default(),
        verdict_only: false,
    };
    fn number<T: std::str::FromStr>(v: Option<String>, what: &str) -> Result<T, String> {
        v.and_then(|v| v.parse().ok()).ok_or(what.to_string())
    }
    while let Some(arg) = args.next() {
        match (cmd, arg.as_str()) {
            (Report | Meter, "--seed") => {
                opts.seed = Some(number(args.next(), "--seed requires an integer value")?);
            }
            (Report | Meter, "--calls") => {
                opts.calls = Some(number(args.next(), "--calls requires an integer value")?);
            }
            (Report | Meter, "--figure") => {
                opts.figures
                    .push(args.next().ok_or("--figure requires a name")?);
            }
            (Diff, "--figure") => {
                let name = args.next().ok_or("--figure requires a name")?;
                opts.baseline = Some(bundle_baseline_path(&name).display().to_string());
                opts.candidate = Some(bundle_fresh_path(&name).display().to_string());
            }
            (Report, "--tolerance") => {
                opts.little_tolerance = number(args.next(), "--tolerance requires a number")?;
            }
            (Diff, "--tolerance") => {
                opts.diff.tolerance_pct =
                    number(args.next(), "--tolerance requires a number (percent)")?;
            }
            (Report, "--slo") => opts.slo = true,
            (Meter, "--all") => {
                opts.figures = FIGURES.iter().map(|f| f.name.to_string()).collect();
            }
            (Meter, "--expect-top") => {
                let p = args
                    .next()
                    .ok_or("--expect-top requires a principal (e.g. p4)")?;
                opts.expect_top = Some(p);
            }
            (Diff, "--baseline") => {
                opts.baseline = Some(args.next().ok_or("--baseline requires a path")?);
            }
            (Diff, "--candidate") => {
                opts.candidate = Some(args.next().ok_or("--candidate requires a path")?);
            }
            (Diff, "--min-delta-ns") => {
                opts.diff.min_delta_ns = number(args.next(), "--min-delta-ns requires an integer")?;
            }
            (Diff, "--verdict") => opts.verdict_only = true,
            (_, "--json") => opts.json = true,
            (_, "--help" | "-h") => {
                eprintln!("{USAGE}");
                return Ok(None);
            }
            (_, other) => return Err(format!("unknown argument: {other}")),
        }
    }
    if cmd == Diff && (opts.baseline.is_none() || opts.candidate.is_none()) {
        return Err("need --figure NAME, or both --baseline and --candidate".to_string());
    }
    Ok(Some(opts))
}

/// Runs table row `name` at its reduced scale, with the command line's seed
/// and (for the default workload) call count in place of the row's.
fn recorder_for(name: &str, opts: &Options) -> Option<FlightRecorder> {
    let row = figure(name)?;
    let mut params = row.reduced;
    if let Some(seed) = opts.seed {
        params.seed = seed;
    }
    if let (DEFAULT_FIGURE, Some(calls)) = (name, opts.calls) {
        params.size = calls;
    }
    Some((row.run)(params).recorder)
}

/// `report`, JSON: the queue report plus (with `--slo`) the SLO evaluation.
/// Gate verdicts are carried as booleans so `--json` runs exit exactly like
/// text runs.
fn report_json(figure: &str, rec: &FlightRecorder, opts: &Options) -> (Json, bool) {
    let report = rec.queue_report(opts.little_tolerance);
    let mut ok = report.little_all_within();
    let mut fields = vec![
        ("figure".to_string(), Json::Str(figure.to_string())),
        ("queue".to_string(), report.to_json()),
        ("little_ok".to_string(), Json::Bool(ok)),
    ];
    if opts.slo {
        let slo = rec.slo_report(&SloPolicy::for_figure(figure));
        ok &= slo.passed();
        fields.push(("slo".to_string(), slo.to_json()));
    }
    (Json::Obj(fields), ok)
}

/// `report`, text; returns `false` on a gate failure.
fn report_text(figure: &str, rec: &FlightRecorder, opts: &Options) -> bool {
    println!("=== {figure} ===");
    let report = rec.queue_report(opts.little_tolerance);
    print!("{}", report.render_text());
    let mut ok = report.little_all_within();
    for q in report.little_violations() {
        eprintln!(
            "obs report: {figure}: {} fails Little's law (observed {:.3}, predicted {:.3})",
            q.name, q.little.l_observed, q.little.l_predicted
        );
    }
    if opts.slo {
        let slo = rec.slo_report(&SloPolicy::for_figure(figure));
        print!("{}", slo.render_text());
        for e in slo.breaches() {
            eprintln!(
                "obs report: {figure}: SLO breach on {} ({})",
                e.queue,
                e.kind.as_str()
            );
        }
        ok &= slo.passed();
    }
    println!();
    ok
}

/// `meter`, JSON: one figure's ledgers, fairness, interference matrix and
/// conservation rows.
fn meter_json(figure: &str, rec: &FlightRecorder) -> Json {
    let (principals, conservation) = rec.with(|r| {
        let principals: Vec<Json> = r
            .meter
            .principals()
            .into_iter()
            .map(|p| {
                let streams: Vec<Json> = r
                    .meter
                    .stream_rows(p)
                    .into_iter()
                    .map(|(stream, resource, amount)| {
                        Json::obj([
                            ("stream", Json::U64(stream)),
                            ("resource", Json::Str(resource)),
                            ("amount", Json::U64(amount)),
                        ])
                    })
                    .collect();
                Json::obj([
                    ("principal", Json::Str(p.to_string())),
                    (
                        "usage",
                        cronus::obs::meter::usage_json(&r.meter.usage_of(p)),
                    ),
                    ("streams", Json::Arr(streams)),
                ])
            })
            .collect();
        let conservation: Vec<Json> = r
            .meter
            .conservation_rows(&r.profiler, &r.metrics)
            .into_iter()
            .map(|row| {
                Json::obj([
                    ("resource", Json::Str(row.resource.to_string())),
                    ("metered", Json::U64(row.metered)),
                    ("expected", Json::U64(row.expected)),
                    ("ok", Json::Bool(row.ok())),
                ])
            })
            .collect();
        (principals, conservation)
    });
    Json::obj([
        ("figure", Json::Str(figure.to_string())),
        ("principals", Json::Arr(principals)),
        ("fairness", rec.fairness_report().to_json()),
        ("interference", rec.interference_matrix().to_json()),
        ("conservation", Json::Arr(conservation)),
    ])
}

/// `meter`, text: usage, fairness and interference sections.
fn meter_text(figure: &str, rec: &FlightRecorder) {
    println!("=== {figure} ===");
    rec.with(|r| {
        println!("usage:");
        for p in r.meter.principals() {
            let cells: Vec<String> = r
                .meter
                .usage_of(p)
                .into_iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            println!("  {p}: {}", cells.join(" "));
            for (stream, resource, amount) in r.meter.stream_rows(p) {
                println!("    stream {stream}: {resource}={amount}");
            }
        }
    });

    let fairness = rec.fairness_report();
    println!("fairness:");
    let jain: Vec<String> = fairness
        .jain
        .iter()
        .map(|(k, j)| format!("{k}={j:.4}"))
        .collect();
    println!("  jain {}", jain.join(" "));
    for d in &fairness.dominant {
        println!(
            "  dominant {} -> {} ({:.1}% of machine)",
            d.principal,
            d.resource,
            d.share * 100.0
        );
    }

    let matrix = rec.interference_matrix();
    println!("interference:");
    for victim in matrix.victims() {
        let waited = matrix.waited.get(&victim).copied().unwrap_or(0);
        match matrix.top_interferer_of(victim) {
            Some((top, ns)) => {
                let exemplar = matrix
                    .cells
                    .get(&(victim, top))
                    .and_then(|c| c.exemplar)
                    .map(|e| {
                        format!(
                            " (e.g. req {} waited behind req {} for {} ns)",
                            e.victim_req.0, e.interferer_req.0, e.overlap_ns
                        )
                    })
                    .unwrap_or_default();
                println!(
                    "  {victim} waited {waited} ns; top interferer {top} with {ns} ns{exemplar}"
                );
            }
            None => println!("  {victim} waited {waited} ns; no cross-partition interference"),
        }
    }
    if matrix.victims().is_empty() {
        println!("  (no executor backlog recorded)");
    }
}

/// `meter`'s gate: conservation and `--expect-top`. With `say` it closes
/// the text view with the conservation line and a blank one; the JSON path
/// keeps stdout a single well-formed document.
fn meter_gate(figure: &str, rec: &FlightRecorder, opts: &Options, say: bool) -> bool {
    let mut ok = true;
    match rec.meter_conservation() {
        Ok(rows) if say => println!("conservation: OK ({} resources balanced)", rows.len()),
        Ok(_) => {}
        Err(e) => {
            eprintln!("obs meter: {figure}: {e}");
            ok = false;
        }
    }
    if let Some(expect) = &opts.expect_top {
        let top = rec
            .interference_matrix()
            .top_interferer()
            .map(|(p, _)| p.to_string());
        if top.as_deref() != Some(expect.as_str()) {
            eprintln!(
                "obs meter: {figure}: expected top interferer {expect}, found {}",
                top.as_deref().unwrap_or("none")
            );
            ok = false;
        }
    }
    if say {
        println!();
    }
    ok
}

/// `report` and `meter`: run each named figure and print its view.
fn run_figures(cmd: Cmd, opts: &Options) -> ExitCode {
    let default = [DEFAULT_FIGURE.to_string()];
    let figures = if opts.figures.is_empty() {
        if cmd == Cmd::Report && !opts.json {
            let row = figure(DEFAULT_FIGURE).expect("the default workload is a table row");
            println!(
                "workload: {DEFAULT_FIGURE} (seed {}, {} calls)",
                opts.seed.unwrap_or(row.reduced.seed),
                opts.calls.unwrap_or(row.reduced.size)
            );
        }
        &default[..]
    } else {
        &opts.figures[..]
    };
    let mut ok = true;
    let mut bodies = Vec::new();
    for figure in figures {
        let Some(rec) = recorder_for(figure, opts) else {
            eprintln!("obs {}: unknown figure `{figure}`", cmd.name());
            ok = false;
            continue;
        };
        ok &= match (cmd, opts.json) {
            (Cmd::Report, true) => {
                let (body, figure_ok) = report_json(figure, &rec, opts);
                bodies.push(body);
                figure_ok
            }
            (Cmd::Report, false) => report_text(figure, &rec, opts),
            (_, true) => {
                bodies.push(meter_json(figure, &rec));
                meter_gate(figure, &rec, opts, false)
            }
            (_, false) => {
                meter_text(figure, &rec);
                meter_gate(figure, &rec, opts, true)
            }
        };
    }
    if opts.json {
        let body = Json::obj([("figures", Json::Arr(bodies))]);
        println!("{}", report_document(cmd.name(), body).render());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `diff`: compare two bundle files.
fn run_diff(opts: &Options) -> ExitCode {
    let read = |side: &str, path: &Option<String>| -> Result<String, String> {
        let path = path.as_deref().unwrap_or("");
        std::fs::read_to_string(path).map_err(|e| format!("{side}: {path}: {e}"))
    };
    let result = read("baseline", &opts.baseline).and_then(|base| {
        let cand = read("candidate", &opts.candidate)?;
        diff_documents(&base, &cand, opts.diff).map_err(|e| e.to_string())
    });
    let result = match result {
        Ok(d) => d,
        Err(e) => {
            eprintln!("obs diff: {e}");
            return Cmd::Diff.error();
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

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let cmd = match args.next().as_deref() {
        Some("report") => Cmd::Report,
        Some("meter") => Cmd::Meter,
        Some("diff") => Cmd::Diff,
        Some("--help" | "-h") => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match parse_args(cmd, args) {
        Ok(Some(opts)) if cmd == Cmd::Diff => run_diff(&opts),
        Ok(Some(opts)) => run_figures(cmd, &opts),
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("obs {}: {e}", cmd.name());
            cmd.error()
        }
    }
}
