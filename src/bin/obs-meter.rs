//! Per-partition resource metering: "who is using the machine?"
//!
//! ```text
//! cargo run --bin obs-meter                              # saturation workload
//! cargo run --bin obs-meter -- --figure fig_interference
//! cargo run --bin obs-meter -- --all                     # every figure
//! cargo run --bin obs-meter -- --figure fig_interference --json
//! cargo run --bin obs-meter -- --figure fig_interference --expect-top p4
//! ```
//!
//! Runs a workload on the simulated platform, then prints the resource
//! meter's per-principal ledgers (CPU/SM/NPU time, DMA bytes, ring-slot
//! and arena occupancy, stage-2 pages, world switches, with stream-level
//! sub-accounts), the fairness summary (Jain's index per resource,
//! dominant-resource shares) and the noisy-neighbor interference matrix.
//! Every run ends with the conservation self-test: per-principal charges
//! must sum *exactly* to the profiler's category totals, and any
//! imbalance fails the run. `scripts/ci.sh --all` (gate `meter`) gates on exactly
//! this. See OBSERVABILITY.md, "Who is using the machine?".

use std::process::ExitCode;

use cronus::bench::experiments::{interference, recorded_figure, saturation};
use cronus::obs::{report_document, FlightRecorder, Json};

const DEFAULT_SEED: u64 = 42;
const DEFAULT_CALLS: u64 = 400;

/// Every figure the conservation gate sweeps with `--all`.
const ALL_FIGURES: &[&str] = &[
    "fig7",
    "fig8",
    "fig9",
    "fig10a",
    "fig10b",
    "fig11a",
    "fig11b",
    "rpc_micro",
    "saturation",
    "fig_interference",
];

struct Options {
    seed: u64,
    calls: u64,
    figures: Vec<String>,
    json: bool,
    expect_top: Option<String>,
}

fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        seed: DEFAULT_SEED,
        calls: DEFAULT_CALLS,
        figures: Vec::new(),
        json: false,
        expect_top: None,
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
            "--all" => {
                opts.figures = ALL_FIGURES.iter().map(|s| s.to_string()).collect();
            }
            "--expect-top" => {
                let p = args
                    .next()
                    .ok_or("--expect-top requires a principal (e.g. p4)")?;
                opts.expect_top = Some(p);
            }
            "--json" => opts.json = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: obs-meter [--seed N] [--calls N] [--figure NAME]... [--all] \
                     [--json] [--expect-top PRINCIPAL]"
                );
                return Ok(None);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Some(opts))
}

/// Builds the JSON body for one figure's meter view.
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

/// Prints the text view for one figure. Returns `false` on a gate failure
/// (conservation imbalance or `--expect-top` mismatch).
fn analyze(figure: &str, rec: &FlightRecorder, opts: &Options) -> bool {
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

    let mut ok = true;
    match rec.meter_conservation() {
        Ok(rows) => println!("conservation: OK ({} resources balanced)", rows.len()),
        Err(e) => {
            eprintln!("obs-meter: {figure}: {e}");
            ok = false;
        }
    }
    if let Some(expect) = &opts.expect_top {
        let top = matrix.top_interferer().map(|(p, _)| p.to_string());
        if top.as_deref() != Some(expect.as_str()) {
            eprintln!(
                "obs-meter: {figure}: expected top interferer {expect}, found {}",
                top.as_deref().unwrap_or("none")
            );
            ok = false;
        }
    }
    println!();
    ok
}

/// Conservation + `--expect-top` verdicts for the JSON path (stderr only;
/// stdout stays a single well-formed document).
fn gate(figure: &str, rec: &FlightRecorder, opts: &Options) -> bool {
    let mut ok = true;
    if let Err(e) = rec.meter_conservation() {
        eprintln!("obs-meter: {figure}: {e}");
        ok = false;
    }
    if let Some(expect) = &opts.expect_top {
        let top = rec
            .interference_matrix()
            .top_interferer()
            .map(|(p, _)| p.to_string());
        if top.as_deref() != Some(expect.as_str()) {
            eprintln!(
                "obs-meter: {figure}: expected top interferer {expect}, found {}",
                top.as_deref().unwrap_or("none")
            );
            ok = false;
        }
    }
    ok
}

fn recorder_for(figure: &str, opts: &Options) -> Option<FlightRecorder> {
    match figure {
        "saturation" => Some(saturation::run_recorded(opts.seed, opts.calls)),
        "fig_interference" => Some(interference::run_recorded(opts.seed, 24).recorder),
        other => recorded_figure(other),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("obs-meter: {e}");
            return ExitCode::FAILURE;
        }
    };
    let figures = if opts.figures.is_empty() {
        vec!["saturation".to_string()]
    } else {
        opts.figures.clone()
    };

    let mut ok = true;
    let mut bodies = Vec::new();
    for figure in &figures {
        let Some(rec) = recorder_for(figure, &opts) else {
            eprintln!("obs-meter: unknown figure `{figure}`");
            ok = false;
            continue;
        };
        if opts.json {
            bodies.push(meter_json(figure, &rec));
            ok &= gate(figure, &rec, &opts);
        } else {
            ok &= analyze(figure, &rec, &opts);
        }
    }
    if opts.json {
        let body = Json::obj([("figures", Json::Arr(bodies))]);
        println!("{}", report_document("meter", body).render());
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
