//! Runs a workload for a time budget and turns its reps into metrics.

use std::time::{Duration, Instant};

use cronus_obs::json::Json;

use crate::stats::{median, median_u64, quartiles, spread_pct, tail};
use crate::trace::{durations_of, trace_document, Name, Span, SpanTotals, Tracer};
use crate::workloads::{self, RepFn, RepOutcome, SimOutcome};
use crate::{account, probes};

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Seconds of timed reps.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// The seed used when none is given, and the seed held out from tuning.
pub const DEFAULT_SEED: u64 = 20220101;
pub const HELD_OUT_SEED: u64 = 977;

/// Set-ups (input generation + a full warm-up rep) timed per untraced run;
/// `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed reps (untraced) or rep pairs (traced), whatever the budget.
const MIN_REPS: usize = 3;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Detail for the human-readable line (quartiles, sample counts).
    pub note: String,
}

impl Metric {
    fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            note: String::new(),
        }
    }

    fn note(mut self, note: String) -> Self {
        self.note = note;
        self
    }
}

/// The result of a run.
#[derive(Clone, Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Correctness checks that missed; empty when the run is correct.
    pub problems: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The line the driver reads.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let body = Json::obj([("value", Json::F64(m.value)), ("unit", Json::from(m.unit))]);
            (m.name.clone(), body)
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::Obj(metrics.collect())),
        ])
    }
}

/// A field of `/proc/self/status` in kB (`VmHWM:`, `VmRSS:`); 0 off Linux.
fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// The reps of one run. Every rep replays the same inputs on a fresh system,
/// so its simulated outcome must equal the first's.
struct Reps {
    first: SimOutcome,
    attempted: u64,
    failed: u64,
    diverged: bool,
}

impl Reps {
    fn new(first: &RepOutcome) -> Self {
        let mut reps = Reps {
            first: first.sim.clone(),
            attempted: 0,
            failed: 0,
            diverged: false,
        };
        reps.check(first);
        reps
    }

    /// Counts the rep's ops and compares its simulated outcome to the first's.
    fn check(&mut self, rep: &RepOutcome) {
        self.attempted += rep.sim.ops;
        self.failed += rep.sim.failed.min(rep.sim.ops);
        self.diverged |= rep.sim != self.first;
    }

    fn problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.failed > 0 {
            problems.push(format!("{} of {} ops failed", self.failed, self.attempted));
        }
        if self.diverged {
            problems.push("reps of one seed disagree on simulated results".to_string());
        }
        if !self.first.account.closes() {
            problems.push("simclk categories do not sum to the elapsed simulated time".to_string());
        }
        problems
    }
}

fn us_per_op(rep: &RepOutcome) -> f64 {
    rep.host_ns as f64 / rep.sim.ops as f64 / 1e3
}

/// Runs the workload at its frozen counts and reports its metrics; a traced
/// run also writes `out/trace-<workload>.json`.
///
/// # Errors
///
/// Unknown workload names.
pub fn run(args: &Args, started: Instant) -> Result<Report, String> {
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; one of {:?}",
            args.workload,
            workloads::NAMES
        ));
    }
    let prepare = || workloads::prepare(&args.workload, args.seed, 1).expect("name was checked");
    let budget = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        return Ok(run_end_to_end(&prepare, budget, started));
    }
    let (report, spans) = run_traced(prepare(), budget);
    write_trace(&args.workload, args.seed, &spans);
    Ok(report)
}

/// The untraced run: the end-to-end metrics.
pub fn run_end_to_end(prepare: &dyn Fn() -> RepFn, budget: Duration, started: Instant) -> Report {
    let off = Tracer::new(false);
    // Set-up is input generation plus a full warm-up rep, boot included. The
    // first sample runs from process start, so it also pays the page faults
    // and lazy initialisation a user's first run pays. Peak RSS is read after
    // it: every rep frees its system, so what later reps add to the peak is
    // allocator retention, which differs from run to run.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut peak_kb = 0;
    let mut t = started;
    let mut rep = None;
    for _ in 0..SETUPS {
        let mut r = prepare();
        r(&off);
        setups.push(t.elapsed().as_secs_f64());
        if rep.is_none() {
            peak_kb = proc_status_kb("VmHWM:");
        }
        rep = Some(r);
        t = Instant::now();
    }
    let mut rep = rep.expect("SETUPS > 0");

    let t0 = Instant::now();
    let first = rep(&off);
    let mut times = vec![us_per_op(&first)];
    let mut reps = Reps::new(&first);
    while times.len() < MIN_REPS || t0.elapsed() < budget {
        let r = rep(&off);
        times.push(us_per_op(&r));
        reps.check(&r);
    }

    let [q1, med, q3] = quartiles(&times);
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    let account = &reps.first.account;
    let metrics = vec![
        Metric::new("setup_s", "s", median(&setups)).note(format!("samples {setups:.4?}")),
        Metric::new("host_us_per_op", "us", med).note(format!(
            "min {min:.4} q1 {q1:.4} q3 {q3:.4} over {} reps of {} ops",
            times.len(),
            reps.first.ops
        )),
        Metric::new(
            "sim_us_per_op",
            "us",
            account.elapsed_ns as f64 / reps.first.ops as f64 / 1e3,
        )
        .note("identical in every rep".to_string()),
        Metric::new("peak_rss_mb", "MiB", peak_kb as f64 / 1024.0)
            .note("VmHWM after the first rep".to_string()),
    ];
    Report {
        attempted: reps.attempted,
        failed: reps.failed,
        metrics,
        problems: reps.problems(),
    }
}

/// The traced run: the per-layer metrics, and the last traced rep's spans.
pub fn run_traced(mut rep: RepFn, budget: Duration) -> (Report, Vec<Span>) {
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    let hwm_before = proc_status_kb("VmHWM:");
    let warm = rep(&off);
    let hwm_growth = proc_status_kb("VmHWM:").saturating_sub(hwm_before) * 1024;
    let ops = warm.sim.ops as f64;
    let mut reps = Reps::new(&warm);

    // Traced and untraced reps alternate, so both see the same machine.
    let t0 = Instant::now();
    let (mut plain_us, mut traced_us) = (Vec::new(), Vec::new());
    let mut totals = SpanTotals::default();
    let mut traced_ns = 0u64;
    let mut spans = Vec::new();
    let mut last = RepOutcome::default();
    while traced_us.len() < MIN_REPS || t0.elapsed() < budget {
        let r = rep(&off);
        plain_us.push(us_per_op(&r));
        reps.check(&r);
        last = rep(&on);
        traced_us.push(us_per_op(&last));
        traced_ns += last.host_ns;
        reps.check(&last);
        spans = on.take();
        totals.add(&spans);
    }
    let traced_reps = traced_us.len() as f64;
    let mut problems = reps.problems();
    let mut metrics = Vec::new();

    // 1. In-workload spans.
    for name in Name::ALL {
        let i = name as usize;
        let self_us = totals.self_ns[i] as f64 / traced_reps / ops / 1e3;
        if name == Name::Driver {
            metrics.push(Metric::new("host.driver_self_us_per_op", "us", self_us));
            continue;
        }
        let count = totals.count[i] as f64 / traced_reps;
        metrics.push(Metric::new(
            format!("{}.count", name.as_str()),
            "count",
            count,
        ));
        metrics.push(Metric::new(
            format!("{}.self_us_per_op", name.as_str()),
            "us",
            self_us,
        ));
    }
    for name in [Name::CoreCallStart, Name::CoreCallSync, Name::CoreSync] {
        let mut d = durations_of(&spans, name);
        let t = tail(&mut d);
        metrics.push(
            Metric::new(
                format!("{}.p99_ns", name.as_str()),
                "ns",
                t.map_or(0.0, |t| t.value as f64),
            )
            .note(match t {
                Some(t) => format!("p{} of {} spans", t.pct, d.len()),
                None => format!("{} spans: too few for a tail", d.len()),
            }),
        );
    }
    // The span account closes when self times sum to the traced rep time.
    let covered = totals.total_self_ns() as f64 / traced_ns as f64;
    if (covered - 1.0).abs() > 0.02 {
        problems.push(format!(
            "span self times cover {:.1} % of the traced rep time",
            100.0 * covered
        ));
    }

    // 2. Isolated probes of the layers below those calls, and the ratio of a
    //    call to the codec it contains (machine noise cancels in a ratio).
    let probed = probes::run();
    let codec_ns = probed
        .iter()
        .find(|p| p.name == "core.ring.codec_256b_ns")
        .map_or(0.0, |p| p.value);
    let mut calls = durations_of(&spans, Name::CoreCallStart);
    let ratio = match median_u64(&mut calls) {
        Some(call_ns) if codec_ns > 0.0 => call_ns as f64 / codec_ns,
        _ => 0.0,
    };
    metrics.extend(
        probed
            .into_iter()
            .map(|p| Metric::new(p.name, p.unit, p.value)),
    );
    metrics.push(Metric::new("core.call_over_codec_ratio", "ratio", ratio));

    // 3. The simulated-clock split, exact counts, and the simulated headlines
    //    only one workload has.
    let a = &last.sim.account;
    for ((_, name), ns) in account::CATEGORIES.iter().zip(a.category_ns) {
        metrics.push(Metric::new(*name, "ns", ns as f64 / ops));
    }
    let stats = last.report_stats.unwrap_or_default();
    let mut rounds = last.sim.victim_round_ns.clone();
    let victim_p99 = tail(&mut rounds);
    if victim_p99.is_some_and(|t| t.pct != 99) {
        problems.push(format!(
            "{} victim rounds are too few for a p99",
            rounds.len()
        ));
    }
    let ratio_of = |pair: Option<(u64, u64)>| pair.map_or(0.0, |(a, b)| a as f64 / b as f64);
    for (name, unit, value) in [
        ("sim.world_switches", "count", a.world_switches as f64),
        ("sim.context_switches", "count", a.context_switches as f64),
        ("core.doorbells_rung", "count", a.doorbells_rung as f64),
        (
            "core.doorbells_coalesced",
            "count",
            a.doorbells_coalesced as f64,
        ),
        ("core.ring_full_stalls", "count", a.ring_full_stalls as f64),
        ("core.steals", "count", a.steals as f64),
        ("core.zero_copy_grants", "count", a.zero_copy_grants as f64),
        ("core.request_bytes", "B", a.request_bytes as f64),
        ("obs.spans", "count", a.obs_spans as f64),
        (
            "obs.queue_p99_wait_ns",
            "ns",
            stats.queue_p99_wait_ns as f64,
        ),
        ("obs.jain_sm", "ratio", stats.jain_sm),
        ("forensics.ledger_records", "count", a.ledger_records as f64),
        (
            "sim_victim_p50_us",
            "us",
            median_u64(&mut rounds).map_or(0.0, |ns| ns as f64 / 1e3),
        ),
        (
            "sim_victim_p99_us",
            "us",
            victim_p99.map_or(0.0, |t| t.value as f64 / 1e3),
        ),
        (
            "sim_vs_native_ratio",
            "ratio",
            ratio_of(last.sim.cronus_vs_native_ns),
        ),
        (
            "sim_recovery_ms",
            "ms",
            ratio_of(last.sim.recovery_ns) / 1e6,
        ),
        (
            "failed_ops_frac",
            "ratio",
            reps.failed as f64 / reps.attempted as f64,
        ),
        ("host.rss_bytes_per_op", "B", hwm_growth as f64 / ops),
        ("host.rep_spread_pct", "%", spread_pct(&plain_us)),
        (
            "host.trace_overhead_pct",
            "%",
            100.0 * (median(&traced_us) / median(&plain_us) - 1.0),
        ),
    ] {
        metrics.push(Metric::new(name, unit, value));
    }

    let report = Report {
        attempted: reps.attempted,
        failed: reps.failed,
        metrics,
        problems,
    };
    (report, spans)
}

/// Writes the last traced rep's spans to `out/trace-<workload>.json` beside
/// the package manifest. A failure to write is reported, not fatal.
fn write_trace(workload: &str, seed: u64, spans: &[Span]) {
    let dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    let dir = std::path::Path::new(&dir).join("out");
    let path = dir.join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace_document(workload, seed, spans).render()));
    match written {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => println!("warning: trace not written to {}: {e}", path.display()),
    }
}
