//! Bench baselines and the regression gate.
//!
//! Every figure binary distills its table into a handful of *headline*
//! metrics and writes them — together with the causal critical-path split
//! from the run's flight recorder — as `BENCH_<name>.json` under
//! `target/bench/`. The first run also seeds a copy at the repo root; that
//! copy is committed and becomes the baseline. `scripts/ci.sh --all`
//! re-runs the figures and invokes the `bench_gate` binary, which compares
//! fresh headlines against the committed baselines and fails on any
//! regression beyond the tolerance (default 10%, override with
//! `BENCH_TOLERANCE_PCT`). To accept a deliberate change, run
//! `scripts/rebaseline.sh` and commit the updated `BENCH_*.json`.
//!
//! The simulation is deterministic, so the tolerance only needs to absorb
//! intentional cost-model retuning, not run-to-run noise; a regression
//! report therefore always means the *code* changed the metric.

use std::fs;
use std::path::{Path, PathBuf};

use cronus_obs::{parse, BundleHeadline, Direction, FlightRecorder, Json, TelemetryBundle};
use cronus_sim::SimNs;

/// Where fresh reports land (same directory as the other artifacts).
pub const FRESH_DIR: &str = "target/bench";

/// Report schema version, bumped on incompatible shape changes.
///
/// Schema history: 1 = headline/critical-path report; 2 = same headline
/// shape, emitted together with the `BUNDLE_<name>.json` telemetry archive
/// (the differential-forensics input). A mismatch is a hard error, never a
/// partial compare — re-run `scripts/rebaseline.sh` after upgrading.
pub const SCHEMA: u64 = 2;

/// Default regression tolerance in percent.
pub const DEFAULT_TOLERANCE_PCT: f64 = 10.0;

/// Which direction is an improvement for a headline metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latencies, overheads).
    Lower,
    /// Larger is better (throughputs).
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn from_str(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// One headline metric of a figure run.
#[derive(Clone, Debug)]
pub struct Headline {
    /// Stable key the gate matches baselines against.
    pub key: String,
    /// Metric value.
    pub value: f64,
    /// Unit, for humans reading the JSON.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
}

impl Headline {
    /// A lower-is-better headline.
    pub fn lower(key: impl Into<String>, value: f64, unit: impl Into<String>) -> Headline {
        Headline {
            key: key.into(),
            value,
            unit: unit.into(),
            better: Better::Lower,
        }
    }

    /// A higher-is-better headline.
    pub fn higher(key: impl Into<String>, value: f64, unit: impl Into<String>) -> Headline {
        Headline {
            key: key.into(),
            value,
            unit: unit.into(),
            better: Better::Higher,
        }
    }

    /// A lower-is-better latency headline from simulated time.
    pub fn ns(key: impl Into<String>, t: SimNs) -> Headline {
        Headline::lower(key, t.as_nanos() as f64, "ns")
    }
}

/// A full `BENCH_<name>.json` document.
#[derive(Clone, Debug, Default)]
pub struct BenchReport {
    /// Figure name (`rpc_micro`, `fig9`, ...).
    pub name: String,
    /// Headline metrics the gate enforces.
    pub headlines: Vec<Headline>,
    /// Causal critical-path split `(category, ns)` from the run's recorder.
    pub critical_path: Vec<(String, u64)>,
    /// Run parameters; the gate refuses to compare reports whose meta
    /// differ (e.g. a figure re-run at a different scale).
    pub meta: Vec<(String, String)>,
}

impl BenchReport {
    /// Renders the report as JSON.
    pub fn to_json(&self) -> String {
        let headlines = Json::Arr(
            self.headlines
                .iter()
                .map(|h| {
                    Json::obj([
                        ("key", Json::from(h.key.as_str())),
                        ("value", Json::F64(h.value)),
                        ("unit", Json::from(h.unit.as_str())),
                        ("better", Json::from(h.better.as_str())),
                    ])
                })
                .collect(),
        );
        let critical_path = Json::Arr(
            self.critical_path
                .iter()
                .map(|(cat, ns)| {
                    Json::obj([
                        ("category", Json::from(cat.as_str())),
                        ("ns", Json::U64(*ns)),
                    ])
                })
                .collect(),
        );
        let meta = Json::Obj(
            self.meta
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
                .collect(),
        );
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("schema", Json::U64(SCHEMA)),
            ("headlines", headlines),
            ("critical_path", critical_path),
            ("meta", meta),
        ])
        .render()
    }

    /// Parses a report back from its JSON form.
    ///
    /// # Errors
    ///
    /// A human-readable message when the document is not valid JSON or not
    /// shaped like a bench report.
    pub fn from_json(input: &str) -> Result<BenchReport, String> {
        let doc = parse(input)?;
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or("missing name")?
            .to_string();
        let schema = doc.get("schema").and_then(Json::as_u64).unwrap_or(0);
        if schema != SCHEMA {
            return Err(format!(
                "schema {schema} does not match this binary's schema {SCHEMA}; \
                 re-run scripts/rebaseline.sh and commit the refreshed BENCH_*.json \
                 and BUNDLE_*.json baselines"
            ));
        }
        let mut headlines = Vec::new();
        for h in doc
            .get("headlines")
            .and_then(Json::as_arr)
            .ok_or("missing headlines")?
        {
            let key = h
                .get("key")
                .and_then(Json::as_str)
                .ok_or("headline missing key")?;
            let value = h
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("headline missing value")?;
            let unit = h.get("unit").and_then(Json::as_str).unwrap_or("");
            let better = h
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::from_str)
                .ok_or("headline missing better")?;
            headlines.push(Headline {
                key: key.to_string(),
                value,
                unit: unit.to_string(),
                better,
            });
        }
        let mut critical_path = Vec::new();
        if let Some(arr) = doc.get("critical_path").and_then(Json::as_arr) {
            for e in arr {
                if let (Some(cat), Some(ns)) = (
                    e.get("category").and_then(Json::as_str),
                    e.get("ns").and_then(Json::as_u64),
                ) {
                    critical_path.push((cat.to_string(), ns));
                }
            }
        }
        let mut meta = Vec::new();
        if let Some(obj) = doc.get("meta").and_then(Json::as_obj) {
            for (k, v) in obj {
                if let Some(v) = v.as_str() {
                    meta.push((k.clone(), v.to_string()));
                }
            }
        }
        Ok(BenchReport {
            name,
            headlines,
            critical_path,
            meta,
        })
    }
}

/// One headline that regressed past the tolerance.
#[derive(Clone, Debug)]
pub struct Regression {
    /// Headline key.
    pub key: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Value from the fresh run.
    pub fresh: f64,
    /// Signed change in percent (positive = fresh is larger).
    pub delta_pct: f64,
    /// Improvement direction of the metric.
    pub better: Better,
}

/// Compares `fresh` against `baseline`, returning every headline that moved
/// in the *bad* direction by more than `tol_pct` percent. Keys present only
/// on one side are ignored (the gate reports them separately).
pub fn compare(baseline: &BenchReport, fresh: &BenchReport, tol_pct: f64) -> Vec<Regression> {
    let mut out = Vec::new();
    for b in &baseline.headlines {
        let Some(f) = fresh.headlines.iter().find(|f| f.key == b.key) else {
            continue;
        };
        let delta_pct = if b.value == 0.0 {
            if f.value == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            100.0 * (f.value - b.value) / b.value.abs()
        };
        let bad = match b.better {
            Better::Lower => delta_pct > tol_pct,
            Better::Higher => delta_pct < -tol_pct,
        };
        if bad {
            out.push(Regression {
                key: b.key.clone(),
                baseline: b.value,
                fresh: f.value,
                delta_pct,
                better: b.better,
            });
        }
    }
    out
}

/// Path of the committed baseline for figure `name` (repo root).
pub fn baseline_path(name: &str) -> PathBuf {
    PathBuf::from(format!("BENCH_{name}.json"))
}

/// Path of the fresh report for figure `name` (`target/bench/`).
pub fn fresh_path(name: &str) -> PathBuf {
    Path::new(FRESH_DIR).join(format!("BENCH_{name}.json"))
}

/// Path of the committed telemetry bundle for figure `name` (repo root).
pub fn bundle_baseline_path(name: &str) -> PathBuf {
    PathBuf::from(format!("BUNDLE_{name}.json"))
}

/// Path of the fresh telemetry bundle for figure `name` (`target/bench/`).
pub fn bundle_fresh_path(name: &str) -> PathBuf {
    Path::new(FRESH_DIR).join(format!("BUNDLE_{name}.json"))
}

/// Loads and parses a report, or `None` when the file does not exist.
///
/// # Errors
///
/// A message when the file exists but cannot be read or parsed.
pub fn load(path: &Path) -> Result<Option<BenchReport>, String> {
    if !path.exists() {
        return Ok(None);
    }
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    BenchReport::from_json(&text)
        .map(Some)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Builds the report for a run: headlines plus the recorder's causal
/// critical-path split and request count.
pub fn report(
    name: &str,
    headlines: Vec<Headline>,
    meta: Vec<(String, String)>,
    rec: &FlightRecorder,
) -> BenchReport {
    let causal = rec.causal_report();
    let mut headlines = headlines;
    let mut meta = meta;
    meta.push(("requests".to_string(), causal.requests.len().to_string()));
    if let Some(cat) = causal.bounding_category() {
        meta.push(("bounding_category".to_string(), cat.to_string()));
    }
    // Queue-observatory headlines, present only when the run instrumented
    // queues (the chaos umbrella report is built from an empty recorder and
    // must keep its old shape). All three gate lower-is-better: at a fixed
    // workload, longer p99 waits, deeper backlogs or a busier bounding
    // queue all mean the system moved toward saturation.
    if rec.has_queues() {
        let qr = rec.queue_report(cronus_obs::queue::DEFAULT_LITTLE_TOLERANCE);
        if let Some(b) = qr.bounding_queue() {
            headlines.push(Headline::lower(
                "queue_p99_wait_ns",
                b.p99_wait_ns as f64,
                "ns",
            ));
            let max_depth = qr.queues.iter().map(|q| q.max_depth).max().unwrap_or(0);
            headlines.push(Headline::lower(
                "queue_max_depth",
                max_depth as f64,
                "slots",
            ));
            headlines.push(Headline::lower("queue_utilization", b.utilization, "frac"));
            meta.push(("bounding_queue".to_string(), b.name.clone()));
            if let Some(s) = qr.bounding_stream() {
                meta.push(("bounding_stream".to_string(), s.stream));
            }
            meta.push(("little_ok".to_string(), qr.little_all_within().to_string()));
        }
    }
    BenchReport {
        name: name.to_string(),
        headlines,
        critical_path: causal.overall.clone(),
        meta,
    }
}

/// Writes the fresh report to `target/bench/BENCH_<name>.json` and seeds the
/// repo-root baseline when none is committed yet. Returns the fresh path.
///
/// # Errors
///
/// Propagates IO failures.
pub fn write(report: &BenchReport) -> std::io::Result<PathBuf> {
    let json = report.to_json();
    fs::create_dir_all(FRESH_DIR)?;
    let fresh = fresh_path(&report.name);
    fs::write(&fresh, &json)?;
    let base = baseline_path(&report.name);
    if !base.exists() {
        fs::write(&base, &json)?;
        println!(
            "[bench] seeded baseline {} — commit it to enable the regression gate",
            base.display()
        );
    }
    Ok(fresh)
}

/// Loads and parses a telemetry bundle, or `None` when the file does not
/// exist.
///
/// # Errors
///
/// A message when the file exists but cannot be read or parsed; schema
/// mismatches surface the typed error's rebaseline hint.
pub fn load_bundle(path: &Path) -> Result<Option<TelemetryBundle>, String> {
    if !path.exists() {
        return Ok(None);
    }
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    TelemetryBundle::from_json(&text)
        .map(Some)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Builds the telemetry bundle matching a finished [`BenchReport`]: same
/// figure name, enriched headlines and meta, plus the recorder's queue,
/// flamegraph and exemplar archives.
pub fn bundle_for(rep: &BenchReport, rec: &FlightRecorder) -> TelemetryBundle {
    let headlines = rep
        .headlines
        .iter()
        .map(|h| BundleHeadline {
            key: h.key.clone(),
            value: h.value,
            unit: h.unit.clone(),
            better: match h.better {
                Better::Lower => Direction::Lower,
                Better::Higher => Direction::Higher,
            },
        })
        .collect();
    TelemetryBundle::capture(&rep.name, headlines, rep.meta.clone(), rec)
}

/// Writes the fresh bundle to `target/bench/BUNDLE_<name>.json` and seeds
/// the repo-root baseline when none is committed yet. Returns the fresh
/// path.
///
/// # Errors
///
/// Propagates IO failures.
pub fn write_bundle(bundle: &TelemetryBundle) -> std::io::Result<PathBuf> {
    let json = bundle.to_json();
    fs::create_dir_all(FRESH_DIR)?;
    let fresh = bundle_fresh_path(&bundle.name);
    fs::write(&fresh, &json)?;
    let base = bundle_baseline_path(&bundle.name);
    if !base.exists() {
        fs::write(&base, &json)?;
        println!(
            "[bench] seeded bundle baseline {} — commit it to enable obs-diff",
            base.display()
        );
    }
    Ok(fresh)
}

/// [`report`] + [`write`] + the matching telemetry bundle + a one-line
/// note; IO errors become a warning (the figure table is the primary
/// artifact).
pub fn emit(
    name: &str,
    headlines: Vec<Headline>,
    meta: Vec<(String, String)>,
    rec: &FlightRecorder,
) {
    let rep = report(name, headlines, meta, rec);
    match write(&rep) {
        Ok(p) => println!("[bench] {name}: wrote {}", p.display()),
        Err(e) => eprintln!("[bench] {name}: failed to write report: {e}"),
    }
    let bundle = bundle_for(&rep, rec);
    match write_bundle(&bundle) {
        Ok(p) => println!("[bench] {name}: wrote {}", p.display()),
        Err(e) => eprintln!("[bench] {name}: failed to write bundle: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            name: "unit".to_string(),
            headlines: vec![
                Headline::lower("lat_ns", 1000.0, "ns"),
                Headline::higher("tput", 42.5, "gops"),
            ],
            critical_path: vec![("kernel".to_string(), 800), ("ring".to_string(), 200)],
            meta: vec![("scale".to_string(), "4".to_string())],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let rep = sample();
        let back = BenchReport::from_json(&rep.to_json()).expect("parses");
        assert_eq!(back.name, "unit");
        assert_eq!(back.headlines.len(), 2);
        assert_eq!(back.headlines[0].key, "lat_ns");
        assert_eq!(back.headlines[0].value, 1000.0);
        assert_eq!(back.headlines[0].better, Better::Lower);
        assert_eq!(back.headlines[1].better, Better::Higher);
        assert_eq!(back.critical_path, rep.critical_path);
        assert_eq!(back.meta, rep.meta);
    }

    #[test]
    fn schema_mismatch_is_a_hard_error_with_rebaseline_hint() {
        let doc = sample().to_json().replace(
            &format!("\"schema\":{SCHEMA}"),
            &format!("\"schema\":{}", SCHEMA - 1),
        );
        let err = BenchReport::from_json(&doc).expect_err("old schema must fail");
        assert!(err.contains("scripts/rebaseline.sh"), "{err}");
    }

    #[test]
    fn bundle_for_mirrors_report_headlines_and_meta() {
        let rec = FlightRecorder::new();
        rec.queue_declare("srpc.ring:0", cronus_obs::QueueKind::Ring, 8);
        rec.queue_enqueue("srpc.ring:0", SimNs::from_nanos(0));
        rec.queue_dequeue(
            "srpc.ring:0",
            SimNs::from_nanos(100),
            SimNs::from_nanos(40),
            SimNs::from_nanos(60),
        );
        let rep = report(
            "unit-bundle",
            vec![Headline::lower("lat_ns", 1000.0, "ns")],
            vec![("seed".to_string(), "42".to_string())],
            &rec,
        );
        let bundle = bundle_for(&rep, &rec);
        assert_eq!(bundle.name, "unit-bundle");
        assert_eq!(bundle.headlines.len(), rep.headlines.len());
        assert_eq!(bundle.headlines[0].key, "lat_ns");
        assert_eq!(bundle.headlines[0].better, Direction::Lower);
        assert_eq!(bundle.meta, rep.meta);
        assert_eq!(bundle.queues.len(), 1);
        // Round-trips through the committed-file format.
        let back = TelemetryBundle::from_json(&bundle.to_json()).expect("round trip");
        assert_eq!(back, bundle);
    }

    #[test]
    fn compare_is_direction_aware() {
        let base = sample();
        let mut fresh = sample();
        // Within tolerance: no findings.
        fresh.headlines[0].value = 1050.0;
        fresh.headlines[1].value = 41.0;
        assert!(compare(&base, &fresh, 10.0).is_empty());
        // Latency +50% regresses; throughput +50% does not.
        fresh.headlines[0].value = 1500.0;
        fresh.headlines[1].value = 63.75;
        let regs = compare(&base, &fresh, 10.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].key, "lat_ns");
        assert!((regs[0].delta_pct - 50.0).abs() < 1e-9);
        // Throughput -50% regresses; latency -50% does not.
        fresh.headlines[0].value = 500.0;
        fresh.headlines[1].value = 21.25;
        let regs = compare(&base, &fresh, 10.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].key, "tput");
        assert_eq!(regs[0].better, Better::Higher);
    }

    #[test]
    fn compare_ignores_keys_missing_from_fresh() {
        let base = sample();
        let mut fresh = sample();
        fresh.headlines.remove(0);
        assert!(compare(&base, &fresh, 10.0).is_empty());
    }

    #[test]
    fn report_embeds_causal_split_from_recorder() {
        let rec = FlightRecorder::new();
        let req = rec.alloc_req();
        rec.set_current_req(Some(req));
        let t = rec.track("stream:0");
        rec.complete_span(
            t,
            "dispatch:echo",
            "srpc",
            SimNs::from_nanos(0),
            SimNs::from_nanos(100),
        );
        rec.complete_span(
            t,
            "exec:echo",
            "kernel",
            SimNs::from_nanos(100),
            SimNs::from_nanos(400),
        );
        rec.set_current_req(None);
        let rep = report("unit-causal", Vec::new(), Vec::new(), &rec);
        let total: u64 = rep.critical_path.iter().map(|(_, ns)| ns).sum();
        assert_eq!(total, 400);
        assert!(rep.meta.iter().any(|(k, v)| k == "requests" && v == "1"));
        assert!(rep
            .meta
            .iter()
            .any(|(k, v)| k == "bounding_category" && v == "kernel"));
        // No queues were declared, so the queue headlines must be absent
        // (the chaos umbrella report relies on this).
        assert!(!rep.headlines.iter().any(|h| h.key.starts_with("queue_")));
    }

    #[test]
    fn report_appends_queue_headlines_when_instrumented() {
        let rec = FlightRecorder::new();
        rec.queue_declare("srpc.ring:0", cronus_obs::QueueKind::Ring, 8);
        rec.queue_enqueue("srpc.ring:0", SimNs::from_nanos(0));
        rec.queue_dequeue(
            "srpc.ring:0",
            SimNs::from_nanos(100),
            SimNs::from_nanos(40),
            SimNs::from_nanos(60),
        );
        let rep = report("unit-q", Vec::new(), Vec::new(), &rec);
        for key in ["queue_p99_wait_ns", "queue_max_depth", "queue_utilization"] {
            let h = rep
                .headlines
                .iter()
                .find(|h| h.key == key)
                .unwrap_or_else(|| panic!("missing headline {key}"));
            assert_eq!(h.better, Better::Lower, "{key} must gate lower-is-better");
        }
        assert!(rep
            .meta
            .iter()
            .any(|(k, v)| k == "bounding_queue" && v == "srpc.ring:0"));
        assert!(rep.meta.iter().any(|(k, _)| k == "little_ok"));
    }
}
