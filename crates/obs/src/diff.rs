//! Differential performance forensics: compares two [`TelemetryBundle`]s
//! and produces a ranked attribution verdict.
//!
//! The diff answers the question a moved baseline raises: *which span,
//! queue, or phase moved the headline?* It computes per-category and
//! per-queue deltas with tolerance-aware significance, a frame-level
//! flamegraph diff (grown / shrunk / new / vanished stacks), bounding-queue
//! and bounding-category transitions, and a phase-by-phase breakdown of the
//! worst exemplar request on each side. Output is fully deterministic:
//! byte-identical for the same (bundle, bundle, config) triple.
//!
//! This file is on the audit lint's `STRICT_OBS_FILES` list: no wall-clock
//! reads, and fallible public functions return the typed [`DiffError`].

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use crate::bundle::{BundleError, Direction, TelemetryBundle};
use crate::json::Json;

/// Default minimum absolute delta (ns) considered significant. Filters out
/// sub-microsecond jitter that a percentage threshold alone would flag on
/// tiny denominators.
pub const DEFAULT_MIN_DELTA_NS: u64 = 1_000;

/// Significance thresholds for the diff.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiffConfig {
    /// Relative threshold: deltas under this percentage are noise.
    pub tolerance_pct: f64,
    /// Absolute floor: deltas under this many nanoseconds are noise.
    pub min_delta_ns: u64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            tolerance_pct: 10.0,
            min_delta_ns: DEFAULT_MIN_DELTA_NS,
        }
    }
}

impl DiffConfig {
    /// Whether a `base -> cand` nanosecond move clears both thresholds.
    pub fn significant(&self, base: u64, cand: u64) -> bool {
        let delta = base.abs_diff(cand);
        if delta < self.min_delta_ns {
            return false;
        }
        if base == 0 {
            return true;
        }
        (delta as f64 / base as f64) * 100.0 >= self.tolerance_pct
    }
}

/// Typed error for the load-and-diff path: names which side failed.
#[derive(Clone, Debug, PartialEq)]
pub enum DiffError {
    /// The baseline bundle failed to parse.
    Baseline(BundleError),
    /// The candidate bundle failed to parse.
    Candidate(BundleError),
}

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffError::Baseline(e) => write!(f, "baseline bundle: {e}"),
            DiffError::Candidate(e) => write!(f, "candidate bundle: {e}"),
        }
    }
}

impl std::error::Error for DiffError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DiffError::Baseline(e) | DiffError::Candidate(e) => Some(e),
        }
    }
}

/// Headline movement between two bundles.
#[derive(Clone, Debug, PartialEq)]
pub struct HeadlineDelta {
    /// Metric key.
    pub key: String,
    /// Unit label.
    pub unit: String,
    /// Improvement direction.
    pub better: Direction,
    /// Baseline value.
    pub base: f64,
    /// Candidate value.
    pub cand: f64,
    /// Relative change in percent (positive = grew).
    pub delta_pct: f64,
    /// The change moved against the improvement direction past tolerance.
    pub regressed: bool,
    /// The change moved with the improvement direction past tolerance.
    pub improved: bool,
}

/// What happened to a flamegraph frame between two bundles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameStatus {
    /// Present only in the candidate.
    New,
    /// Present only in the baseline.
    Vanished,
    /// Significantly more nanoseconds in the candidate.
    Grown,
    /// Significantly fewer nanoseconds in the candidate.
    Shrunk,
}

impl FrameStatus {
    /// Wire/report label.
    pub fn as_str(self) -> &'static str {
        match self {
            FrameStatus::New => "new",
            FrameStatus::Vanished => "vanished",
            FrameStatus::Grown => "grown",
            FrameStatus::Shrunk => "shrunk",
        }
    }
}

/// One significantly-moved folded stack.
#[derive(Clone, Debug, PartialEq)]
pub struct FrameDelta {
    /// Folded stack (`cronus;queue;...`).
    pub stack: String,
    /// Baseline nanoseconds (0 when new).
    pub base_ns: u64,
    /// Candidate nanoseconds (0 when vanished).
    pub cand_ns: u64,
    /// Classification.
    pub status: FrameStatus,
}

/// What kind of subject an attribution names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AttributionKind {
    /// A queue station (ranked by total-wait delta).
    Queue,
    /// A critical-path category (ranked by attributed-ns delta).
    Category,
}

impl AttributionKind {
    /// Report label.
    pub fn as_str(self) -> &'static str {
        match self {
            AttributionKind::Queue => "queue",
            AttributionKind::Category => "category",
        }
    }
}

/// One ranked suspect in the verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct Attribution {
    /// Queue or category.
    pub kind: AttributionKind,
    /// Station name or canonical category.
    pub subject: String,
    /// Baseline nanoseconds.
    pub base_ns: u64,
    /// Candidate nanoseconds.
    pub cand_ns: u64,
    /// Signed move (positive = regression pressure).
    pub delta_ns: i64,
    /// Relative move in percent; infinite when the baseline was zero.
    pub delta_pct: f64,
    /// Supporting detail rendered alongside the ranking.
    pub evidence: String,
}

/// Phase-by-phase comparison of the worst exemplar request on each side.
#[derive(Clone, Debug, PartialEq)]
pub struct ExemplarDiff {
    /// Baseline exemplar's request id.
    pub base_req: u64,
    /// Candidate exemplar's request id.
    pub cand_req: u64,
    /// Station where the baseline exemplar waited.
    pub base_queue: String,
    /// Station where the candidate exemplar waited.
    pub cand_queue: String,
    /// Per-phase `(phase, base_ns, cand_ns)`, union of both breakdowns.
    pub phases: Vec<(String, u64, u64)>,
}

/// The full diff of two bundles.
#[derive(Clone, Debug, PartialEq)]
pub struct BundleDiff {
    /// Baseline figure name.
    pub base_name: String,
    /// Candidate figure name.
    pub cand_name: String,
    /// Thresholds the diff was computed at.
    pub config: DiffConfig,
    /// Every shared headline's movement.
    pub headlines: Vec<HeadlineDelta>,
    /// Ranked suspects (significant movements only), worst first.
    pub attributions: Vec<Attribution>,
    /// Significantly-moved folded stacks, by |delta| descending.
    pub frames: Vec<FrameDelta>,
    /// Bounding queue on each side.
    pub bounding_queue: (Option<String>, Option<String>),
    /// Bounding critical-path category on each side.
    pub bounding_category: (Option<String>, Option<String>),
    /// Worst-exemplar comparison, when both sides captured one.
    pub exemplar: Option<ExemplarDiff>,
}

fn signed_delta(base: u64, cand: u64) -> i64 {
    i64::try_from(cand as i128 - base as i128).unwrap_or(i64::MAX)
}

fn delta_pct(base: u64, cand: u64) -> f64 {
    if base == 0 {
        if cand == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (cand as f64 - base as f64) / base as f64 * 100.0
    }
}

fn pct_str(p: f64) -> String {
    // Normalize -0.0 (a zero delta over a negative base) to +0.0.
    let p = if p == 0.0 { 0.0 } else { p };
    if p.is_finite() {
        format!("{p:+.1}%")
    } else {
        "new".to_string()
    }
}

/// Parses and diffs two bundle documents, attributing parse failures to the
/// side that produced them.
pub fn diff_documents(
    base_doc: &str,
    cand_doc: &str,
    config: DiffConfig,
) -> Result<BundleDiff, DiffError> {
    let base = TelemetryBundle::from_json(base_doc).map_err(DiffError::Baseline)?;
    let cand = TelemetryBundle::from_json(cand_doc).map_err(DiffError::Candidate)?;
    Ok(diff(&base, &cand, config))
}

/// Diffs two already-parsed bundles. Infallible and deterministic.
pub fn diff(base: &TelemetryBundle, cand: &TelemetryBundle, config: DiffConfig) -> BundleDiff {
    // Headlines: match by key, tolerance-aware, direction-aware.
    let mut headlines = Vec::new();
    for b in &base.headlines {
        let Some(c) = cand.headlines.iter().find(|c| c.key == b.key) else {
            continue;
        };
        let pct = if b.value == 0.0 {
            if c.value == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (c.value - b.value) / b.value * 100.0
        };
        let past_tol = pct.abs() >= config.tolerance_pct;
        let worse = match b.better {
            Direction::Lower => c.value > b.value,
            Direction::Higher => c.value < b.value,
        };
        headlines.push(HeadlineDelta {
            key: b.key.clone(),
            unit: b.unit.clone(),
            better: b.better,
            base: b.value,
            cand: c.value,
            delta_pct: pct,
            regressed: past_tol && worse,
            improved: past_tol && !worse,
        });
    }

    // Per-category critical-path deltas.
    let mut cats: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (cat, ns) in &base.critical_path {
        cats.entry(cat).or_default().0 = *ns;
    }
    for (cat, ns) in &cand.critical_path {
        cats.entry(cat).or_default().1 = *ns;
    }
    let mut attributions = Vec::new();
    for (cat, (b, c)) in &cats {
        if !config.significant(*b, *c) {
            continue;
        }
        attributions.push(Attribution {
            kind: AttributionKind::Category,
            subject: cat.to_string(),
            base_ns: *b,
            cand_ns: *c,
            delta_ns: signed_delta(*b, *c),
            delta_pct: delta_pct(*b, *c),
            evidence: format!("critical path {b}ns -> {c}ns"),
        });
    }

    // Per-queue total-wait deltas, with USE evidence.
    let mut stations: BTreeMap<
        &str,
        (
            Option<&crate::bundle::BundleQueue>,
            Option<&crate::bundle::BundleQueue>,
        ),
    > = BTreeMap::new();
    for q in &base.queues {
        stations.entry(&q.name).or_default().0 = Some(q);
    }
    for q in &cand.queues {
        stations.entry(&q.name).or_default().1 = Some(q);
    }
    for (name, (b, c)) in &stations {
        let b_wait = b.map(|q| q.wait_total_ns).unwrap_or(0);
        let c_wait = c.map(|q| q.wait_total_ns).unwrap_or(0);
        if !config.significant(b_wait, c_wait) {
            continue;
        }
        let evidence = match (b, c) {
            (Some(b), Some(c)) => format!(
                "wait_total {}ns -> {}ns, p99 {}ns -> {}ns, util {:.2} -> {:.2}, depth {} -> {}",
                b.wait_total_ns,
                c.wait_total_ns,
                b.p99_wait_ns,
                c.p99_wait_ns,
                b.utilization,
                c.utilization,
                b.max_depth,
                c.max_depth,
            ),
            (None, Some(c)) => format!("station appeared, wait_total {}ns", c.wait_total_ns),
            (Some(b), None) => format!("station vanished, had wait_total {}ns", b.wait_total_ns),
            (None, None) => String::new(),
        };
        attributions.push(Attribution {
            kind: AttributionKind::Queue,
            subject: name.to_string(),
            base_ns: b_wait,
            cand_ns: c_wait,
            delta_ns: signed_delta(b_wait, c_wait),
            delta_pct: delta_pct(b_wait, c_wait),
            evidence,
        });
    }

    // Rank: largest absolute movement first; queue beats category on ties
    // (a station is more actionable than a phase); then subject for a total
    // deterministic order.
    attributions.sort_by(|a, b| {
        b.delta_ns
            .unsigned_abs()
            .cmp(&a.delta_ns.unsigned_abs())
            .then(a.kind.cmp(&b.kind))
            .then(a.subject.cmp(&b.subject))
    });

    // Frame-level flamegraph diff.
    let mut stacks: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (stack, ns) in &base.folded {
        stacks.entry(stack).or_default().0 = *ns;
    }
    for (stack, ns) in &cand.folded {
        stacks.entry(stack).or_default().1 = *ns;
    }
    let mut frames = Vec::new();
    for (stack, (b, c)) in &stacks {
        if !config.significant(*b, *c) {
            continue;
        }
        let status = match (*b, *c) {
            (0, _) => FrameStatus::New,
            (_, 0) => FrameStatus::Vanished,
            (b, c) if c > b => FrameStatus::Grown,
            _ => FrameStatus::Shrunk,
        };
        frames.push(FrameDelta {
            stack: stack.to_string(),
            base_ns: *b,
            cand_ns: *c,
            status,
        });
    }
    frames.sort_by(|a, b| {
        b.base_ns
            .abs_diff(b.cand_ns)
            .cmp(&a.base_ns.abs_diff(a.cand_ns))
            .then(a.stack.cmp(&b.stack))
    });

    // Worst-exemplar phase breakdown (both sides archive worst-first).
    let exemplar = match (base.exemplars.first(), cand.exemplars.first()) {
        (Some(b), Some(c)) => {
            let mut phases: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
            for (phase, ns) in &b.phases {
                phases.entry(phase).or_default().0 = *ns;
            }
            for (phase, ns) in &c.phases {
                phases.entry(phase).or_default().1 = *ns;
            }
            Some(ExemplarDiff {
                base_req: b.req,
                cand_req: c.req,
                base_queue: b.queue.clone(),
                cand_queue: c.queue.clone(),
                phases: phases
                    .into_iter()
                    .map(|(p, (b, c))| (p.to_string(), b, c))
                    .collect(),
            })
        }
        _ => None,
    };

    BundleDiff {
        base_name: base.name.clone(),
        cand_name: cand.name.clone(),
        config,
        headlines,
        attributions,
        frames,
        bounding_queue: (
            base.bounding_queue().map(|q| q.name.clone()),
            cand.bounding_queue().map(|q| q.name.clone()),
        ),
        bounding_category: (
            base.critical_path.first().map(|(c, _)| c.clone()),
            cand.critical_path.first().map(|(c, _)| c.clone()),
        ),
        exemplar,
    }
}

impl BundleDiff {
    /// Whether anything cleared the significance thresholds.
    pub fn has_significant_deltas(&self) -> bool {
        !self.attributions.is_empty()
            || !self.frames.is_empty()
            || self.headlines.iter().any(|h| h.regressed || h.improved)
    }

    /// The top-ranked suspect, when any.
    pub fn top_attribution(&self) -> Option<&Attribution> {
        self.attributions.first()
    }

    /// The top-ranked suspect of one kind, when any.
    pub fn top_of_kind(&self, kind: AttributionKind) -> Option<&Attribution> {
        self.attributions.iter().find(|a| a.kind == kind)
    }

    /// The ranked attribution verdict — what `obs diff --verdict` prints.
    /// Deterministic; contains the literal phrase
    /// `no significant deltas` when the diff is clean.
    pub fn verdict_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "attribution verdict: {} vs {} (tolerance {:.1}%, min {}ns)",
            self.base_name, self.cand_name, self.config.tolerance_pct, self.config.min_delta_ns
        );
        if !self.has_significant_deltas() {
            let _ = writeln!(out, "  no significant deltas");
            return out;
        }
        for (i, a) in self.attributions.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {}. {} {}: {:+}ns ({})  [{}]",
                i + 1,
                a.kind.as_str(),
                a.subject,
                a.delta_ns,
                pct_str(a.delta_pct),
                a.evidence
            );
        }
        let (bq_base, bq_cand) = &self.bounding_queue;
        if let (Some(b), Some(c)) = (bq_base, bq_cand) {
            if b == c {
                let _ = writeln!(out, "  bounding queue: {b} (unchanged)");
            } else {
                let _ = writeln!(out, "  bounding queue: {b} -> {c}");
            }
        }
        let (bc_base, bc_cand) = &self.bounding_category;
        if let (Some(b), Some(c)) = (bc_base, bc_cand) {
            if b == c {
                let _ = writeln!(out, "  bounding category: {b} (unchanged)");
            } else {
                let _ = writeln!(out, "  bounding category: {b} -> {c}");
            }
        }
        if let Some(ex) = &self.exemplar {
            let _ = writeln!(
                out,
                "  p99 exemplar: req {} @ {} (base) vs req {} @ {} (cand)",
                ex.base_req, ex.base_queue, ex.cand_req, ex.cand_queue
            );
            for (phase, b, c) in &ex.phases {
                if b == c {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "    {phase}: {b}ns -> {c}ns ({})",
                    pct_str(delta_pct(*b, *c))
                );
            }
        }
        out
    }

    /// The full human report: headline movements, frame diff, then the
    /// verdict. Deterministic.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "bundle diff: {} vs {}", self.base_name, self.cand_name);
        for h in &self.headlines {
            let marker = if h.regressed {
                " REGRESSED"
            } else if h.improved {
                " improved"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  {}: {} -> {} {} ({}){}",
                h.key,
                h.base,
                h.cand,
                h.unit,
                pct_str(h.delta_pct),
                marker
            );
        }
        if !self.frames.is_empty() {
            let count = |s: FrameStatus| self.frames.iter().filter(|f| f.status == s).count();
            let _ = writeln!(
                out,
                "  frames: {} grown, {} shrunk, {} new, {} vanished",
                count(FrameStatus::Grown),
                count(FrameStatus::Shrunk),
                count(FrameStatus::New),
                count(FrameStatus::Vanished)
            );
            for f in &self.frames {
                let _ = writeln!(
                    out,
                    "    [{}] {} {:+}ns ({} -> {})",
                    f.status.as_str(),
                    f.stack,
                    signed_delta(f.base_ns, f.cand_ns),
                    f.base_ns,
                    f.cand_ns
                );
            }
        }
        out.push_str(&self.verdict_text());
        out
    }

    /// Machine-readable form of the full diff, for the shared
    /// [`crate::json::report_document`] envelope behind `obs diff --json`.
    /// Field order (and therefore rendered bytes) is deterministic.
    pub fn to_json(&self) -> Json {
        let pair = |(b, c): &(Option<String>, Option<String>)| {
            Json::obj([
                ("base", b.as_deref().map_or(Json::Null, Json::from)),
                ("cand", c.as_deref().map_or(Json::Null, Json::from)),
            ])
        };
        Json::obj([
            ("base_name", Json::from(self.base_name.as_str())),
            ("cand_name", Json::from(self.cand_name.as_str())),
            (
                "config",
                Json::obj([
                    ("tolerance_pct", Json::from(self.config.tolerance_pct)),
                    ("min_delta_ns", Json::from(self.config.min_delta_ns)),
                ]),
            ),
            ("significant", Json::from(self.has_significant_deltas())),
            (
                "headlines",
                Json::Arr(
                    self.headlines
                        .iter()
                        .map(|h| {
                            Json::obj([
                                ("key", Json::from(h.key.as_str())),
                                ("unit", Json::from(h.unit.as_str())),
                                ("base", Json::from(h.base)),
                                ("cand", Json::from(h.cand)),
                                ("delta_pct", Json::from(h.delta_pct)),
                                ("regressed", Json::from(h.regressed)),
                                ("improved", Json::from(h.improved)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "attributions",
                Json::Arr(
                    self.attributions
                        .iter()
                        .map(|a| {
                            Json::obj([
                                ("kind", Json::from(a.kind.as_str())),
                                ("subject", Json::from(a.subject.as_str())),
                                ("base_ns", Json::from(a.base_ns)),
                                ("cand_ns", Json::from(a.cand_ns)),
                                ("delta_ns", Json::from(a.delta_ns)),
                                ("delta_pct", Json::from(a.delta_pct)),
                                ("evidence", Json::from(a.evidence.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "frames",
                Json::Arr(
                    self.frames
                        .iter()
                        .map(|f| {
                            Json::obj([
                                ("stack", Json::from(f.stack.as_str())),
                                ("base_ns", Json::from(f.base_ns)),
                                ("cand_ns", Json::from(f.cand_ns)),
                                ("status", Json::from(f.status.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("bounding_queue", pair(&self.bounding_queue)),
            ("bounding_category", pair(&self.bounding_category)),
            (
                "exemplar",
                self.exemplar.as_ref().map_or(Json::Null, |ex| {
                    Json::obj([
                        ("base_req", Json::from(ex.base_req)),
                        ("cand_req", Json::from(ex.cand_req)),
                        ("base_queue", Json::from(ex.base_queue.as_str())),
                        ("cand_queue", Json::from(ex.cand_queue.as_str())),
                        (
                            "phases",
                            Json::Arr(
                                ex.phases
                                    .iter()
                                    .map(|(p, b, c)| {
                                        Json::obj([
                                            ("phase", Json::from(p.as_str())),
                                            ("base_ns", Json::from(*b)),
                                            ("cand_ns", Json::from(*c)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                }),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{BundleExemplar, BundleQueue, Headline, BUNDLE_SCHEMA};

    fn queue(name: &str, wait_total_ns: u64, p99: u64) -> BundleQueue {
        BundleQueue {
            name: name.to_string(),
            kind: "ring".to_string(),
            capacity: 64,
            max_depth: 4,
            utilization: 0.5,
            mean_depth: 1.0,
            p50_wait_ns: p99 / 10,
            p99_wait_ns: p99,
            max_wait_ns: p99,
            mean_service_ns: 100,
            wait_total_ns,
            errors: 0,
            exemplars: vec![(1, p99)],
            exemplars_dropped: 0,
        }
    }

    fn bundle(name: &str, queue_wait: u64, queue_cat: u64) -> TelemetryBundle {
        TelemetryBundle {
            schema: BUNDLE_SCHEMA,
            name: name.to_string(),
            meta: Vec::new(),
            headlines: vec![Headline::lower(
                "total_wall_ms",
                (queue_cat / 1_000_000) as f64,
                "ms",
            )],
            critical_path: vec![
                ("queue".to_string(), queue_cat),
                ("kernel".to_string(), 7_000_000),
            ],
            queues: vec![
                queue("srpc.ring:1", queue_wait, queue_wait / 100),
                queue("bus.dma", 5_000_000, 40_000),
            ],
            folded: vec![
                ("cronus;queue".to_string(), queue_cat),
                ("cronus;kernel".to_string(), 7_000_000),
            ],
            exemplars: vec![BundleExemplar {
                req: 9,
                name: "gpu.launch".to_string(),
                stream: Some(1),
                queue: "srpc.ring:1".to_string(),
                wait_ns: queue_wait / 100,
                total_ns: queue_wait / 90,
                phases: vec![("queue".to_string(), queue_wait / 100)],
            }],
        }
    }

    #[test]
    fn self_diff_has_no_significant_deltas() {
        let b = bundle("fig7", 400_000_000, 402_000_000);
        let d = diff(&b, &b, DiffConfig::default());
        assert!(!d.has_significant_deltas());
        assert!(d.verdict_text().contains("no significant deltas"));
    }

    #[test]
    fn slowed_queue_is_top_ranked_with_right_sign() {
        let base = bundle("fig7", 400_000_000, 402_000_000);
        let cand = bundle("fig7", 900_000_000, 902_000_000);
        let d = diff(&base, &cand, DiffConfig::default());
        assert!(d.has_significant_deltas());
        let top_q = d
            .top_of_kind(AttributionKind::Queue)
            .expect("queue suspect");
        assert_eq!(top_q.subject, "srpc.ring:1");
        assert!(top_q.delta_ns > 0, "regression must be positive");
        let top_c = d
            .top_of_kind(AttributionKind::Category)
            .expect("cat suspect");
        assert_eq!(top_c.subject, "queue");
        // bus.dma did not move, so it must not appear.
        assert!(d.attributions.iter().all(|a| a.subject != "bus.dma"));
        // Headline regressed in the Lower direction.
        assert!(d.headlines[0].regressed);
        let verdict = d.verdict_text();
        assert!(verdict.contains("queue srpc.ring:1"), "{verdict}");
    }

    #[test]
    fn improvement_has_negative_sign_and_improved_flag() {
        let base = bundle("fig7", 900_000_000, 902_000_000);
        let cand = bundle("fig7", 400_000_000, 402_000_000);
        let d = diff(&base, &cand, DiffConfig::default());
        let top = d.top_attribution().expect("suspect");
        assert!(top.delta_ns < 0);
        assert!(d.headlines[0].improved);
        assert!(!d.headlines[0].regressed);
    }

    #[test]
    fn headline_deltas_are_direction_aware() {
        let mut base = bundle("fig7", 400_000_000, 402_000_000);
        base.headlines = vec![
            Headline::lower("lat_ns", 1000.0, "ns"),
            Headline::higher("tput", 42.5, "gops"),
        ];
        let with = |lat: f64, tput: f64| {
            let mut cand = base.clone();
            cand.headlines[0].value = lat;
            cand.headlines[1].value = tput;
            let d = diff(&base, &cand, DiffConfig::default());
            let flags = |h: &HeadlineDelta| (h.regressed, h.improved);
            (flags(&d.headlines[0]), flags(&d.headlines[1]))
        };
        // Within tolerance: neither flag, either direction.
        assert_eq!(with(1050.0, 41.0), ((false, false), (false, false)));
        // Latency +50% regresses; throughput +50% improves.
        assert_eq!(with(1500.0, 63.75), ((true, false), (false, true)));
        // Latency -50% improves; throughput -50% regresses.
        assert_eq!(with(500.0, 21.25), ((false, true), (true, false)));
        // A key missing from the candidate is skipped, not a finding.
        let mut cand = base.clone();
        cand.headlines.remove(0);
        let d = diff(&base, &cand, DiffConfig::default());
        assert_eq!(d.headlines.len(), 1);
        assert_eq!(d.headlines[0].key, "tput");
    }

    #[test]
    fn frame_diff_classifies_new_and_vanished() {
        let mut base = bundle("fig7", 400_000_000, 402_000_000);
        let mut cand = base.clone();
        base.folded.push(("cronus;old".to_string(), 50_000_000));
        cand.folded.push(("cronus;fresh".to_string(), 60_000_000));
        let d = diff(&base, &cand, DiffConfig::default());
        let status = |s: &str| {
            d.frames
                .iter()
                .find(|f| f.stack == s)
                .map(|f| f.status)
                .expect("frame present")
        };
        assert_eq!(status("cronus;fresh"), FrameStatus::New);
        assert_eq!(status("cronus;old"), FrameStatus::Vanished);
    }

    #[test]
    fn diff_output_is_byte_identical_per_pair() {
        let base = bundle("fig7", 400_000_000, 402_000_000);
        let cand = bundle("fig7", 900_000_000, 902_000_000);
        let a = diff(&base, &cand, DiffConfig::default()).render_text();
        let b = diff(&base, &cand, DiffConfig::default()).render_text();
        assert_eq!(a, b);
    }

    #[test]
    fn diff_documents_names_the_failing_side() {
        let good = bundle("fig7", 400_000_000, 402_000_000).to_json();
        let err = diff_documents("nope", &good, DiffConfig::default()).expect_err("bad base");
        assert!(matches!(err, DiffError::Baseline(_)));
        let err = diff_documents(&good, "nope", DiffConfig::default()).expect_err("bad cand");
        assert!(matches!(err, DiffError::Candidate(_)));
        assert!(err.to_string().contains("candidate"));
    }

    #[test]
    fn min_delta_floor_suppresses_tiny_percentage_moves() {
        let cfg = DiffConfig::default();
        // 100% move but only 500ns: below the absolute floor.
        assert!(!cfg.significant(500, 1_000));
        // Large absolute move, large relative move: significant.
        assert!(cfg.significant(1_000_000, 2_000_000));
        // Large absolute move, tiny relative move: not significant.
        assert!(!cfg.significant(1_000_000_000, 1_001_000_000));
    }
}
