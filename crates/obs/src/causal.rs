//! Post-hoc causal analysis: per-request timelines and the critical path.
//!
//! Every span the [`crate::FlightRecorder`] captures carries an optional
//! [`ReqId`]. This module stitches those spans back into one timeline per
//! request and attributes every nanosecond between the request's first and
//! last span to exactly one *phase*:
//!
//! - each elementary interval of the timeline is charged to the covering
//!   span that started last (the innermost work at that moment — a kernel
//!   span nested in an sRPC call wins over the call);
//! - intervals no span covers are charged to `"queue"` (the request sat in
//!   a ring or waited for the executor).
//!
//! Because the sweep partitions the interval exactly, the per-phase split of
//! every request sums to its end-to-end latency by construction — the
//! property the acceptance test asserts. Aggregated over a run this yields the
//! critical path: which category (ring, crypto, memcpy, kernel,
//! world-switch, queue, …) bounds latency, per stream and overall.

use std::collections::BTreeMap;

use cronus_sim::SimNs;

use crate::json::Json;
use crate::span::{ReqId, Span, SpanTracer};

/// Maps raw span categories onto the canonical phase vocabulary used by the
/// critical-path report. Unknown categories pass through unchanged.
pub fn canonical_phase(cat: &str) -> &str {
    match cat {
        "srpc" | "ring" => "ring",
        "dma" | "memcpy" => "memcpy",
        "world" => "world-switch",
        other => other,
    }
}

/// One request's reconstructed timeline.
#[derive(Clone, Debug)]
pub struct RequestTimeline {
    /// The request.
    pub req: ReqId,
    /// Display name (the sRPC call name when available).
    pub name: String,
    /// Stream the request ran on, when one of its spans lives on a
    /// `stream:<id>` track.
    pub stream: Option<u64>,
    /// Earliest span start.
    pub start: SimNs,
    /// Latest span end.
    pub end: SimNs,
    /// Phase → nanoseconds, descending by time. Sums exactly to
    /// [`RequestTimeline::total_ns`].
    pub phases: Vec<(String, u64)>,
}

impl RequestTimeline {
    /// End-to-end latency in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.end.as_nanos() - self.start.as_nanos()
    }

    /// Nanoseconds attributed to `phase` (zero if absent).
    pub fn phase_ns(&self, phase: &str) -> u64 {
        self.phases
            .iter()
            .find(|(p, _)| p == phase)
            .map_or(0, |(_, ns)| *ns)
    }
}

/// The run-level report: every request plus aggregated critical paths.
#[derive(Clone, Debug, Default)]
pub struct CausalReport {
    /// Per-request timelines, ordered by request id.
    pub requests: Vec<RequestTimeline>,
    /// Phase → total nanoseconds across all requests, descending.
    pub overall: Vec<(String, u64)>,
    /// Stream id → phase split for requests on that stream, descending.
    pub per_stream: Vec<(u64, Vec<(String, u64)>)>,
}

/// Descending (phase, ns) list from an accumulation map; ties break by name
/// so the output is deterministic.
fn ranked(map: BTreeMap<String, u64>) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = map.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

/// Attributes every nanosecond of the request's interval to one phase via an
/// interval sweep; `spans` are (creation index, span) pairs, all closed.
fn sweep(tracer: &SpanTracer, spans: &[(usize, &Span)]) -> Vec<(String, u64)> {
    let mut bounds: Vec<u64> = Vec::with_capacity(spans.len() * 2);
    for (_, s) in spans {
        bounds.push(s.start().as_nanos());
        bounds.push(s.end().expect("closed").as_nanos());
    }
    bounds.sort_unstable();
    bounds.dedup();
    let mut acc: BTreeMap<String, u64> = BTreeMap::new();
    for w in bounds.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        // Innermost = the covering span that started last; creation order
        // breaks ties (a child is always created after its parent).
        let winner = spans
            .iter()
            .filter(|(_, s)| {
                s.start().as_nanos() <= lo && s.end().expect("closed").as_nanos() >= hi
            })
            .max_by_key(|(idx, s)| (s.start().as_nanos(), *idx));
        let phase = match winner {
            Some((_, s)) => canonical_phase(tracer.cat(s)).to_string(),
            None => "queue".to_string(),
        };
        *acc.entry(phase).or_insert(0) += hi - lo;
    }
    ranked(acc)
}

impl CausalReport {
    /// Reconstructs the report from a tracer's closed spans.
    pub fn from_tracer(tracer: &SpanTracer) -> Self {
        let mut by_req: BTreeMap<ReqId, Vec<(usize, &Span)>> = BTreeMap::new();
        for (idx, span) in tracer.spans().iter().enumerate() {
            if span.end().is_none() {
                continue;
            }
            if let Some(req) = span.req() {
                by_req.entry(req).or_default().push((idx, span));
            }
        }
        let mut requests = Vec::with_capacity(by_req.len());
        let mut overall: BTreeMap<String, u64> = BTreeMap::new();
        let mut streams: BTreeMap<u64, BTreeMap<String, u64>> = BTreeMap::new();
        for (req, spans) in by_req {
            let start = spans
                .iter()
                .map(|(_, s)| s.start())
                .min()
                .expect("nonempty");
            let end = spans
                .iter()
                .map(|(_, s)| s.end().expect("closed"))
                .max()
                .expect("nonempty");
            let name = spans
                .iter()
                .find(|(_, s)| tracer.cat(s) == "srpc")
                .or_else(|| spans.first())
                .map(|(_, s)| tracer.name(s.name()).to_string())
                .unwrap_or_default();
            let stream = spans.iter().find_map(|(_, s)| {
                tracer
                    .track_name(s.track())
                    .strip_prefix("stream:")
                    .and_then(|n| n.parse().ok())
            });
            let phases = sweep(tracer, &spans);
            for (phase, ns) in &phases {
                *overall.entry(phase.clone()).or_insert(0) += ns;
                if let Some(sid) = stream {
                    *streams
                        .entry(sid)
                        .or_default()
                        .entry(phase.clone())
                        .or_insert(0) += ns;
                }
            }
            requests.push(RequestTimeline {
                req,
                name,
                stream,
                start,
                end,
                phases,
            });
        }
        CausalReport {
            requests,
            overall: ranked(overall),
            per_stream: streams.into_iter().map(|(s, m)| (s, ranked(m))).collect(),
        }
    }

    /// The category that bounds end-to-end latency across the whole run.
    pub fn bounding_category(&self) -> Option<&str> {
        self.overall.first().map(|(p, _)| p.as_str())
    }

    /// The bounding category for one stream.
    pub fn bounding_for_stream(&self, stream: u64) -> Option<&str> {
        self.per_stream
            .iter()
            .find(|(s, _)| *s == stream)
            .and_then(|(_, phases)| phases.first())
            .map(|(p, _)| p.as_str())
    }

    /// Total attributed nanoseconds (sum of every request's latency).
    pub fn total_ns(&self) -> u64 {
        self.requests.iter().map(RequestTimeline::total_ns).sum()
    }

    /// Requests at or above the p99 latency, slowest first.
    pub fn outliers(&self) -> Vec<&RequestTimeline> {
        if self.requests.is_empty() {
            return Vec::new();
        }
        let mut lat: Vec<u64> = self
            .requests
            .iter()
            .map(RequestTimeline::total_ns)
            .collect();
        lat.sort_unstable();
        let rank = ((0.99 * lat.len() as f64).ceil() as usize).clamp(1, lat.len());
        let threshold = lat[rank - 1];
        let mut out: Vec<&RequestTimeline> = self
            .requests
            .iter()
            .filter(|r| r.total_ns() >= threshold)
            .collect();
        out.sort_by(|a, b| b.total_ns().cmp(&a.total_ns()).then(a.req.cmp(&b.req)));
        out
    }

    /// Human-readable report: critical path overall and per stream, plus the
    /// outlier table (at most `max_outliers` rows).
    pub fn render_text(&self, max_outliers: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "causal report: {} requests", self.requests.len());
        let total = self.total_ns().max(1);
        let fmt_split = |phases: &[(String, u64)]| {
            let sum: u64 = phases.iter().map(|(_, ns)| ns).sum::<u64>().max(1);
            phases
                .iter()
                .map(|(p, ns)| format!("{p} {:.1}% ({ns} ns)", 100.0 * *ns as f64 / sum as f64))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = writeln!(
            out,
            "critical path (overall, {} ns attributed): {}",
            total,
            fmt_split(&self.overall)
        );
        for (stream, phases) in &self.per_stream {
            let _ = writeln!(out, "  stream {stream}: {}", fmt_split(phases));
        }
        let outliers = self.outliers();
        if !outliers.is_empty() {
            let _ = writeln!(out, "slowest requests (>= p99):");
            let _ = writeln!(
                out,
                "  {:<8} {:<20} {:>8} {:>12}  phases",
                "req", "name", "stream", "total_ns"
            );
            for r in outliers.iter().take(max_outliers) {
                let stream = r.stream.map_or("-".to_string(), |s| s.to_string());
                let _ = writeln!(
                    out,
                    "  {:<8} {:<20} {:>8} {:>12}  {}",
                    r.req.0,
                    r.name,
                    stream,
                    r.total_ns(),
                    r.phases
                        .iter()
                        .map(|(p, ns)| format!("{p}={ns}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                );
            }
        }
        out
    }

    /// Machine-readable form (`BUNDLE_*.json` archives the `overall` split
    /// as its `critical_path`).
    pub fn to_json(&self) -> Json {
        let split = |phases: &[(String, u64)]| {
            Json::Arr(
                phases
                    .iter()
                    .map(|(p, ns)| {
                        Json::obj([("category", Json::from(p.as_str())), ("ns", Json::U64(*ns))])
                    })
                    .collect(),
            )
        };
        let outliers = Json::Arr(
            self.outliers()
                .iter()
                .take(16)
                .map(|r| {
                    Json::obj([
                        ("req", Json::U64(r.req.0)),
                        ("name", Json::from(r.name.as_str())),
                        ("stream", r.stream.map_or(Json::Null, Json::U64)),
                        ("total_ns", Json::U64(r.total_ns())),
                        ("phases", split(&r.phases)),
                    ])
                })
                .collect(),
        );
        Json::obj([
            ("requests", Json::from(self.requests.len())),
            ("total_ns", Json::U64(self.total_ns())),
            ("critical_path", split(&self.overall)),
            (
                "per_stream",
                Json::Arr(
                    self.per_stream
                        .iter()
                        .map(|(s, phases)| {
                            Json::obj([("stream", Json::U64(*s)), ("split", split(phases))])
                        })
                        .collect(),
                ),
            ),
            ("outliers", outliers),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::is_well_formed;

    fn ns(v: u64) -> SimNs {
        SimNs::from_nanos(v)
    }

    /// Builds the canonical request shape: enqueue on the caller track, a
    /// gap in the ring, the call + nested kernel on the stream track.
    fn one_request(t: &mut SpanTracer, req: u64, base: u64, kernel_ns: u64) {
        let caller = t.track("enclave:e1.1");
        let stream = t.track("stream:1");
        t.set_current_req(Some(ReqId(req)));
        t.complete(caller, "enqueue:echo", "ring", ns(base), ns(base + 100));
        let call = t.begin(stream, "echo", "srpc", ns(base + 150));
        t.complete(
            stream,
            "exec",
            "kernel",
            ns(base + 200),
            ns(base + 200 + kernel_ns),
        );
        t.end(stream, call, ns(base + 250 + kernel_ns));
        t.set_current_req(None);
    }

    #[test]
    fn phase_split_sums_to_end_to_end_for_every_request() {
        let mut t = SpanTracer::new();
        for i in 0..20 {
            one_request(&mut t, i + 1, i * 1_000, 300 + i * 10);
        }
        let report = CausalReport::from_tracer(&t);
        assert_eq!(report.requests.len(), 20);
        for r in &report.requests {
            let sum: u64 = r.phases.iter().map(|(_, ns)| ns).sum();
            assert_eq!(sum, r.total_ns(), "split must sum exactly for {:?}", r.req);
        }
    }

    #[test]
    fn innermost_span_wins_and_gaps_become_queue() {
        let mut t = SpanTracer::new();
        one_request(&mut t, 1, 0, 400);
        let report = CausalReport::from_tracer(&t);
        let r = &report.requests[0];
        // enqueue [0,100) ring; gap [100,150) queue; call [150,200) ring;
        // kernel [200,600); call tail [600,650) ring.
        assert_eq!(r.total_ns(), 650);
        assert_eq!(r.phase_ns("ring"), 200);
        assert_eq!(r.phase_ns("queue"), 50);
        assert_eq!(r.phase_ns("kernel"), 400);
        assert_eq!(r.name, "echo");
        assert_eq!(r.stream, Some(1));
        assert_eq!(report.bounding_category(), Some("kernel"));
        assert_eq!(report.bounding_for_stream(1), Some("kernel"));
    }

    #[test]
    fn outliers_are_the_slowest_requests() {
        let mut t = SpanTracer::new();
        for i in 0..100 {
            let kernel = if i == 42 { 50_000 } else { 300 };
            one_request(&mut t, i + 1, i * 100_000, kernel);
        }
        let report = CausalReport::from_tracer(&t);
        let outliers = report.outliers();
        assert!(!outliers.is_empty());
        assert_eq!(outliers[0].req, ReqId(43), "slowest first");
        assert!(outliers[0].phase_ns("kernel") == 50_000);
    }

    #[test]
    fn report_renders_text_and_json() {
        let mut t = SpanTracer::new();
        one_request(&mut t, 1, 0, 500);
        let report = CausalReport::from_tracer(&t);
        let text = report.render_text(5);
        assert!(text.contains("critical path"));
        assert!(text.contains("stream 1"));
        let json = report.to_json().render();
        assert!(is_well_formed(&json), "{json}");
        assert!(json.contains("critical_path"));
    }

    #[test]
    fn empty_tracer_yields_empty_report() {
        let report = CausalReport::from_tracer(&SpanTracer::new());
        assert!(report.requests.is_empty());
        assert!(report.outliers().is_empty());
        assert_eq!(report.bounding_category(), None);
        assert!(is_well_formed(&report.to_json().render()));
    }
}
