//! Hierarchical spans over simulated time, exportable as Chrome trace events.
//!
//! A [`SpanTracer`] owns a set of *tracks* (rendered as threads in
//! Perfetto/`chrome://tracing`) and a flat list of spans. Spans on one track
//! nest: `begin` pushes onto the track's stack, `end` pops (auto-closing any
//! children still open above the span being ended), so app → mEnclave →
//! sRPC call → device kernel hierarchies come out for free.
//!
//! Span and track names are interned ([`crate::intern`]): a span stores a
//! [`NameId`], and `begin`/`complete` take either an id resolved earlier
//! with [`SpanTracer::intern`] or plain text, which is interned on the spot.
//!
//! A run keeps every span it records, so a [`Span`] is a dense 40-byte
//! record: its id is its position (not stored), parent, track and name are
//! 32-bit indices, the category is an index into the tracer's short table
//! of `&'static str` categories (found by a linear scan, no hashing), and
//! an open end and a missing request are sentinel values of 8-byte words.

use std::collections::BTreeMap;

use cronus_sim::SimNs;

use crate::intern::{Interner, IntoName, NameId};
use crate::json::Json;

/// Identifies a span within one tracer: its creation index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

/// Identifies one request end-to-end across the whole system.
///
/// Allocated by [`crate::FlightRecorder::alloc_req`] at sRPC enqueue time and
/// carried through dispatch, DMA, kernel execution and completion, so every
/// span a request causes — on any track — can be stitched back together.
/// `ReqId(0)` is never allocated and acts as the "untracked" sentinel for
/// systems running without a recorder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqId(pub u64);

impl std::fmt::Display for ReqId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req:{}", self.0)
    }
}

/// Identifies a track (a Perfetto "thread row") within one tracer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TrackId(pub usize);

/// `Span::end` of a span that is still open.
const OPEN: u64 = u64::MAX;
/// `Span::parent` of a span with no enclosing span.
const NO_PARENT: u32 = u32::MAX;

/// One span: a named interval on a track, with an optional parent. Its
/// [`SpanId`] is its index in [`SpanTracer::spans`].
#[derive(Clone, Copy, Debug)]
pub struct Span {
    start: SimNs,
    /// End instant in nanoseconds, [`OPEN`] while the span is open.
    end: u64,
    /// Attributed request, `0` (never allocated) for none.
    req: u64,
    /// Index of the enclosing span on the same track, or [`NO_PARENT`].
    parent: u32,
    track: u32,
    name: NameId,
    /// Index into the tracer's category table.
    cat: u16,
}

impl Span {
    /// Start instant.
    pub fn start(&self) -> SimNs {
        self.start
    }

    /// End instant; `None` while the span is still open.
    pub fn end(&self) -> Option<SimNs> {
        (self.end != OPEN).then(|| SimNs::from_nanos(self.end))
    }

    /// Request this span is causally attributed to, if any.
    pub fn req(&self) -> Option<ReqId> {
        (self.req != 0).then_some(ReqId(self.req))
    }

    /// Enclosing span on the same track, if any.
    pub fn parent(&self) -> Option<SpanId> {
        (self.parent != NO_PARENT).then_some(SpanId(u64::from(self.parent)))
    }

    /// Track the span lives on.
    pub fn track(&self) -> TrackId {
        TrackId(self.track as usize)
    }

    /// Display name (e.g. the mcall name); [`SpanTracer::name`] has its text.
    pub fn name(&self) -> NameId {
        self.name
    }

    fn close(&mut self, at: SimNs) {
        self.end = at.max(self.start).as_nanos();
    }
}

/// An instant marker (Chrome trace phase `"I"`), e.g. an experiment phase.
#[derive(Clone, Debug)]
pub struct Instant {
    /// When the marker fired.
    pub at: SimNs,
    /// Marker label.
    pub name: String,
}

/// The span store. See the module docs for the nesting model.
#[derive(Default, Debug)]
pub struct SpanTracer {
    /// Track names; a [`TrackId`] is the interning index.
    tracks: Interner,
    /// Span names.
    names: Interner,
    /// Span categories; a span stores the index. A run uses about a dozen.
    cats: Vec<&'static str>,
    spans: Vec<Span>,
    instants: Vec<Instant>,
    /// Per-track stack of open span indices into `spans`, by track index.
    open: Vec<Vec<u32>>,
    /// Ambient request: stamped into every span opened while set, so deep
    /// instrumentation sites (device HALs, recovery) need no plumbing.
    current_req: Option<ReqId>,
}

impl SpanTracer {
    /// Creates an empty tracer.
    pub fn new() -> Self {
        SpanTracer::default()
    }

    /// Returns the track named `name`, creating it on first use.
    pub fn track(&mut self, name: &str) -> TrackId {
        TrackId(self.tracks.intern(name).index())
    }

    /// Interns a span name so later `begin`/`complete` calls can pass the
    /// id and allocate nothing.
    pub fn intern(&mut self, name: &str) -> NameId {
        self.names.intern(name)
    }

    /// The text of a span name.
    pub fn name(&self, id: NameId) -> &str {
        self.names.resolve(id)
    }

    /// The category of `span`.
    pub fn cat(&self, span: &Span) -> &'static str {
        self.cats[usize::from(span.cat)]
    }

    /// The open-span stack of `track`.
    fn open_mut(&mut self, track: TrackId) -> &mut Vec<u32> {
        if track.0 >= self.open.len() {
            self.open.resize_with(track.0 + 1, Vec::new);
        }
        &mut self.open[track.0]
    }

    /// Appends a span under `parent` (the track's open top, if any),
    /// stamped with the ambient request; returns its id.
    fn push(
        &mut self,
        track: TrackId,
        name: NameId,
        cat: &'static str,
        start: SimNs,
        end: u64,
        parent: Option<u32>,
    ) -> SpanId {
        let id = self.spans.len();
        let cat = match self
            .cats
            .iter()
            .position(|&c| std::ptr::eq(c, cat) || c == cat)
        {
            Some(i) => i,
            None => {
                self.cats.push(cat);
                self.cats.len() - 1
            }
        };
        self.spans.push(Span {
            start,
            end,
            req: self.current_req.map_or(0, |r| r.0),
            parent: parent.unwrap_or(NO_PARENT),
            track: u32::try_from(track.0).expect("fewer than 2^32 tracks"),
            name,
            cat: u16::try_from(cat).expect("fewer than 2^16 span categories"),
        });
        SpanId(id as u64)
    }

    /// Sets (or clears) the ambient request stamped into new spans.
    pub fn set_current_req(&mut self, req: Option<ReqId>) {
        self.current_req = req;
    }

    /// The ambient request, if one is set.
    pub fn current_req(&self) -> Option<ReqId> {
        self.current_req
    }

    /// Opens a span at `at` on `track`, nested under the track's current top.
    pub fn begin(
        &mut self,
        track: TrackId,
        name: impl IntoName,
        cat: &'static str,
        at: SimNs,
    ) -> SpanId {
        let name = name.into_name(&mut self.names);
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let stack = self.open_mut(track);
        let parent = stack.last().copied();
        stack.push(index);
        self.push(track, name, cat, at, OPEN, parent)
    }

    /// Closes span `id` at `at`. Any children still open above it on the
    /// same track are closed at the same instant (a parent cannot outlive
    /// its enclosing scope in the simulated call structure).
    pub fn end(&mut self, track: TrackId, id: SpanId, at: SimNs) {
        let Some(stack) = self.open.get_mut(track.0) else {
            return;
        };
        while let Some(idx) = stack.pop() {
            self.spans[idx as usize].close(at);
            if u64::from(idx) == id.0 {
                return;
            }
        }
    }

    /// Records an already-measured interval as a closed span (nested under
    /// whatever is currently open on the track, but not pushed on the stack).
    pub fn complete(
        &mut self,
        track: TrackId,
        name: impl IntoName,
        cat: &'static str,
        start: SimNs,
        end: SimNs,
    ) -> SpanId {
        let name = name.into_name(&mut self.names);
        let parent = self.open.get(track.0).and_then(|s| s.last()).copied();
        let end = end.max(start).as_nanos();
        self.push(track, name, cat, start, end, parent)
    }

    /// Records an instant marker.
    pub fn instant(&mut self, name: impl Into<String>, at: SimNs) {
        self.instants.push(Instant {
            at,
            name: name.into(),
        });
    }

    /// Closes every still-open span at `at`.
    pub fn finish_all(&mut self, at: SimNs) {
        for stack in &mut self.open {
            while let Some(idx) = stack.pop() {
                self.spans[idx as usize].close(at);
            }
        }
    }

    /// All spans, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All instant markers, in creation order.
    pub fn instants(&self) -> &[Instant] {
        &self.instants
    }

    /// Number of spans currently open on `track`.
    pub fn open_depth(&self, track: TrackId) -> usize {
        self.open.get(track.0).map_or(0, Vec::len)
    }

    /// Name of a track.
    ///
    /// # Panics
    ///
    /// Panics when `track` was not created by this tracer.
    pub fn track_name(&self, track: TrackId) -> &str {
        self.tracks.nth(track.0).expect("track of this tracer")
    }

    /// Checks the structural invariants the trace format relies on:
    /// every closed span has `end >= start`, every child lies within its
    /// parent's interval, and a child's parent precedes it in creation
    /// order on the same track.
    pub fn validate(&self) -> Result<(), String> {
        for span in &self.spans {
            let name = self.name(span.name);
            if let Some(end) = span.end() {
                if end < span.start {
                    return Err(format!("span {name:?} ends before it starts"));
                }
            }
            if let Some(pid) = span.parent() {
                let parent = usize::try_from(pid.0)
                    .ok()
                    .and_then(|i| self.spans.get(i))
                    .ok_or_else(|| format!("span {name:?} has unknown parent"))?;
                let parent_name = self.name(parent.name);
                if parent.track != span.track {
                    return Err(format!("span {name:?} crosses tracks"));
                }
                if span.start < parent.start {
                    return Err(format!(
                        "child {name:?} starts before parent {parent_name:?}"
                    ));
                }
                if let (Some(ce), Some(pe)) = (span.end(), parent.end()) {
                    if ce > pe {
                        return Err(format!("child {name:?} outlives parent {parent_name:?}"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Exports the closed spans and instants as a Chrome trace-event JSON
    /// document (loadable in Perfetto / `chrome://tracing`). Timestamps are
    /// microseconds as floats, preserving nanosecond precision in the
    /// fraction. Still-open spans are skipped; call [`SpanTracer::finish_all`]
    /// first if they should appear.
    pub fn chrome_trace_json(&self) -> String {
        let mut events = Vec::new();
        for (i, name) in self.tracks.names().enumerate() {
            events.push(Json::obj([
                ("name", Json::from("thread_name")),
                ("ph", Json::from("M")),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(i as u64 + 1)),
                ("args", Json::obj([("name", Json::from(name))])),
            ]));
        }
        for (id, span) in self.spans.iter().enumerate() {
            let Some(end) = span.end() else { continue };
            events.push(Json::obj([
                ("name", Json::from(self.name(span.name))),
                ("cat", Json::from(self.cat(span))),
                ("ph", Json::from("X")),
                ("ts", Json::F64(span.start.as_nanos() as f64 / 1e3)),
                ("dur", Json::F64((end - span.start).as_nanos() as f64 / 1e3)),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(u64::from(span.track) + 1)),
                (
                    "args",
                    Json::obj([
                        ("span_id", Json::U64(id as u64)),
                        (
                            "parent",
                            span.parent().map_or(Json::Null, |p| Json::U64(p.0)),
                        ),
                        ("req", span.req().map_or(Json::Null, |r| Json::U64(r.0))),
                    ]),
                ),
            ]));
        }
        events.extend(self.flow_events());
        for m in &self.instants {
            events.push(Json::obj([
                ("name", Json::from(m.name.as_str())),
                ("cat", Json::from("marker")),
                ("ph", Json::from("I")),
                ("s", Json::from("g")),
                ("ts", Json::F64(m.at.as_nanos() as f64 / 1e3)),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(0)),
            ]));
        }
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::from("ns")),
        ])
        .render()
    }

    /// Derives Chrome flow events (`ph` `"s"`/`"t"`/`"f"`) from request ids:
    /// for every request that produced two or more closed spans, one flow
    /// chain — start at the earliest span, steps through the middle ones,
    /// finish at the latest — so Perfetto draws arrows connecting
    /// enqueue → dispatch → kernel → completion across tracks. Requests with
    /// a single span get no flow events (nothing to connect), which keeps the
    /// start/finish pairing exact.
    fn flow_events(&self) -> Vec<Json> {
        let mut by_req: BTreeMap<ReqId, Vec<(usize, &Span)>> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            if span.end == OPEN {
                continue;
            }
            if let Some(req) = span.req() {
                by_req.entry(req).or_default().push((id, span));
            }
        }
        let mut events = Vec::new();
        for (req, mut spans) in by_req {
            if spans.len() < 2 {
                continue;
            }
            spans.sort_by_key(|&(id, s)| (s.start, id));
            let last = spans.len() - 1;
            for (i, &(_, span)) in spans.iter().enumerate() {
                let ph = if i == 0 {
                    "s"
                } else if i == last {
                    "f"
                } else {
                    "t"
                };
                let ts = if i == last {
                    span.end().unwrap_or(span.start)
                } else {
                    span.start
                };
                let mut ev = vec![
                    ("name".to_string(), Json::from("req")),
                    ("cat".to_string(), Json::from("req")),
                    ("ph".to_string(), Json::from(ph)),
                    ("id".to_string(), Json::U64(req.0)),
                    ("ts".to_string(), Json::F64(ts.as_nanos() as f64 / 1e3)),
                    ("pid".to_string(), Json::U64(1)),
                    ("tid".to_string(), Json::U64(u64::from(span.track) + 1)),
                ];
                if i == last {
                    // Bind the finish to the enclosing slice rather than the
                    // next slice on the track.
                    ev.push(("bp".to_string(), Json::from("e")));
                }
                events.push(Json::Obj(ev));
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::is_well_formed;

    fn ns(v: u64) -> SimNs {
        SimNs::from_nanos(v)
    }

    #[test]
    fn nesting_links_parents() {
        let mut t = SpanTracer::new();
        let track = t.track("executor");
        let outer = t.begin(track, "call", "srpc", ns(10));
        let inner = t.begin(track, "kernel", "kernel", ns(20));
        assert_eq!(t.open_depth(track), 2);
        t.end(track, inner, ns(30));
        t.end(track, outer, ns(40));
        assert_eq!(t.open_depth(track), 0);
        let spans = t.spans();
        assert_eq!(spans[1].parent(), Some(outer));
        assert_eq!(spans[0].parent(), None);
        t.validate().unwrap();
    }

    #[test]
    fn ending_parent_auto_closes_children() {
        let mut t = SpanTracer::new();
        let track = t.track("executor");
        let outer = t.begin(track, "call", "srpc", ns(10));
        let _inner = t.begin(track, "kernel", "kernel", ns(20));
        t.end(track, outer, ns(50));
        assert_eq!(t.open_depth(track), 0);
        assert!(t.spans().iter().all(|s| s.end() == Some(ns(50))));
        t.validate().unwrap();
    }

    #[test]
    fn tracks_are_deduplicated_and_independent() {
        let mut t = SpanTracer::new();
        let a = t.track("gpu:1");
        let b = t.track("npu:2");
        assert_eq!(t.track("gpu:1"), a);
        assert_ne!(a, b);
        let sa = t.begin(a, "k1", "kernel", ns(0));
        let _sb = t.begin(b, "k2", "kernel", ns(5));
        t.end(a, sa, ns(10));
        assert_eq!(t.open_depth(a), 0);
        assert_eq!(t.open_depth(b), 1);
        t.finish_all(ns(20));
        assert_eq!(t.open_depth(b), 0);
        t.validate().unwrap();
    }

    #[test]
    fn complete_spans_nest_under_open_parent() {
        let mut t = SpanTracer::new();
        let track = t.track("recovery:p2");
        let outer = t.begin(track, "failover", "recovery", ns(0));
        let child = t.complete(track, "invalidate", "recovery", ns(1), ns(4));
        t.end(track, outer, ns(10));
        let spans = t.spans();
        assert_eq!(child, SpanId(1), "an id is the creation index");
        assert_eq!(spans[1].parent(), Some(outer));
        assert_eq!(t.cat(&spans[1]), "recovery");
        t.validate().unwrap();
    }

    #[test]
    fn chrome_trace_is_well_formed_json() {
        let mut t = SpanTracer::new();
        let track = t.track("spm");
        let s = t.begin(track, "boot \"quoted\"", "boot", ns(0));
        t.end(track, s, ns(1_000_000));
        t.instant("phase:crash", ns(500));
        let json = t.chrome_trace_json();
        assert!(is_well_formed(&json), "trace must parse: {json}");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"I\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("traceEvents"));
    }

    #[test]
    fn current_req_stamps_spans_and_emits_flow_chain() {
        let mut t = SpanTracer::new();
        let caller = t.track("enclave:e1");
        let stream = t.track("stream:1");
        t.set_current_req(Some(ReqId(7)));
        t.complete(caller, "enqueue:echo", "ring", ns(0), ns(10));
        let call = t.begin(stream, "echo", "srpc", ns(10));
        t.end(stream, call, ns(50));
        t.set_current_req(None);
        t.complete(caller, "unrelated", "mgmt", ns(60), ns(70));
        assert!(t.spans()[0].req() == Some(ReqId(7)) && t.spans()[1].req() == Some(ReqId(7)));
        assert_eq!(t.spans()[2].req(), None);
        let json = t.chrome_trace_json();
        assert!(is_well_formed(&json));
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 1, "{json}");
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 1, "{json}");
        assert!(json.contains("\"bp\":\"e\""));
    }

    #[test]
    fn single_span_requests_emit_no_flow_events() {
        let mut t = SpanTracer::new();
        let track = t.track("x");
        t.set_current_req(Some(ReqId(3)));
        t.complete(track, "lonely", "ring", ns(0), ns(5));
        t.set_current_req(None);
        let json = t.chrome_trace_json();
        assert!(!json.contains("\"ph\":\"s\""));
        assert!(!json.contains("\"ph\":\"f\""));
    }

    #[test]
    fn categories_match_by_text_not_by_address() {
        let mut t = SpanTracer::new();
        let track = t.track("x");
        let leaked: &'static str = Box::leak(String::from("ring").into_boxed_str());
        t.complete(track, "a", "ring", ns(0), ns(1));
        t.complete(track, "b", leaked, ns(1), ns(2));
        t.complete(track, "c", "kernel", ns(2), ns(3));
        let cats: Vec<&str> = t.spans().iter().map(|s| t.cat(s)).collect();
        assert_eq!(cats, ["ring", "ring", "kernel"]);
        assert_eq!(t.cats.len(), 2);
    }

    #[test]
    fn zero_length_spans_are_legal() {
        let mut t = SpanTracer::new();
        let track = t.track("x");
        t.complete(track, "instant-ish", "misc", ns(5), ns(5));
        t.validate().unwrap();
        assert!(is_well_formed(&t.chrome_trace_json()));
    }
}
