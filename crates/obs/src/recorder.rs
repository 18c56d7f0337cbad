//! The flight recorder: one shared handle bundling spans, metrics and the
//! time profiler, plus the [`cronus_sim::EventSink`] bridge that turns each
//! `Machine::record` call into a metrics counter.
//!
//! Recording happens on [`RecorderInner`], under the handle's lock. Each
//! [`FlightRecorder`] method is one locked call of the `RecorderInner`
//! method of the same name; a site that records several things per
//! operation takes the lock once with [`FlightRecorder::with`] and calls
//! those methods directly, passing ids it resolved earlier (see
//! OBSERVABILITY.md, "What observing costs").

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use cronus_sim::{EventKind, EventSink, SimNs};

use crate::causal::CausalReport;
use crate::intern::IntoName;
use crate::json::Json;
use crate::meter::{
    ConservationRow, CountResource, MeterError, MeterScope, ResourceMeter, WorkerId,
};
use crate::metrics::{CounterId, MetricsRegistry};
use crate::profile::{FrameId, TimeCategory, TimeProfiler};
use crate::queue::{QueueKind, QueueObservatory, QueueReport, StationId};
use crate::span::{ReqId, SpanId, SpanTracer, TrackId};

/// Everything one run records.
#[derive(Default, Debug)]
pub struct RecorderInner {
    /// Hierarchical spans.
    pub spans: SpanTracer,
    /// Counters, gauges, histograms.
    pub metrics: MetricsRegistry,
    /// Time attribution.
    pub profiler: TimeProfiler,
    /// Per-queue depth/wait/service telemetry.
    pub queues: QueueObservatory,
    /// Per-principal resource ledgers (fed in lockstep with the profiler).
    pub meter: ResourceMeter,
    /// Last allocated request id (0 = none yet; ids start at 1).
    next_req: u64,
}

impl RecorderInner {
    /// Allocates the next request id (monotonic per system, starting at 1).
    pub fn alloc_req(&mut self) -> ReqId {
        self.next_req += 1;
        ReqId(self.next_req)
    }

    /// Opens a span (see [`SpanTracer::begin`]), advancing the elapsed-time
    /// watermark to `at`.
    pub fn begin_span(
        &mut self,
        track: TrackId,
        name: impl IntoName,
        cat: &'static str,
        at: SimNs,
    ) -> SpanId {
        self.profiler.observe_instant(at);
        self.spans.begin(track, name, cat, at)
    }

    /// Closes a span (see [`SpanTracer::end`]), advancing the watermark.
    pub fn end_span(&mut self, track: TrackId, id: SpanId, at: SimNs) {
        self.profiler.observe_instant(at);
        self.spans.end(track, id, at)
    }

    /// Records a closed interval span (see [`SpanTracer::complete`]),
    /// advancing the watermark to `end`.
    pub fn complete_span(
        &mut self,
        track: TrackId,
        name: impl IntoName,
        cat: &'static str,
        start: SimNs,
        end: SimNs,
    ) -> SpanId {
        self.profiler.observe_instant(end);
        self.spans.complete(track, name, cat, start, end)
    }

    /// Charges simulated time to a resolved profiler frame and to the
    /// ambient meter scope's ledger. Feeding both from one call is what
    /// makes the meter's conservation check an exact equality.
    pub fn charge_frame(&mut self, frame: FrameId, d: SimNs) {
        let cat = self.profiler.charge_frame(frame, d);
        self.meter.charge_time(cat, d);
    }

    /// Records a dequeue edge on `station`: the item left at `at` after
    /// waiting `wait` and being served for `service`. When an ambient
    /// request is active its ReqId is attached as a wait exemplar, so the
    /// p99 tail of each wait histogram stays attributable.
    pub fn queue_dequeue(&mut self, station: StationId, at: SimNs, wait: SimNs, service: SimNs) {
        let req = self.spans.current_req();
        self.queues.at(station).dequeue_req(at, wait, service, req);
    }

    /// Records that the ambient scope's current request occupied `worker`
    /// for `[start, end)` (interference-matrix raw material).
    pub fn meter_occupy(&mut self, worker: WorkerId, start: SimNs, end: SimNs) {
        let req = self.spans.current_req();
        self.meter.record_occupancy(worker, req, start, end);
    }

    /// Records that the ambient scope's current request waited on `worker`
    /// from `enqueued` until `started`.
    pub fn meter_wait(&mut self, worker: WorkerId, enqueued: SimNs, started: SimNs) {
        let req = self.spans.current_req();
        self.meter.record_wait(worker, req, enqueued, started);
    }
}

/// A cheaply-cloneable handle to one run's observability state.
///
/// Clones share the same underlying store; one clone is typically boxed as
/// the machine's event sink while others live in the SPM, devices and
/// runtime shims.
#[derive(Clone, Default, Debug)]
pub struct FlightRecorder {
    inner: Arc<Mutex<RecorderInner>>,
}

impl FlightRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// Locks the store for direct access (tests, exporters).
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, RecorderInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `f` with the locked store.
    #[inline]
    pub fn with<R>(&self, f: impl FnOnce(&mut RecorderInner) -> R) -> R {
        f(&mut self.lock())
    }

    // --- request ids ----------------------------------------------------

    /// Allocates the next request id (monotonic per system, starting at 1).
    pub fn alloc_req(&self) -> ReqId {
        self.with(RecorderInner::alloc_req)
    }

    /// Sets (or clears) the ambient request: every span opened while it is
    /// set — on any track, from any layer — is attributed to that request.
    pub fn set_current_req(&self, req: Option<ReqId>) {
        self.with(|r| r.spans.set_current_req(req));
    }

    /// The ambient request, if any.
    pub fn current_req(&self) -> Option<ReqId> {
        self.with(|r| r.spans.current_req())
    }

    // --- span conveniences ---------------------------------------------

    /// Returns (creating if needed) the track named `name`.
    pub fn track(&self, name: &str) -> TrackId {
        self.with(|r| r.spans.track(name))
    }

    /// Opens a span; see [`RecorderInner::begin_span`].
    pub fn begin_span(
        &self,
        track: TrackId,
        name: impl IntoName,
        cat: &'static str,
        at: SimNs,
    ) -> SpanId {
        self.with(|r| r.begin_span(track, name, cat, at))
    }

    /// Closes a span; see [`RecorderInner::end_span`].
    pub fn end_span(&self, track: TrackId, id: SpanId, at: SimNs) {
        self.with(|r| r.end_span(track, id, at))
    }

    /// Records a closed interval span; see [`RecorderInner::complete_span`].
    pub fn complete_span(
        &self,
        track: TrackId,
        name: impl IntoName,
        cat: &'static str,
        start: SimNs,
        end: SimNs,
    ) -> SpanId {
        self.with(|r| r.complete_span(track, name, cat, start, end))
    }

    // --- metric conveniences -------------------------------------------

    /// Adds to a counter.
    pub fn counter_add(&self, name: &str, lbls: &[(&str, &str)], delta: u64) {
        self.with(|r| {
            let id = r.metrics.counter_id(name, lbls);
            r.metrics.counter_bump(id, delta);
        });
    }

    /// Sets a gauge.
    pub fn gauge_set(&self, name: &str, lbls: &[(&str, &str)], value: i64) {
        self.with(|r| {
            let id = r.metrics.gauge_id(name, lbls);
            r.metrics.gauge_store(id, value);
        });
    }

    /// Sums a counter across all label sets (used by the forensics
    /// verifier's ledger-vs-recorder completeness check).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.with(|r| r.metrics.counter_total(name))
    }

    /// Records a histogram observation.
    pub fn observe(&self, name: &str, lbls: &[(&str, &str)], d: SimNs) {
        self.with(|r| {
            let id = r.metrics.histogram_id(name, lbls);
            r.metrics.histogram_record(id, d);
        });
    }

    // --- queue observatory conveniences --------------------------------

    /// Declares a queue station (idempotent).
    pub fn queue_declare(&self, name: &str, kind: QueueKind, capacity: u64) -> StationId {
        self.with(|r| r.queues.declare(name, kind, capacity))
    }

    /// Records an enqueue edge on `name` at virtual instant `at`.
    pub fn queue_enqueue(&self, name: &str, at: SimNs) {
        self.with(|r| r.queues.enqueue(name, at));
    }

    /// Records a dequeue edge on `name` (ignored when undeclared); see
    /// [`RecorderInner::queue_dequeue`].
    pub fn queue_dequeue(&self, name: &str, at: SimNs, wait: SimNs, service: SimNs) {
        self.with(|r| {
            if let Some(station) = r.queues.station_id(name) {
                r.queue_dequeue(station, at, wait, service);
            }
        });
    }

    /// Discards everything queued on `name` (quarantine teardown),
    /// returning the number of flushed items.
    pub fn queue_flush(&self, name: &str, at: SimNs) -> u64 {
        self.with(|r| r.queues.flush(name, at))
    }

    /// Whether any queue station was declared in this run.
    pub fn has_queues(&self) -> bool {
        self.with(|r| !r.queues.is_empty())
    }

    /// Builds the ranked bottleneck-attribution report.
    pub fn queue_report(&self, tolerance: f64) -> QueueReport {
        self.with(|r| r.queues.report(tolerance))
    }

    /// Evaluates an SLO policy against the queue observatory.
    pub fn slo_report(&self, policy: &crate::slo::SloPolicy) -> crate::slo::SloReport {
        self.with(|r| crate::slo::evaluate(policy, &r.queues))
    }

    /// High-water depth across queues whose name starts with `prefix`.
    pub fn queue_high_water_depth(&self, prefix: &str) -> u64 {
        self.with(|r| r.queues.high_water_depth(prefix))
    }

    /// Highest *current* depth across queues matching `prefix` — zero means
    /// every matching queue has drained.
    pub fn queue_current_depth(&self, prefix: &str) -> u64 {
        self.with(|r| r.queues.max_current_depth(prefix))
    }

    // --- profiler conveniences -----------------------------------------

    /// Charges simulated time to a category — to the profiler and, in the
    /// same locked step, to the ambient meter scope's ledger; see
    /// [`RecorderInner::charge_frame`].
    pub fn charge(&self, cat: TimeCategory, d: SimNs) {
        self.with(|r| {
            let frame = r.profiler.frame(cat, None);
            r.charge_frame(frame, d);
        });
    }

    /// Charges simulated time to a category with a detail frame.
    pub fn charge_detail(&self, cat: TimeCategory, detail: &str, d: SimNs) {
        self.with(|r| {
            let frame = r.profiler.frame(cat, Some(detail));
            r.charge_frame(frame, d);
        });
    }

    // --- resource meter conveniences ------------------------------------

    /// Replaces the ambient meter scope, returning the previous one so the
    /// caller can save/restore around nested work (the ambient-ReqId
    /// pattern, applied to ownership).
    pub fn set_meter_scope(&self, scope: MeterScope) -> MeterScope {
        self.with(|r| r.meter.set_scope(scope))
    }

    /// The ambient meter scope.
    pub fn meter_scope(&self) -> MeterScope {
        self.with(|r| r.meter.scope())
    }

    /// Adds `amount` of a count resource to the ambient scope's ledger.
    pub fn meter_count(&self, res: CountResource, amount: u64) {
        self.with(|r| r.meter.add_count(res, amount));
    }

    /// Records an executor occupancy slice; see
    /// [`RecorderInner::meter_occupy`].
    pub fn meter_occupy(&self, worker: WorkerId, start: SimNs, end: SimNs) {
        self.with(|r| r.meter_occupy(worker, start, end));
    }

    /// Records an executor wait window; see [`RecorderInner::meter_wait`].
    pub fn meter_wait(&self, worker: WorkerId, enqueued: SimNs, started: SimNs) {
        self.with(|r| r.meter_wait(worker, enqueued, started));
    }

    /// Runs the meter's conservation self-test against the profiler and
    /// event counters.
    ///
    /// # Errors
    ///
    /// [`MeterError::Conservation`] naming the first imbalanced resource.
    pub fn meter_conservation(&self) -> Result<Vec<ConservationRow>, MeterError> {
        self.with(|r| r.meter.check_conservation(&r.profiler, &r.metrics))
    }

    /// Fairness metrics (per-resource Jain indices, dominant shares)
    /// computed over the meter's per-principal ledgers.
    pub fn fairness_report(&self) -> crate::fairness::FairnessReport {
        self.with(|r| crate::fairness::FairnessReport::compute(&r.meter))
    }

    /// The noisy-neighbor interference matrix: each principal's backlog
    /// waits attributed to whoever occupied the contended executor.
    pub fn interference_matrix(&self) -> crate::fairness::InterferenceMatrix {
        self.with(|r| crate::fairness::InterferenceMatrix::build(&r.meter))
    }

    /// Advances the elapsed-time watermark.
    pub fn observe_instant(&self, at: SimNs) {
        self.with(|r| r.profiler.observe_instant(at));
    }

    /// Current elapsed-time watermark (used to place attribution-local
    /// spans, e.g. recovery phases, back to back).
    pub fn total_elapsed(&self) -> SimNs {
        self.with(|r| r.profiler.total_elapsed())
    }

    // --- exports --------------------------------------------------------

    /// Closes open spans and renders the Chrome trace-event JSON document.
    pub fn chrome_trace_json(&self) -> String {
        self.with(|r| {
            let at = r.profiler.total_elapsed();
            r.spans.finish_all(at);
            r.spans.chrome_trace_json()
        })
    }

    /// Renders the metrics snapshot JSON for a run named `run`.
    pub fn metrics_snapshot_json(&self, run: &str) -> String {
        self.with(|r| {
            let attribution: Vec<Json> = r
                .profiler
                .attribution()
                .iter()
                .map(|(cat, d)| {
                    Json::obj([
                        ("category", Json::from(cat.name())),
                        ("ns", Json::U64(d.as_nanos())),
                    ])
                })
                .collect();
            r.metrics.snapshot_json(&[
                ("run", Json::from(run)),
                (
                    "elapsed_ns",
                    Json::U64(r.profiler.total_elapsed().as_nanos()),
                ),
                ("busy_ns", Json::U64(r.profiler.total_busy().as_nanos())),
                ("idle_ns", Json::U64(r.profiler.idle().as_nanos())),
                ("attribution", Json::Arr(attribution)),
            ])
        })
    }

    /// Renders folded-stack lines for flamegraph tooling.
    pub fn folded_stacks(&self) -> String {
        self.with(|r| r.profiler.folded_stacks())
    }

    /// Builds the causal critical-path report from the recorded spans.
    pub fn causal_report(&self) -> CausalReport {
        self.with(|r| CausalReport::from_tracer(&r.spans))
    }

    /// Boxes a sink for [`cronus_sim::Machine::set_event_sink`]; events then
    /// feed this recorder's counters.
    pub fn sink(&self) -> Box<dyn EventSink> {
        Box::new(RecorderSink::new(self.clone()))
    }
}

/// Bridges the simulator's event stream into the recorder.
///
/// Counter names mirror [`EventKind`] variants one-to-one: the counters are
/// the only tally of the simulator's events.
pub struct RecorderSink {
    rec: FlightRecorder,
    /// The per-stream / per-partition series resolved so far, by
    /// `(counter name, raw id)`: the decimal label is rendered once per
    /// series, not once per event.
    labelled: HashMap<(&'static str, u64), CounterId>,
}

impl RecorderSink {
    /// Wraps a recorder handle.
    pub fn new(rec: FlightRecorder) -> Self {
        RecorderSink {
            rec,
            labelled: HashMap::new(),
        }
    }
}

impl EventSink for RecorderSink {
    fn on_event(&mut self, at: SimNs, kind: &EventKind) {
        let labelled = &mut self.labelled;
        self.rec.with(|r| {
            r.profiler.observe_instant(at);
            let m = &mut r.metrics;
            let plain = |m: &mut MetricsRegistry, name: &str, delta: u64| {
                let id = m.counter_id(name, &[]);
                m.counter_bump(id, delta);
            };
            // `raw` identifies the series; `value` renders its label.
            let mut one = |m: &mut MetricsRegistry,
                           name: &'static str,
                           key: &str,
                           raw: u64,
                           value: &dyn std::fmt::Display| {
                let id = *labelled
                    .entry((name, raw))
                    .or_insert_with(|| m.counter_id(name, &[(key, &value.to_string())]));
                m.counter_bump(id, 1);
            };
            let partition_of = |p: &cronus_sim::AsId| u64::from(p.as_u32());
            match kind {
                EventKind::WorldSwitch => {
                    plain(m, "world_switches", 1);
                    r.meter.add_count(CountResource::WorldSwitches, 1);
                }
                EventKind::RpcEnqueue { stream } => {
                    one(m, "srpc.enqueued", "stream", *stream, stream);
                }
                EventKind::RpcDispatch { stream } => {
                    one(m, "srpc.dispatched", "stream", *stream, stream);
                }
                EventKind::RpcSync { stream } => {
                    one(m, "srpc.syncs", "stream", *stream, stream);
                }
                EventKind::Faulted(_) => {
                    plain(m, "faults", 1);
                }
                EventKind::PartitionFailed { partition } => {
                    let raw = partition_of(partition);
                    one(m, "partition.failed", "partition", raw, partition);
                }
                EventKind::PartitionCleared { partition } => {
                    let raw = partition_of(partition);
                    one(m, "partition.cleared", "partition", raw, partition);
                }
                EventKind::PartitionRecovered { partition } => {
                    let raw = partition_of(partition);
                    one(m, "partition.recovered", "partition", raw, partition);
                }
                EventKind::MemoryShared { pages, .. } => {
                    plain(m, "memory.shared_pages", *pages as u64);
                    r.meter.add_count(CountResource::Stage2Pages, *pages as u64);
                }
                EventKind::FailureSignal { partition } => {
                    let raw = partition_of(partition);
                    one(m, "failure.signals", "partition", raw, partition);
                }
                EventKind::DeviceIrq { count } => {
                    plain(m, "device.irqs", *count as u64);
                    r.meter.add_count(CountResource::DeviceIrqs, *count as u64);
                }
                EventKind::Marker(label) => {
                    plain(m, "markers", 1);
                    r.spans.instant(*label, at);
                }
            }
        });
    }
}

/// Charges the recorder (if present) — a shorthand for the `Option<&FlightRecorder>`
/// plumbing in instrumented crates.
pub fn charge_opt(rec: Option<&FlightRecorder>, cat: TimeCategory, d: SimNs) {
    if let Some(rec) = rec {
        rec.charge(cat, d);
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
    fn sink_counts_match_event_stream() {
        let rec = FlightRecorder::new();
        let mut sink = RecorderSink::new(rec.clone());
        sink.on_event(ns(1), &EventKind::WorldSwitch);
        sink.on_event(ns(2), &EventKind::WorldSwitch);
        sink.on_event(ns(3), &EventKind::RpcSync { stream: 9 });
        sink.on_event(ns(4), &EventKind::RpcEnqueue { stream: 9 });
        sink.on_event(ns(5), &EventKind::RpcDispatch { stream: 9 });
        sink.on_event(ns(6), &EventKind::Marker("phase:warmup"));
        let inner = rec.lock();
        assert_eq!(inner.metrics.counter_total("world_switches"), 2);
        assert_eq!(inner.metrics.counter_total("srpc.syncs"), 1);
        assert_eq!(inner.metrics.counter_total("srpc.enqueued"), 1);
        assert_eq!(inner.metrics.counter_total("srpc.dispatched"), 1);
        assert_eq!(inner.metrics.counter_total("markers"), 1);
        assert_eq!(inner.spans.instants().len(), 1);
        assert_eq!(inner.profiler.total_elapsed(), ns(6));
    }

    #[test]
    fn recorder_clones_share_state() {
        let rec = FlightRecorder::new();
        let clone = rec.clone();
        clone.counter_add("x", &[], 5);
        assert_eq!(rec.lock().metrics.counter_total("x"), 5);
    }

    #[test]
    fn exports_are_well_formed() {
        let rec = FlightRecorder::new();
        let t = rec.track("spm");
        let s = rec.begin_span(t, "boot", "boot", ns(0));
        rec.end_span(t, s, ns(100));
        rec.observe("lat", &[("stream", "1")], ns(42));
        rec.charge(TimeCategory::Ring, ns(10));
        assert!(is_well_formed(&rec.metrics_snapshot_json("unit")));
        assert!(is_well_formed(&rec.chrome_trace_json()));
    }

    #[test]
    fn attribution_in_snapshot_sums_to_elapsed() {
        let rec = FlightRecorder::new();
        rec.charge(TimeCategory::Kernel, ns(700));
        rec.charge_detail(TimeCategory::Ring, "enqueue", ns(300));
        rec.observe_instant(ns(2_000));
        let inner = rec.lock();
        let sum: u64 = inner
            .profiler
            .attribution()
            .iter()
            .map(|(_, d)| d.as_nanos())
            .sum();
        assert_eq!(sum, inner.profiler.total_elapsed().as_nanos());
        assert_eq!(sum, 2_000);
    }
}
