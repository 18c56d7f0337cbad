//! Per-stream telemetry handles: what the sRPC path needs to report a call
//! without looking anything up by string.
//!
//! A stream reports to the same tracks, queue stations, metric series and
//! profiler frames on every call. [`StreamObs`] resolves them once, when the
//! stream is opened, and each sRPC phase (enqueue, drain, call completion)
//! then reports through one method here, run as **one** locked recorder
//! step by the protocol driver in [`crate::transport`] — the same step in
//! which the phase spent its ring time (`cronus_obs::spend`, whose rows
//! resolve their own profiler frames). The methods record exactly what the
//! driver used to record call by call, so spans, histograms, queue stations
//! and meter ledgers come out byte-identical; only the host time spent
//! recording changes.
//!
//! Names that depend on the mECall (`enqueue:<name>`, `complete:<name>`, the
//! call span and the kernel detail frame) are resolved the first time the
//! stream sees that mECall and kept. The enqueue resolves them from the
//! caller's own name and the pending request carries them to the drain, so
//! the executor reports under that resolution, never under the name it
//! decodes from the ring slot.
//!
//! Nothing here reads payload bytes: every argument is a name the manifest
//! declared, an instant, a duration, a depth or a worker id. The taint lint
//! treats these methods as sinks to keep it that way.

use cronus_mos::manifest::Eid;
use cronus_obs::{
    CountResource, FrameId, GaugeId, HistogramId, NameId, QueueKind, RecorderInner, StationId,
    TimeCategory, TrackId, WorkerId,
};
use cronus_sim::SimNs;

use crate::ring::MultiRingLayout;
use crate::srpc::StreamId;

/// The interned names of one mECall on one stream.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CallObs {
    /// `enqueue:<mecall>` span on the caller's track.
    enqueue: NameId,
    /// `complete:<mecall>` span on the caller's track.
    complete: NameId,
    /// The call span on the stream's track.
    call: NameId,
    /// The `kernel;<mecall>` profiler frame.
    kernel: FrameId,
}

/// What the producer side of one enqueue measured.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Enqueued {
    pub lane: usize,
    /// Caller clock before and after the enqueue (and its doorbell).
    pub from: SimNs,
    pub now: SimNs,
    /// Stream backlog after the enqueue.
    pub occupancy: i64,
}

/// What the executor side of one drained request measured.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Drained {
    pub lane: usize,
    pub enqueued_at: SimNs,
    pub started: SimNs,
    pub finished: SimNs,
    pub dequeue_cost: SimNs,
    pub exec_time: SimNs,
    pub worker: WorkerId,
    /// Stream backlog after the drain.
    pub occupancy: i64,
}

/// The resolved telemetry handles of one open stream.
#[derive(Debug)]
pub(crate) struct StreamObs {
    /// `enclave:<caller>`. The track is created by the stream's first
    /// enqueue, not at open, because track creation order is visible in the
    /// trace (it numbers the rows).
    caller_track_name: Box<str>,
    caller_track: Option<TrackId>,
    /// `stream:<id>`.
    stream_track: TrackId,
    /// `srpc.ring:<id>.<lane>`, by lane.
    stations: Vec<StationId>,
    occupancy: GaugeId,
    enqueue_to_dispatch: HistogramId,
    request_latency: HistogramId,
    await_executor: NameId,
    exec: NameId,
    /// Per mECall seen on this stream (a handful; scanned linearly).
    calls: Vec<(Box<str>, CallObs)>,
}

impl StreamObs {
    /// Resolves the handles of stream `id` and records its establishment:
    /// the `open` span over `[opened - setup, opened]` and one queue station
    /// per lane. Resolving is invisible in every report until the handle is
    /// first written through.
    pub(crate) fn open(
        r: &mut RecorderInner,
        id: StreamId,
        caller: Eid,
        layout: &MultiRingLayout,
        setup: SimNs,
        opened: SimNs,
    ) -> StreamObs {
        let stream = id.0.to_string();
        let stream_track = r.spans.track(&format!("stream:{stream}"));
        r.complete_span(
            stream_track,
            "open",
            "srpc",
            opened.saturating_sub(setup),
            opened,
        );
        // One queue station per lane: per-stream (and per-lane) attribution
        // is what lets `obs report` name the bounding stream instead of one
        // aggregate `srpc.ring:1`.
        let stations = (0..layout.lanes)
            .map(|lane| {
                r.queues.declare(
                    &format!("srpc.ring:{stream}.{lane}"),
                    QueueKind::Ring,
                    layout.slots_per_lane(),
                )
            })
            .collect();
        let labels = [("stream", stream.as_str())];
        StreamObs {
            caller_track_name: format!("enclave:{caller}").into(),
            caller_track: None,
            stream_track,
            stations,
            occupancy: r.metrics.gauge_id("srpc.ring_occupancy", &labels),
            enqueue_to_dispatch: r.metrics.histogram_id("srpc.enqueue_to_dispatch", &labels),
            request_latency: r.metrics.histogram_id("srpc.request_latency", &labels),
            await_executor: r.spans.intern("await-executor"),
            exec: r.spans.intern("exec"),
            calls: Vec::new(),
        }
    }

    /// The names of `mecall`, resolved on its first use on this stream.
    fn call(&mut self, r: &mut RecorderInner, mecall: &str) -> CallObs {
        if let Some((_, c)) = self.calls.iter().find(|(name, _)| &**name == mecall) {
            return *c;
        }
        let c = CallObs {
            enqueue: r.spans.intern(&format!("enqueue:{mecall}")),
            complete: r.spans.intern(&format!("complete:{mecall}")),
            call: r.spans.intern(mecall),
            kernel: r.profiler.frame(TimeCategory::Kernel, Some(mecall)),
        };
        self.calls.push((mecall.into(), c));
        c
    }

    fn caller_track(&mut self, r: &mut RecorderInner) -> TrackId {
        *self
            .caller_track
            .get_or_insert_with(|| r.spans.track(&self.caller_track_name))
    }

    /// The enqueue phase, after its ring time was spent: the lane station's
    /// arrival, the occupancy gauge and the `enqueue:<mecall>` span on the
    /// caller's track. Returns `mecall`'s names for the drain to report
    /// with.
    pub(crate) fn enqueued(&mut self, r: &mut RecorderInner, mecall: &str, e: Enqueued) -> CallObs {
        if let Some(&station) = self.stations.get(e.lane) {
            r.queues.at(station).enqueue(e.now);
        }
        r.metrics.gauge_store(self.occupancy, e.occupancy);
        let track = self.caller_track(r);
        let call = self.call(r, mecall);
        r.complete_span(track, call.enqueue, "ring", e.from, e.now);
        call
    }

    /// The producer found every lane full and waited until `lane` freed a
    /// slot at `at`.
    pub(crate) fn ring_full(&self, r: &mut RecorderInner, lane: usize, at: SimNs) {
        if let Some(&station) = self.stations.get(lane) {
            r.queues.at(station).error(at);
        }
    }

    /// The drain phase of one request, after its dequeue was spent:
    /// dispatch latency, occupancy, kernel time, the backlog/call/exec spans on the stream's track,
    /// request latency, the lane station's departure and the meter's slot,
    /// wait and occupancy records, under the names `call` its enqueue
    /// resolved.
    pub(crate) fn drained(&self, r: &mut RecorderInner, call: CallObs, d: Drained) {
        let track = self.stream_track;
        let wait = d.started - d.enqueued_at;
        r.metrics.histogram_record(self.enqueue_to_dispatch, wait);
        r.metrics.gauge_store(self.occupancy, d.occupancy);
        r.charge_frame(call.kernel, d.exec_time);
        // Time between enqueue and the worker picking the request up is
        // executor *backlog* (the device was busy with earlier work), not a
        // protocol queue bottleneck: cover it with its own span so the
        // causal report attributes it as "backlog" instead of falling
        // through to the coarse "queue" gap category.
        if d.started > d.enqueued_at {
            r.complete_span(
                track,
                self.await_executor,
                "backlog",
                d.enqueued_at,
                d.started,
            );
        }
        let span = r.begin_span(track, call.call, "srpc", d.started);
        r.complete_span(
            track,
            self.exec,
            "kernel",
            d.started + d.dequeue_cost,
            d.finished,
        );
        r.end_span(track, span, d.finished);
        r.metrics
            .histogram_record(self.request_latency, d.finished - d.enqueued_at);
        if let Some(&station) = self.stations.get(d.lane) {
            r.queue_dequeue(station, d.finished, wait, d.dequeue_cost + d.exec_time);
        }
        // Meter the ring-slot occupancy (enqueue → finish), the wait behind
        // the executor, and the worker occupancy interval the interference
        // matrix attributes waits against.
        r.meter.add_count(
            CountResource::RingSlotNs,
            (d.finished - d.enqueued_at).as_nanos(),
        );
        r.meter_wait(d.worker, d.enqueued_at, d.started);
        r.meter_occupy(d.worker, d.started, d.finished);
    }

    /// A synchronous call's completion, after its wakeup was spent: the
    /// `complete:<mecall>` span on the caller's track.
    pub(crate) fn call_completed(
        &mut self,
        r: &mut RecorderInner,
        mecall: &str,
        wakeup: SimNs,
        woke: SimNs,
    ) {
        let track = self.caller_track(r);
        let name = self.call(r, mecall).complete;
        r.complete_span(track, name, "ring", woke - wakeup, woke);
    }

    /// A payload travelled as a zero-copy grant: arena occupancy is metered
    /// by grant *size*, never by payload bytes.
    pub(crate) fn granted(&self, r: &mut RecorderInner, len: u64) {
        r.meter.add_count(CountResource::ArenaBytes, len);
    }

    /// The caller waited `backoff` before replaying an idempotent mECall.
    pub(crate) fn backed_off(&self, r: &mut RecorderInner, backoff: SimNs) {
        let frame = r.profiler.frame(TimeCategory::Ring, Some("retry_backoff"));
        r.charge_frame(frame, backoff);
    }

    /// A failed attempt of `mecall` is about to be replayed.
    pub(crate) fn retried(&self, r: &mut RecorderInner, mecall: &str) {
        bump(r, "srpc.retries", &[("mcall", mecall)], 1);
    }

    /// A synchronous `mecall` missed its deadline.
    pub(crate) fn timed_out(&self, r: &mut RecorderInner, mecall: &str) {
        bump(r, "srpc.timeouts", &[("mcall", mecall)], 1);
    }

    /// streamCheck found the shared indices diverged.
    pub(crate) fn check_failed(&self, r: &mut RecorderInner) {
        bump(r, "srpc.stream_check_failures", &[], 1);
    }

    /// The stream was replaced by a fresh one at `at`: whatever its rings
    /// still held is flushed so station depth returns to 0 and the Little
    /// check knows the residuals were discarded.
    pub(crate) fn reopened(&self, r: &mut RecorderInner, at: SimNs) {
        bump(r, "srpc.streams_reopened", &[], 1);
        r.spans.instant("stream-reopened", at);
        let dropped = self.flush(r, at);
        if dropped > 0 {
            bump(r, "srpc.requests_flushed", &[], dropped);
        }
    }

    /// Discards whatever is still queued on the stream's lane stations
    /// (quarantine, or a reopen abandoning the old rings), returning how
    /// many requests that was.
    pub(crate) fn flush(&self, r: &mut RecorderInner, at: SimNs) -> u64 {
        self.stations
            .iter()
            .map(|&station| r.queues.at(station).flush(at))
            .sum()
    }
}

/// Adds `delta` to the counter `name{labels}`. These are the sRPC path's
/// rare events, so they resolve their series by name when they happen.
fn bump(r: &mut RecorderInner, name: &str, labels: &[(&str, &str)], delta: u64) {
    let id = r.metrics.counter_id(name, labels);
    r.metrics.counter_bump(id, delta);
}
