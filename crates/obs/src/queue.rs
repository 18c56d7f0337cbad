//! Queueing & saturation observatory.
//!
//! Every bounded queue in the system — sRPC rings, the dispatcher's routing
//! queue, device DMA/completion queues, the SPM trap/recovery queue — reports
//! its enqueue/dequeue edges to a [`QueueStation`] here. Each station keeps,
//! entirely on the virtual clock (deterministic per seed):
//!
//! - instantaneous and maximum **depth**, plus a depth-time integral so the
//!   time-averaged queue length `L` is exact, not sampled — and costs one
//!   multiply per edge however much idle virtual time lies between edges;
//! - **wait vs service** split per request (log-bucketed histograms), busy
//!   time for utilization, and error/flush counters.
//!
//! The analyzer turns stations into per-queue **USE** rows (utilization /
//! saturation / errors), cross-validates the timestamp-derived mean depth
//! (`(Σ deq_at − Σ enq_at) / window`) against Little's law (`L = λW`)
//! computed from the *independently reported* per-request sojourns — a
//! built-in self-test that the instrumentation is consistent — and ranks
//! queues by total wait to name the **bounding queue**, replacing the
//! coarse `bounding_category` string with evidence.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cronus_sim::SimNs;

use crate::json::Json;
use crate::metrics::Histogram;
use crate::span::ReqId;

/// Default relative-error tolerance for the Little's-law cross-check.
pub const DEFAULT_LITTLE_TOLERANCE: f64 = 0.15;

/// Cap on retained worst-wait exemplars per station. Small on purpose: the
/// exemplars exist to de-anonymize the p99 tail of the wait histogram, not
/// to archive every request.
pub const MAX_EXEMPLARS: usize = 8;

/// Minimum completed requests before the Little's-law check is meaningful.
pub const MIN_LITTLE_DEQUEUES: u64 = 8;

/// What kind of queue a station instruments (the USE "resource" class).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueueKind {
    /// An sRPC shared-memory request ring.
    Ring,
    /// The runtime dispatcher's routing/admission queue.
    Dispatch,
    /// A device completion (IRQ) queue.
    Completion,
    /// The PCIe DMA transfer queue.
    Dma,
    /// The SPM trap/recovery work queue.
    Recovery,
}

impl QueueKind {
    /// Stable lower-case label used in reports and SLO policies.
    pub fn as_str(self) -> &'static str {
        match self {
            QueueKind::Ring => "ring",
            QueueKind::Dispatch => "dispatch",
            QueueKind::Completion => "completion",
            QueueKind::Dma => "dma",
            QueueKind::Recovery => "recovery",
        }
    }
}

/// One worst-wait exemplar: a request id attached to the wait it suffered,
/// so the p99 tail of a station's wait histogram is no longer anonymous.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitExemplar {
    /// How long the request waited before service.
    pub wait: SimNs,
    /// The request that suffered it.
    pub req: ReqId,
}

/// Continuous telemetry for one instrumented queue.
#[derive(Clone, Debug)]
pub struct QueueStation {
    name: String,
    kind: QueueKind,
    capacity: u64,
    depth: u64,
    max_depth: u64,
    enqueues: u64,
    dequeues: u64,
    flushed: u64,
    errors: u64,
    wait: Histogram,
    service: Histogram,
    busy_ns: u128,
    sojourn_ns: u128,
    depth_integral: u128,
    enq_at_sum: u128,
    deq_at_sum: u128,
    unmatched: u64,
    first_at: Option<SimNs>,
    watermark: SimNs,
    /// Worst-N waits with their request ids, descending by wait; equal
    /// waits keep first-captured order so the ring is deterministic.
    exemplars: Vec<WaitExemplar>,
    exemplars_dropped: u64,
}

impl QueueStation {
    /// Creates a standalone station (most callers go through
    /// [`QueueObservatory::declare`]; direct construction is for analysis
    /// tooling and tests).
    pub fn new(name: &str, kind: QueueKind, capacity: u64) -> Self {
        QueueStation {
            name: name.to_string(),
            kind,
            capacity,
            depth: 0,
            max_depth: 0,
            enqueues: 0,
            dequeues: 0,
            flushed: 0,
            errors: 0,
            wait: Histogram::default(),
            service: Histogram::default(),
            busy_ns: 0,
            sojourn_ns: 0,
            depth_integral: 0,
            enq_at_sum: 0,
            deq_at_sum: 0,
            unmatched: 0,
            first_at: None,
            watermark: SimNs::ZERO,
            exemplars: Vec::new(),
            exemplars_dropped: 0,
        }
    }

    /// Advances the station's monotonic watermark to `at` (clamped — actor
    /// clocks may individually lag), accumulating the depth-time integral
    /// for the stretch covered.
    fn advance(&mut self, at: SimNs) {
        let at = at.max(self.watermark);
        if self.first_at.is_none() {
            self.first_at = Some(at);
            self.watermark = at;
            return;
        }
        let dt = (at - self.watermark).as_nanos();
        self.depth_integral += self.depth as u128 * dt as u128;
        self.watermark = at;
    }

    /// One item entered the queue at virtual instant `at`.
    pub fn enqueue(&mut self, at: SimNs) {
        self.advance(at);
        // The *raw* timestamp feeds the residence sum: lazily-drained queues
        // (e.g. an sRPC ring drained at `sync`) report completions whose
        // timestamps interleave into the past relative to later enqueues,
        // and Σdeq − Σenq is exact under any reporting order while the
        // watermark-clamped integral is not.
        self.enq_at_sum += at.as_nanos() as u128;
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
        self.enqueues += 1;
    }

    /// One item left the queue at `at` after waiting `wait` and being served
    /// for `service`. The wait/service split is reported by the caller from
    /// its own clocks — deliberately an *independent* path from the
    /// enqueue/dequeue timestamps, which is what gives the Little's-law
    /// cross-check its teeth.
    pub fn dequeue(&mut self, at: SimNs, wait: SimNs, service: SimNs) {
        self.dequeue_req(at, wait, service, None);
    }

    /// [`QueueStation::dequeue`], additionally attributing the wait to a
    /// request id when the caller knows one. Identified waits feed the
    /// bounded worst-N exemplar ring, which is what lets the telemetry
    /// bundle name the exact requests in the p99 tail.
    pub fn dequeue_req(&mut self, at: SimNs, wait: SimNs, service: SimNs, req: Option<ReqId>) {
        self.advance(at);
        self.deq_at_sum += at.as_nanos() as u128;
        if self.depth == 0 {
            // A dequeue without a matching enqueue is itself an
            // instrumentation error worth surfacing; it also taints the
            // residence sum, so it disqualifies the Little's-law check.
            self.errors += 1;
            self.unmatched += 1;
        } else {
            self.depth -= 1;
        }
        self.dequeues += 1;
        self.wait.observe(wait);
        self.service.observe(service);
        self.busy_ns += service.as_nanos() as u128;
        self.sojourn_ns += (wait + service).as_nanos() as u128;
        if let Some(req) = req {
            self.capture_exemplar(wait, req);
        }
    }

    /// Inserts into the worst-N ring: strictly longer waits rank first,
    /// equal waits keep first-captured order (stable, hence deterministic
    /// per seed). Whatever does not fit bumps `exemplars_dropped`.
    fn capture_exemplar(&mut self, wait: SimNs, req: ReqId) {
        let pos = self.exemplars.partition_point(|e| e.wait >= wait);
        if pos >= MAX_EXEMPLARS {
            self.exemplars_dropped += 1;
            return;
        }
        self.exemplars.insert(pos, WaitExemplar { wait, req });
        if self.exemplars.len() > MAX_EXEMPLARS {
            self.exemplars.pop();
            self.exemplars_dropped += 1;
        }
    }

    /// Records a queue error (a full-ring stall, a dropped item) at `at`.
    pub fn error(&mut self, at: SimNs) {
        self.advance(at);
        self.errors += 1;
    }

    /// Empties the queue at `at` (quarantine teardown), returning how many
    /// items were discarded. Flushed items never complete, so a station with
    /// flushes is excluded from the Little's-law check.
    pub fn flush(&mut self, at: SimNs) -> u64 {
        self.advance(at);
        let n = self.depth;
        self.flushed += n;
        self.depth = 0;
        n
    }

    /// Station name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Queue kind.
    pub fn kind(&self) -> QueueKind {
        self.kind
    }

    /// Declared capacity (slots).
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Current depth.
    pub fn depth(&self) -> u64 {
        self.depth
    }

    /// High-water depth.
    pub fn max_depth(&self) -> u64 {
        self.max_depth
    }

    /// Total enqueues.
    pub fn enqueues(&self) -> u64 {
        self.enqueues
    }

    /// Total dequeues.
    pub fn dequeues(&self) -> u64 {
        self.dequeues
    }

    /// Items discarded by [`QueueStation::flush`].
    pub fn flushed(&self) -> u64 {
        self.flushed
    }

    /// Errors (stalls, drops, unmatched dequeues).
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Per-request wait-time histogram.
    pub fn wait_histogram(&self) -> &Histogram {
        &self.wait
    }

    /// Worst-N identified waits, descending by wait.
    pub fn exemplars(&self) -> &[WaitExemplar] {
        &self.exemplars
    }

    /// Identified waits that did not fit the worst-N ring (the
    /// `exemplars.dropped` counter of the bundle format).
    pub fn exemplars_dropped(&self) -> u64 {
        self.exemplars_dropped
    }

    /// Observation window: first activity to last activity.
    pub fn window(&self) -> SimNs {
        match self.first_at {
            Some(first) => self.watermark - first,
            None => SimNs::ZERO,
        }
    }

    /// Computes this station's USE row, with the Little's-law verdict at
    /// relative tolerance `tolerance`.
    pub fn use_metrics(&self, tolerance: f64) -> QueueUse {
        let window = self.window().as_nanos();
        let wf = window as f64;
        let (utilization, mean_depth, arrival_rate_hz, completion_rate_hz) = if window == 0 {
            (0.0, 0.0, 0.0, 0.0)
        } else {
            (
                self.busy_ns as f64 / wf,
                self.depth_integral as f64 / wf,
                self.enqueues as f64 / wf * 1e9,
                self.dequeues as f64 / wf * 1e9,
            )
        };
        let occupancy_pct = if self.capacity == 0 {
            0.0
        } else {
            self.max_depth as f64 * 100.0 / self.capacity as f64
        };
        // Little's law, two independent ways. Observed L comes from the
        // enqueue/dequeue *timestamps*: once the queue has fully drained,
        // Σ residence = Σ deq_at − Σ enq_at, and the sum form is exact even
        // when lazily-processed completions are reported out of timestamp
        // order (where a streaming depth-time integral would not be).
        // Predicted λW = Σ sojourn / window comes from the caller-reported
        // wait+service durations — a fully independent measurement path.
        let l_observed = if window == 0 {
            0.0
        } else {
            self.deq_at_sum.saturating_sub(self.enq_at_sum) as f64 / wf
        };
        let l_predicted = if window == 0 {
            0.0
        } else {
            self.sojourn_ns as f64 / wf
        };
        let checked = self.dequeues >= MIN_LITTLE_DEQUEUES
            && self.flushed == 0
            && self.depth == 0
            && self.unmatched == 0;
        let denom = l_predicted.max(l_observed);
        let rel_err = if denom < 1e-3 {
            0.0
        } else {
            (l_observed - l_predicted).abs() / denom
        };
        let within = !checked || rel_err <= tolerance;
        QueueUse {
            name: self.name.clone(),
            kind: self.kind,
            capacity: self.capacity,
            window_ns: window,
            utilization,
            mean_depth,
            max_depth: self.max_depth,
            occupancy_pct,
            arrival_rate_hz,
            completion_rate_hz,
            errors: self.errors,
            flushed: self.flushed,
            mean_wait_ns: self.wait.mean().as_nanos(),
            p50_wait_ns: self.wait.p50().as_nanos(),
            p99_wait_ns: self.wait.p99().as_nanos(),
            p999_wait_ns: self.wait.p999().as_nanos(),
            max_wait_ns: self.wait.max().as_nanos(),
            mean_service_ns: self.service.mean().as_nanos(),
            wait_total_ns: self.wait.sum_ns(),
            exemplars: self.exemplars.clone(),
            exemplars_dropped: self.exemplars_dropped,
            little: LittleCheck {
                l_observed,
                l_predicted,
                rel_err,
                checked,
                within,
            },
        }
    }
}

/// Verdict of the Little's-law cross-check for one queue.
#[derive(Clone, Copy, Debug)]
pub struct LittleCheck {
    /// Time-averaged depth from the enqueue/dequeue timestamps
    /// (`(Σ deq_at − Σ enq_at) / window`, exact once drained).
    pub l_observed: f64,
    /// `λW` from the independently reported per-request sojourns.
    pub l_predicted: f64,
    /// Relative disagreement between the two.
    pub rel_err: f64,
    /// Whether the check was applicable (enough completions, no flushes,
    /// queue fully drained).
    pub checked: bool,
    /// `true` when not applicable or within tolerance.
    pub within: bool,
}

/// One queue's USE (utilization / saturation / errors) row.
#[derive(Clone, Debug)]
pub struct QueueUse {
    /// Station name, e.g. `srpc.ring:3`.
    pub name: String,
    /// Queue kind.
    pub kind: QueueKind,
    /// Declared capacity (slots); 0 when unbounded.
    pub capacity: u64,
    /// Observation window in nanoseconds.
    pub window_ns: u64,
    /// U: fraction of the window the server was busy (may exceed 1 for
    /// multi-server stations).
    pub utilization: f64,
    /// S: time-averaged depth.
    pub mean_depth: f64,
    /// S: high-water depth.
    pub max_depth: u64,
    /// S: high-water depth as % of capacity.
    pub occupancy_pct: f64,
    /// Arrival rate λ in events/second.
    pub arrival_rate_hz: f64,
    /// Completion rate in events/second.
    pub completion_rate_hz: f64,
    /// E: stalls, drops, unmatched dequeues.
    pub errors: u64,
    /// Items discarded on flush (quarantine teardown).
    pub flushed: u64,
    /// Mean wait before service.
    pub mean_wait_ns: u64,
    /// Median wait.
    pub p50_wait_ns: u64,
    /// 99th-percentile wait.
    pub p99_wait_ns: u64,
    /// 99.9th-percentile wait.
    pub p999_wait_ns: u64,
    /// Worst wait.
    pub max_wait_ns: u64,
    /// Mean service time.
    pub mean_service_ns: u64,
    /// Total wait across all requests — the bottleneck-ranking evidence.
    pub wait_total_ns: u128,
    /// Worst-N identified waits (wait, request), descending by wait.
    pub exemplars: Vec<WaitExemplar>,
    /// Identified waits evicted from (or rejected by) the worst-N ring.
    pub exemplars_dropped: u64,
    /// Little's-law cross-check verdict.
    pub little: LittleCheck,
}

impl QueueUse {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("kind", Json::from(self.kind.as_str())),
            ("capacity", Json::U64(self.capacity)),
            ("window_ns", Json::U64(self.window_ns)),
            ("utilization", Json::F64(self.utilization)),
            ("mean_depth", Json::F64(self.mean_depth)),
            ("max_depth", Json::U64(self.max_depth)),
            ("occupancy_pct", Json::F64(self.occupancy_pct)),
            ("arrival_rate_hz", Json::F64(self.arrival_rate_hz)),
            ("completion_rate_hz", Json::F64(self.completion_rate_hz)),
            ("errors", Json::U64(self.errors)),
            ("flushed", Json::U64(self.flushed)),
            ("mean_wait_ns", Json::U64(self.mean_wait_ns)),
            ("p50_wait_ns", Json::U64(self.p50_wait_ns)),
            ("p99_wait_ns", Json::U64(self.p99_wait_ns)),
            ("p999_wait_ns", Json::U64(self.p999_wait_ns)),
            ("max_wait_ns", Json::U64(self.max_wait_ns)),
            ("mean_service_ns", Json::U64(self.mean_service_ns)),
            ("wait_total_ns", Json::F64(self.wait_total_ns as f64)),
            (
                "exemplars",
                Json::Arr(
                    self.exemplars
                        .iter()
                        .map(|e| {
                            Json::obj([
                                ("req", Json::U64(e.req.0)),
                                ("wait_ns", Json::U64(e.wait.as_nanos())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("exemplars_dropped", Json::U64(self.exemplars_dropped)),
            ("little_observed", Json::F64(self.little.l_observed)),
            ("little_predicted", Json::F64(self.little.l_predicted)),
            ("little_rel_err", Json::F64(self.little.rel_err)),
            ("little_checked", Json::Bool(self.little.checked)),
            ("little_within", Json::Bool(self.little.within)),
        ])
    }
}

/// Handle to one declared station of a [`QueueObservatory`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StationId(u32);

/// The registry of every instrumented queue in one run.
///
/// A site that reports to the same station on every call keeps the
/// [`StationId`] its `declare` returned and updates the station through
/// [`QueueObservatory::at`]; the name-keyed methods look the id up and do
/// the same.
#[derive(Clone, Debug, Default)]
pub struct QueueObservatory {
    stations: Vec<QueueStation>,
    /// `name -> station`, in the name order every report iterates in.
    by_name: BTreeMap<String, StationId>,
}

impl QueueObservatory {
    /// Creates an empty observatory.
    pub fn new() -> Self {
        QueueObservatory::default()
    }

    /// Registers (or re-registers, keeping history) a queue.
    pub fn declare(&mut self, name: &str, kind: QueueKind, capacity: u64) -> StationId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = StationId(self.stations.len() as u32);
        self.stations.push(QueueStation::new(name, kind, capacity));
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// The id of the station declared as `name`.
    pub fn station_id(&self, name: &str) -> Option<StationId> {
        self.by_name.get(name).copied()
    }

    /// The station behind a handle, for reporting an edge on it.
    ///
    /// # Panics
    ///
    /// Panics when `id` came from a different observatory.
    pub fn at(&mut self, id: StationId) -> &mut QueueStation {
        &mut self.stations[id.0 as usize]
    }

    fn station_mut(&mut self, name: &str) -> Option<&mut QueueStation> {
        let id = self.station_id(name)?;
        Some(self.at(id))
    }

    /// Records an enqueue on `name` (ignored when undeclared — call sites in
    /// instrumented code never want to panic the workload).
    pub fn enqueue(&mut self, name: &str, at: SimNs) {
        if let Some(s) = self.station_mut(name) {
            s.enqueue(at);
        }
    }

    /// Records a dequeue on `name`.
    pub fn dequeue(&mut self, name: &str, at: SimNs, wait: SimNs, service: SimNs) {
        self.dequeue_req(name, at, wait, service, None);
    }

    /// Records a dequeue on `name`, attributing the wait to `req` when the
    /// caller knows which request suffered it (exemplar capture).
    pub fn dequeue_req(
        &mut self,
        name: &str,
        at: SimNs,
        wait: SimNs,
        service: SimNs,
        req: Option<ReqId>,
    ) {
        if let Some(s) = self.station_mut(name) {
            s.dequeue_req(at, wait, service, req);
        }
    }

    /// Flushes `name`, returning the number of discarded items.
    pub fn flush(&mut self, name: &str, at: SimNs) -> u64 {
        self.station_mut(name).map_or(0, |s| s.flush(at))
    }

    /// Looks up a station.
    pub fn station(&self, name: &str) -> Option<&QueueStation> {
        self.station_id(name)
            .map(|id| &self.stations[id.0 as usize])
    }

    /// All stations, sorted by name.
    pub fn stations(&self) -> impl Iterator<Item = &QueueStation> {
        self.by_name
            .values()
            .map(|id| &self.stations[id.0 as usize])
    }

    /// Whether any queue has been declared.
    pub fn is_empty(&self) -> bool {
        self.stations.is_empty()
    }

    /// Highest current depth across stations matching `prefix` (empty prefix
    /// matches everything). Chaos uses this to assert drained-after-recovery.
    pub fn max_current_depth(&self, prefix: &str) -> u64 {
        self.stations()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| s.depth)
            .max()
            .unwrap_or(0)
    }

    /// Highest high-water depth across stations matching `prefix`.
    pub fn high_water_depth(&self, prefix: &str) -> u64 {
        self.stations()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| s.max_depth)
            .max()
            .unwrap_or(0)
    }

    /// Builds the analysis report at the given Little's-law tolerance.
    pub fn report(&self, tolerance: f64) -> QueueReport {
        let mut queues: Vec<QueueUse> = self
            .stations()
            .filter(|s| s.enqueues > 0 || s.errors > 0)
            .map(|s| s.use_metrics(tolerance))
            .collect();
        queues.sort_by(|a, b| {
            b.wait_total_ns
                .cmp(&a.wait_total_ns)
                .then_with(|| a.name.cmp(&b.name))
        });
        QueueReport { queues, tolerance }
    }
}

/// Aggregated view of one stream's ring lanes (`srpc.ring:<stream>.*`).
#[derive(Clone, Debug)]
pub struct StreamUse {
    /// The stream's station prefix, e.g. `srpc.ring:1`.
    pub stream: String,
    /// Number of active lane stations.
    pub lanes: usize,
    /// Total wait summed across the lanes.
    pub wait_total_ns: u128,
    /// Worst per-lane p99 wait.
    pub max_p99_wait_ns: u64,
    /// Sum of per-lane utilizations (can exceed 1: the lanes are
    /// independent servers).
    pub utilization_sum: f64,
}

/// Ranked bottleneck-attribution report over every active queue.
#[derive(Clone, Debug)]
pub struct QueueReport {
    /// USE rows, ranked by total wait (descending) — the first row is the
    /// bounding queue.
    pub queues: Vec<QueueUse>,
    /// Little's-law tolerance the verdicts were computed at.
    pub tolerance: f64,
}

impl QueueReport {
    /// The queue responsible for the most total waiting, if any was active.
    pub fn bounding_queue(&self) -> Option<&QueueUse> {
        self.queues.first()
    }

    /// Per-stream aggregates of the multi-lane ring stations
    /// (`srpc.ring:<stream>.<lane>`), ranked like the stations: total wait
    /// first, then aggregate utilization, then name. Streams whose waits
    /// all collapsed to zero still rank by how busy their lanes were, so
    /// the report can name the stream that bounds a run even when nothing
    /// queued on it.
    pub fn streams(&self) -> Vec<StreamUse> {
        let mut by_stream: std::collections::BTreeMap<String, StreamUse> =
            std::collections::BTreeMap::new();
        for q in &self.queues {
            if q.kind != QueueKind::Ring {
                continue;
            }
            let Some((stream, lane)) = q.name.rsplit_once('.') else {
                continue;
            };
            if lane.parse::<usize>().is_err() || !stream.contains(':') {
                continue;
            }
            let e = by_stream
                .entry(stream.to_string())
                .or_insert_with(|| StreamUse {
                    stream: stream.to_string(),
                    lanes: 0,
                    wait_total_ns: 0,
                    max_p99_wait_ns: 0,
                    utilization_sum: 0.0,
                });
            e.lanes += 1;
            e.wait_total_ns += q.wait_total_ns;
            e.max_p99_wait_ns = e.max_p99_wait_ns.max(q.p99_wait_ns);
            e.utilization_sum += q.utilization;
        }
        let mut out: Vec<StreamUse> = by_stream.into_values().collect();
        out.sort_by(|a, b| {
            b.wait_total_ns
                .cmp(&a.wait_total_ns)
                .then_with(|| b.utilization_sum.total_cmp(&a.utilization_sum))
                .then_with(|| a.stream.cmp(&b.stream))
        });
        out
    }

    /// The stream whose ring lanes bound the run (most total wait, busiest
    /// lanes on a tie), if any stream station was active.
    pub fn bounding_stream(&self) -> Option<StreamUse> {
        self.streams().into_iter().next()
    }

    /// Whether every applicable Little's-law check passed.
    pub fn little_all_within(&self) -> bool {
        self.queues.iter().all(|q| q.little.within)
    }

    /// Queues whose Little's-law check was applicable and failed.
    pub fn little_violations(&self) -> Vec<&QueueUse> {
        self.queues
            .iter()
            .filter(|q| q.little.checked && !q.little.within)
            .collect()
    }

    /// Renders the ranked report as a deterministic text table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "queue observatory — bottleneck attribution");
        let _ = writeln!(
            out,
            "rank  queue                      kind        util  meanL    maxD  occ%    p50 wait    p99 wait   total wait  err  little"
        );
        for (i, q) in self.queues.iter().enumerate() {
            let little = if !q.little.checked {
                "n/a".to_string()
            } else if q.little.within {
                format!("ok {:.3}", q.little.rel_err)
            } else {
                format!("FAIL {:.3}", q.little.rel_err)
            };
            let _ = writeln!(
                out,
                "{:>4}  {:<25}  {:<10}  {:>4.0}%  {:>5.2}  {:>6}  {:>4.0}  {:>10}  {:>10}  {:>11}  {:>3}  {}",
                i + 1,
                q.name,
                q.kind.as_str(),
                q.utilization * 100.0,
                q.mean_depth,
                q.max_depth,
                q.occupancy_pct,
                SimNs::from_nanos(q.p50_wait_ns).to_string(),
                SimNs::from_nanos(q.p99_wait_ns).to_string(),
                SimNs::from_nanos(q.wait_total_ns.min(u64::MAX as u128) as u64).to_string(),
                q.errors,
                little,
            );
        }
        match self.bounding_queue() {
            Some(b) => {
                let _ = writeln!(
                    out,
                    "bounding queue: {} ({}) — {} total wait, mean depth {:.2}, max depth {}, {:.0}% utilized",
                    b.name,
                    b.kind.as_str(),
                    SimNs::from_nanos(b.wait_total_ns.min(u64::MAX as u128) as u64),
                    b.mean_depth,
                    b.max_depth,
                    b.utilization * 100.0,
                );
            }
            None => {
                let _ = writeln!(out, "bounding queue: none (no queue activity recorded)");
            }
        }
        if let Some(s) = self.bounding_stream() {
            let _ = writeln!(
                out,
                "bounding stream: {} — {} lane(s), {} total wait, p99 lane wait {}, aggregate lane utilization {:.0}%",
                s.stream,
                s.lanes,
                SimNs::from_nanos(s.wait_total_ns.min(u64::MAX as u128) as u64),
                SimNs::from_nanos(s.max_p99_wait_ns),
                s.utilization_sum * 100.0,
            );
        }
        let _ = writeln!(
            out,
            "little's-law cross-check: {} (tolerance {:.0}%)",
            if self.little_all_within() {
                "all within tolerance"
            } else {
                "VIOLATIONS — instrumentation disagrees with queueing theory"
            },
            self.tolerance * 100.0,
        );
        out
    }

    /// Serializes the report (same ranking) as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("tolerance", Json::F64(self.tolerance)),
            (
                "bounding_queue",
                match self.bounding_queue() {
                    Some(b) => Json::Str(b.name.clone()),
                    None => Json::Str(String::new()),
                },
            ),
            ("little_all_within", Json::Bool(self.little_all_within())),
            (
                "queues",
                Json::Arr(self.queues.iter().map(|q| q.to_json()).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> SimNs {
        SimNs::from_nanos(v)
    }

    /// Drives a deterministic single-server queue: `n` arrivals spaced
    /// `gap` apart, each with service time `svc`, FIFO.
    fn drive_mm1(st: &mut QueueStation, n: u64, gap: u64, svc: u64) {
        let mut server_free = 0u64;
        let mut backlog: Vec<u64> = Vec::new();
        for i in 0..n {
            let arrive = i * gap;
            st.enqueue(ns(arrive));
            backlog.push(arrive);
            // Drain everything the server can finish before the next arrival.
            let horizon = if i + 1 < n { (i + 1) * gap } else { u64::MAX };
            while let Some(&a) = backlog.first() {
                let start = server_free.max(a);
                if start >= horizon {
                    break;
                }
                backlog.remove(0);
                let done = start + svc;
                server_free = done;
                st.dequeue(ns(done), ns(start - a), ns(svc));
            }
        }
        // Final drain.
        while let Some(a) = backlog.first().copied() {
            backlog.remove(0);
            let start = server_free.max(a);
            let done = start + svc;
            server_free = done;
            st.dequeue(ns(done), ns(start - a), ns(svc));
        }
    }

    #[test]
    fn little_check_passes_on_consistent_queue() {
        let mut st = QueueStation::new("q", QueueKind::Ring, 64);
        // Saturated: arrivals every 100ns, service 150ns -> backlog grows.
        drive_mm1(&mut st, 200, 100, 150);
        assert_eq!(st.dequeues(), 200);
        assert_eq!(st.depth(), 0);
        let u = st.use_metrics(DEFAULT_LITTLE_TOLERANCE);
        assert!(u.little.checked);
        assert!(
            u.little.within,
            "rel_err {} L_obs {} L_pred {}",
            u.little.rel_err, u.little.l_observed, u.little.l_predicted
        );
        assert!(u.mean_depth > 1.0, "backlog should accumulate");
        assert!(u.utilization > 0.9, "server nearly always busy");
    }

    #[test]
    fn little_check_flags_corrupted_waits() {
        let mut st = QueueStation::new("q", QueueKind::Ring, 64);
        let mut server_free = 0u64;
        for i in 0..100u64 {
            let arrive = i * 100;
            st.enqueue(ns(arrive));
            let start = server_free.max(arrive);
            let done = start + 150;
            server_free = done;
            // Corrupted instrumentation: waits over-reported 4x.
            st.dequeue(ns(done), ns((start - arrive) * 4), ns(150));
        }
        let u = st.use_metrics(DEFAULT_LITTLE_TOLERANCE);
        assert!(u.little.checked);
        assert!(!u.little.within, "4x wait inflation must be flagged");
    }

    #[test]
    fn little_check_skips_flushed_and_tiny_queues() {
        let mut st = QueueStation::new("q", QueueKind::Ring, 8);
        st.enqueue(ns(0));
        st.enqueue(ns(10));
        assert_eq!(st.flush(ns(20)), 2);
        let u = st.use_metrics(DEFAULT_LITTLE_TOLERANCE);
        assert!(!u.little.checked, "flushed queues are not checkable");
        assert!(u.little.within, "unchecked never fails");
        assert_eq!(u.flushed, 2);
    }

    #[test]
    fn depth_and_errors_track_edges() {
        let mut st = QueueStation::new("q", QueueKind::Dma, 4);
        st.enqueue(ns(0));
        st.enqueue(ns(5));
        st.enqueue(ns(10));
        assert_eq!(st.depth(), 3);
        assert_eq!(st.max_depth(), 3);
        st.dequeue(ns(20), ns(20), ns(0));
        assert_eq!(st.depth(), 2);
        st.error(ns(25));
        assert_eq!(st.errors(), 1);
        // Unmatched dequeue counts as an error, not an underflow panic.
        st.flush(ns(30));
        st.dequeue(ns(40), ns(0), ns(0));
        assert_eq!(st.errors(), 2);
        assert_eq!(st.depth(), 0);
    }

    #[test]
    fn watermark_clamps_non_monotonic_clocks() {
        let mut st = QueueStation::new("q", QueueKind::Ring, 8);
        st.enqueue(ns(1_000));
        // A lagging actor clock reports an earlier instant; the integral
        // must not go backwards.
        st.enqueue(ns(500));
        st.dequeue(ns(2_000), ns(100), ns(50));
        st.dequeue(ns(2_000), ns(100), ns(50));
        assert_eq!(st.depth(), 0);
        assert_eq!(st.window(), ns(1_000));
    }

    #[test]
    fn report_ranks_by_total_wait() {
        let mut obs = QueueObservatory::new();
        obs.declare("a.ring", QueueKind::Ring, 64);
        obs.declare("b.dma", QueueKind::Dma, 16);
        // a.ring: small waits; b.dma: one huge wait.
        for i in 0..10u64 {
            obs.enqueue("a.ring", ns(i * 100));
            obs.dequeue("a.ring", ns(i * 100 + 50), ns(10), ns(40));
        }
        obs.enqueue("b.dma", ns(0));
        obs.dequeue("b.dma", ns(1_000_000), ns(999_000), ns(1_000));
        let report = obs.report(DEFAULT_LITTLE_TOLERANCE);
        assert_eq!(report.queues.len(), 2);
        assert_eq!(report.bounding_queue().unwrap().name, "b.dma");
        let text = report.render_text();
        assert!(text.contains("bounding queue: b.dma"), "{text}");
        assert!(crate::json::is_well_formed(&report.to_json().render()));
    }

    #[test]
    fn exemplar_ring_keeps_worst_n_and_counts_drops() {
        let mut st = QueueStation::new("q", QueueKind::Ring, 8);
        // Feed 3x the capacity with distinct waits; worst MAX_EXEMPLARS must
        // survive, everything else must tick the dropped counter.
        let total = MAX_EXEMPLARS as u64 * 3;
        for i in 0..total {
            st.enqueue(ns(i * 100));
            st.dequeue_req(ns(i * 100 + 1), ns(i + 1), ns(1), Some(ReqId(i)));
        }
        let ex = st.exemplars();
        assert_eq!(ex.len(), MAX_EXEMPLARS);
        assert_eq!(st.exemplars_dropped(), total - MAX_EXEMPLARS as u64);
        // Sorted worst-first, and exactly the largest waits survived.
        for w in ex.windows(2) {
            assert!(w[0].wait >= w[1].wait);
        }
        assert_eq!(ex[0].wait, ns(total));
        assert_eq!(ex[0].req, ReqId(total - 1));
        assert_eq!(
            ex[MAX_EXEMPLARS - 1].wait,
            ns(total - MAX_EXEMPLARS as u64 + 1)
        );
    }

    #[test]
    fn exemplars_without_req_are_not_captured() {
        let mut st = QueueStation::new("q", QueueKind::Ring, 8);
        st.enqueue(ns(0));
        st.dequeue(ns(10), ns(10), ns(0));
        assert!(st.exemplars().is_empty());
        assert_eq!(st.exemplars_dropped(), 0);
    }

    #[test]
    fn exemplar_capture_is_deterministic() {
        let run = || {
            let mut obs = QueueObservatory::new();
            obs.declare("q", QueueKind::Ring, 8);
            for i in 0..40u64 {
                obs.enqueue("q", ns(i * 50));
                // Repeating wait pattern exercises tie-breaking.
                let wait = ns((i % 7) * 13);
                obs.dequeue_req("q", ns(i * 50 + 5), wait, ns(5), Some(ReqId(i)));
            }
            let report = obs.report(DEFAULT_LITTLE_TOLERANCE);
            (report.render_text(), report.to_json().render())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn exemplar_ties_keep_first_seen_order() {
        let mut st = QueueStation::new("q", QueueKind::Ring, 8);
        for i in 0..4u64 {
            st.enqueue(ns(i));
            st.dequeue_req(ns(i + 1), ns(500), ns(1), Some(ReqId(i)));
        }
        let reqs: Vec<u64> = st.exemplars().iter().map(|e| e.req.0).collect();
        assert_eq!(reqs, vec![0, 1, 2, 3], "equal waits keep arrival order");
    }

    #[test]
    fn undeclared_queue_edges_are_ignored() {
        let mut obs = QueueObservatory::new();
        obs.enqueue("ghost", ns(0));
        obs.dequeue("ghost", ns(1), ns(0), ns(1));
        assert_eq!(obs.flush("ghost", ns(2)), 0);
        assert!(obs.is_empty());
        assert!(obs.report(0.15).bounding_queue().is_none());
    }
}
