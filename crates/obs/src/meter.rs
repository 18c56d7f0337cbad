//! Per-principal resource metering.
//!
//! Every simulated quantum the profiler charges — executor/CPU time, GPU
//! SM-time, NPU program-time, DMA bus time, crypto, recovery, ring work —
//! is *also* charged here to an owning [`Principal`] (the calling
//! partition, with optional stream-level sub-accounts). Count resources
//! that have no time dimension (DMA bytes, ring-slot occupancy, grant-arena
//! bytes, stage-2/SMMU pages, world switches, device IRQs) accumulate in a
//! parallel ledger. On top, the meter records executor *occupancy* slices
//! and request *wait* windows per worker, the raw material for the
//! noisy-neighbor interference matrix in [`crate::fairness`].
//!
//! The meter is fed from inside [`crate::FlightRecorder::charge`] /
//! `charge_detail`, so its per-category totals agree with the
//! [`crate::TimeProfiler`] *by construction* — and the conservation
//! self-test ([`ResourceMeter::check_conservation`]) re-verifies the exact
//! equality anyway, because a disagreement means a metering bug (a bypass
//! path, a scope leak) and must fail the run, in the same spirit as the
//! queue observatory's Little's-law cross-check.
//!
//! Privacy invariant: usage records carry only principals, stream numbers,
//! nanosecond amounts and byte/page/switch *counts* — never payload or
//! grant bytes themselves. The cronus-lint taint rules treat the meter
//! record methods as sinks to keep it that way.

use std::collections::BTreeMap;
use std::fmt;

use cronus_sim::SimNs;

use crate::json::Json;
use crate::metrics::MetricsRegistry;
use crate::profile::{TimeCategory, TimeProfiler};
use crate::span::ReqId;

/// The accountable owner of a resource quantum: a partition (`AsId` raw
/// value). Work done by the platform itself outside any partition's request
/// context is charged to [`Principal::SYSTEM`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Principal(pub u32);

impl Principal {
    /// Platform work not attributable to any partition (boot, bookkeeping).
    pub const SYSTEM: Principal = Principal(u32::MAX);

    /// Raw partition id.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Principal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Principal::SYSTEM {
            f.write_str("system")
        } else {
            write!(f, "p{}", self.0)
        }
    }
}

/// Which execution substrate a `Kernel` charge ran on: refines the
/// profiler's single `kernel` category into CPU executor time, GPU SM-time
/// and NPU program-time without forking the category enum.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ExecClass {
    /// CPU mOS executor.
    #[default]
    Cpu,
    /// GPU streaming multiprocessors.
    Gpu,
    /// NPU program engine.
    Npu,
}

impl ExecClass {
    /// Report label for kernel time on this substrate.
    pub fn kernel_resource(self) -> &'static str {
        match self {
            ExecClass::Cpu => "cpu_ns",
            ExecClass::Gpu => "sm_ns",
            ExecClass::Npu => "npu_ns",
        }
    }
}

/// The ambient metering scope: who subsequent charges belong to. Mirrors
/// the recorder's ambient-`ReqId` pattern — instrumented layers set it on
/// entry (save) and restore it on exit, so nested work lands on the right
/// account without threading a principal through every call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MeterScope {
    /// Owning partition.
    pub principal: Principal,
    /// Stream-level sub-account, when the work belongs to one stream.
    pub stream: Option<u64>,
    /// Substrate `Kernel` charges run on under this scope.
    pub class: ExecClass,
}

impl MeterScope {
    /// The default scope: unattributed platform work.
    pub const SYSTEM: MeterScope = MeterScope {
        principal: Principal::SYSTEM,
        stream: None,
        class: ExecClass::Cpu,
    };

    /// A scope owned by `principal` with no sub-account.
    pub fn principal(principal: Principal) -> MeterScope {
        MeterScope {
            principal,
            stream: None,
            class: ExecClass::Cpu,
        }
    }

    /// Same scope with a stream sub-account attached.
    pub fn with_stream(mut self, stream: u64) -> MeterScope {
        self.stream = Some(stream);
        self
    }

    /// Same scope with an execution class.
    pub fn with_class(mut self, class: ExecClass) -> MeterScope {
        self.class = class;
        self
    }
}

impl Default for MeterScope {
    fn default() -> Self {
        MeterScope::SYSTEM
    }
}

/// Countable resources with no time dimension. Amounts are sizes, counts
/// and durations only — never payload bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CountResource {
    /// Bytes staged over the DMA path (h2d/d2h/p2p transfer sizes).
    DmaBytes,
    /// Ring-slot occupancy: nanoseconds a request held a ring slot, from
    /// enqueue until its executor finished it.
    RingSlotNs,
    /// Bytes reserved in zero-copy grant arenas (grant descriptor sizes).
    ArenaBytes,
    /// Stage-2 / SMMU pages mapped on this principal's behalf.
    Stage2Pages,
    /// Normal ↔ secure world switches.
    WorldSwitches,
    /// Device completion interrupts serviced.
    DeviceIrqs,
}

impl CountResource {
    /// Every count resource, in report order.
    pub const ALL: [CountResource; 6] = [
        CountResource::DmaBytes,
        CountResource::RingSlotNs,
        CountResource::ArenaBytes,
        CountResource::Stage2Pages,
        CountResource::WorldSwitches,
        CountResource::DeviceIrqs,
    ];

    /// Stable report key.
    pub fn name(self) -> &'static str {
        match self {
            CountResource::DmaBytes => "dma_bytes",
            CountResource::RingSlotNs => "ring_slot_ns",
            CountResource::ArenaBytes => "arena_bytes",
            CountResource::Stage2Pages => "stage2_pages",
            CountResource::WorldSwitches => "world_switches",
            CountResource::DeviceIrqs => "device_irqs",
        }
    }
}

/// Identifies one executor worker for occupancy/wait bookkeeping: either a
/// worker in a shared per-partition pool or one stream-private lane worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkerId {
    /// True for a shared executor-pool worker (`domain` = callee partition
    /// id), false for a stream-private lane (`domain` = stream id).
    pub shared: bool,
    /// Pool partition id or stream id.
    pub domain: u64,
    /// Worker index within the pool / lane index within the stream.
    pub index: u32,
}

impl WorkerId {
    /// A shared executor-pool worker.
    pub fn pool(partition: u32, index: u32) -> WorkerId {
        WorkerId {
            shared: true,
            domain: partition as u64,
            index,
        }
    }

    /// A stream-private lane worker.
    pub fn lane(stream: u64, index: u32) -> WorkerId {
        WorkerId {
            shared: false,
            domain: stream,
            index,
        }
    }
}

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.shared {
            write!(f, "pool:{}.{}", self.domain, self.index)
        } else {
            write!(f, "lane:{}.{}", self.domain, self.index)
        }
    }
}

/// One interval during which a worker executed one request. A run keeps
/// one per executed request, so the record is dense (40 bytes): an absent
/// stream or request is `0`, which neither ever is.
#[derive(Clone, Copy, Debug)]
pub struct OccupancySlice {
    principal: Principal,
    stream: u64,
    req: u64,
    start: SimNs,
    end: SimNs,
}

impl OccupancySlice {
    /// Principal whose request occupied the worker.
    pub fn principal(&self) -> Principal {
        self.principal
    }

    /// Stream the request belongs to.
    pub fn stream(&self) -> Option<u64> {
        (self.stream != 0).then_some(self.stream)
    }

    /// Request id, for exemplars.
    pub fn req(&self) -> Option<ReqId> {
        (self.req != 0).then_some(ReqId(self.req))
    }

    /// Occupation start (virtual time).
    pub fn start(&self) -> SimNs {
        self.start
    }

    /// Occupation end.
    pub fn end(&self) -> SimNs {
        self.end
    }
}

/// Bit of [`WaitRecord`]'s packed worker index set for a pool worker.
const POOL_WORKER: u32 = 1 << 31;

/// One request's executor-backlog wait window on a worker. Dense (48
/// bytes) like [`OccupancySlice`]; the worker's `shared` flag rides in the
/// top bit of its index.
#[derive(Clone, Copy, Debug)]
pub struct WaitRecord {
    principal: Principal,
    worker_index: u32,
    worker_domain: u64,
    stream: u64,
    req: u64,
    enqueued: SimNs,
    started: SimNs,
}

impl WaitRecord {
    /// Principal who waited (the request's owner).
    pub fn principal(&self) -> Principal {
        self.principal
    }

    /// Stream the waiting request belongs to.
    pub fn stream(&self) -> Option<u64> {
        (self.stream != 0).then_some(self.stream)
    }

    /// Waiting request id, for exemplars.
    pub fn req(&self) -> Option<ReqId> {
        (self.req != 0).then_some(ReqId(self.req))
    }

    /// Worker the request eventually ran on.
    pub fn worker(&self) -> WorkerId {
        WorkerId {
            shared: self.worker_index & POOL_WORKER != 0,
            domain: self.worker_domain,
            index: self.worker_index & !POOL_WORKER,
        }
    }

    /// Enqueue instant (wait starts).
    pub fn enqueued(&self) -> SimNs {
        self.enqueued
    }

    /// Execution start (wait ends).
    pub fn started(&self) -> SimNs {
        self.started
    }
}

/// A metering bug: per-principal charges disagree with the independent
/// profiler/counter totals for one resource.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MeterError {
    /// Per-principal sums for `resource` do not equal the authoritative
    /// total. Exact equality is required: the same charge call feeds both
    /// ledgers, so any drift means a bypass path or scope leak.
    Conservation {
        /// Resource whose books do not balance.
        resource: &'static str,
        /// Sum of per-principal charges.
        metered: u64,
        /// The profiler/counter total the sum must equal.
        expected: u64,
    },
}

impl fmt::Display for MeterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeterError::Conservation {
                resource,
                metered,
                expected,
            } => write!(
                f,
                "meter conservation violated for {resource}: per-principal charges \
                 sum to {metered} but the authoritative total is {expected}"
            ),
        }
    }
}

impl std::error::Error for MeterError {}

/// One row of the conservation cross-check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConservationRow {
    /// Resource checked.
    pub resource: &'static str,
    /// Sum of per-principal charges.
    pub metered: u64,
    /// Authoritative total (profiler category or event counter).
    pub expected: u64,
}

impl ConservationRow {
    /// Whether the books balance exactly.
    pub fn ok(&self) -> bool {
        self.metered == self.expected
    }
}

/// The per-principal resource ledgers plus the occupancy/wait journal.
#[derive(Debug, Default)]
pub struct ResourceMeter {
    /// Ambient scope charges are attributed to.
    scope: MeterScope,
    /// Time ledger: `(principal, stream, class, category) -> ns`.
    time: BTreeMap<(Principal, Option<u64>, ExecClass, TimeCategory), u64>,
    /// Count ledger: `(principal, stream, resource) -> amount`.
    counts: BTreeMap<(Principal, Option<u64>, CountResource), u64>,
    /// Executor occupancy slices, per worker, in record order.
    occupancy: BTreeMap<WorkerId, Vec<OccupancySlice>>,
    /// Request wait windows, in record order.
    waits: Vec<WaitRecord>,
}

/// Adds `amount` to `ledger[key]`. A ledger has a handful of keys and is
/// written on every charge, so the existing entry is looked up before an
/// `Entry` is paid for.
fn add_to<K: Ord>(ledger: &mut BTreeMap<K, u64>, key: K, amount: u64) {
    match ledger.get_mut(&key) {
        Some(total) => *total += amount,
        None => {
            ledger.insert(key, amount);
        }
    }
}

impl ResourceMeter {
    /// Creates an empty meter scoped to [`MeterScope::SYSTEM`].
    pub fn new() -> Self {
        ResourceMeter::default()
    }

    /// Replaces the ambient scope, returning the previous one so callers
    /// can save/restore around nested work.
    pub fn set_scope(&mut self, scope: MeterScope) -> MeterScope {
        std::mem::replace(&mut self.scope, scope)
    }

    /// The ambient scope.
    pub fn scope(&self) -> MeterScope {
        self.scope
    }

    /// Charges time to the ambient scope. Called from the recorder's
    /// `charge`/`charge_detail`, in lockstep with the profiler.
    pub fn charge_time(&mut self, cat: TimeCategory, d: SimNs) {
        debug_assert!(cat != TimeCategory::Idle, "idle is derived, not charged");
        let s = self.scope;
        add_to(
            &mut self.time,
            (s.principal, s.stream, s.class, cat),
            d.as_nanos(),
        );
    }

    /// Adds `amount` of a count resource to the ambient scope.
    pub fn add_count(&mut self, res: CountResource, amount: u64) {
        let s = self.scope;
        add_to(&mut self.counts, (s.principal, s.stream, res), amount);
    }

    /// Records that the ambient scope's request occupied `worker` for
    /// `[start, end)`.
    pub fn record_occupancy(
        &mut self,
        worker: WorkerId,
        req: Option<ReqId>,
        start: SimNs,
        end: SimNs,
    ) {
        if end <= start {
            return;
        }
        let s = self.scope;
        let slice = OccupancySlice {
            principal: s.principal,
            stream: s.stream.unwrap_or(0),
            req: req.map_or(0, |r| r.0),
            start,
            end,
        };
        // A worker's journal exists after its first slice; look it up
        // before paying for an `Entry`.
        match self.occupancy.get_mut(&worker) {
            Some(slices) => slices.push(slice),
            None => {
                self.occupancy.insert(worker, vec![slice]);
            }
        }
    }

    /// Records that the ambient scope's request waited on `worker` from
    /// `enqueued` until `started`.
    pub fn record_wait(
        &mut self,
        worker: WorkerId,
        req: Option<ReqId>,
        enqueued: SimNs,
        started: SimNs,
    ) {
        if started <= enqueued {
            return;
        }
        debug_assert!(worker.index < POOL_WORKER, "worker index {}", worker.index);
        let s = self.scope;
        self.waits.push(WaitRecord {
            principal: s.principal,
            worker_index: worker.index | if worker.shared { POOL_WORKER } else { 0 },
            worker_domain: worker.domain,
            stream: s.stream.unwrap_or(0),
            req: req.map_or(0, |r| r.0),
            enqueued,
            started,
        });
    }

    /// Every principal with any charge, sorted.
    pub fn principals(&self) -> Vec<Principal> {
        let mut out: Vec<Principal> = self
            .time
            .keys()
            .map(|(p, ..)| *p)
            .chain(self.counts.keys().map(|(p, ..)| *p))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Total ns charged to `principal` in `cat` (all streams, all classes).
    pub fn time_of(&self, principal: Principal, cat: TimeCategory) -> u64 {
        self.time
            .iter()
            .filter(|((p, _, _, c), _)| *p == principal && *c == cat)
            .map(|(_, v)| v)
            .sum()
    }

    /// Total ns charged to `principal` in `cat` on `class`.
    pub fn class_time_of(&self, principal: Principal, class: ExecClass, cat: TimeCategory) -> u64 {
        self.time
            .iter()
            .filter(|((p, _, k, c), _)| *p == principal && *k == class && *c == cat)
            .map(|(_, v)| v)
            .sum()
    }

    /// Total count of `res` charged to `principal` (all streams).
    pub fn count_of(&self, principal: Principal, res: CountResource) -> u64 {
        self.counts
            .iter()
            .filter(|((p, _, r), _)| *p == principal && *r == res)
            .map(|(_, v)| v)
            .sum()
    }

    /// Per-stream sub-account rows for `principal`: `(stream, resource,
    /// amount)`, deterministic order, time resources rendered by class.
    pub fn stream_rows(&self, principal: Principal) -> Vec<(u64, String, u64)> {
        let mut rows = Vec::new();
        for ((p, stream, class, cat), ns) in &self.time {
            let (Some(stream), true) = (stream, *p == principal) else {
                continue;
            };
            let key = if *cat == TimeCategory::Kernel {
                class.kernel_resource().to_string()
            } else {
                format!("{}_ns", cat.name().replace('-', "_"))
            };
            rows.push((*stream, key, *ns));
        }
        for ((p, stream, res), amount) in &self.counts {
            let (Some(stream), true) = (stream, *p == principal) else {
                continue;
            };
            rows.push((*stream, res.name().to_string(), *amount));
        }
        rows.sort();
        // Merge duplicate (stream, key) rows (same kernel class from
        // different detail categories).
        let mut merged: Vec<(u64, String, u64)> = Vec::new();
        for (stream, key, amount) in rows {
            match merged.last_mut() {
                Some((s, k, a)) if *s == stream && *k == key => *a += amount,
                _ => merged.push((stream, key, amount)),
            }
        }
        merged
    }

    /// The recorded wait windows.
    pub fn waits(&self) -> &[WaitRecord] {
        &self.waits
    }

    /// The recorded occupancy slices for `worker`.
    pub fn occupancy_of(&self, worker: WorkerId) -> &[OccupancySlice] {
        self.occupancy.get(&worker).map_or(&[], Vec::as_slice)
    }

    /// Every worker with recorded occupancy, sorted.
    pub fn workers(&self) -> Vec<WorkerId> {
        self.occupancy.keys().copied().collect()
    }

    /// All occupancy slices, keyed by worker (for the interference matrix).
    pub fn occupancy(&self) -> &BTreeMap<WorkerId, Vec<OccupancySlice>> {
        &self.occupancy
    }

    /// The conservation cross-check rows: one per busy time category plus
    /// the event-driven count resources whose authoritative totals live in
    /// the metrics registry. Exact equality is the invariant.
    pub fn conservation_rows(
        &self,
        profiler: &TimeProfiler,
        metrics: &MetricsRegistry,
    ) -> Vec<ConservationRow> {
        let mut rows = Vec::new();
        for cat in TimeCategory::BUSY {
            let metered: u64 = self
                .time
                .iter()
                .filter(|((_, _, _, c), _)| *c == cat)
                .map(|(_, v)| v)
                .sum();
            rows.push(ConservationRow {
                resource: cat.name(),
                metered,
                expected: profiler.busy_in(cat).as_nanos(),
            });
        }
        let counter_backed = [
            (CountResource::WorldSwitches, "world_switches"),
            (CountResource::Stage2Pages, "memory.shared_pages"),
            (CountResource::DeviceIrqs, "device.irqs"),
        ];
        for (res, counter) in counter_backed {
            let metered: u64 = self
                .counts
                .iter()
                .filter(|((_, _, r), _)| *r == res)
                .map(|(_, v)| v)
                .sum();
            rows.push(ConservationRow {
                resource: res.name(),
                metered,
                expected: metrics.counter_total(counter),
            });
        }
        rows
    }

    /// Runs the conservation self-test, failing on the first imbalanced
    /// resource.
    ///
    /// # Errors
    ///
    /// [`MeterError::Conservation`] when any resource's per-principal
    /// charges do not sum exactly to the authoritative total.
    pub fn check_conservation(
        &self,
        profiler: &TimeProfiler,
        metrics: &MetricsRegistry,
    ) -> Result<Vec<ConservationRow>, MeterError> {
        let rows = self.conservation_rows(profiler, metrics);
        for row in &rows {
            if !row.ok() {
                return Err(MeterError::Conservation {
                    resource: row.resource,
                    metered: row.metered,
                    expected: row.expected,
                });
            }
        }
        Ok(rows)
    }

    /// Aggregated per-principal usage: `resource key -> amount`, with
    /// kernel time split by execution class. Deterministic order.
    pub fn usage_of(&self, principal: Principal) -> BTreeMap<String, u64> {
        let mut usage: BTreeMap<String, u64> = BTreeMap::new();
        for ((p, _, class, cat), ns) in &self.time {
            if *p != principal {
                continue;
            }
            let key = if *cat == TimeCategory::Kernel {
                class.kernel_resource().to_string()
            } else {
                format!("{}_ns", cat.name().replace('-', "_"))
            };
            *usage.entry(key).or_insert(0) += ns;
        }
        for ((p, _, res), amount) in &self.counts {
            if *p != principal {
                continue;
            }
            *usage.entry(res.name().to_string()).or_insert(0) += amount;
        }
        usage
    }

    /// Every resource key with any charge across principals, sorted.
    pub fn resource_keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = Vec::new();
        for p in self.principals() {
            keys.extend(self.usage_of(p).into_keys());
        }
        keys.sort();
        keys.dedup();
        keys
    }
}

/// Renders a `(principal, usage)` table cell set as a JSON object.
pub fn usage_json(usage: &BTreeMap<String, u64>) -> Json {
    Json::Obj(
        usage
            .iter()
            .map(|(k, v)| (k.clone(), Json::U64(*v)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> SimNs {
        SimNs::from_nanos(v)
    }

    #[test]
    fn charges_follow_the_ambient_scope() {
        let mut m = ResourceMeter::new();
        m.charge_time(TimeCategory::Ring, ns(100));
        let prev = m.set_scope(
            MeterScope::principal(Principal(1))
                .with_stream(7)
                .with_class(ExecClass::Gpu),
        );
        assert_eq!(prev, MeterScope::SYSTEM);
        m.charge_time(TimeCategory::Kernel, ns(400));
        m.add_count(CountResource::DmaBytes, 1024);
        m.set_scope(prev);
        m.charge_time(TimeCategory::Ring, ns(50));

        assert_eq!(m.time_of(Principal::SYSTEM, TimeCategory::Ring), 150);
        assert_eq!(m.time_of(Principal(1), TimeCategory::Kernel), 400);
        assert_eq!(
            m.class_time_of(Principal(1), ExecClass::Gpu, TimeCategory::Kernel),
            400
        );
        assert_eq!(m.count_of(Principal(1), CountResource::DmaBytes), 1024);
        assert_eq!(m.usage_of(Principal(1)).get("sm_ns"), Some(&400));
        assert_eq!(
            m.stream_rows(Principal(1)),
            vec![
                (7, "dma_bytes".to_string(), 1024),
                (7, "sm_ns".to_string(), 400)
            ]
        );
    }

    #[test]
    fn conservation_matches_profiler_exactly() {
        let mut m = ResourceMeter::new();
        let mut p = TimeProfiler::new();
        let metrics = MetricsRegistry::new();
        for (cat, d) in [
            (TimeCategory::Ring, 120),
            (TimeCategory::Kernel, 900),
            (TimeCategory::Crypto, 40),
        ] {
            m.charge_time(cat, ns(d));
            p.charge(cat, ns(d));
        }
        let rows = m.check_conservation(&p, &metrics).expect("balanced");
        assert!(rows.iter().all(ConservationRow::ok));

        // A bypass (profiler charged, meter not) must fail.
        p.charge(TimeCategory::Ring, ns(1));
        let err = m.check_conservation(&p, &metrics).expect_err("imbalanced");
        assert!(matches!(
            err,
            MeterError::Conservation {
                resource: "ring",
                metered: 120,
                expected: 121,
            }
        ));
        assert!(err.to_string().contains("ring"));
    }

    #[test]
    fn occupancy_and_waits_are_recorded_per_worker() {
        let mut m = ResourceMeter::new();
        m.set_scope(MeterScope::principal(Principal(2)).with_stream(1));
        let w = WorkerId::pool(3, 0);
        m.record_occupancy(w, Some(ReqId(9)), ns(100), ns(200));
        // Degenerate intervals are dropped.
        m.record_occupancy(w, None, ns(200), ns(200));
        m.set_scope(MeterScope::principal(Principal(1)).with_stream(2));
        m.record_wait(w, Some(ReqId(10)), ns(120), ns(200));
        m.record_wait(w, Some(ReqId(11)), ns(250), ns(250));

        assert_eq!(m.occupancy_of(w).len(), 1);
        assert_eq!(m.waits().len(), 1);
        let wait = m.waits()[0];
        assert_eq!(wait.principal(), Principal(1));
        assert_eq!(
            (wait.worker(), wait.stream(), wait.req()),
            (w, Some(2), Some(ReqId(10)))
        );
        let lane = WorkerId::lane(4, 2);
        m.record_wait(lane, None, ns(300), ns(310));
        assert_eq!((m.waits()[1].worker(), m.waits()[1].req()), (lane, None));
        let slice = m.occupancy_of(w)[0];
        assert_eq!(slice.principal(), Principal(2));
        assert_eq!((slice.stream(), slice.req()), (Some(1), Some(ReqId(9))));
        assert_eq!(format!("{w}"), "pool:3.0");
        assert_eq!(format!("{}", WorkerId::lane(4, 2)), "lane:4.2");
    }

    #[test]
    fn principal_display_and_system_sentinel() {
        assert_eq!(Principal(3).to_string(), "p3");
        assert_eq!(Principal::SYSTEM.to_string(), "system");
        assert_eq!(MeterScope::default(), MeterScope::SYSTEM);
    }
}
