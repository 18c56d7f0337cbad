//! The CRONUS system facade.
//!
//! [`CronusSystem`] is the top-level object a PaaS application (or the
//! benchmark harness) interacts with. It owns the Secure Partition Manager,
//! the normal-world Enclave Dispatcher, per-enclave virtual clocks, the
//! mECall handler registry (filled in by the execution-model runtimes), and
//! the open sRPC streams. It drives the full paper workflow of §III-D:
//! create a CPU mEnclave, attest, create accelerator mEnclaves from inside
//! it, connect them with sRPC, compute, and survive partition failures.

use std::collections::{BTreeMap, HashMap, VecDeque};

use cronus_crypto::dh::DhKeyPair;
use cronus_crypto::hmac::hmac_sha256;
use cronus_devices::DeviceKind;
use cronus_mos::manager::Owner;
use cronus_mos::manifest::{Eid, Manifest};
use cronus_mos::mos::MosError;
use cronus_obs::{
    CountResource, ExecClass, FlightRecorder, MeterScope, Principal, QueueKind, ReqId,
    TimeCategory, WorkerId,
};
use cronus_sim::machine::AsId;
use cronus_sim::trace::EventKind;
use cronus_sim::{Fault, PhysAddr, SimClock, SimNs, SimRng, World, PAGE_SIZE};
use cronus_spm::attest::{LocalAttestation, SignedReport};
use cronus_spm::spm::{BootConfig, RecoveryStats, Spm, SpmError};

use crate::call::Call;
use crate::dispatcher::{Dispatcher, PartitionInfo, RoutePolicy};
use crate::error::{CronusError, FaultKind};
use crate::inject::{ArmedFault, FaultAction, FiredFault, Injector, SrpcPhase};
use crate::pipe::{PipeId, PipeState};
use crate::reliability::{retryable, RetryPolicy, StallWarning};
use crate::ring::{
    decode_result, decode_slot_request, encode_grant_slot, encode_request_slot, encode_result,
    GrantRef, Request, ResultStatus, SlotRequest, CLOSED_OFFSET, DCHECK_OFFSET,
};
use crate::srpc::{
    GrantArena, LaneState, PendingRequest, SrpcError, StreamId, StreamState, StreamStats,
};
use crate::stream::{StreamBuilder, StreamConfig};
use crate::stream_obs::{self, StreamObs};

/// A handle to a created mEnclave.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EnclaveRef {
    /// Hosting partition.
    pub asid: AsId,
    /// Enclave id.
    pub eid: Eid,
}

/// A normal-world application id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AppId(pub u32);

/// Who is creating an enclave / making a call.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Actor {
    /// A normal-world app.
    App(AppId),
    /// An existing mEnclave.
    Enclave(EnclaveRef),
}

impl Actor {
    fn owner(&self) -> Owner {
        match self {
            Actor::App(id) => Owner::App(id.0),
            Actor::Enclave(e) => Owner::Enclave(e.eid),
        }
    }
}

/// Context handed to an mECall handler executing inside the callee's
/// partition: full access to the SPM (and through it the machine, bus and
/// the partition's mOS/HAL).
pub struct ServerCtx<'a> {
    /// The SPM.
    pub spm: &'a mut Spm,
    /// The partition the handler runs in.
    pub asid: AsId,
    /// The enclave the handler belongs to.
    pub eid: Eid,
}

/// An mECall implementation: takes serialized arguments, returns serialized
/// results plus the simulated device-execution time. Failures are typed
/// [`CronusError`]s, so device/mOS errors propagate with `?` and campaigns
/// can match on [`CronusError::kind`].
pub type McallHandler =
    Box<dyn FnMut(&mut ServerCtx<'_>, &[u8]) -> Result<(Vec<u8>, SimNs), CronusError> + Send>;

/// Default number of shared pages per stream ring (256 KiB; split across
/// [`DEFAULT_STREAM_LANES`] lanes ≈ 256 slots).
pub const DEFAULT_RING_PAGES: usize = 64;

/// Default number of ring lanes per stream: independent ring pairs drained
/// by independent executor workers, so up to this many requests of one
/// stream execute concurrently on the virtual clock.
pub const DEFAULT_STREAM_LANES: usize = 16;

/// Pages backing a stream's zero-copy grant arena (256 KiB).
pub const DEFAULT_ARENA_PAGES: usize = 64;

/// An isolation-audit hook (see the `cronus-audit` crate): invoked with the
/// whole system after every reconfiguration point, returns the number of
/// invariant violations it found.
#[cfg(feature = "audit-hooks")]
pub type AuditHook = Box<dyn Fn(&CronusSystem) -> usize>;

/// A mapping-state digest hook (see `cronus_audit::install_digest_hook`):
/// invoked at black-box capture time, returns a digest of the canonical
/// isolation-model rendering so the crash snapshot commits to the exact
/// mapping state at trap time.
#[cfg(feature = "audit-hooks")]
pub type DigestHook = Box<dyn Fn(&CronusSystem) -> cronus_crypto::Digest>;

/// System-level errors (enclave lifecycle; sRPC errors are [`SrpcError`]).
#[derive(Clone, Debug, PartialEq)]
pub enum SystemError {
    /// No partition manages the requested device kind.
    NoPartitionFor(DeviceKind),
    /// The SPM rejected the operation.
    Spm(SpmError),
    /// The caller is not the enclave's owner.
    NotOwner,
    /// mECall not declared in the manifest.
    UnknownMcall(String),
    /// No handler registered.
    NoHandler(String),
    /// Handler failed with a typed error.
    Handler(CronusError),
    /// Unknown enclave reference.
    UnknownEnclave(Eid),
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::NoPartitionFor(kind) => {
                write!(f, "no partition manages a {kind} device")
            }
            SystemError::Spm(e) => write!(f, "spm: {e}"),
            SystemError::NotOwner => f.write_str("caller is not the owner"),
            SystemError::UnknownMcall(n) => write!(f, "mecall {n:?} not declared"),
            SystemError::NoHandler(n) => write!(f, "no handler for {n:?}"),
            SystemError::Handler(e) => write!(f, "handler failed: {e}"),
            SystemError::UnknownEnclave(e) => write!(f, "unknown enclave {e}"),
        }
    }
}

impl std::error::Error for SystemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SystemError::Spm(e) => Some(e),
            SystemError::Handler(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpmError> for SystemError {
    fn from(e: SpmError) -> Self {
        SystemError::Spm(e)
    }
}

/// A partition's shared executor pool: worker virtual clocks that drain
/// every `.shared()` stream targeting the partition. Streams contend for
/// the earliest-free worker, so one stream's burst delays another's
/// requests — the contention the interference matrix attributes.
#[derive(Debug, Default)]
struct ExecPool {
    workers: Vec<SimClock>,
}

/// The CRONUS system.
pub struct CronusSystem {
    spm: Spm,
    dispatcher: Dispatcher,
    clocks: HashMap<Eid, SimClock>,
    app_clocks: HashMap<AppId, SimClock>,
    owner_secrets: HashMap<Eid, [u8; 32]>,
    /// mECall handlers, by enclave then name.
    handlers: HashMap<Eid, HashMap<String, McallHandler>>,
    streams: HashMap<StreamId, StreamState>,
    exec_pools: BTreeMap<AsId, ExecPool>,
    pub(crate) pipes: HashMap<PipeId, PipeState>,
    injector: Injector,
    next_stream: u64,
    pub(crate) next_pipe: u64,
    next_app: u32,
    next_dh: u64,
    #[cfg(feature = "audit-hooks")]
    audit_hook: Option<AuditHook>,
    #[cfg(feature = "audit-hooks")]
    audit_violations: usize,
    #[cfg(feature = "audit-hooks")]
    digest_hook: Option<DigestHook>,
}

impl std::fmt::Debug for CronusSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CronusSystem")
            .field("enclaves", &self.clocks.len())
            .field("streams", &self.streams.len())
            .finish_non_exhaustive()
    }
}

impl CronusSystem {
    /// Boots the secure world and registers every partition with the
    /// dispatcher.
    pub fn boot(config: BootConfig) -> Self {
        let partitions = config.partitions.clone();
        let mut spm = Spm::boot(config);
        // Every system carries a flight recorder: the machine's event stream
        // feeds its counters, and the sRPC/recovery paths charge simulated
        // time to it. Harnesses export it via `CronusSystem::recorder`.
        spm.set_recorder(FlightRecorder::new());
        let mut dispatcher = Dispatcher::new();
        for spec in &partitions {
            let asid = cronus_spm::spm::asid_of(spec.mos_id);
            let kind = spm.mos(asid).expect("partition booted").device_kind();
            dispatcher.register(PartitionInfo {
                asid,
                mos_id: spec.mos_id,
                kind,
                image: spec.image.clone(),
                version: spec.version.clone(),
            });
        }
        CronusSystem {
            spm,
            dispatcher,
            clocks: HashMap::new(),
            app_clocks: HashMap::new(),
            owner_secrets: HashMap::new(),
            handlers: HashMap::new(),
            streams: HashMap::new(),
            exec_pools: BTreeMap::new(),
            pipes: HashMap::new(),
            injector: Injector::default(),
            next_stream: 1,
            next_pipe: 1,
            next_app: 1,
            next_dh: 1,
            #[cfg(feature = "audit-hooks")]
            audit_hook: None,
            #[cfg(feature = "audit-hooks")]
            audit_violations: 0,
            #[cfg(feature = "audit-hooks")]
            digest_hook: None,
        }
    }

    /// Installs the isolation-audit hook: it runs against `&self` after
    /// every reconfiguration point (stream open/close/reopen, enclave
    /// create/destroy, partition failure/recovery, app world switches) and
    /// returns the number of invariant violations it found; non-zero counts
    /// accumulate in [`CronusSystem::audit_violations`] and the
    /// `audit.violations` metric. Hooks may also panic on violation for
    /// fail-stop behavior — `cronus_audit::install_hooks` does.
    #[cfg(feature = "audit-hooks")]
    pub fn set_audit_hook(&mut self, hook: AuditHook) {
        self.audit_hook = Some(hook);
    }

    /// Removes the installed audit hook, returning it.
    #[cfg(feature = "audit-hooks")]
    pub fn clear_audit_hook(&mut self) -> Option<AuditHook> {
        self.audit_hook.take()
    }

    /// Installs the mapping-state digest hook: black boxes captured at
    /// proceed-trap time carry its result as their `mapping_digest`.
    #[cfg(feature = "audit-hooks")]
    pub fn set_digest_hook(&mut self, hook: DigestHook) {
        self.digest_hook = Some(hook);
    }

    /// Total invariant violations reported by the audit hook so far.
    #[cfg(feature = "audit-hooks")]
    pub fn audit_violations(&self) -> usize {
        self.audit_violations
    }

    /// Runs the installed audit hook, if any, attributing findings to the
    /// reconfiguration point `point`.
    #[cfg(feature = "audit-hooks")]
    fn run_audit_hook(&mut self, point: &'static str) {
        // Take/call/restore so the hook can borrow the whole system.
        if let Some(hook) = self.audit_hook.take() {
            let violations = hook(self);
            self.audit_hook = Some(hook);
            if violations > 0 {
                self.audit_violations += violations;
                if let Some(rec) = self.spm.recorder() {
                    rec.counter_add("audit.violations", &[("point", point)], violations as u64);
                }
            }
        }
    }

    /// Compiled to nothing without the `audit-hooks` feature.
    #[cfg(not(feature = "audit-hooks"))]
    #[inline(always)]
    fn run_audit_hook(&mut self, _point: &'static str) {}

    /// Runs `f` with the resource meter's ambient scope set to `scope`,
    /// restoring the previous scope afterwards (even across `?`-style early
    /// returns inside `f`, since the restore happens here). `None` scope —
    /// or no recorder — runs `f` unscoped.
    fn metered<T>(&mut self, scope: Option<MeterScope>, f: impl FnOnce(&mut Self) -> T) -> T {
        let prev = match (scope, self.spm.recorder()) {
            (Some(sc), Some(rec)) => Some(rec.set_meter_scope(sc)),
            _ => None,
        };
        let out = f(self);
        if let Some(prev) = prev {
            if let Some(rec) = self.spm.recorder() {
                rec.set_meter_scope(prev);
            }
        }
        out
    }

    /// Enters a request phase in one recorder step: makes `req` the ambient
    /// request (allocating the id when the caller brought none) and `scope`,
    /// when given, the ambient meter scope. Returns the request id and the
    /// ambient context it displaced, for [`CronusSystem::leave_request`].
    fn enter_request(&self, req: Option<ReqId>, scope: Option<MeterScope>) -> (ReqId, Ambient) {
        let Some(rec) = self.spm.recorder() else {
            return (req.unwrap_or(ReqId(0)), Ambient::default());
        };
        rec.with(|r| {
            let req = req.unwrap_or_else(|| r.alloc_req());
            let displaced = Ambient {
                req: r.spans.current_req(),
                scope: scope.map(|sc| r.meter.set_scope(sc)),
            };
            r.spans.set_current_req(Some(req));
            (req, displaced)
        })
    }

    /// Leaves a request phase in one recorder step: puts back the meter
    /// scope `enter_request` displaced, if it displaced one, and makes
    /// `restore.req` the ambient request.
    fn leave_request(&self, restore: Ambient) {
        if let Some(rec) = self.spm.recorder() {
            rec.with(|r| {
                if let Some(sc) = restore.scope {
                    r.meter.set_scope(sc);
                }
                r.spans.set_current_req(restore.req);
            });
        }
    }

    /// The executor class a partition's kernel time belongs to, from its
    /// mOS device kind (CPU partitions and unknown partitions meter as CPU).
    fn exec_class_of(&self, asid: AsId) -> ExecClass {
        match self.spm.mos(asid).map(|m| m.device_kind()) {
            Ok(DeviceKind::Gpu) => ExecClass::Gpu,
            Ok(DeviceKind::Npu) => ExecClass::Npu,
            _ => ExecClass::Cpu,
        }
    }

    /// Meter scope for caller-side work on a stream (enqueue, sync,
    /// retries): the caller partition pays, under a stream sub-account.
    fn caller_scope(&self, id: StreamId) -> Option<MeterScope> {
        self.streams.get(&id).map(|s| MeterScope {
            principal: Principal(s.caller.0.as_u32()),
            stream: Some(s.id.as_u64()),
            class: ExecClass::Cpu,
        })
    }

    /// Meter scope for executor-side work on a stream (dequeue + kernel
    /// execution): still charged to the *caller* principal — the tenant
    /// driving the work — but under the callee's executor class, so a GPU
    /// partition's SM time lands in the caller's `sm_ns` ledger.
    fn drain_scope(&self, id: StreamId) -> Option<MeterScope> {
        self.streams.get(&id).map(|s| MeterScope {
            principal: Principal(s.caller.0.as_u32()),
            stream: Some(s.id.as_u64()),
            class: s.class,
        })
    }

    /// The SPM (read side).
    pub fn spm(&self) -> &Spm {
        &self.spm
    }

    /// The SPM (write side) — runtimes use this for HAL operations outside
    /// handler contexts (e.g. tests).
    pub fn spm_mut(&mut self) -> &mut Spm {
        &mut self.spm
    }

    /// The dispatcher (for attack injection and routing queries).
    pub fn dispatcher_mut(&mut self) -> &mut Dispatcher {
        &mut self.dispatcher
    }

    /// A handle to the system's flight recorder (clones share state).
    ///
    /// Also refreshes the `eventlog.dropped` / `eventlog.total_recorded`
    /// gauges from the simulator's [`cronus_sim::EventLog`], so snapshots
    /// taken from the handle expose silent trace truncation.
    pub fn recorder(&self) -> FlightRecorder {
        let rec = self.spm.recorder().cloned().unwrap_or_default();
        let log = self.spm.machine().log();
        rec.gauge_set("eventlog.dropped", &[], log.dropped() as i64);
        rec.gauge_set("eventlog.total_recorded", &[], log.total_recorded() as i64);
        // The companion pair for the security-event ledger: `ledger.evicted`
        // staying at zero is what licenses the completeness check.
        let ledger = self.spm.ledger();
        rec.gauge_set("ledger.records", &[], ledger.records_total() as i64);
        rec.gauge_set("ledger.evicted", &[], ledger.evicted_total() as i64);
        rec
    }

    /// Virtual time for ledger records appended by the core layer.
    fn ledger_now(&self) -> SimNs {
        self.spm
            .recorder()
            .map(FlightRecorder::total_elapsed)
            .unwrap_or(SimNs::ZERO)
    }

    /// Allocates the next request id (monotonic per system). Returns the
    /// `ReqId(0)` sentinel when the system runs without a recorder.
    pub fn alloc_req(&self) -> ReqId {
        self.spm.recorder().map_or(ReqId(0), |r| r.alloc_req())
    }

    /// Sets (or clears) the ambient request on the recorder: spans opened
    /// anywhere in the system while it is set — device HALs, DMA, recovery —
    /// are attributed to that request. Runtime shims scope their staging
    /// work with this so traps land on the causing request.
    pub fn set_current_req(&self, req: Option<ReqId>) {
        if let Some(rec) = self.spm.recorder() {
            rec.set_current_req(req);
        }
    }

    /// Records a phase marker in the event log (and as a trace instant):
    /// figure harnesses mark warmup/measure/failure phases with this.
    pub fn mark(&mut self, label: &'static str) {
        self.spm.machine_mut().record(EventKind::Marker(label));
    }

    /// Registers a normal-world application.
    pub fn create_app(&mut self) -> AppId {
        let id = AppId(self.next_app);
        self.next_app += 1;
        self.app_clocks.insert(id, SimClock::new());
        id
    }

    // ---- clocks -------------------------------------------------------------

    /// An enclave's current virtual time.
    pub fn enclave_time(&self, e: EnclaveRef) -> SimNs {
        self.clocks
            .get(&e.eid)
            .map(|c| c.now())
            .unwrap_or(SimNs::ZERO)
    }

    /// An app's current virtual time.
    pub fn app_time(&self, app: AppId) -> SimNs {
        self.app_clocks
            .get(&app)
            .map(|c| c.now())
            .unwrap_or(SimNs::ZERO)
    }

    /// Charges local computation time to an enclave (e.g. CPU preprocessing
    /// between kernel launches).
    pub fn advance_enclave(&mut self, e: EnclaveRef, d: SimNs) {
        self.clocks.entry(e.eid).or_default().advance(d);
    }

    fn clock_mut(&mut self, eid: Eid) -> &mut SimClock {
        self.clocks.entry(eid).or_default()
    }

    // ---- enclave lifecycle --------------------------------------------------

    /// Creates an mEnclave on behalf of `actor`. The manifest's device type
    /// selects the partition via the (untrusted) dispatcher; the partition's
    /// mOS re-checks everything.
    ///
    /// # Errors
    ///
    /// Routing failures, manifest rejection, failed partitions.
    pub fn create_enclave(
        &mut self,
        actor: Actor,
        manifest: Manifest,
        images: &BTreeMap<String, Vec<u8>>,
    ) -> Result<EnclaveRef, SystemError> {
        let kind = manifest.device_type;
        let asid = self
            .dispatcher
            .route(kind, RoutePolicy::LeastLoaded)
            .ok_or(SystemError::NoPartitionFor(kind))?;
        // Creation costs (mgmt, crypto, world switches) are metered against
        // the partition the enclave lands on.
        let scope = Some(MeterScope::principal(Principal(asid.as_u32())));
        self.metered(scope, |sys| {
            sys.create_enclave_routed(actor, asid, manifest, images)
        })
    }

    fn create_enclave_routed(
        &mut self,
        actor: Actor,
        asid: AsId,
        manifest: Manifest,
        images: &BTreeMap<String, Vec<u8>>,
    ) -> Result<EnclaveRef, SystemError> {
        // Owner-side DH share.
        let dh = DhKeyPair::from_seed(&format!("owner-dh:{}", self.next_dh));
        self.next_dh += 1;

        let eid = self
            .spm
            .create_enclave(asid, manifest, images, actor.owner(), dh.public())
            .map_err(SystemError::Spm)?;

        // Complete the owner side of the DH exchange.
        let enclave_dh_public = self
            .spm
            .mos(asid)
            .expect("partition exists")
            .manager()
            .entry(eid)
            .expect("just created")
            .dh_public;
        let secret = dh.agree(enclave_dh_public);
        self.owner_secrets.insert(eid, *secret.as_bytes());

        // Charge creation costs to the creating actor.
        let cost = {
            let cm = self.spm.machine().cost();
            cm.enclave_create + cm.dh_exchange + cm.world_switch * 2
        };
        if let Some(rec) = self.spm.recorder() {
            let cm = self.spm.machine().cost();
            rec.charge_detail(TimeCategory::Mgmt, "enclave_create", cm.enclave_create);
            rec.charge_detail(TimeCategory::Crypto, "dh_exchange", cm.dh_exchange);
            rec.charge(TimeCategory::WorldSwitch, cm.world_switch * 2);
            rec.counter_add("enclaves.created", &[("partition", &asid.to_string())], 1);
        }
        let start = match actor {
            Actor::App(app) => {
                let c = self.app_clocks.entry(app).or_default();
                c.advance(cost);
                c.now()
            }
            Actor::Enclave(parent) => {
                let c = self.clock_mut(parent.eid);
                c.advance(cost);
                c.now()
            }
        };
        if let Some(rec) = self.spm.recorder() {
            let track = rec.track("spm");
            rec.complete_span(
                track,
                format!("create {eid}"),
                "mgmt",
                start.saturating_sub(cost),
                start,
            );
            // The dispatcher's admission queue: routing + creation is the
            // service; no cross-request contention is modeled, so the wait
            // is zero by construction.
            rec.queue_declare("dispatch.requests", QueueKind::Dispatch, 0);
            rec.queue_enqueue("dispatch.requests", start.saturating_sub(cost));
            rec.queue_dequeue("dispatch.requests", start, SimNs::ZERO, cost);
        }
        self.clocks.insert(eid, SimClock::at(start));
        // Ledger the exchange before the creation record: key agreement is
        // what makes the enclave addressable by its owner.
        self.spm.ledger().append(
            asid.as_u32(),
            start,
            cronus_forensics::SecurityEvent::KeyExchange {
                eid: eid.as_u32(),
                dh_public: enclave_dh_public,
            },
        );
        self.spm.ledger().append(
            asid.as_u32(),
            start,
            cronus_forensics::SecurityEvent::EnclaveCreated { eid: eid.as_u32() },
        );
        self.run_audit_hook("create_enclave");
        Ok(EnclaveRef { asid, eid })
    }

    /// Destroys an mEnclave and closes any streams it terminates.
    ///
    /// # Errors
    ///
    /// Unknown enclaves.
    pub fn destroy_enclave(&mut self, e: EnclaveRef) -> Result<(), SystemError> {
        // Reclaim untouched poisoned shares of this enclave's streams and
        // pipes.
        let stream_ids: Vec<StreamId> = self
            .streams
            .values()
            .filter(|s| s.caller.1 == e.eid || s.callee.1 == e.eid)
            .map(|s| s.id)
            .collect();
        for id in stream_ids {
            if let Some(s) = self.streams.remove(&id) {
                let _ = self.spm.reclaim_share(s.share);
                if let Some(arena) = &s.arena {
                    let _ = self.spm.reclaim_share(arena.share);
                }
            }
        }
        let pipe_ids: Vec<PipeId> = self
            .pipes
            .values()
            .filter(|p| p.writer.1.eid == e.eid || p.reader.1.eid == e.eid)
            .map(|p| p.id)
            .collect();
        for id in pipe_ids {
            if let Some(p) = self.pipes.remove(&id) {
                let _ = self.spm.reclaim_share(p.share);
            }
        }
        let (mos, machine) = self.spm.mos_and_machine(e.asid)?;
        mos.destroy_enclave(machine, e.eid)
            .map_err(|err| SystemError::Spm(SpmError::Mos(err)))?;
        self.clocks.remove(&e.eid);
        self.owner_secrets.remove(&e.eid);
        self.handlers.remove(&e.eid);
        self.spm.ledger().append(
            e.asid.as_u32(),
            self.ledger_now(),
            cronus_forensics::SecurityEvent::EnclaveDestroyed {
                eid: e.eid.as_u32(),
            },
        );
        self.run_audit_hook("destroy_enclave");
        Ok(())
    }

    /// Registers an mECall handler (the execution-model runtime's job).
    pub fn register_handler(&mut self, e: EnclaveRef, name: &str, handler: McallHandler) {
        self.handlers
            .entry(e.eid)
            .or_default()
            .insert(name.to_string(), handler);
    }

    /// Produces the signed remote-attestation report for an enclave's
    /// partition.
    ///
    /// # Errors
    ///
    /// Unknown partition.
    pub fn attestation_report(&self, e: EnclaveRef) -> Result<SignedReport, SystemError> {
        Ok(self.spm.make_report(e.asid)?)
    }

    // ---- direct (normal-world) ECalls ----------------------------------------

    /// A synchronous ECall from a normal-world app into an mEnclave it owns
    /// (the §III-D step where App-1 passes encrypted data to mEnclave A).
    /// Costs two world switches plus the handler's execution time.
    ///
    /// # Errors
    ///
    /// Ownership violations, undeclared mECalls, missing handlers.
    pub fn app_ecall(
        &mut self,
        app: AppId,
        target: EnclaveRef,
        name: &str,
        payload: &[u8],
    ) -> Result<Vec<u8>, SystemError> {
        // Ownership assurance: the mOS checks the caller is the owner.
        {
            let mos = self.spm.mos(target.asid)?;
            mos.manager()
                .authorize(target.eid, Owner::App(app.0))
                .map_err(|_| SystemError::NotOwner)?;
            let entry = mos.manager().entry(target.eid).expect("authorized above");
            if entry.manifest.mecall(name).is_none() {
                return Err(SystemError::UnknownMcall(name.to_string()));
            }
        }
        // Direct ecalls are requests too: trace them end to end. World
        // switches and kernel time are metered against the target partition
        // under its executor class.
        let req = self.alloc_req();
        self.set_current_req(Some(req));
        let scope = Some(
            MeterScope::principal(Principal(target.asid.as_u32()))
                .with_class(self.exec_class_of(target.asid)),
        );
        let result = self.metered(scope, |sys| sys.app_ecall_inner(app, target, name, payload));
        self.set_current_req(None);
        self.run_audit_hook("app_ecall");
        result
    }

    fn app_ecall_inner(
        &mut self,
        app: AppId,
        target: EnclaveRef,
        name: &str,
        payload: &[u8],
    ) -> Result<Vec<u8>, SystemError> {
        let (result, exec) = self
            .run_handler(target, name, payload)
            .map_err(|e| match e {
                SrpcError::NoHandler(n) => SystemError::NoHandler(n),
                SrpcError::Handler(e) => SystemError::Handler(e),
                other => SystemError::Handler(CronusError::app(other.to_string())),
            })?;
        let switches = self.spm.machine().cost().world_switch * 2;
        self.spm.machine_mut().record(EventKind::WorldSwitch);
        self.spm.machine_mut().record(EventKind::WorldSwitch);
        // The enclave runs the call, then the app resumes after it.
        let app_now = self.app_clocks.entry(app).or_default().now();
        let c = self.clock_mut(target.eid);
        c.advance_to(app_now);
        c.advance(exec);
        let done = c.now();
        let ac = self.app_clocks.entry(app).or_default();
        ac.advance_to(done);
        ac.advance(switches);
        let resumed = ac.now();
        if let Some(rec) = self.spm.recorder() {
            rec.charge(TimeCategory::WorldSwitch, switches);
            rec.charge_detail(TimeCategory::Kernel, name, exec);
            rec.counter_add("app.ecalls", &[("mcall", name)], 1);
            let track = rec.track(&format!("app:{}", app.0));
            let ecall = rec.begin_span(track, format!("ecall:{name}"), "app", app_now);
            rec.complete_span(track, "exec", "kernel", app_now, done);
            rec.end_span(track, ecall, resumed);
        }
        Ok(result)
    }

    fn run_handler(
        &mut self,
        target: EnclaveRef,
        name: &str,
        payload: &[u8],
    ) -> Result<(Vec<u8>, SimNs), SrpcError> {
        let handler = self
            .handlers
            .get_mut(&target.eid)
            .and_then(|of_enclave| of_enclave.get_mut(name))
            .ok_or_else(|| SrpcError::NoHandler(name.to_string()))?;
        let mut ctx = ServerCtx {
            spm: &mut self.spm,
            asid: target.asid,
            eid: target.eid,
        };
        handler(&mut ctx, payload).map_err(SrpcError::Handler)
    }

    // ---- sRPC ---------------------------------------------------------------

    /// Builds an sRPC stream from `caller` to a `callee` it owns: the
    /// single entry point for opening streams. Configure the ring geometry
    /// fluently and commit with [`StreamBuilder::open`] or
    /// [`StreamBuilder::reopen`]:
    ///
    /// ```ignore
    /// let s = sys.stream(cpu, gpu).rings(16).depth(1).open()?;
    /// let s2 = sys.stream(cpu, gpu2).reopen(s)?;
    /// ```
    pub fn stream(&mut self, caller: EnclaveRef, callee: EnclaveRef) -> StreamBuilder<'_> {
        StreamBuilder {
            sys: self,
            caller,
            callee,
            lanes: DEFAULT_STREAM_LANES,
            pages: None,
            depth: None,
            zero_copy: None,
            deadline: None,
            shared: false,
        }
    }

    /// Opens a stream from a resolved [`StreamConfig`]: local attestation,
    /// trusted shared memory establishment, and dCheck (§IV-C); one ring
    /// pair per lane, plus the grant arena when zero-copy is enabled.
    pub(crate) fn open_stream_config(
        &mut self,
        caller: EnclaveRef,
        callee: EnclaveRef,
        cfg: StreamConfig,
    ) -> Result<StreamId, SrpcError> {
        // Setup costs — attestation crypto, stage-2 page maps for the ring
        // and arena, the setup charge — are metered against the caller
        // partition (also covers reopen, which lands here).
        let scope = Some(MeterScope::principal(Principal(caller.asid.as_u32())));
        self.metered(scope, |sys| {
            sys.open_stream_config_inner(caller, callee, cfg)
        })
    }

    fn open_stream_config_inner(
        &mut self,
        caller: EnclaveRef,
        callee: EnclaveRef,
        cfg: StreamConfig,
    ) -> Result<StreamId, SrpcError> {
        let layout = cfg.layout;
        let pages = layout.pages();
        // Ownership assurance.
        self.spm
            .mos(callee.asid)?
            .manager()
            .authorize(callee.eid, Owner::Enclave(caller.eid))
            .map_err(|_| SrpcError::NotOwner)?;

        let secret = *self
            .owner_secrets
            .get(&callee.eid)
            .ok_or(SrpcError::NotOwner)?;

        // Local attestation of the callee (automatic, §IV-C).
        let measurement = self
            .spm
            .mos(callee.asid)?
            .manager()
            .entry(callee.eid)
            .map_err(|_| SrpcError::AttestationFailed)?
            .measurement;
        let la = LocalAttestation {
            challenger: caller.eid,
            attested: callee.eid,
            nonce: self.next_stream,
        };
        let req_tag = la.make_request_tag(&secret);
        let (seal, tag) = {
            let monitor = self.spm.monitor();
            la.answer(&secret, &req_tag, measurement, monitor)
                .ok_or(SrpcError::AttestationFailed)?
        };
        if !la.verify(&secret, measurement, &seal, &tag, self.spm.monitor()) {
            return Err(SrpcError::AttestationFailed);
        }

        // Trusted shared memory (Figure 6).
        let (share, caller_va, callee_va) =
            self.spm
                .share_memory((caller.asid, caller.eid), (callee.asid, callee.eid), pages)?;
        let id = StreamId(self.next_stream);
        self.next_stream += 1;

        // dCheck: the callee proves ownership of secret_dhke *through the
        // shared memory*, so the caller knows smem really is shared with the
        // authenticated peer. The dCheck tag lives in lane 0's header.
        let dcheck = hmac_sha256(&secret, &id.0.to_le_bytes());
        {
            let (mos, machine) = self.spm.mos_and_machine(callee.asid)?;
            mos.enclave_write(
                machine,
                callee.eid,
                callee_va.add(DCHECK_OFFSET),
                dcheck.as_bytes(),
            )
            .map_err(SrpcError::Mos)?;
            // Initialize every lane's shared indices.
            for lane in 0..layout.lanes {
                mos.enclave_write(
                    machine,
                    callee.eid,
                    callee_va.add(layout.rid_offset(lane)),
                    &0u64.to_le_bytes(),
                )
                .map_err(SrpcError::Mos)?;
                mos.enclave_write(
                    machine,
                    callee.eid,
                    callee_va.add(layout.sid_offset(lane)),
                    &0u64.to_le_bytes(),
                )
                .map_err(SrpcError::Mos)?;
            }
        }
        let observed = {
            let (mos, machine) = self.spm.mos_and_machine(caller.asid)?;
            let mut buf = [0u8; 32];
            mos.enclave_read(machine, caller.eid, caller_va.add(DCHECK_OFFSET), &mut buf)
                .map_err(SrpcError::Mos)?;
            buf
        };
        if observed != *dcheck.as_bytes() {
            return Err(SrpcError::DcheckFailed);
        }

        // The zero-copy grant arena: a second shared region through the
        // same share-ledger machinery as the ring, so the audit invariants
        // cover granted payload pages exactly like ring pages.
        let arena = match cfg.zero_copy {
            Some(threshold) => {
                let arena_pages = cfg.arena_pages.max(1);
                let (a_share, a_caller_va, a_callee_va) = self.spm.share_memory(
                    (caller.asid, caller.eid),
                    (callee.asid, callee.eid),
                    arena_pages,
                )?;
                Some(GrantArena {
                    threshold,
                    share: a_share,
                    caller_va: a_caller_va,
                    callee_va: a_callee_va,
                    bytes: arena_pages as u64 * PAGE_SIZE,
                    cursor: 0,
                })
            }
            None => None,
        };

        // Costs: local attestation + mapping + stream setup on the caller;
        // the executor workers start at the caller's time.
        let arena_pages = arena.as_ref().map_or(0, |a| a.bytes / PAGE_SIZE);
        let setup = {
            let cm = self.spm.machine().cost();
            cm.local_attest
                + cm.page_map * (2 * (pages as u64 + arena_pages))
                + cm.srpc_stream_setup
        };
        let c = self.clock_mut(caller.eid);
        c.advance(setup);
        let opened = c.now();
        let obs = self.spm.recorder().map(|rec| {
            let cm = self.spm.machine().cost();
            // The page_map share is charged by the SPM's share_memory.
            rec.charge_detail(TimeCategory::Crypto, "local_attest", cm.local_attest);
            rec.charge_detail(TimeCategory::Ring, "stream_setup", cm.srpc_stream_setup);
            rec.counter_add("srpc.streams_opened", &[], 1);
            rec.with(|r| StreamObs::open(r, id, caller.eid, &layout, setup, opened))
        });

        let lanes = (0..layout.lanes)
            .map(|_| LaneState {
                rid: 0,
                sid: 0,
                executor_clock: SimClock::at(opened),
            })
            .collect();
        self.streams.insert(
            id,
            StreamState {
                id,
                caller: (caller.asid, caller.eid),
                callee: (callee.asid, callee.eid),
                share,
                caller_va,
                callee_va,
                layout,
                lanes,
                pending: VecDeque::new(),
                next_seq: 0,
                executed: 0,
                doorbell_pending: false,
                arena,
                open: true,
                quarantined: false,
                deadline: cfg.deadline,
                shared_pool: cfg.shared,
                class: self.exec_class_of(callee.asid),
                last_finished: opened,
                stats: StreamStats::default(),
                obs,
            },
        );
        // Shared-pool streams drain on the callee partition's worker pool;
        // size it to the widest shared stream so a lone stream keeps its
        // full lane parallelism while co-tenants contend for the same
        // workers.
        if cfg.shared {
            let pool = self.exec_pools.entry(callee.asid).or_default();
            while pool.workers.len() < layout.lanes.max(1) {
                pool.workers.push(SimClock::at(opened));
            }
        }
        // Ledger the attested open: the measurement on the callee's chain
        // (that is what local attestation proved), the open on the caller's
        // chain, the acceptance on the callee's — the verifier pairs the
        // latter two across chains.
        let ledger = self.spm.ledger();
        ledger.append(
            callee.asid.as_u32(),
            opened,
            cronus_forensics::SecurityEvent::AttestMeasurement {
                subject: format!("enclave {}", callee.eid),
                digest: measurement,
            },
        );
        ledger.append(
            caller.asid.as_u32(),
            opened,
            cronus_forensics::SecurityEvent::StreamOpened {
                stream: id.0,
                caller: caller.asid.as_u32(),
                callee: callee.asid.as_u32(),
            },
        );
        ledger.append(
            callee.asid.as_u32(),
            opened,
            cronus_forensics::SecurityEvent::StreamAccepted {
                stream: id.0,
                caller: caller.asid.as_u32(),
                callee: callee.asid.as_u32(),
            },
        );
        self.run_audit_hook("open_stream");
        Ok(id)
    }

    /// Sets (or clears) the default deadline applied to every synchronous
    /// call on `id`; a per-call [`Call::deadline`] overrides it.
    ///
    /// # Errors
    ///
    /// [`SrpcError::UnknownStream`].
    pub fn set_stream_deadline(
        &mut self,
        id: StreamId,
        deadline: Option<SimNs>,
    ) -> Result<(), SrpcError> {
        self.streams
            .get_mut(&id)
            .ok_or(SrpcError::UnknownStream(id))?
            .deadline = deadline;
        Ok(())
    }

    /// Physical pages backing a stream's ring (diagnostics and security
    /// tests that inspect raw memory through the monitor).
    ///
    /// # Errors
    ///
    /// [`SrpcError::UnknownStream`].
    pub fn stream_share_pages(&self, id: StreamId) -> Result<Vec<u64>, SrpcError> {
        let share = self
            .streams
            .get(&id)
            .ok_or(SrpcError::UnknownStream(id))?
            .share;
        Ok(self.spm.share_pages(share)?.to_vec())
    }

    /// Stream statistics.
    ///
    /// # Errors
    ///
    /// [`SrpcError::UnknownStream`].
    pub fn stream_stats(&self, id: StreamId) -> Result<StreamStats, SrpcError> {
        Ok(self
            .streams
            .get(&id)
            .ok_or(SrpcError::UnknownStream(id))?
            .stats)
    }

    /// Read-only views of every stream (open, closed or quarantined),
    /// sorted by stream id — used by the isolation auditor to tie share
    /// grants back to the sRPC endpoints that justify them.
    pub fn stream_states(&self) -> Vec<&StreamState> {
        let mut streams: Vec<&StreamState> = self.streams.values().collect();
        streams.sort_by_key(|s| s.id.0);
        streams
    }

    /// The stream's executor frontier: the most advanced lane worker's
    /// virtual time.
    ///
    /// # Errors
    ///
    /// [`SrpcError::UnknownStream`].
    pub fn executor_time(&self, id: StreamId) -> Result<SimNs, SrpcError> {
        Ok(self
            .streams
            .get(&id)
            .ok_or(SrpcError::UnknownStream(id))?
            .executor_now())
    }

    /// Converts a stage-2 fault on a shared-memory access into the
    /// proceed-trap failure signal of §IV-D step 3 (when it applies).
    fn trap_convert(&mut self, survivor: AsId, fallback_eid: Eid, err: MosError) -> SrpcError {
        if let MosError::Fault(f) = err {
            let page = match f {
                Fault::Stage2Unmapped { pa, .. } | Fault::Stage2Permission { pa, .. } => {
                    Some(pa.page_number())
                }
                _ => None,
            };
            if let Some(ppn) = page {
                if let Ok(outcome) = self.spm.handle_trap(survivor, ppn) {
                    return SrpcError::PeerFailed {
                        signalled: outcome.signalled,
                    };
                }
            }
            if let Fault::PartitionFailed { .. } = f {
                return SrpcError::PeerFailed {
                    signalled: fallback_eid,
                };
            }
        }
        SrpcError::Mos(err)
    }

    /// Converts a stage-2 fault on a stream access into the proceed-trap
    /// failure signal, closing the stream.
    ///
    /// `accessor` is the partition whose access raised `err`. When the
    /// accessor's *own* partition is the dead one (the executor died
    /// mid-dispatch), the other end of the stream is the survivor: the
    /// failure signal is delivered to it instead, exactly as its next ring
    /// access would have trapped.
    fn stream_fault(&mut self, id: StreamId, accessor: AsId, err: MosError) -> SrpcError {
        let fallback = self
            .streams
            .get(&id)
            .map(|s| s.caller.1)
            .unwrap_or(Eid::new(cronus_mos::manifest::MosId(0), 0));
        let accessor_died = matches!(
            err,
            MosError::NotRunning | MosError::Fault(Fault::PartitionFailed { .. })
        );
        let mut trapped = false;
        let converted = if accessor_died {
            // The moment a dead peer's access converts into a failure is
            // the detection instant: ledger it (with its span witness)
            // before the survivor is signalled, so detection precedes the
            // trap in both evidence streams the timeline cross-checks.
            let det = self.ledger_now();
            if let Some(rec) = self.spm.recorder() {
                rec.with(|r| r.spans.instant("failure-detected:proceed-trap", det));
            }
            self.spm.ledger().append(
                crate::MONITOR_CHAIN,
                det,
                cronus_forensics::SecurityEvent::FailureDetected {
                    asid: accessor.as_u32(),
                },
            );
            let survivor = self.streams.get(&id).map(|s| {
                if s.caller.0 == accessor {
                    s.callee
                } else {
                    s.caller
                }
            });
            let ring_page = self.streams.get(&id).map(|s| s.share).and_then(|share| {
                self.spm
                    .share_pages(share)
                    .ok()
                    .and_then(|p| p.first().copied())
            });
            match (survivor, ring_page) {
                (Some((sv_asid, sv_eid)), Some(ppn)) => {
                    match self.spm.handle_trap(sv_asid, ppn) {
                        Ok(outcome) => {
                            trapped = true;
                            SrpcError::PeerFailed {
                                signalled: outcome.signalled,
                            }
                        }
                        // The share was not poisoned (trap already handled,
                        // or the partition is not actually failed): still
                        // signal the survivor so the caller is never stuck.
                        Err(_) => SrpcError::PeerFailed { signalled: sv_eid },
                    }
                }
                _ => SrpcError::Mos(err),
            }
        } else {
            self.trap_convert(accessor, fallback, err)
        };
        if matches!(converted, SrpcError::PeerFailed { .. }) {
            if let Some(s) = self.streams.get_mut(&id) {
                s.open = false;
                s.quarantined = true;
                s.pending.clear();
                s.doorbell_pending = false;
            }
            let at = self.ledger_now();
            let channel = crate::reliability::detection_channel(&converted);
            if let Some(rec) = self.spm.recorder() {
                rec.counter_add("srpc.streams_quarantined", &[], 1);
                // Quarantine discards everything in flight: reflect that in
                // every lane's queue station so drained-to-zero stays
                // checkable.
                let obs = self.streams.get(&id).and_then(|s| s.obs.as_ref());
                let dropped = obs.map_or(0, |obs| rec.with(|r| obs.flush(r, at)));
                rec.counter_add("srpc.requests_flushed", &[], dropped);
                // The marker is the span-stream's witness of the detection;
                // the timeline reconstructor cross-checks it against the
                // ledger record below.
                rec.with(|r| r.spans.instant(format!("failure-detected:{channel}"), at));
            }
            let chain = self
                .streams
                .get(&id)
                .map(|s| {
                    if s.caller.0 == accessor {
                        s.callee.0
                    } else {
                        s.caller.0
                    }
                })
                .unwrap_or(accessor);
            self.spm.ledger().append(
                chain.as_u32(),
                at,
                cronus_forensics::SecurityEvent::StreamQuarantined {
                    stream: id.0,
                    channel,
                },
            );
        }
        if trapped {
            // The SPM captured the black-box skeleton inside handle_trap;
            // the core layer owns the stream table and the audit hook, so it
            // fills in the redacted snapshots and the mapping digest here.
            let streams: Vec<cronus_forensics::StreamSnap> = self
                .stream_states()
                .iter()
                .map(|s| s.forensic_snapshot())
                .collect();
            let digest = self.mapping_digest();
            self.spm.ledger().annotate_last_blackbox(streams, digest);
        }
        converted
    }

    /// The isolation-audit mapping-state digest, if a digest hook is
    /// installed (see `cronus_audit::install_digest_hook`); zero otherwise.
    #[cfg(feature = "audit-hooks")]
    fn mapping_digest(&mut self) -> cronus_crypto::Digest {
        // Take/call/restore so the hook can borrow the whole system.
        if let Some(hook) = self.digest_hook.take() {
            let digest = hook(self);
            self.digest_hook = Some(hook);
            digest
        } else {
            cronus_crypto::Digest::ZERO
        }
    }

    /// Compiled to a zero digest without the `audit-hooks` feature.
    #[cfg(not(feature = "audit-hooks"))]
    fn mapping_digest(&mut self) -> cronus_crypto::Digest {
        cronus_crypto::Digest::ZERO
    }

    /// Writes into an enclave's (shared) memory, converting stage-2 faults
    /// into failure signals. Runtimes use this for bulk-data staging
    /// buffers that live outside the descriptor ring.
    ///
    /// # Errors
    ///
    /// [`SrpcError::PeerFailed`] after a peer-partition failure, or the
    /// underlying mOS error.
    pub fn shared_write(
        &mut self,
        e: EnclaveRef,
        va: cronus_sim::VirtAddr,
        data: &[u8],
    ) -> Result<(), SrpcError> {
        let result = {
            let (mos, machine) = self.spm.mos_and_machine(e.asid)?;
            mos.enclave_write(machine, e.eid, va, data)
        };
        result.map_err(|err| self.trap_convert(e.asid, e.eid, err))
    }

    /// Reads from an enclave's (shared) memory; see [`CronusSystem::shared_write`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`CronusSystem::shared_write`].
    pub fn shared_read(
        &mut self,
        e: EnclaveRef,
        va: cronus_sim::VirtAddr,
        buf: &mut [u8],
    ) -> Result<(), SrpcError> {
        let result = {
            let (mos, machine) = self.spm.mos_and_machine(e.asid)?;
            mos.enclave_read(machine, e.eid, va, buf)
        };
        result.map_err(|err| self.trap_convert(e.asid, e.eid, err))
    }

    fn stream_ref(&self, id: StreamId) -> Result<&StreamState, SrpcError> {
        self.streams.get(&id).ok_or(SrpcError::UnknownStream(id))
    }

    /// Enqueues a request into the ring on the caller side, recording it
    /// under `req` for causal tracing.
    fn enqueue(
        &mut self,
        id: StreamId,
        name: &str,
        payload: &[u8],
        req: ReqId,
    ) -> Result<(), SrpcError> {
        // Validate against the callee's static mECall list.
        {
            let s = self.stream_ref(id)?;
            if s.quarantined {
                return Err(SrpcError::Quarantined(id));
            }
            if !s.open {
                return Err(SrpcError::Closed);
            }
            let entry = self
                .spm
                .mos(s.callee.0)?
                .manager()
                .entry(s.callee.1)
                .map_err(|_| SrpcError::Closed)?;
            if entry.manifest.mecall(name).is_none() {
                return Err(SrpcError::UnknownMcall(name.to_string()));
            }
        }

        // Pick the least-backlogged lane. If even that lane is full, every
        // lane is full: the producer waits until the executor frees one
        // slot (bounded-buffer pipelining, not a full synchronization) by
        // draining the stream head, then re-targets the freed lane.
        let lane_idx = {
            let s = self.stream_ref(id)?;
            let lane = s.least_loaded_lane();
            let l = &s.lanes[lane];
            if s.layout.lane_full(l.rid, l.sid) {
                None
            } else {
                Some(lane)
            }
        };
        let lane_idx = match lane_idx {
            Some(lane) => lane,
            None => {
                let drained = self.drain_one(id)?.ok_or(SrpcError::UnknownStream(id))?;
                let s = self.streams.get_mut(&id).expect("checked");
                s.stats.ring_full_stalls += 1;
                let caller_eid = s.caller.1;
                // The slot frees the moment its request finishes executing.
                self.clock_mut(caller_eid).advance_to(drained.finished);
                let obs = self.streams.get(&id).and_then(|s| s.obs.as_ref());
                if let (Some(rec), Some(obs)) = (self.spm.recorder(), obs) {
                    rec.with(|r| obs.ring_full(r, drained.lane, drained.finished));
                }
                drained.lane
            }
        };

        // Zero-copy grant: payloads at or above the stream's threshold
        // travel through the arena; the ring slot carries only a
        // descriptor. The arena pages are already granted (mapped at open
        // through the share ledger), so the cost is page bookkeeping, not
        // a per-byte copy.
        let mut grant_cost = SimNs::ZERO;
        let use_grant = {
            let s = self.stream_ref(id)?;
            s.arena
                .as_ref()
                .is_some_and(|a| payload.len() >= a.threshold)
        };
        let slot = if use_grant {
            let (caller, grant, arena_caller_va) = {
                let s = self.streams.get_mut(&id).expect("checked");
                let arena = s.arena.as_mut().expect("checked use_grant");
                let len = payload.len() as u64;
                // Bump allocation with wraparound; in-flight grants are
                // bounded by total ring capacity, which the arena outsizes.
                if arena.cursor + len > arena.bytes {
                    arena.cursor = 0;
                }
                let offset = arena.cursor;
                arena.cursor += len;
                s.stats.zero_copy_grants += 1;
                s.stats.zero_copy_bytes += len;
                (s.caller, GrantRef { offset, len }, arena.caller_va)
            };
            {
                let (mos, machine) = self.spm.mos_and_machine(caller.0)?;
                if let Err(e) = mos.enclave_write(
                    machine,
                    caller.1,
                    arena_caller_va.add(grant.offset),
                    payload,
                ) {
                    return Err(self.stream_fault(id, caller.0, e));
                }
            }
            let pages_spanned =
                (grant.offset + grant.len).div_ceil(PAGE_SIZE) - grant.offset / PAGE_SIZE;
            grant_cost = self.spm.machine().cost().page_map * pages_spanned;
            // Meter arena occupancy by grant *size*, never payload bytes.
            if let Some(rec) = self.spm.recorder() {
                rec.meter_count(CountResource::ArenaBytes, grant.len);
            }
            encode_grant_slot(name, grant)?
        } else {
            encode_request_slot(name, payload)?
        };

        let (caller, caller_va, lane_rid, slot_off, rid_off) = {
            let s = self.stream_ref(id)?;
            let rid = s.lanes[lane_idx].rid;
            (
                s.caller,
                s.caller_va,
                rid,
                s.layout.request_slot(lane_idx, rid),
                s.layout.rid_offset(lane_idx),
            )
        };
        self.injection_point(id, SrpcPhase::Enqueue, lane_idx, lane_rid);
        {
            let (mos, machine) = self.spm.mos_and_machine(caller.0)?;
            let write = mos
                .enclave_write(machine, caller.1, caller_va.add(slot_off), &slot)
                .and_then(|()| {
                    mos.enclave_write(
                        machine,
                        caller.1,
                        caller_va.add(rid_off),
                        &(lane_rid + 1).to_le_bytes(),
                    )
                });
            if let Err(e) = write {
                return Err(self.stream_fault(id, caller.0, e));
            }
        }
        // The doorbell: one wakeup per enqueue *batch*. While the executor
        // still has undrained work the doorbell is already pending, so
        // back-to-back enqueues coalesce for free.
        let (base_enqueue, doorbell) = {
            let cm = self.spm.machine().cost();
            (cm.srpc_enqueue, cm.srpc_doorbell)
        };
        let enqueue_cost = base_enqueue + grant_cost;
        let doorbell_cost = if self.stream_ref(id)?.doorbell_pending {
            SimNs::ZERO
        } else {
            doorbell
        };
        let c = self.clock_mut(caller.1);
        c.advance(enqueue_cost + doorbell_cost);
        let now = c.now();
        self.spm
            .machine_mut()
            .record(EventKind::RpcEnqueue { stream: id.0 });
        let s = self.streams.get_mut(&id).expect("checked");
        s.lanes[lane_idx].rid += 1;
        let seq = s.next_seq;
        s.next_seq += 1;
        s.pending.push_back(PendingRequest {
            lane: lane_idx,
            slot: lane_rid,
            seq,
            enqueued_at: now,
            req,
        });
        if s.doorbell_pending {
            s.stats.doorbells_coalesced += 1;
        } else {
            s.doorbell_pending = true;
            s.stats.doorbells_rung += 1;
        }
        s.stats.calls += 1;
        s.stats.request_bytes += payload.len() as u64;
        let occupancy = s.backlog() as i64;
        self.dispatcher.note_enqueue(s.callee.0);
        if let (Some(rec), Some(obs)) = (self.spm.recorder(), s.obs.as_mut()) {
            let enqueued = stream_obs::Enqueued {
                lane: lane_idx,
                now,
                enqueue_cost,
                doorbell_cost,
                occupancy,
            };
            rec.with(|r| obs.enqueued(r, name, enqueued));
        }
        Ok(())
    }

    /// The executor loop: drains the whole stream FIFO, dispatching each
    /// request to its registered handler. Dispatch order is global enqueue
    /// order; execution overlaps across lane workers on the virtual clock.
    fn drain(&mut self, id: StreamId) -> Result<(), SrpcError> {
        while self.drain_one(id)?.is_some() {}
        Ok(())
    }

    /// Executes the oldest pending request, if any. Returns the lane it
    /// occupied and the virtual time its execution finished.
    ///
    /// Re-establishes the drained request's id as the ambient request for
    /// the duration of the dispatch, so handler-side spans (device DMA,
    /// kernels, recovery on a trap) are attributed to the request that
    /// caused them; the previous ambient request is restored afterwards.
    fn drain_one(&mut self, id: StreamId) -> Result<Option<Drained>, SrpcError> {
        let Some(req) = self.stream_ref(id)?.pending.front().map(|p| p.req) else {
            return Ok(None);
        };
        // Executor-side costs (dequeue, kernel, result write) are metered
        // against the caller principal under the callee's executor class.
        let scope = self.drain_scope(id);
        let (_, displaced) = self.enter_request(Some(req), scope);
        let result = self.drain_one_inner(id);
        self.leave_request(displaced);
        result
    }

    fn drain_one_inner(&mut self, id: StreamId) -> Result<Option<Drained>, SrpcError> {
        let (callee, callee_va, lane_idx, slot_idx, slot_off) = {
            let s = self.stream_ref(id)?;
            let Some(p) = s.pending.front() else {
                return Ok(None);
            };
            (
                s.callee,
                s.callee_va,
                p.lane,
                p.slot,
                s.layout.request_slot(p.lane, p.slot),
            )
        };
        self.injection_point(id, SrpcPhase::Dispatch, lane_idx, slot_idx);

        // Fetch + decode the request on the callee side.
        let mut slot = [0u8; crate::ring::SLOT_SIZE];
        {
            let (mos, machine) = self.spm.mos_and_machine(callee.0)?;
            if let Err(e) = mos.enclave_read(machine, callee.1, callee_va.add(slot_off), &mut slot)
            {
                return Err(self.stream_fault(id, callee.0, e));
            }
        }
        let request = match decode_slot_request(&slot)? {
            SlotRequest::Inline(r) => r,
            SlotRequest::Grant { name, grant } => {
                // Resolve the grant from the arena on the callee side: the
                // pages are already in the callee's stage-1, so this is the
                // zero-copy read the descriptor promised.
                let arena_va = self
                    .stream_ref(id)?
                    .arena
                    .as_ref()
                    .map(|a| a.callee_va)
                    .ok_or(SrpcError::Codec(crate::ring::CodecError::Corrupt))?;
                let mut payload = vec![0u8; grant.len as usize];
                {
                    let (mos, machine) = self.spm.mos_and_machine(callee.0)?;
                    if let Err(e) = mos.enclave_read(
                        machine,
                        callee.1,
                        arena_va.add(grant.offset),
                        &mut payload,
                    ) {
                        return Err(self.stream_fault(id, callee.0, e));
                    }
                }
                Request { name, payload }
            }
        };
        self.spm
            .machine_mut()
            .record(EventKind::RpcDispatch { stream: id.0 });

        // The window where device DMA pulls the operands in.
        self.injection_point(id, SrpcPhase::DmaIn, lane_idx, slot_idx);

        // Execute.
        let target = EnclaveRef {
            asid: callee.0,
            eid: callee.1,
        };
        let outcome = self.run_handler(target, &request.name, &request.payload);
        self.injection_point(id, SrpcPhase::Kernel, lane_idx, slot_idx);
        let (status, result_bytes, exec_time) = match outcome {
            Ok((bytes, t)) => (ResultStatus::Ok, bytes, t),
            Err(SrpcError::NoHandler(n)) => {
                // NoHandler crosses the ring under its own kind tag so
                // the caller can reconstruct `SrpcError::NoHandler`.
                let mut wire = vec![FaultKind::NoHandler.as_tag()];
                wire.extend_from_slice(n.as_bytes());
                (ResultStatus::Err, wire, SimNs::ZERO)
            }
            Err(SrpcError::Handler(e)) => (ResultStatus::Err, e.encode_wire(), SimNs::ZERO),
            Err(other) => return Err(other),
        };

        // Write the result and bump the lane's Sid.
        let result_slot = encode_result(status, &result_bytes)?;
        let (result_off, sid_off, lane_sid) = {
            let s = self.stream_ref(id)?;
            (
                s.layout.result_slot(lane_idx, slot_idx),
                s.layout.sid_offset(lane_idx),
                s.lanes[lane_idx].sid,
            )
        };
        {
            let (mos, machine) = self.spm.mos_and_machine(callee.0)?;
            let write = mos
                .enclave_write(machine, callee.1, callee_va.add(result_off), &result_slot)
                .and_then(|()| {
                    mos.enclave_write(
                        machine,
                        callee.1,
                        callee_va.add(sid_off),
                        &(lane_sid + 1).to_le_bytes(),
                    )
                });
            if let Err(e) = write {
                return Err(self.stream_fault(id, callee.0, e));
            }
        }
        self.injection_point(id, SrpcPhase::ResultWrite, lane_idx, slot_idx);

        // Service the device's completion interrupts raised by the
        // handler (the mOS HAL's ISR).
        let serviced = self
            .spm
            .mos_mut(callee.0)
            .map(|mos| mos.hal_mut().service_irqs())
            .unwrap_or(0);
        if serviced > 0 {
            self.spm
                .machine_mut()
                .record(EventKind::DeviceIrq { count: serviced });
        }

        let dequeue_cost = self.spm.machine().cost().srpc_dequeue;
        let CronusSystem {
            ref mut streams,
            ref mut exec_pools,
            ..
        } = *self;
        let s = streams.get_mut(&id).expect("checked");
        let pending = s.pending.pop_front().expect("checked front above");
        let enq_t = pending.enqueued_at;
        let (worker_meter, started) = if s.shared_pool {
            // Shared pool: the earliest-free worker of the callee
            // partition's pool takes the stream head, so co-tenant streams
            // contend for the same executors — a noisy neighbor's burst
            // shows up as backlog wait here, attributed by the meter.
            let pool = exec_pools.entry(s.callee.0).or_default();
            while pool.workers.len() < s.lanes.len().max(1) {
                pool.workers.push(SimClock::at(enq_t));
            }
            let mut pick = 0usize;
            let mut best: Option<SimNs> = None;
            for (i, w) in pool.workers.iter().enumerate() {
                let now = w.now();
                if best.is_none_or(|b| now < b) {
                    pick = i;
                    best = Some(now);
                }
            }
            let mut started = enq_t;
            if let Some(w) = pool.workers.get_mut(pick) {
                started = w.now().max(enq_t);
                w.advance_to(enq_t);
                w.advance(dequeue_cost + exec_time);
            }
            (WorkerId::pool(s.callee.0.as_u32(), pick as u32), started)
        } else {
            // Work stealing: the earliest-available lane worker takes the
            // stream head even when the request sits in another lane's ring,
            // so one slow lane never serializes the stream.
            let worker = s
                .lanes
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.executor_clock.now())
                .map(|(i, _)| i)
                .expect("streams have at least one lane");
            if worker != lane_idx {
                s.stats.steals += 1;
            }
            // The worker starts this request when both it and the request
            // are ready; the gap from enqueue is the dispatch latency.
            let wclock = &mut s.lanes[worker].executor_clock;
            let started = wclock.now().max(enq_t);
            wclock.advance_to(enq_t);
            wclock.advance(dequeue_cost + exec_time);
            (WorkerId::lane(id.0, worker as u32), started)
        };
        let finished = started + dequeue_cost + exec_time;
        s.last_finished = s.last_finished.max(finished);
        s.lanes[lane_idx].sid += 1;
        s.executed += 1;
        if s.pending.is_empty() {
            // The batch is fully drained; the next enqueue rings again.
            s.doorbell_pending = false;
        }
        s.stats.result_bytes += result_bytes.len() as u64;
        let occupancy = s.backlog() as i64;
        self.dispatcher.note_complete(s.callee.0);
        if let (Some(rec), Some(obs)) = (self.spm.recorder(), s.obs.as_mut()) {
            let drained = stream_obs::Drained {
                lane: lane_idx,
                enqueued_at: enq_t,
                started,
                finished,
                dequeue_cost,
                exec_time,
                worker: worker_meter,
                occupancy,
            };
            rec.with(|r| obs.drained(r, &request.name, drained));
        }
        Ok(Some(Drained {
            lane: lane_idx,
            finished,
        }))
    }

    /// Builds an mECall against `id`: the single entry point for issuing
    /// sRPC calls. Configure the request fluently and commit with
    /// [`Call::sync`] or [`Call::start`]:
    ///
    /// ```ignore
    /// let out = sys.call(stream, "gemm").payload(&desc).sync()?;
    /// sys.call(stream, "launch").payload(&desc).start()?;
    /// ```
    pub fn call(&mut self, id: StreamId, name: &str) -> Call<'_> {
        Call {
            sys: self,
            stream: id,
            name: name.to_string(),
            payload: Vec::new(),
            req: None,
            deadline: None,
            retry: None,
        }
    }

    /// Commits an asynchronous call built by [`CronusSystem::call`].
    pub(crate) fn call_commit_start(
        &mut self,
        id: StreamId,
        name: &str,
        payload: &[u8],
        req: Option<ReqId>,
    ) -> Result<ReqId, SrpcError> {
        let scope = self.caller_scope(id);
        let (req, displaced) = self.enter_request(req, scope);
        let result = self.enqueue(id, name, payload, req);
        // A committed call leaves no ambient request behind, whatever was
        // ambient before it.
        self.leave_request(Ambient {
            req: None,
            ..displaced
        });
        result.map(|()| req)
    }

    /// Commits a synchronous call built by [`CronusSystem::call`]: applies
    /// the retry policy (idempotent mECalls only) around single attempts.
    pub(crate) fn call_commit_sync(
        &mut self,
        id: StreamId,
        name: &str,
        payload: &[u8],
        req: Option<ReqId>,
        deadline: Option<SimNs>,
        retry: Option<RetryPolicy>,
    ) -> Result<Vec<u8>, SrpcError> {
        // Caller-side work (enqueue, sync wakeups, retry backoff) meters
        // against the caller partition; the drain inside re-scopes itself.
        let scope = self.caller_scope(id);
        self.metered(scope, |sys| {
            sys.call_commit_sync_inner(id, name, payload, req, deadline, retry)
        })
    }

    fn call_commit_sync_inner(
        &mut self,
        id: StreamId,
        name: &str,
        payload: &[u8],
        req: Option<ReqId>,
        deadline: Option<SimNs>,
        retry: Option<RetryPolicy>,
    ) -> Result<Vec<u8>, SrpcError> {
        let Some(policy) = retry else {
            return self.call_sync_attempt(id, name, payload, req, deadline);
        };

        // Replay is only safe for mECalls the callee's manifest declares
        // idempotent; reject the policy up front otherwise.
        let idempotent = {
            let s = self.stream_ref(id)?;
            let callee = s.callee;
            self.spm
                .mos(callee.0)?
                .manager()
                .entry(callee.1)
                .map_err(|_| SrpcError::Closed)?
                .manifest
                .mecall(name)
                .ok_or_else(|| SrpcError::UnknownMcall(name.to_string()))?
                .idempotent
        };
        if !idempotent {
            return Err(SrpcError::NotIdempotent {
                mecall: name.to_string(),
            });
        }

        let attempts = policy.max_attempts.max(1);
        let mut last_err = None;
        for attempt in 0..attempts {
            let backoff = policy.backoff_before(attempt);
            if backoff > SimNs::ZERO {
                let caller_eid = self.stream_ref(id)?.caller.1;
                self.clock_mut(caller_eid).advance(backoff);
                if let Some(rec) = self.spm.recorder() {
                    rec.charge_detail(TimeCategory::Ring, "retry_backoff", backoff);
                }
            }
            // The first attempt runs under the caller's request id, when it
            // brought one; every other attempt is a request of its own.
            let attempt_req = if attempt == 0 { req } else { None };
            match self.call_sync_attempt(id, name, payload, attempt_req, deadline) {
                Ok(out) => return Ok(out),
                Err(e) if retryable(&e) && attempt + 1 < attempts => {
                    if let Some(rec) = self.spm.recorder() {
                        rec.counter_add("srpc.retries", &[("mcall", name)], 1);
                    }
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.expect("loop ran at least once"))
    }

    /// One attempt of a synchronous call, traced as `req` (a fresh request
    /// id when `None`).
    fn call_sync_attempt(
        &mut self,
        id: StreamId,
        name: &str,
        payload: &[u8],
        req: Option<ReqId>,
        deadline: Option<SimNs>,
    ) -> Result<Vec<u8>, SrpcError> {
        let (req, _) = self.enter_request(req, None);
        let result = self.call_sync_inner(id, name, payload, req, deadline);
        self.leave_request(Ambient::default());
        result
    }

    fn call_sync_inner(
        &mut self,
        id: StreamId,
        name: &str,
        payload: &[u8],
        req: ReqId,
        deadline_override: Option<SimNs>,
    ) -> Result<Vec<u8>, SrpcError> {
        let (caller_eid_pre, stream_deadline) = {
            let s = self.stream_ref(id)?;
            (s.caller.1, s.deadline)
        };
        let started = self.clock_mut(caller_eid_pre).now();
        self.enqueue(id, name, payload, req)?;
        // Our call entered the stream FIFO last; remember which lane slot
        // it landed in so the result read targets the right ring.
        let (result_lane, result_slot) = {
            let s = self.stream_ref(id)?;
            let p = s.pending.back().expect("enqueue just pushed");
            (p.lane, p.slot)
        };
        // Drain to empty — our request is the last one out.
        let mut last_finished = None;
        while let Some(d) = self.drain_one(id)? {
            last_finished = Some(d.finished);
        }

        // Synchronization point: the caller waits for the executor, plus
        // the shared-memory polling wakeup latency.
        let wakeup = self.spm.machine().cost().srpc_sync_wakeup;
        let (caller, caller_va, result_off) = {
            let s = self.stream_ref(id)?;
            (
                s.caller,
                s.caller_va,
                s.layout.result_slot(result_lane, result_slot),
            )
        };
        let woke = {
            let c = self.clock_mut(caller.1);
            if let Some(f) = last_finished {
                c.advance_to(f);
            }
            c.advance(wakeup);
            c.now()
        };
        self.spm
            .machine_mut()
            .record(EventKind::RpcSync { stream: id.0 });
        let obs = self.streams.get_mut(&id).and_then(|s| s.obs.as_mut());
        if let (Some(rec), Some(obs)) = (self.spm.recorder(), obs) {
            rec.with(|r| obs.call_completed(r, name, wakeup, woke));
        }

        // Deadline enforcement on the virtual clock: the per-call override
        // wins over the stream default.
        if let Some(deadline) = deadline_override.or(stream_deadline) {
            let elapsed = woke.saturating_sub(started);
            if elapsed > deadline {
                if let Some(rec) = self.spm.recorder() {
                    rec.counter_add("srpc.timeouts", &[("mcall", name)], 1);
                }
                return Err(SrpcError::Timeout {
                    mecall: name.to_string(),
                    deadline,
                    elapsed,
                });
            }
        }

        self.injection_point(id, SrpcPhase::SyncWakeup, result_lane, result_slot);

        let mut slot = [0u8; crate::ring::RESULT_SLOT_SIZE];
        {
            let (mos, machine) = self.spm.mos_and_machine(caller.0)?;
            if let Err(e) =
                mos.enclave_read(machine, caller.1, caller_va.add(result_off), &mut slot)
            {
                return Err(self.stream_fault(id, caller.0, e));
            }
        }
        let (status, payload) = decode_result(&slot)?;
        let s = self.streams.get_mut(&id).expect("checked");
        s.stats.sync_calls += 1;
        match status {
            ResultStatus::Ok => Ok(payload),
            ResultStatus::Err => Err(decode_wire_error(&payload)),
        }
    }

    /// Explicit synchronization: drains the executor and merges clocks.
    /// Performs the streamCheck: after a full drain, the *shared* `Rid`
    /// and `Sid` words are read back from the ring and must equal each
    /// other and the caller's cached indices. This is enforced (not just
    /// debug-asserted), so ring-header corruption is detected in release
    /// builds and surfaces as a typed error.
    ///
    /// # Errors
    ///
    /// sRPC errors; [`SrpcError::StreamCheckFailed`] on index divergence.
    pub fn sync(&mut self, id: StreamId) -> Result<(), SrpcError> {
        let scope = self.caller_scope(id);
        self.metered(scope, |sys| sys.sync_inner(id))
    }

    fn sync_inner(&mut self, id: StreamId) -> Result<(), SrpcError> {
        self.drain(id)?;
        let sync_slot = self.stream_ref(id)?.lanes.first().map_or(0, |l| l.sid);
        self.injection_point(id, SrpcPhase::SyncWakeup, 0, sync_slot);
        let wakeup = self.spm.machine().cost().srpc_sync_wakeup;
        let executor_now = self.executor_time(id)?;
        let (caller, caller_va, lane_count) = {
            let s = self.stream_ref(id)?;
            (s.caller, s.caller_va, s.lanes.len())
        };

        // streamCheck against each lane's shared words, not just cached
        // state: every lane must be fully drained (Rid == Sid) and agree
        // with the caller's cached indices.
        for lane in 0..lane_count {
            let (rid_off, sid_off, cached_rid, cached_sid) = {
                let s = self.stream_ref(id)?;
                let Some(l) = s.lanes.get(lane) else { break };
                (
                    s.layout.rid_offset(lane),
                    s.layout.sid_offset(lane),
                    l.rid,
                    l.sid,
                )
            };
            let mut rid_buf = [0u8; 8];
            let mut sid_buf = [0u8; 8];
            {
                let (mos, machine) = self.spm.mos_and_machine(caller.0)?;
                let read = mos
                    .enclave_read(machine, caller.1, caller_va.add(rid_off), &mut rid_buf)
                    .and_then(|()| {
                        mos.enclave_read(machine, caller.1, caller_va.add(sid_off), &mut sid_buf)
                    });
                if let Err(e) = read {
                    return Err(self.stream_fault(id, caller.0, e));
                }
            }
            let shared_rid = u64::from_le_bytes(rid_buf);
            let shared_sid = u64::from_le_bytes(sid_buf);
            if shared_rid != shared_sid || shared_rid != cached_rid || shared_sid != cached_sid {
                if let Some(rec) = self.spm.recorder() {
                    rec.counter_add("srpc.stream_check_failures", &[], 1);
                }
                return Err(SrpcError::StreamCheckFailed {
                    stream: id,
                    rid: shared_rid,
                    sid: shared_sid,
                });
            }
        }

        {
            let c = self.clock_mut(caller.1);
            c.advance_to(executor_now);
            c.advance(wakeup);
        }
        self.spm
            .machine_mut()
            .record(EventKind::RpcSync { stream: id.0 });
        let s = self.streams.get_mut(&id).expect("checked");
        if let (Some(rec), Some(obs)) = (self.spm.recorder(), s.obs.as_ref()) {
            rec.with(|r| obs.synced(r, wakeup));
        }
        s.stats.sync_points += 1;
        Ok(())
    }

    /// Closes a stream: drains, marks the shared flag, and stops the
    /// executor thread. The shared region is kept for reuse ("to reduce the
    /// stream creating cost") until the enclave is destroyed.
    ///
    /// # Errors
    ///
    /// sRPC errors from the final drain.
    pub fn close_stream(&mut self, id: StreamId) -> Result<(), SrpcError> {
        self.sync(id)?;
        let (callee, callee_va) = {
            let s = self.stream_ref(id)?;
            (s.callee, s.callee_va)
        };
        let (mos, machine) = self.spm.mos_and_machine(callee.0)?;
        let _ = mos.enclave_write(machine, callee.1, callee_va.add(CLOSED_OFFSET), &[1]);
        if let Some(s) = self.streams.get_mut(&id) {
            s.open = false;
        }
        let at = self.ledger_now();
        self.spm.ledger().append(
            callee.0.as_u32(),
            at,
            cronus_forensics::SecurityEvent::StreamClosed { stream: id.0 },
        );
        self.run_audit_hook("close_stream");
        Ok(())
    }

    // ---- failover ------------------------------------------------------------

    /// Injects a partition failure (a crash, panic, or malicious kill by the
    /// untrusted OS) and runs failover step 1 (proceed). Returns
    /// `(invalidated stage-2 entries, proceed time)`.
    ///
    /// # Errors
    ///
    /// Unknown partitions.
    pub fn inject_partition_failure(&mut self, asid: AsId) -> Result<(usize, SimNs), SystemError> {
        // Failover work (stage-2 invalidation, trap handling) meters
        // against the failed partition: the tenant whose crash caused it.
        let scope = Some(MeterScope::principal(Principal(asid.as_u32())));
        self.metered(scope, |sys| {
            sys.spm.mos_mut(asid)?.fail();
            let proceed = sys.spm.fail_partition(asid)?;
            sys.run_audit_hook("inject_partition_failure");
            Ok(proceed)
        })
    }

    /// Runs failover step 2 using the dispatcher's recorded mOS image:
    /// clear device + smem, reload, re-init.
    ///
    /// # Errors
    ///
    /// [`SpmError::NotFailed`] if the partition is healthy.
    pub fn recover_partition(&mut self, asid: AsId) -> Result<RecoveryStats, SystemError> {
        let (image, version) = self
            .dispatcher
            .mos_image(asid)
            .map(|(i, v)| (i.to_vec(), v.to_string()))
            .unwrap_or_else(|| (b"recovered-mos".to_vec(), "recovered".to_string()));
        // Recovery (clear, reload, re-init) meters against the recovering
        // partition.
        let scope = Some(MeterScope::principal(Principal(asid.as_u32())));
        let stats = self.metered(scope, |sys| {
            sys.spm.recover_partition(asid, &image, &version)
        })?;
        self.run_audit_hook("recover_partition");
        Ok(stats)
    }

    /// Re-establishes service after a peer failure (the commit path behind
    /// [`crate::stream::StreamBuilder::reopen`]): discards the old
    /// (typically quarantined) stream, reclaims its poisoned ring and arena
    /// pages, and opens a fresh stream from the same caller to `callee` —
    /// usually a fresh enclave on the recovered partition. The old stream's
    /// default deadline carries over unless the builder set a new one.
    ///
    /// # Errors
    ///
    /// [`SrpcError::UnknownStream`] for unknown streams, plus anything
    /// stream opening can raise.
    pub(crate) fn reopen_stream_config(
        &mut self,
        old: StreamId,
        callee: EnclaveRef,
        mut cfg: StreamConfig,
    ) -> Result<StreamId, SrpcError> {
        let s = self
            .streams
            .remove(&old)
            .ok_or(SrpcError::UnknownStream(old))?;
        let caller = EnclaveRef {
            asid: s.caller.0,
            eid: s.caller.1,
        };
        cfg.deadline = cfg.deadline.or(s.deadline);
        // Reclaim the old ring's (and arena's) pages: for a quarantined
        // stream they were poisoned by failover and scrubbed during
        // partition clear, so this returns them to the allocator; for a
        // healthy stream it is a no-op.
        let _ = self.spm.reclaim_share(s.share);
        if let Some(arena) = &s.arena {
            let _ = self.spm.reclaim_share(arena.share);
        }
        let new = self.open_stream_config(caller, callee, cfg)?;
        let at = self.ledger_now();
        if let Some(rec) = self.spm.recorder() {
            rec.counter_add("srpc.streams_reopened", &[], 1);
            rec.with(|r| r.spans.instant("stream-reopened", at));
            // The old rings are abandoned along with any requests still
            // queued on them (a faulted drain can leave one behind without
            // going through quarantine). Flush every lane's station so depth
            // returns to 0 and the Little check knows the residuals were
            // discarded.
            let dropped = s
                .obs
                .as_ref()
                .map_or(0, |obs| rec.with(|r| obs.flush(r, at)));
            if dropped > 0 {
                rec.counter_add("srpc.requests_flushed", &[], dropped);
            }
        }
        self.spm.ledger().append(
            caller.asid.as_u32(),
            at,
            cronus_forensics::SecurityEvent::StreamReopened {
                old: old.0,
                new: new.0,
            },
        );
        self.run_audit_hook("reopen_stream");
        Ok(new)
    }

    /// The deadlock/stall watchdog, keyed off the virtual clock: reports
    /// every open stream with backlog whose executor clock trails the
    /// caller's clock by more than `bound`. A healthy pipeline drains at
    /// sync points; a stream that accumulates lag beyond the bound means
    /// the executor is wedged (or was delayed by an injected fault).
    pub fn check_stalls(&self, bound: SimNs) -> Vec<StallWarning> {
        let mut warnings: Vec<StallWarning> = self
            .streams
            .values()
            .filter(|s| s.open && s.backlog() > 0)
            .filter_map(|s| {
                let caller_now = self
                    .clocks
                    .get(&s.caller.1)
                    .map(|c| c.now())
                    .unwrap_or(SimNs::ZERO);
                let executor_now = s.executor_now();
                let lag = caller_now.saturating_sub(executor_now);
                (lag > bound).then_some(StallWarning {
                    stream: s.id,
                    backlog: s.backlog(),
                    stalled_for: lag,
                })
            })
            .collect();
        warnings.sort_by_key(|w| w.stream.0);
        // Every watchdog finding is a security event: a wedged stream is
        // the liveness failure the proceed-trap design exists to bound.
        let at = self.ledger_now();
        for w in &warnings {
            self.spm
                .ledger()
                .append(crate::MONITOR_CHAIN, at, w.ledger_event());
        }
        warnings
    }

    // ---- fault injection ------------------------------------------------------

    /// Arms a fault against the sRPC pipeline. At most one fault is armed
    /// at a time (a campaign scenario arms exactly one); arming replaces
    /// and returns any previously armed fault. The fault fires — once —
    /// when the pipeline next reaches its phase on a matching stream.
    pub fn arm_fault(&mut self, fault: ArmedFault) -> Option<ArmedFault> {
        self.injector.armed.replace(fault)
    }

    /// Disarms the armed fault, if any, returning it.
    pub fn disarm_fault(&mut self) -> Option<ArmedFault> {
        self.injector.armed.take()
    }

    /// Faults that actually fired, in firing order.
    pub fn fired_faults(&self) -> &[FiredFault] {
        &self.injector.fired
    }

    /// One of the six pipeline hooks: fires the armed fault if it matches
    /// `phase` on `id`. The action mutates simulated machine state and lets
    /// the *normal* pipeline surface the resulting typed fault — the
    /// injector itself never fabricates errors.
    fn injection_point(&mut self, id: StreamId, phase: SrpcPhase, lane: usize, slot_index: u64) {
        let Some(armed) = self.injector.take_matching(phase, id) else {
            return;
        };
        let at = self
            .streams
            .get(&id)
            .and_then(|s| self.clocks.get(&s.caller.1))
            .map(|c| c.now())
            .unwrap_or(SimNs::ZERO);
        self.apply_fault_action(id, armed.action, lane, slot_index);
        self.injector.fired.push(FiredFault {
            fault: armed,
            stream: id,
            slot_index,
            at,
        });
        self.spm
            .machine_mut()
            .record(EventKind::Marker("fault-injected"));
        if let Some(rec) = self.spm.recorder() {
            rec.counter_add(
                "chaos.faults_fired",
                &[("phase", phase.name()), ("action", armed.action.name())],
                1,
            );
            // Span-stream witness on the recorder timebase (the machine
            // marker above carries the machine-event clock instead).
            rec.with(|r| {
                r.spans
                    .instant(format!("fault-injected:{}", armed.action.name()), at)
            });
        }
        // Injections belong to no partition; they go on the monitor chain.
        self.spm.ledger().append(
            crate::MONITOR_CHAIN,
            at,
            cronus_forensics::SecurityEvent::FaultInjected {
                phase: phase.name(),
                action: armed.action.name(),
                stream: id.0,
            },
        );
    }

    fn apply_fault_action(
        &mut self,
        id: StreamId,
        action: FaultAction,
        lane: usize,
        slot_index: u64,
    ) {
        let Some((caller_asid, callee_asid, layout, share)) = self
            .streams
            .get(&id)
            .map(|s| (s.caller.0, s.callee.0, s.layout, s.share))
        else {
            return;
        };
        match action {
            FaultAction::KillCallee => {
                let _ = self.inject_partition_failure(callee_asid);
            }
            FaultAction::KillCaller => {
                let _ = self.inject_partition_failure(caller_asid);
            }
            FaultAction::CorruptRequestSlot { seed } => {
                let off = layout.request_slot(lane, slot_index);
                self.scribble_ring(share, off, crate::ring::SLOT_SIZE, Some(seed));
            }
            FaultAction::CorruptResultSlot { seed } => {
                let off = layout.result_slot(lane, slot_index);
                self.scribble_ring(share, off, crate::ring::RESULT_SLOT_SIZE, Some(seed));
            }
            FaultAction::ZeroRequestSlot => {
                let off = layout.request_slot(lane, slot_index);
                self.scribble_ring(share, off, crate::ring::SLOT_SIZE, None);
            }
            FaultAction::ZeroResultSlot => {
                let off = layout.result_slot(lane, slot_index);
                self.scribble_ring(share, off, crate::ring::RESULT_SLOT_SIZE, None);
            }
            FaultAction::CorruptRingHeader { seed } => {
                let mut rng = SimRng::new(seed);
                let bogus_rid = rng.next_u64().to_le_bytes();
                let bogus_sid = rng.next_u64().to_le_bytes();
                self.write_ring_phys(share, layout.rid_offset(lane), &bogus_rid);
                self.write_ring_phys(share, layout.sid_offset(lane), &bogus_sid);
            }
            FaultAction::RevokeStage2 => {
                if let Ok(pages) = self.spm.share_pages(share).map(<[u64]>::to_vec) {
                    for ppn in pages {
                        self.spm.machine_mut().stage2_invalidate(callee_asid, ppn);
                    }
                }
            }
            FaultAction::RevokeSmmu => {
                // Revoke every page the callee's DMA engine can currently
                // reach (ring and staging alike): the device's next DMA
                // takes an SMMU fault.
                let stream = self.spm.mos(callee_asid).ok().map(|m| m.hal().dma_stream());
                if let Some(stream) = stream {
                    let machine = self.spm.machine_mut();
                    let granted = machine.smmu().granted_pages(stream);
                    machine.smmu_mut().invalidate_pages(stream, &granted);
                }
            }
            FaultAction::DelayCompletion(d) => {
                if let Some(s) = self.streams.get_mut(&id) {
                    // A stalled executor stalls every lane worker at once.
                    for l in &mut s.lanes {
                        l.executor_clock.advance(d);
                    }
                }
            }
        }
    }

    /// Overwrites `len` bytes of a share at ring offset `off`, through the
    /// monitor's physical view (a peer scribbling memory does not go
    /// through the victim's page tables). Seeded noise, or zeros.
    fn scribble_ring(
        &mut self,
        share: cronus_spm::spm::ShareHandle,
        off: u64,
        len: usize,
        seed: Option<u64>,
    ) {
        let mut bytes = vec![0u8; len];
        if let Some(seed) = seed {
            SimRng::new(seed).fill_bytes(&mut bytes);
        }
        self.write_ring_phys(share, off, &bytes);
    }

    /// Physically writes `data` at byte offset `off` into a share's pages,
    /// splitting across page boundaries.
    fn write_ring_phys(&mut self, share: cronus_spm::spm::ShareHandle, off: u64, data: &[u8]) {
        let Ok(pages) = self.spm.share_pages(share).map(<[u64]>::to_vec) else {
            return;
        };
        let mut pos = off;
        let mut idx = 0usize;
        while idx < data.len() {
            let page = (pos / PAGE_SIZE) as usize;
            let in_page = pos % PAGE_SIZE;
            let Some(ppn) = pages.get(page) else {
                return;
            };
            let chunk = (PAGE_SIZE - in_page).min((data.len() - idx) as u64) as usize;
            let pa = PhysAddr::from_page_number(*ppn).add(in_page);
            let _ = self
                .spm
                .machine_mut()
                .phys_write(World::Secure, pa, &data[idx..idx + chunk]);
            pos += chunk as u64;
            idx += chunk;
        }
    }
}

/// The recorder's ambient attribution context, as one phase saves it for the
/// next to restore: the request new spans belong to and the meter scope
/// charges go to (`None`: leave the scope alone).
#[derive(Clone, Copy, Debug, Default)]
struct Ambient {
    req: Option<ReqId>,
    scope: Option<MeterScope>,
}

/// What one `drain_one` step executed: the lane whose slot it freed and the
/// virtual time its worker finished.
struct Drained {
    lane: usize,
    finished: SimNs,
}

/// Decodes the error payload of a result slot written by the executor: a
/// [`FaultKind`] tag byte plus rendered detail. `NoHandler` round-trips to
/// [`SrpcError::NoHandler`]; everything else becomes a
/// [`CronusError::Remote`] behind [`SrpcError::Handler`].
fn decode_wire_error(payload: &[u8]) -> SrpcError {
    if let Some((tag, rest)) = payload.split_first() {
        if FaultKind::from_tag(*tag) == Some(FaultKind::NoHandler) {
            return SrpcError::NoHandler(String::from_utf8_lossy(rest).into_owned());
        }
    }
    SrpcError::Handler(CronusError::decode_wire(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cronus_mos::manifest::McallDecl;
    use cronus_sim::World;
    use cronus_spm::spm::{DeviceSpec, PartitionSpec};

    fn config() -> BootConfig {
        BootConfig {
            partitions: vec![
                PartitionSpec::new(1, b"cpu-mos", "v1", DeviceSpec::Cpu),
                PartitionSpec::new(
                    2,
                    b"cuda-mos",
                    "v3",
                    DeviceSpec::Gpu {
                        memory: 1 << 26,
                        sms: 46,
                    },
                ),
                PartitionSpec::new(3, b"npu-mos", "v1", DeviceSpec::Npu { memory: 1 << 24 }),
            ],
            ..Default::default()
        }
    }

    fn cpu_manifest() -> Manifest {
        Manifest::new(DeviceKind::Cpu)
            .with_mecall(McallDecl::synchronous("process"))
            .with_memory(1 << 16)
    }

    fn gpu_manifest() -> Manifest {
        Manifest::new(DeviceKind::Gpu)
            .with_mecall(McallDecl::asynchronous("launch"))
            .with_mecall(McallDecl::synchronous("memcpy_d2h"))
            .with_memory(1 << 20)
    }

    /// Registers a trivial echo handler that charges `exec` time.
    fn echo_handler(exec: SimNs) -> McallHandler {
        Box::new(move |_ctx, payload| Ok((payload.to_vec(), exec)))
    }

    fn setup_pair(sys: &mut CronusSystem) -> (EnclaveRef, EnclaveRef, StreamId) {
        let app = sys.create_app();
        let cpu = sys
            .create_enclave(Actor::App(app), cpu_manifest(), &BTreeMap::new())
            .unwrap();
        let gpu = sys
            .create_enclave(Actor::Enclave(cpu), gpu_manifest(), &BTreeMap::new())
            .unwrap();
        sys.register_handler(gpu, "launch", echo_handler(SimNs::from_micros(50)));
        sys.register_handler(gpu, "memcpy_d2h", echo_handler(SimNs::from_micros(10)));
        let stream = sys.stream(cpu, gpu).open().unwrap();
        (cpu, gpu, stream)
    }

    #[test]
    fn full_heterogeneous_flow() {
        let mut sys = CronusSystem::boot(config());
        let (_cpu, _gpu, stream) = setup_pair(&mut sys);
        for i in 0..10u8 {
            sys.call(stream, "launch").payload(&[i]).start().unwrap();
        }
        let result = sys
            .call(stream, "memcpy_d2h")
            .payload(b"fetch")
            .sync()
            .unwrap();
        assert_eq!(result, b"fetch");
        let stats = sys.stream_stats(stream).unwrap();
        assert_eq!(stats.calls, 11);
        assert_eq!(stats.sync_calls, 1);
        sys.close_stream(stream).unwrap();
    }

    #[test]
    fn async_calls_do_not_block_the_caller() {
        let mut sys = CronusSystem::boot(config());
        let (cpu, _gpu, stream) = setup_pair(&mut sys);
        let t0 = sys.enclave_time(cpu);
        for _ in 0..100 {
            sys.call(stream, "launch").payload(&[0]).start().unwrap();
        }
        let t1 = sys.enclave_time(cpu);
        let caller_cost = t1 - t0;
        // 100 enqueues at ~120ns each, far below 100 kernels at 50us each.
        assert!(
            caller_cost < SimNs::from_micros(100),
            "caller streamed: {caller_cost}"
        );
        sys.sync(stream).unwrap();
        let t2 = sys.enclave_time(cpu);
        // 100 kernels at 50us spread over 16 lane workers: the sync still
        // waits for real executor time, just 16-way overlapped.
        assert!(
            t2 - t1 >= SimNs::from_micros(250),
            "sync waits for the overlapped kernel work: {}",
            t2 - t1
        );
    }

    #[test]
    fn sync_rpc_transport_is_much_slower_than_enqueue() {
        let sys = CronusSystem::boot(config());
        let cm = sys.spm().machine().cost();
        assert!(cm.sync_rpc_transport() > cm.srpc_enqueue * 20);
    }

    #[test]
    fn srpc_makes_no_context_switches() {
        let mut sys = CronusSystem::boot(config());
        let (_cpu, _gpu, stream) = setup_pair(&mut sys);
        for _ in 0..50 {
            sys.call(stream, "launch").payload(&[1]).start().unwrap();
        }
        sys.sync(stream).unwrap();
        assert_eq!(sys.spm().machine().log().context_switches(), 0);
    }

    #[test]
    fn undeclared_mecall_rejected() {
        let mut sys = CronusSystem::boot(config());
        let (_cpu, _gpu, stream) = setup_pair(&mut sys);
        assert_eq!(
            sys.call(stream, "not_declared").start().unwrap_err(),
            SrpcError::UnknownMcall("not_declared".into())
        );
    }

    #[test]
    fn non_owner_cannot_open_stream() {
        let mut sys = CronusSystem::boot(config());
        let app = sys.create_app();
        let cpu1 = sys
            .create_enclave(Actor::App(app), cpu_manifest(), &BTreeMap::new())
            .unwrap();
        let cpu2 = sys
            .create_enclave(Actor::App(app), cpu_manifest(), &BTreeMap::new())
            .unwrap();
        let gpu = sys
            .create_enclave(Actor::Enclave(cpu1), gpu_manifest(), &BTreeMap::new())
            .unwrap();
        // cpu2 did not create gpu; it may not call into it.
        assert_eq!(
            sys.stream(cpu2, gpu).open().unwrap_err(),
            SrpcError::NotOwner
        );
    }

    #[test]
    fn misrouted_create_fails_manifest_check() {
        let mut sys = CronusSystem::boot(config());
        let app = sys.create_app();
        // The untrusted dispatcher routes GPU requests to the CPU partition.
        sys.dispatcher_mut()
            .inject_misroute(DeviceKind::Gpu, AsId::new(1));
        let err = sys
            .create_enclave(Actor::App(app), gpu_manifest(), &BTreeMap::new())
            .unwrap_err();
        assert!(
            matches!(err, SystemError::Spm(_)),
            "mOS rejects the mismatched manifest: {err:?}"
        );
    }

    #[test]
    fn attacker_cannot_touch_ring_from_normal_world() {
        let mut sys = CronusSystem::boot(config());
        let (_cpu, _gpu, stream) = setup_pair(&mut sys);
        let pages = {
            let share = sys.streams.get(&stream).unwrap().share;
            sys.spm().share_pages(share).unwrap().to_vec()
        };
        // The untrusted OS tries to rewrite Rid in the ring.
        let pa = cronus_sim::PhysAddr::from_page_number(pages[0]);
        let err = sys
            .spm_mut()
            .machine_mut()
            .mem_write(AsId::NORMAL_WORLD, World::Normal, pa, &99u64.to_le_bytes())
            .unwrap_err();
        assert!(err.is_world_filter(), "TZASC filters the attacker: {err}");
    }

    #[test]
    fn app_ecall_round_trip_and_ownership() {
        let mut sys = CronusSystem::boot(config());
        let app = sys.create_app();
        let other_app = sys.create_app();
        let cpu = sys
            .create_enclave(Actor::App(app), cpu_manifest(), &BTreeMap::new())
            .unwrap();
        sys.register_handler(cpu, "process", echo_handler(SimNs::from_micros(5)));
        let out = sys.app_ecall(app, cpu, "process", b"data").unwrap();
        assert_eq!(out, b"data");
        assert!(sys.app_time(app) > SimNs::ZERO);
        // A different app cannot invoke the mECall.
        assert_eq!(
            sys.app_ecall(other_app, cpu, "process", b"x").unwrap_err(),
            SystemError::NotOwner
        );
    }

    #[test]
    fn partition_failure_surfaces_as_peer_failed() {
        let mut sys = CronusSystem::boot(config());
        let (cpu, gpu, stream) = setup_pair(&mut sys);
        sys.call(stream, "launch").payload(&[1]).start().unwrap();
        sys.sync(stream).unwrap();

        let (invalidated, t) = sys.inject_partition_failure(gpu.asid).unwrap();
        assert!(invalidated >= DEFAULT_RING_PAGES);
        assert!(t > SimNs::ZERO);

        // The next call faults on the invalidated ring and converts into a
        // failure signal; the stream is quarantined and state clears
        // automatically.
        let err = sys
            .call(stream, "launch")
            .payload(&[2])
            .start()
            .unwrap_err();
        assert_eq!(err, SrpcError::PeerFailed { signalled: cpu.eid });
        assert_eq!(
            sys.call(stream, "launch")
                .payload(&[3])
                .start()
                .unwrap_err(),
            SrpcError::Quarantined(stream)
        );

        // Recovery restarts only the GPU partition; the CPU partition's
        // enclave is still alive and can open a fresh accelerator enclave.
        let stats = sys.recover_partition(gpu.asid).unwrap();
        assert!(stats.total() < SimNs::from_secs(1));
        let gpu2 = sys
            .create_enclave(Actor::Enclave(cpu), gpu_manifest(), &BTreeMap::new())
            .unwrap();
        sys.register_handler(gpu2, "launch", echo_handler(SimNs::from_micros(50)));
        let s2 = sys.stream(cpu, gpu2).open().unwrap();
        sys.call(s2, "launch").payload(&[1]).start().unwrap();
        sys.sync(s2).unwrap();
    }

    #[test]
    fn ring_wraps_and_stalls_when_full() {
        let mut sys = CronusSystem::boot(config());
        let (_cpu, _gpu, stream) = setup_pair(&mut sys);
        let slots = sys.streams.get(&stream).unwrap().layout.total_slots();
        for i in 0..(slots as usize * 2 + 3) {
            sys.call(stream, "launch")
                .payload(&[i as u8])
                .start()
                .unwrap();
        }
        sys.sync(stream).unwrap();
        let stats = sys.stream_stats(stream).unwrap();
        assert!(stats.ring_full_stalls >= 1, "producer outran the ring");
        assert_eq!(stats.calls, slots * 2 + 3);
    }

    #[test]
    fn handler_error_propagates_on_sync_call() {
        let mut sys = CronusSystem::boot(config());
        let (_cpu, gpu, stream) = setup_pair(&mut sys);
        sys.register_handler(
            gpu,
            "memcpy_d2h",
            Box::new(|_, _| Err(CronusError::app("device exploded"))),
        );
        let err = sys.call(stream, "memcpy_d2h").sync().unwrap_err();
        // The typed error crossed the ring: kind survives, detail carries
        // the rendered message.
        match err {
            SrpcError::Handler(e) => {
                assert_eq!(e.kind(), FaultKind::App);
                assert!(e.to_string().contains("device exploded"), "{e}");
            }
            other => panic!("expected Handler, got {other:?}"),
        }
    }

    #[test]
    fn destroy_enclave_reclaims_streams() {
        let mut sys = CronusSystem::boot(config());
        let (cpu, gpu, stream) = setup_pair(&mut sys);
        sys.call(stream, "launch").payload(&[1]).start().unwrap();
        sys.sync(stream).unwrap();
        sys.destroy_enclave(gpu).unwrap();
        assert!(matches!(
            sys.call(stream, "launch")
                .payload(&[1])
                .start()
                .unwrap_err(),
            SrpcError::UnknownStream(_)
        ));
        // The CPU enclave survives.
        assert!(sys.clocks.contains_key(&cpu.eid));
    }

    #[test]
    fn multiple_streams_per_pair_support_multithreading() {
        // "To support multi-threading, CRONUS makes each thread create its
        // own stream for RPCs" (§IV-C).
        let mut sys = CronusSystem::boot(config());
        let (cpu, gpu, s1) = {
            let (cpu, gpu, s1) = setup_pair(&mut sys);
            (cpu, gpu, s1)
        };
        let s2 = sys.stream(cpu, gpu).open().unwrap();
        assert_ne!(s1, s2);
        // Both streams run independently against the same callee.
        for i in 0..20u8 {
            sys.call(s1, "launch").payload(&[i]).start().unwrap();
            sys.call(s2, "launch").payload(&[i]).start().unwrap();
        }
        sys.sync(s1).unwrap();
        sys.sync(s2).unwrap();
        assert_eq!(sys.stream_stats(s1).unwrap().calls, 20);
        assert_eq!(sys.stream_stats(s2).unwrap().calls, 20);
        let _ = gpu;
    }

    #[test]
    fn oversized_handler_result_is_a_codec_error() {
        let mut sys = CronusSystem::boot(config());
        let (_cpu, gpu, stream) = setup_pair(&mut sys);
        sys.register_handler(
            gpu,
            "memcpy_d2h",
            Box::new(|_, _| Ok((vec![0u8; crate::ring::SLOT_PAYLOAD + 1], SimNs::ZERO))),
        );
        let err = sys.call(stream, "memcpy_d2h").sync().unwrap_err();
        assert!(matches!(err, SrpcError::Codec(_)), "got {err:?}");
    }

    #[test]
    fn sync_on_empty_stream_is_cheap_and_safe() {
        let mut sys = CronusSystem::boot(config());
        let (cpu, _gpu, stream) = setup_pair(&mut sys);
        let t0 = sys.enclave_time(cpu);
        sys.sync(stream).unwrap();
        sys.sync(stream).unwrap();
        let dt = sys.enclave_time(cpu) - t0;
        assert!(dt < SimNs::from_micros(10));
    }

    #[test]
    fn device_irqs_serviced_per_dispatch() {
        let mut sys = CronusSystem::boot(config());
        let (_cpu, gpu, stream) = setup_pair(&mut sys);
        // Replace the echo handler with one that really launches a kernel.
        sys.register_handler(
            gpu,
            "launch",
            Box::new(|ctx, _| {
                let cm = ctx.spm.machine().cost().clone();
                let mos = ctx.spm.mos_mut(ctx.asid)?;
                let dev = mos.hal_mut().gpu_mut()?;
                let gctx = dev.create_context(4096)?;
                dev.register_kernel(gctx, "k", std::sync::Arc::new(|_, _| Ok(())))?;
                let t = dev.launch(
                    &cm,
                    gctx,
                    "k",
                    &[],
                    cronus_devices::gpu::GpuKernelDesc {
                        flops: 1.0,
                        mem_bytes: 0.0,
                        sm_demand: 1,
                    },
                )?;
                dev.destroy_context(gctx)?;
                Ok((Vec::new(), t))
            }),
        );
        for _ in 0..5 {
            sys.call(stream, "launch").start().unwrap();
        }
        sys.sync(stream).unwrap();
        let irqs: usize = sys
            .spm()
            .machine()
            .log()
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::DeviceIrq { count } => Some(count as usize),
                _ => None,
            })
            .sum();
        assert_eq!(irqs, 5, "one completion interrupt per kernel launch");
    }

    #[test]
    fn attestation_report_for_gpu_partition() {
        let mut sys = CronusSystem::boot(config());
        let (_cpu, gpu, _stream) = setup_pair(&mut sys);
        let signed = sys.attestation_report(gpu).unwrap();
        assert_eq!(signed.report.enclaves.len(), 1);
        assert_eq!(signed.report.vendor, "nvidia");
    }

    #[test]
    fn builder_api_covers_every_shimmed_call_shape() {
        // Migrated off the deprecated shims (they now live — and are tested —
        // in `crate::compat`, the one module the deprecated-use lint exempts).
        let mut sys = CronusSystem::boot(config());
        let (_cpu, _gpu, stream) = setup_pair(&mut sys);
        sys.call(stream, "launch").payload(&[1]).start().unwrap();
        let req = sys.alloc_req();
        sys.call(stream, "launch")
            .payload(&[2])
            .req(req)
            .start()
            .unwrap();
        let out = sys.call(stream, "memcpy_d2h").payload(b"x").sync().unwrap();
        assert_eq!(out, b"x");
        let req = sys.alloc_req();
        let out = sys
            .call(stream, "memcpy_d2h")
            .payload(b"y")
            .req(req)
            .sync()
            .unwrap();
        assert_eq!(out, b"y");
    }

    #[test]
    fn deadline_violation_is_a_typed_timeout() {
        let mut sys = CronusSystem::boot(config());
        let (_cpu, _gpu, stream) = setup_pair(&mut sys);
        // The memcpy_d2h handler charges 10us of device time; a 1us stream
        // deadline cannot be met.
        sys.set_stream_deadline(stream, Some(SimNs::from_micros(1)))
            .unwrap();
        let err = sys.call(stream, "memcpy_d2h").sync().unwrap_err();
        match err {
            SrpcError::Timeout {
                mecall,
                deadline,
                elapsed,
            } => {
                assert_eq!(mecall, "memcpy_d2h");
                assert_eq!(deadline, SimNs::from_micros(1));
                assert!(elapsed > deadline);
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        // A generous per-call override wins over the stream default.
        let out = sys
            .call(stream, "memcpy_d2h")
            .payload(b"ok")
            .deadline(SimNs::from_secs(1))
            .sync()
            .unwrap();
        assert_eq!(out, b"ok");
    }

    #[test]
    fn retry_requires_idempotence_declaration() {
        let mut sys = CronusSystem::boot(config());
        let (_cpu, _gpu, stream) = setup_pair(&mut sys);
        // memcpy_d2h is not declared idempotent in gpu_manifest().
        let err = sys
            .call(stream, "memcpy_d2h")
            .retry(RetryPolicy::attempts(3))
            .sync()
            .unwrap_err();
        assert_eq!(
            err,
            SrpcError::NotIdempotent {
                mecall: "memcpy_d2h".into()
            }
        );
    }

    #[test]
    fn retry_recovers_transient_handler_failures() {
        let mut sys = CronusSystem::boot(config());
        let app = sys.create_app();
        let cpu = sys
            .create_enclave(Actor::App(app), cpu_manifest(), &BTreeMap::new())
            .unwrap();
        let gpu = sys
            .create_enclave(
                Actor::Enclave(cpu),
                Manifest::new(DeviceKind::Gpu)
                    .with_mecall(McallDecl::synchronous("fetch").idempotent())
                    .with_memory(1 << 20),
                &BTreeMap::new(),
            )
            .unwrap();
        let mut failures_left = 2u32;
        sys.register_handler(
            gpu,
            "fetch",
            Box::new(move |_, payload| {
                if failures_left > 0 {
                    failures_left -= 1;
                    Err(CronusError::app("transient glitch"))
                } else {
                    Ok((payload.to_vec(), SimNs::from_micros(1)))
                }
            }),
        );
        let stream = sys.stream(cpu, gpu).open().unwrap();
        let t0 = sys.enclave_time(cpu);
        let out = sys
            .call(stream, "fetch")
            .payload(b"idem")
            .retry(RetryPolicy::attempts(3).backoff(SimNs::from_micros(7)))
            .sync()
            .unwrap();
        assert_eq!(out, b"idem");
        // Two backoffs were charged to the caller's virtual clock.
        assert!(sys.enclave_time(cpu) - t0 >= SimNs::from_micros(14));
        // Exhausting the policy surfaces the last typed error.
        let mut sys2 = CronusSystem::boot(config());
        let app2 = sys2.create_app();
        let cpu2 = sys2
            .create_enclave(Actor::App(app2), cpu_manifest(), &BTreeMap::new())
            .unwrap();
        let gpu2 = sys2
            .create_enclave(
                Actor::Enclave(cpu2),
                Manifest::new(DeviceKind::Gpu)
                    .with_mecall(McallDecl::synchronous("fetch").idempotent())
                    .with_memory(1 << 20),
                &BTreeMap::new(),
            )
            .unwrap();
        sys2.register_handler(
            gpu2,
            "fetch",
            Box::new(|_, _| Err(CronusError::app("permanent"))),
        );
        let s2 = sys2.stream(cpu2, gpu2).open().unwrap();
        let err = sys2
            .call(s2, "fetch")
            .retry(RetryPolicy::attempts(2))
            .sync()
            .unwrap_err();
        assert!(matches!(err, SrpcError::Handler(_)), "got {err:?}");
    }

    #[test]
    fn stream_check_detects_ring_header_corruption() {
        let mut sys = CronusSystem::boot(config());
        let (_cpu, _gpu, stream) = setup_pair(&mut sys);
        sys.call(stream, "launch").payload(&[1]).start().unwrap();
        sys.arm_fault(ArmedFault {
            phase: SrpcPhase::SyncWakeup,
            action: FaultAction::CorruptRingHeader { seed: 0xc0ffee },
            stream: Some(stream),
        });
        let err = sys.sync(stream).unwrap_err();
        assert!(
            matches!(err, SrpcError::StreamCheckFailed { stream: s, .. } if s == stream),
            "got {err:?}"
        );
        assert_eq!(sys.fired_faults().len(), 1);
    }

    #[test]
    fn injected_callee_kill_surfaces_as_peer_failed_and_reopens() {
        let mut sys = CronusSystem::boot(config());
        let (cpu, gpu, stream) = setup_pair(&mut sys);
        sys.set_stream_deadline(stream, Some(SimNs::from_secs(1)))
            .unwrap();
        sys.arm_fault(ArmedFault {
            phase: SrpcPhase::Kernel,
            action: FaultAction::KillCallee,
            stream: Some(stream),
        });
        let err = sys.call(stream, "memcpy_d2h").sync().unwrap_err();
        assert!(
            matches!(err, SrpcError::PeerFailed { .. }),
            "kernel-phase kill traps on the result write: {err:?}"
        );
        assert_eq!(sys.fired_faults().len(), 1);
        assert_eq!(
            sys.call(stream, "memcpy_d2h").sync().unwrap_err(),
            SrpcError::Quarantined(stream)
        );

        // Recover the partition, stand up a fresh callee, re-open service.
        sys.recover_partition(gpu.asid).unwrap();
        let gpu2 = sys
            .create_enclave(Actor::Enclave(cpu), gpu_manifest(), &BTreeMap::new())
            .unwrap();
        sys.register_handler(gpu2, "memcpy_d2h", echo_handler(SimNs::from_micros(10)));
        let s2 = sys.stream(cpu, gpu2).reopen(stream).unwrap();
        assert_ne!(s2, stream);
        // The old stream handle is gone; the deadline carried over.
        assert!(matches!(
            sys.stream_stats(stream).unwrap_err(),
            SrpcError::UnknownStream(_)
        ));
        assert_eq!(
            sys.streams.get(&s2).unwrap().deadline,
            Some(SimNs::from_secs(1))
        );
        let out = sys.call(s2, "memcpy_d2h").payload(b"again").sync().unwrap();
        assert_eq!(out, b"again");
    }

    #[test]
    fn delayed_completion_trips_the_stall_watchdog() {
        let mut sys = CronusSystem::boot(config());
        let (cpu, _gpu, stream) = setup_pair(&mut sys);
        for _ in 0..4 {
            sys.call(stream, "launch").payload(&[1]).start().unwrap();
        }
        // The caller streams ahead; the executor has not been driven yet.
        sys.advance_enclave(cpu, SimNs::from_millis(500));
        let warnings = sys.check_stalls(SimNs::from_millis(100));
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].stream, stream);
        assert_eq!(warnings[0].backlog, 4);
        assert!(warnings[0].stalled_for >= SimNs::from_millis(500));
        // After a sync the backlog drains and the watchdog is clean.
        sys.sync(stream).unwrap();
        assert!(sys.check_stalls(SimNs::from_millis(100)).is_empty());
    }

    #[test]
    fn zeroed_result_slot_is_detected_as_corrupt() {
        let mut sys = CronusSystem::boot(config());
        let (_cpu, _gpu, stream) = setup_pair(&mut sys);
        sys.arm_fault(ArmedFault {
            phase: SrpcPhase::ResultWrite,
            action: FaultAction::ZeroResultSlot,
            stream: Some(stream),
        });
        let err = sys.call(stream, "memcpy_d2h").sync().unwrap_err();
        assert!(matches!(err, SrpcError::Codec(_)), "got {err:?}");
    }
}
