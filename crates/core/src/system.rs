//! The CRONUS system facade.
//!
//! [`CronusSystem`] is the top-level object a PaaS application (or the
//! benchmark harness) interacts with. It owns the Secure Partition Manager,
//! the normal-world Enclave Dispatcher, per-enclave virtual clocks, the
//! mECall handler registry (filled in by the execution-model runtimes), and
//! the open sRPC streams. It drives the full paper workflow of §III-D:
//! create a CPU mEnclave, attest, create accelerator mEnclaves from inside
//! it, connect them with sRPC, compute, and survive partition failures.
//!
//! This file holds boot, the audit and telemetry hooks, apps, enclaves and
//! direct ECalls. The rest of `impl CronusSystem` lives beside the state it
//! drives: the sRPC protocol in [`crate::transport`], proceed-trap
//! conversion, failover and fault injection in [`crate::recovery`].

use std::collections::BTreeMap;

use cronus_crypto::dh::DhKeyPair;
use cronus_devices::DeviceKind;
use cronus_mos::manager::Owner;
use cronus_mos::manifest::{Eid, Manifest};
use cronus_obs::{
    spend, ExecClass, FlightRecorder, MeterScope, Principal, QueueKind, ReqId, TimeCategory,
};
use cronus_sim::machine::AsId;
use cronus_sim::trace::EventKind;
use cronus_sim::{Cost, CostModel, SimClock, SimNs};
use cronus_spm::attest::SignedReport;
use cronus_spm::spm::{BootConfig, Spm, SpmError};

use crate::dispatcher::{Dispatcher, PartitionInfo};
use crate::error::CronusError;
use crate::executor::Executor;
use crate::inject::Injector;
use crate::srpc::{SrpcError, StreamId, StreamState};

/// A handle to a created mEnclave.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EnclaveRef {
    /// Hosting partition.
    pub asid: AsId,
    /// Enclave id.
    pub eid: Eid,
}

/// A normal-world application id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
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
pub type AuditHook = Box<dyn Fn(&CronusSystem) -> usize>;

/// A mapping-state digest hook (see `cronus_audit::install_digest_hook`):
/// invoked at black-box capture time, returns a digest of the canonical
/// isolation-model rendering so the crash snapshot commits to the exact
/// mapping state at trap time.
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

/// What the system keeps per mEnclave, from `create_enclave` (or the first
/// mention of its eid) to `destroy_enclave`.
#[derive(Default)]
pub(crate) struct EnclaveState {
    pub(crate) clock: SimClock,
    /// The owner's side of `secret_dhke`, once the enclave is created.
    pub(crate) owner_secret: Option<[u8; 32]>,
    /// mECall handlers by name: a handful per enclave, scanned.
    handlers: Vec<(String, McallHandler)>,
}

/// The CRONUS system.
pub struct CronusSystem {
    pub(crate) spm: Spm,
    pub(crate) dispatcher: Dispatcher,
    pub(crate) enclaves: BTreeMap<Eid, EnclaveState>,
    app_clocks: BTreeMap<AppId, SimClock>,
    pub(crate) streams: BTreeMap<StreamId, StreamState>,
    /// The executors `.shared()` streams drain on, by callee partition.
    pub(crate) partition_executors: BTreeMap<AsId, Executor>,
    pub(crate) injector: Injector,
    pub(crate) next_stream: u64,
    next_app: u32,
    next_dh: u64,
    audit_hook: Option<AuditHook>,
    audit_violations: usize,
    digest_hook: Option<DigestHook>,
}

impl std::fmt::Debug for CronusSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CronusSystem")
            .field("enclaves", &self.enclaves.len())
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
            let Ok(mos) = spm.mos(asid) else { continue };
            dispatcher.register(PartitionInfo {
                asid,
                mos_id: spec.mos_id,
                kind: mos.device_kind(),
                image: spec.image.clone(),
                version: spec.version.clone(),
                dispatched: 0,
            });
        }
        CronusSystem {
            spm,
            dispatcher,
            enclaves: BTreeMap::new(),
            app_clocks: BTreeMap::new(),
            streams: BTreeMap::new(),
            partition_executors: BTreeMap::new(),
            injector: Injector::default(),
            next_stream: 1,
            next_app: 1,
            next_dh: 1,
            audit_hook: None,
            audit_violations: 0,
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
    pub fn set_audit_hook(&mut self, hook: AuditHook) {
        self.audit_hook = Some(hook);
    }

    /// Installs the mapping-state digest hook: black boxes captured at
    /// proceed-trap time carry its result as their `mapping_digest`.
    pub fn set_digest_hook(&mut self, hook: DigestHook) {
        self.digest_hook = Some(hook);
    }

    /// Total invariant violations reported by the audit hook so far.
    pub fn audit_violations(&self) -> usize {
        self.audit_violations
    }

    /// Runs the installed audit hook, if any, attributing findings to the
    /// reconfiguration point `point`.
    pub(crate) fn run_audit_hook(&mut self, point: &'static str) {
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

    /// Runs `f` with the resource meter's ambient scope set to `scope`,
    /// restoring the previous scope afterwards (even across `?`-style early
    /// returns inside `f`, since the restore happens here). `None` scope —
    /// or no recorder — runs `f` unscoped.
    pub(crate) fn metered<T>(
        &mut self,
        scope: Option<MeterScope>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
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
    pub(crate) fn enter_request(
        &self,
        req: Option<ReqId>,
        scope: Option<MeterScope>,
    ) -> (ReqId, Ambient) {
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
    pub(crate) fn leave_request(&self, restore: Ambient) {
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
    pub(crate) fn exec_class_of(&self, asid: AsId) -> ExecClass {
        match self.spm.mos(asid).map(|m| m.device_kind()) {
            Ok(DeviceKind::Gpu) => ExecClass::Gpu,
            Ok(DeviceKind::Npu) => ExecClass::Npu,
            _ => ExecClass::Cpu,
        }
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
    /// Also refreshes the security-event ledger's gauges: `ledger.evicted`
    /// staying at zero is what licenses the completeness check.
    pub fn recorder(&self) -> FlightRecorder {
        let rec = self.spm.recorder().cloned().unwrap_or_default();
        let ledger = self.spm.ledger();
        rec.gauge_set("ledger.records", &[], ledger.records_total() as i64);
        rec.gauge_set("ledger.evicted", &[], ledger.evicted_total() as i64);
        rec
    }

    /// Virtual time for ledger records appended by the core layer.
    pub(crate) fn ledger_now(&self) -> SimNs {
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
        self.clock_of(e.eid)
    }

    /// `eid`'s current virtual time; zero for an enclave never heard of.
    pub(crate) fn clock_of(&self, eid: Eid) -> SimNs {
        self.enclaves
            .get(&eid)
            .map_or(SimNs::ZERO, |e| e.clock.now())
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
        self.clock_mut(e.eid).advance(d);
    }

    pub(crate) fn clock_mut(&mut self, eid: Eid) -> &mut SimClock {
        &mut self.enclaves.entry(eid).or_default().clock
    }

    /// What spending on `e`'s clock needs, borrowed at once: the cost
    /// model, `e`'s clock and the flight recorder — for a layer that spends
    /// (see [`cronus_obs::spend`]) inside a recorder step of its own.
    pub fn spending(
        &mut self,
        e: EnclaveRef,
    ) -> (&CostModel, &mut SimClock, Option<&FlightRecorder>) {
        let clock = &mut self.enclaves.entry(e.eid).or_default().clock;
        (self.spm.machine().cost(), clock, self.spm.recorder())
    }

    /// Spends `n` operations of `cost` on `payer`'s clock, as one recorder
    /// step (see [`cronus_obs::spend`]). A world switch is a machine event
    /// too, so the `world_switches` counter and the meter count what the
    /// profiler charges. Returns the price.
    pub(crate) fn spend(&mut self, payer: Actor, cost: Cost, n: u64) -> SimNs {
        if cost == Cost::WorldSwitch {
            for _ in 0..n {
                self.spm.machine_mut().record(EventKind::WorldSwitch);
            }
        }
        let clock = match payer {
            Actor::App(app) => self.app_clocks.entry(app).or_default(),
            Actor::Enclave(e) => &mut self.enclaves.entry(e.eid).or_default().clock,
        };
        let cm = self.spm.machine().cost();
        let mut r = self.spm.recorder().map(FlightRecorder::lock);
        spend(cm, Some(clock), r.as_deref_mut(), cost, n)
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
            .route(kind)
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
        let created = self.spm.mos(asid)?.manager().entry(eid);
        let enclave_dh_public = created
            .map_err(|_| SystemError::UnknownEnclave(eid))?
            .dh_public;
        let secret = dh.agree(enclave_dh_public);

        // The creating actor pays: into the secure world and back out.
        let cost = self.spend(actor, Cost::EnclaveCreate, 1)
            + self.spend(actor, Cost::DhExchange, 1)
            + self.spend(actor, Cost::WorldSwitch, 2);
        let start = match actor {
            Actor::App(app) => self.app_time(app),
            Actor::Enclave(parent) => self.clock_of(parent.eid),
        };
        if let Some(rec) = self.spm.recorder() {
            rec.counter_add("enclaves.created", &[("partition", &asid.to_string())], 1);
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
        self.enclaves.insert(
            eid,
            EnclaveState {
                clock: SimClock::at(start),
                owner_secret: Some(*secret.as_bytes()),
                handlers: Vec::new(),
            },
        );
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
        // Reclaim untouched poisoned shares of this enclave's streams.
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
        let (mos, machine) = self.spm.mos_and_machine(e.asid)?;
        mos.destroy_enclave(machine, e.eid)
            .map_err(|err| SystemError::Spm(SpmError::Mos(err)))?;
        self.enclaves.remove(&e.eid);
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
        let handlers = &mut self.enclaves.entry(e.eid).or_default().handlers;
        match handlers.iter_mut().find(|(n, _)| n == name) {
            Some((_, registered)) => *registered = handler,
            None => handlers.push((name.to_string(), handler)),
        }
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
            let manager = self.spm.mos(target.asid)?.manager();
            let entry = manager
                .authorize(target.eid, Owner::App(app.0))
                .map_err(|_| SystemError::NotOwner)?;
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
        // The enclave runs the call, then the app resumes after it, paying
        // the switch in and the switch back out.
        let app_now = self.app_clocks.entry(app).or_default().now();
        let c = self.clock_mut(target.eid);
        c.advance_to(app_now);
        c.advance(exec);
        let done = c.now();
        self.app_clocks.entry(app).or_default().advance_to(done);
        self.spend(Actor::App(app), Cost::WorldSwitch, 2);
        let resumed = self.app_time(app);
        if let Some(rec) = self.spm.recorder() {
            rec.charge_detail(TimeCategory::Kernel, name, exec);
            rec.counter_add("app.ecalls", &[("mcall", name)], 1);
            let track = rec.track(&format!("app:{}", app.0));
            let ecall = rec.begin_span(track, format!("ecall:{name}"), "app", app_now);
            rec.complete_span(track, "exec", "kernel", app_now, done);
            rec.end_span(track, ecall, resumed);
        }
        Ok(result)
    }

    pub(crate) fn run_handler(
        &mut self,
        target: EnclaveRef,
        name: &str,
        payload: &[u8],
    ) -> Result<(Vec<u8>, SimNs), SrpcError> {
        let registered = self
            .enclaves
            .get_mut(&target.eid)
            .and_then(|e| e.handlers.iter_mut().find(|(n, _)| n == name));
        let (_, handler) = registered.ok_or_else(|| SrpcError::NoHandler(name.to_string()))?;
        let mut ctx = ServerCtx {
            spm: &mut self.spm,
            asid: target.asid,
            eid: target.eid,
        };
        handler(&mut ctx, payload).map_err(SrpcError::Handler)
    }

    /// The isolation-audit mapping-state digest, if a digest hook is
    /// installed (see `cronus_audit::install_digest_hook`); zero otherwise.
    pub(crate) fn mapping_digest(&mut self) -> cronus_crypto::Digest {
        // Take/call/restore so the hook can borrow the whole system.
        if let Some(hook) = self.digest_hook.take() {
            let digest = hook(self);
            self.digest_hook = Some(hook);
            digest
        } else {
            cronus_crypto::Digest::ZERO
        }
    }
}

/// The recorder's ambient attribution context, as one phase saves it for the
/// next to restore: the request new spans belong to and the meter scope
/// charges go to (`None`: leave the scope alone).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Ambient {
    pub(crate) req: Option<ReqId>,
    pub(crate) scope: Option<MeterScope>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FaultKind;
    use crate::inject::{ArmedFault, FaultAction, SrpcPhase};
    use crate::reliability::RetryPolicy;
    use crate::ring::CodecError;
    use cronus_mos::manifest::McallDecl;
    use cronus_sim::World;
    use cronus_spm::spm::{DeviceSpec, PartitionSpec};
    use std::sync::{Arc, Mutex};

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
        // The sRPC path has no context-switch site at all; what it could
        // still do is trap to the monitor, and the `world_switches` counter
        // (bumped by every `Machine::record(WorldSwitch)`) shows it does not.
        let switches = |sys: &CronusSystem| {
            sys.recorder()
                .with(|r| r.metrics.counter_total("world_switches"))
        };
        let before = switches(&sys);
        for _ in 0..50 {
            sys.call(stream, "launch").payload(&[1]).start().unwrap();
        }
        sys.sync(stream).unwrap();
        assert_eq!(switches(&sys), before);
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
        assert!(sys.enclaves.contains_key(&cpu.eid));
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
        struct CountIrqs(Arc<Mutex<usize>>);
        impl cronus_sim::EventSink for CountIrqs {
            fn on_event(&mut self, _at: SimNs, kind: &EventKind) {
                if let EventKind::DeviceIrq { count } = kind {
                    *self.0.lock().unwrap() += *count as usize;
                }
            }
        }
        let irqs = Arc::new(Mutex::new(0));
        sys.spm_mut()
            .machine_mut()
            .set_event_sink(Box::new(CountIrqs(irqs.clone())));
        for _ in 0..5 {
            sys.call(stream, "launch").start().unwrap();
        }
        sys.sync(stream).unwrap();
        let irqs = *irqs.lock().unwrap();
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

    /// A zero-copy stream to a `launch` handler that returns nothing and
    /// logs the byte each payload is filled with (`None` for a payload
    /// that is not uniform).
    fn zero_copy_stream(
        sys: &mut CronusSystem,
    ) -> (EnclaveRef, StreamId, Arc<Mutex<Vec<Option<u8>>>>) {
        let (cpu, gpu, _) = setup_pair(sys);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        sys.register_handler(
            gpu,
            "launch",
            Box::new(move |_, p| {
                let uniform = p.iter().all(|b| *b == p[0]);
                log.lock().unwrap().push(uniform.then(|| p[0]));
                Ok((Vec::new(), SimNs::from_micros(50)))
            }),
        );
        let stream = sys.stream(cpu, gpu).zero_copy(256).open().unwrap();
        (cpu, stream, seen)
    }

    #[test]
    fn forged_grant_descriptor_is_corrupt_not_an_abort() {
        let mut sys = CronusSystem::boot(config());
        let (cpu, stream, seen) = zero_copy_stream(&mut sys);
        let page = vec![7u8; 4096];
        sys.call(stream, "launch").payload(&page).start().unwrap();
        // The pending slot holds name_len, payload word, the name, then the
        // grant's offset and len words.
        let descriptor = {
            let s = sys.streams.get(&stream).unwrap();
            let p = s.pending.front().unwrap();
            let slot = s.layout.request_slot(p.lane, p.slot);
            s.caller_va.add(slot + 8 + "launch".len() as u64)
        };
        for (word, forged) in [(8, 1u64 << 40), (0, u64::MAX - 10)] {
            let va = descriptor.add(word);
            let mut genuine = [0u8; 8];
            sys.shared_read(cpu, va, &mut genuine).unwrap();
            sys.shared_write(cpu, va, &forged.to_le_bytes()).unwrap();
            assert_eq!(
                sys.sync(stream).unwrap_err(),
                SrpcError::Codec(CodecError::Corrupt)
            );
            sys.shared_write(cpu, va, &genuine).unwrap();
        }
        // The refused drains consumed nothing: repaired, the request runs.
        sys.sync(stream).unwrap();
        assert_eq!(*seen.lock().unwrap(), [Some(7)]);
    }

    #[test]
    fn payload_larger_than_the_arena_is_refused_up_front() {
        let mut sys = CronusSystem::boot(config());
        let (_, stream, seen) = zero_copy_stream(&mut sys);
        let size = DEFAULT_ARENA_PAGES * 4096 + 1;
        let payload = vec![1u8; size];
        assert_eq!(
            sys.call(stream, "launch")
                .payload(&payload)
                .start()
                .unwrap_err(),
            SrpcError::Codec(CodecError::TooLarge { size })
        );
        let s = sys.streams.get(&stream).unwrap();
        assert_eq!((s.arena.as_ref().unwrap().head, s.backlog()), (0, 0));
        // The stream still works. An idle arena restarts at offset 0 for a
        // grant that cannot fit behind its cursor, and the bytes it skipped
        // are not held against the next grant.
        let page = [9u8; 4096];
        sys.call(stream, "launch").payload(&page).sync().unwrap();
        for blob in [vec![3u8; size - 4001], vec![4u8; 3000]] {
            sys.call(stream, "launch").payload(&blob).start().unwrap();
        }
        sys.sync(stream).unwrap();
        assert_eq!(*seen.lock().unwrap(), [Some(9), Some(3), Some(4)]);
        assert_eq!(sys.stream_stats(stream).unwrap().ring_full_stalls, 0);
    }

    #[test]
    fn in_flight_grants_are_never_overwritten() {
        let mut sys = CronusSystem::boot(config());
        let (_, stream, seen) = zero_copy_stream(&mut sys);
        // 100 grants of 5000 bytes against a 64-page arena: the ring (256
        // slots) admits them all, the arena holds 52 and wastes its tail.
        for i in 0..100u8 {
            let blob = vec![i; 5000];
            sys.call(stream, "launch").payload(&blob).start().unwrap();
        }
        sys.sync(stream).unwrap();
        let intact: Vec<Option<u8>> = (0..100).map(Some).collect();
        assert_eq!(*seen.lock().unwrap(), intact);
        // The producer waited for the arena exactly as for a full ring.
        assert_eq!(sys.stream_stats(stream).unwrap().ring_full_stalls, 48);
    }

    /// Opens two single-lane streams, runs one 50 us launch on each and
    /// returns when each finished.
    fn two_streams(sys: &mut CronusSystem, shared: bool) -> (StreamId, StreamId, SimNs, SimNs) {
        let (cpu, gpu, _) = setup_pair(sys);
        let open = |sys: &mut CronusSystem| {
            let b = sys.stream(cpu, gpu).rings(1);
            if shared { b.shared() } else { b }.open().unwrap()
        };
        let (a, b) = (open(sys), open(sys));
        sys.call(a, "launch").start().unwrap();
        sys.call(b, "launch").start().unwrap();
        sys.sync(a).unwrap();
        sys.sync(b).unwrap();
        let done = |s| sys.executor_time(s).unwrap();
        (a, b, done(a), done(b))
    }

    #[test]
    fn shared_streams_contend_for_the_partition_executor() {
        let kernel = SimNs::from_micros(50);
        let (.., a_done, b_done) = two_streams(&mut CronusSystem::boot(config()), false);
        assert!(b_done - a_done < kernel, "own executors overlap");
        let mut sys = CronusSystem::boot(config());
        let (a, b, a_done, b_done) = two_streams(&mut sys, true);
        assert!(b_done - a_done >= kernel, "one worker runs them in turn");

        // A stall injected on one shared stream delays its co-tenant too.
        let stall = SimNs::from_millis(3);
        sys.arm_fault(ArmedFault {
            phase: SrpcPhase::Dispatch,
            action: FaultAction::DelayCompletion(stall),
            stream: Some(a),
        });
        sys.call(a, "launch").start().unwrap();
        sys.call(b, "launch").start().unwrap();
        sys.sync(a).unwrap();
        sys.sync(b).unwrap();
        assert!(sys.executor_time(b).unwrap() - b_done >= stall);
    }
}
