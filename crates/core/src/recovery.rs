//! Failure handling: `impl CronusSystem` for everything that runs when
//! something breaks, or is made to.
//!
//! * **Proceed-trap conversion** (§IV-D step 3): a stage-2 fault on shared
//!   memory becomes [`SrpcError::PeerFailed`] for the survivor, and the
//!   stream it struck is quarantined.
//! * **Failover**: injecting a partition failure and recovering from it.
//! * **The stall watchdog**, keyed off the virtual clock.
//! * **Fault injection**: the six pipeline hooks of [`crate::inject`] and
//!   what each [`FaultAction`] does to the simulated machine.

use cronus_mos::manifest::Eid;
use cronus_mos::mos::MosError;
use cronus_obs::{MeterScope, Principal};
use cronus_sim::machine::AsId;
use cronus_sim::trace::EventKind;
use cronus_sim::{Fault, PhysAddr, SimNs, SimRng, World, PAGE_SIZE};
use cronus_spm::spm::RecoveryStats;

use crate::executor::executor_of;
use crate::inject::{ArmedFault, FaultAction, FiredFault, SrpcPhase};
use crate::reliability::StallWarning;
use crate::ring::{RESULT_SLOT_SIZE, SLOT_SIZE};
use crate::srpc::{SrpcError, StreamId};
use crate::system::{CronusSystem, SystemError};

impl CronusSystem {
    /// Converts a stage-2 fault on a shared-memory access into the
    /// proceed-trap failure signal of §IV-D step 3 (when it applies; any
    /// other error passes through).
    pub(crate) fn trap_convert(
        &mut self,
        survivor: AsId,
        fallback_eid: Eid,
        err: SrpcError,
    ) -> SrpcError {
        let SrpcError::Mos(err) = err else { return err };
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
    /// failure signal, closing the stream. Errors other than a mOS fault
    /// pass through unchanged.
    ///
    /// `accessor` is the partition whose access raised `err`. When the
    /// accessor's *own* partition is the dead one (the executor died
    /// mid-dispatch), the other end of the stream is the survivor: the
    /// failure signal is delivered to it instead, exactly as its next ring
    /// access would have trapped.
    pub(crate) fn stream_fault(
        &mut self,
        id: StreamId,
        accessor: AsId,
        err: SrpcError,
    ) -> SrpcError {
        let SrpcError::Mos(err) = err else { return err };
        // The stream's ends, and which of them is not the accessor.
        let ends = self.streams.get(&id).map(|s| (s.caller, s.callee, s.share));
        let survivor = ends.map(
            |(caller, callee, _)| {
                if caller.0 == accessor {
                    callee
                } else {
                    caller
                }
            },
        );
        let fallback = ends.map_or(Eid::NONE, |e| e.0 .1);
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
            let ring_page = ends.and_then(|(_, _, share)| {
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
            self.trap_convert(accessor, fallback, SrpcError::Mos(err))
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
            let chain = survivor.map_or(accessor, |sv| sv.0);
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

    /// The deadlock/stall watchdog, keyed off the virtual clock: reports
    /// every open stream with backlog whose executor clock trails the
    /// caller's clock by more than `bound`. A healthy pipeline drains at
    /// sync points; a stream that accumulates lag beyond the bound means
    /// the executor is wedged (or was delayed by an injected fault).
    pub fn check_stalls(&self, bound: SimNs) -> Vec<StallWarning> {
        // In stream-id order, like the table.
        let warnings: Vec<StallWarning> = self
            .streams
            .values()
            .filter(|s| s.open && s.backlog() > 0)
            .filter_map(|s| {
                let lag = self.clock_of(s.caller.1).saturating_sub(s.frontier);
                (lag > bound).then_some(StallWarning {
                    stream: s.id,
                    backlog: s.backlog(),
                    stalled_for: lag,
                })
            })
            .collect();
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

    /// Arms a fault against the sRPC pipeline. At most one fault is armed
    /// at a time (a campaign scenario arms exactly one); arming replaces
    /// and returns any previously armed fault. The fault fires — once —
    /// when the pipeline next reaches its phase on a matching stream.
    pub fn arm_fault(&mut self, fault: ArmedFault) -> Option<ArmedFault> {
        self.injector.armed.replace(fault)
    }

    /// Faults that actually fired, in firing order.
    pub fn fired_faults(&self) -> &[FiredFault] {
        &self.injector.fired
    }

    /// One of the six pipeline hooks: fires the armed fault if it matches
    /// `phase` on `id`. The action mutates simulated machine state and lets
    /// the *normal* pipeline surface the resulting typed fault — the
    /// injector itself never fabricates errors.
    pub(crate) fn injection_point(
        &mut self,
        id: StreamId,
        phase: SrpcPhase,
        lane: usize,
        slot_index: u64,
    ) {
        let Some(armed) = self.injector.take_matching(phase, id) else {
            return;
        };
        let caller = self.streams.get(&id).map(|s| s.caller.1);
        let at = caller.map_or(SimNs::ZERO, |eid| self.clock_of(eid));
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
                self.scribble_ring(share, off, SLOT_SIZE, Some(seed));
            }
            FaultAction::CorruptResultSlot { seed } => {
                let off = layout.result_slot(lane, slot_index);
                self.scribble_ring(share, off, RESULT_SLOT_SIZE, Some(seed));
            }
            FaultAction::ZeroRequestSlot => {
                let off = layout.request_slot(lane, slot_index);
                self.scribble_ring(share, off, SLOT_SIZE, None);
            }
            FaultAction::ZeroResultSlot => {
                let off = layout.result_slot(lane, slot_index);
                self.scribble_ring(share, off, RESULT_SLOT_SIZE, None);
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
                    // A stalled executor stalls every worker at once, and
                    // the stream's completion frontier with them.
                    if let Some(executor) = executor_of(s, &mut self.partition_executors) {
                        executor.stall(d);
                    }
                    s.frontier += d;
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
            let Some(bytes) = data.get(idx..idx + chunk) else {
                return;
            };
            let pa = PhysAddr::from_page_number(*ppn).add(in_page);
            let _ = self.spm.machine_mut().phys_write(World::Secure, pa, bytes);
            pos += chunk as u64;
            idx += chunk;
        }
    }
}
