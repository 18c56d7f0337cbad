//! The sRPC transport: `impl CronusSystem` for opening, driving and closing
//! streams (§IV-C).
//!
//! The caller side appends requests to a lane's ring ([`CronusSystem::call`]
//! → enqueue) and pays only the enqueue cost; the executor side drains the
//! stream FIFO head first, running each request's handler and handing its
//! cost to the stream's executor (`executor.rs`); [`CronusSystem::sync`] and
//! synchronous calls merge the caller's clock with the executor's progress.
//! Every access to ring or arena memory goes through
//! [`CronusSystem::ring_read`] / [`CronusSystem::ring_write`], whose faults
//! [`CronusSystem::stream_fault`] turns into the proceed-trap failure signal,
//! and every telemetry
//! record through [`CronusSystem::observe`], one locked recorder step per
//! phase.

use std::collections::VecDeque;

use cronus_crypto::hmac::hmac_sha256;
use cronus_mos::manager::Owner;
use cronus_mos::manifest::{Eid, McallDecl};
use cronus_obs::{ExecClass, MeterScope, Principal, RecorderInner, ReqId, TimeCategory, WorkerId};
use cronus_sim::machine::AsId;
use cronus_sim::trace::EventKind;
use cronus_sim::{SimNs, VirtAddr, PAGE_SIZE};
use cronus_spm::attest::LocalAttestation;
use cronus_spm::spm::Spm;

use crate::call::Call;
use crate::error::{CronusError, FaultKind};
use crate::executor::{executor_of, Executor};
use crate::inject::SrpcPhase;
use crate::reliability::{retryable, RetryPolicy};
use crate::ring::{
    decode_result, encode_grant_slot, encode_request_slot, encode_result_slot, view_slot,
    CodecError, GrantRef, ResultStatus, SlotView, CLOSED_OFFSET, DCHECK_OFFSET, RESULT_SLOT_SIZE,
    SLOT_SIZE,
};
use crate::srpc::{
    GrantArena, LaneState, PendingRequest, SrpcError, StreamId, StreamState, StreamStats,
};
use crate::stream::{StreamBuilder, StreamConfig};
use crate::stream_obs::{self, StreamObs};
use crate::system::{Ambient, CronusSystem, EnclaveRef, DEFAULT_ARENA_PAGES, DEFAULT_STREAM_LANES};

impl CronusSystem {
    /// Meter scope for caller-side work on a stream (enqueue, sync,
    /// retries): CPU time of the caller partition.
    fn caller_scope(&self, id: StreamId) -> Option<MeterScope> {
        let s = self.streams.get(&id)?;
        Some(s.meter_scope(ExecClass::Cpu))
    }

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

        let secret = self
            .enclaves
            .get(&callee.eid)
            .and_then(|e| e.owner_secret)
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
            let mut init = |offset: u64, bytes: &[u8]| {
                mos.enclave_write(machine, callee.eid, callee_va.add(offset), bytes)
                    .map_err(SrpcError::Mos)
            };
            init(DCHECK_OFFSET, dcheck.as_bytes())?;
            // Initialize every lane's shared indices.
            for lane in 0..layout.lanes {
                init(layout.rid_offset(lane), &0u64.to_le_bytes())?;
                init(layout.sid_offset(lane), &0u64.to_le_bytes())?;
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
                let (a_share, a_caller_va, a_callee_va) = self.spm.share_memory(
                    (caller.asid, caller.eid),
                    (callee.asid, callee.eid),
                    DEFAULT_ARENA_PAGES,
                )?;
                Some(GrantArena {
                    threshold,
                    share: a_share,
                    caller_va: a_caller_va,
                    callee_va: a_callee_va,
                    bytes: DEFAULT_ARENA_PAGES as u64 * PAGE_SIZE,
                    head: 0,
                    tail: 0,
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

        // A default stream brings its own executor, one worker per lane; a
        // `.shared()` stream joins its callee partition's, widened to the
        // widest such stream so a lone stream keeps its lane parallelism
        // while co-tenants contend for the same workers.
        let executor = if cfg.shared {
            let pool = WorkerId::pool(callee.asid.as_u32(), 0);
            self.partition_executors
                .entry(callee.asid)
                .or_insert_with(|| Executor::new(pool, 0, opened))
                .widen(layout.lanes, opened);
            None
        } else {
            Some(Executor::new(WorkerId::lane(id.0, 0), layout.lanes, opened))
        };
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
                lanes: (0..layout.lanes).map(|_| LaneState::default()).collect(),
                pending: VecDeque::new(),
                next_seq: 0,
                executed: 0,
                doorbell_pending: false,
                arena,
                open: true,
                quarantined: false,
                deadline: cfg.deadline,
                executor,
                class: self.exec_class_of(callee.asid),
                frontier: opened,
                stats: StreamStats::default(),
                obs,
            },
        );
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
        self.stream_mut(id)?.deadline = deadline;
        Ok(())
    }

    /// Physical pages backing a stream's ring (diagnostics and security
    /// tests that inspect raw memory through the monitor).
    ///
    /// # Errors
    ///
    /// [`SrpcError::UnknownStream`].
    pub fn stream_share_pages(&self, id: StreamId) -> Result<Vec<u64>, SrpcError> {
        let share = self.stream_ref(id)?.share;
        Ok(self.spm.share_pages(share)?.to_vec())
    }

    /// Stream statistics.
    ///
    /// # Errors
    ///
    /// [`SrpcError::UnknownStream`].
    pub fn stream_stats(&self, id: StreamId) -> Result<StreamStats, SrpcError> {
        Ok(self.stream_ref(id)?.stats)
    }

    /// Read-only views of every stream (open, closed or quarantined), in
    /// stream-id order — used by the isolation auditor to tie share grants
    /// back to the sRPC endpoints that justify them.
    pub fn stream_states(&self) -> Vec<&StreamState> {
        self.streams.values().collect()
    }

    /// The stream's completion frontier: the virtual time its executor has
    /// finished everything drained so far.
    ///
    /// # Errors
    ///
    /// [`SrpcError::UnknownStream`].
    pub fn executor_time(&self, id: StreamId) -> Result<SimNs, SrpcError> {
        Ok(self.stream_ref(id)?.frontier)
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
        va: VirtAddr,
        data: &[u8],
    ) -> Result<(), SrpcError> {
        self.ring_write((e.asid, e.eid), va, data)
            .map_err(|err| self.trap_convert(e.asid, e.eid, err))
    }

    /// Reads from an enclave's (shared) memory; see [`CronusSystem::shared_write`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`CronusSystem::shared_write`].
    pub fn shared_read(
        &mut self,
        e: EnclaveRef,
        va: VirtAddr,
        buf: &mut [u8],
    ) -> Result<(), SrpcError> {
        self.ring_read((e.asid, e.eid), va, buf)
            .map_err(|err| self.trap_convert(e.asid, e.eid, err))
    }

    fn stream_ref(&self, id: StreamId) -> Result<&StreamState, SrpcError> {
        self.streams.get(&id).ok_or(SrpcError::UnknownStream(id))
    }

    /// `name`'s declaration in the static mECall list of `s`'s callee.
    fn mecall_decl(&self, s: &StreamState, name: &str) -> Result<&McallDecl, SrpcError> {
        let callee = self.spm.mos(s.callee.0)?.manager().entry(s.callee.1);
        let manifest = &callee.map_err(|_| SrpcError::Closed)?.manifest;
        manifest
            .mecall(name)
            .ok_or_else(|| SrpcError::UnknownMcall(name.to_string()))
    }

    fn stream_mut(&mut self, id: StreamId) -> Result<&mut StreamState, SrpcError> {
        self.streams
            .get_mut(&id)
            .ok_or(SrpcError::UnknownStream(id))
    }

    /// Reads shared (ring, arena, staging) memory through the mapping of
    /// `side`, one endpoint enclave. A fault comes back as a raw
    /// [`SrpcError::Mos`] for the caller to convert — a stream access hands
    /// it to [`CronusSystem::stream_fault`] with the stream it struck.
    /// Payload bytes and what the fault path ledgers so never share an
    /// argument list, and the taint lint can keep telling them apart.
    fn ring_read(
        &mut self,
        side: (AsId, Eid),
        va: VirtAddr,
        buf: &mut [u8],
    ) -> Result<(), SrpcError> {
        let (mos, machine) = self.spm.mos_and_machine(side.0)?;
        mos.enclave_read(machine, side.1, va, buf)
            .map_err(SrpcError::Mos)
    }

    /// The write half of [`CronusSystem::ring_read`].
    fn ring_write(
        &mut self,
        side: (AsId, Eid),
        va: VirtAddr,
        data: &[u8],
    ) -> Result<(), SrpcError> {
        let (mos, machine) = self.spm.mos_and_machine(side.0)?;
        mos.enclave_write(machine, side.1, va, data)
            .map_err(SrpcError::Mos)
    }

    /// Reports one sRPC phase of stream `id`: runs `f` as one locked
    /// recorder step over the stream's resolved telemetry handles. This is
    /// the transport's only way into the flight recorder.
    fn observe(&mut self, id: StreamId, f: impl FnOnce(&mut RecorderInner, &mut StreamObs)) {
        if let Some(s) = self.streams.get_mut(&id) {
            Self::observe_stream(&self.spm, s, f);
        }
    }

    /// [`CronusSystem::observe`] for a stream already in hand (or already
    /// out of the table).
    fn observe_stream<R>(
        spm: &Spm,
        s: &mut StreamState,
        f: impl FnOnce(&mut RecorderInner, &mut StreamObs) -> R,
    ) -> Option<R> {
        let (rec, obs) = (spm.recorder()?, s.obs.as_mut()?);
        Some(rec.with(|r| f(r, obs)))
    }

    /// Bounded-buffer backpressure: the producer waits (not a full
    /// synchronization) until the executor has run the stream head, which
    /// frees that request's ring slot and retires its arena grant. Returns
    /// the lane of the freed slot.
    fn await_head(&mut self, id: StreamId) -> Result<usize, SrpcError> {
        let drained = self.drain_one(id)?.ok_or(SrpcError::UnknownStream(id))?;
        let s = self.stream_mut(id)?;
        s.stats.ring_full_stalls += 1;
        let caller_eid = s.caller.1;
        // The slot frees the moment its request finishes executing.
        self.clock_mut(caller_eid).advance_to(drained.finished);
        self.observe(id, |r, obs| {
            obs.ring_full(r, drained.lane, drained.finished)
        });
        Ok(drained.lane)
    }

    /// Allocates `len` bytes of the stream's grant arena, waiting out
    /// in-flight grants whose bytes the arena cannot reuse yet. Returns the
    /// caller-side address of the bytes and their descriptor.
    fn grant(&mut self, id: StreamId, len: u64) -> Result<(VirtAddr, GrantRef), SrpcError> {
        loop {
            let s = self.stream_mut(id)?;
            let placed = s
                .arena
                .as_mut()
                .and_then(|a| a.alloc(len).map(|offset| (a.caller_va.add(offset), offset)));
            if let Some((va, offset)) = placed {
                s.stats.zero_copy_grants += 1;
                s.stats.zero_copy_bytes += len;
                return Ok((va, GrantRef { offset, len }));
            }
            self.await_head(id)?;
        }
    }

    /// Enqueues a request into the ring on the caller side, recording it
    /// under `req` for causal tracing. Returns the lane and the lane-local
    /// slot index it was written at.
    fn enqueue(
        &mut self,
        id: StreamId,
        name: &str,
        payload: &[u8],
        req: ReqId,
    ) -> Result<(usize, u64), SrpcError> {
        // Validate against the callee's static mECall list.
        let (grant_len, vacant) = {
            let s = self.stream_ref(id)?;
            if s.quarantined {
                return Err(SrpcError::Quarantined(id));
            }
            if !s.open {
                return Err(SrpcError::Closed);
            }
            self.mecall_decl(s, name)?;
            // Zero-copy grant: payloads at or above the stream's threshold
            // travel through the arena; the ring slot carries only a
            // descriptor. A grant is contiguous, so one the whole arena
            // cannot hold is refused before anything changes.
            let grant_len = match &s.arena {
                Some(a) if payload.len() >= a.threshold => {
                    if payload.len() as u64 > a.bytes {
                        let size = payload.len();
                        return Err(CodecError::TooLarge { size }.into());
                    }
                    Some(payload.len() as u64)
                }
                _ => None,
            };
            // Pick the least-backlogged lane, if it has a free slot.
            let lane = s.least_loaded_lane();
            let full = |l: &LaneState| s.layout.lane_full(l.rid, l.sid);
            (
                grant_len,
                s.lanes.get(lane).filter(|l| !full(l)).map(|_| lane),
            )
        };
        // If even the least-backlogged lane is full, every lane is full: the
        // producer waits for the executor to free one slot, then re-targets
        // the freed lane.
        let lane_idx = match vacant {
            Some(lane) => lane,
            None => self.await_head(id)?,
        };
        let (caller, caller_va, lane_rid, slot_off, rid_off) = {
            let s = self.stream_ref(id)?;
            let rid = s.lane(lane_idx)?.rid;
            (
                s.caller,
                s.caller_va,
                rid,
                s.layout.request_slot(lane_idx, rid),
                s.layout.rid_offset(lane_idx),
            )
        };

        // The arena pages are already granted (mapped at open through the
        // share ledger), so a grant costs page bookkeeping, not a per-byte
        // copy.
        let mut grant_cost = SimNs::ZERO;
        let slot = if let Some(len) = grant_len {
            let (va, grant) = self.grant(id, len)?;
            self.ring_write(caller, va, payload)
                .map_err(|e| self.stream_fault(id, caller.0, e))?;
            let pages_spanned =
                (grant.offset + grant.len).div_ceil(PAGE_SIZE) - grant.offset / PAGE_SIZE;
            grant_cost = self.spm.machine().cost().page_map * pages_spanned;
            self.observe(id, |r, obs| obs.granted(r, grant.len));
            encode_grant_slot(name, grant)?
        } else {
            encode_request_slot(name, payload)?
        };
        self.injection_point(id, SrpcPhase::Enqueue, lane_idx, lane_rid);
        self.ring_write(caller, caller_va.add(slot_off), &slot)
            .map_err(|e| self.stream_fault(id, caller.0, e))?;
        let bumped = (lane_rid + 1).to_le_bytes();
        self.ring_write(caller, caller_va.add(rid_off), &bumped)
            .map_err(|e| self.stream_fault(id, caller.0, e))?;
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
        let s = self
            .streams
            .get_mut(&id)
            .ok_or(SrpcError::UnknownStream(id))?;
        s.lane_mut(lane_idx)?.rid += 1;
        let seq = s.next_seq;
        s.next_seq += 1;
        if s.doorbell_pending {
            s.stats.doorbells_coalesced += 1;
        } else {
            s.doorbell_pending = true;
            s.stats.doorbells_rung += 1;
        }
        s.stats.calls += 1;
        s.stats.request_bytes += payload.len() as u64;
        let enqueued = stream_obs::Enqueued {
            lane: lane_idx,
            now,
            enqueue_cost,
            doorbell_cost,
            occupancy: s.backlog() as i64,
        };
        let call = Self::observe_stream(&self.spm, s, |r, obs| obs.enqueued(r, name, enqueued));
        s.pending.push_back(PendingRequest {
            lane: lane_idx,
            slot: lane_rid,
            seq,
            enqueued_at: now,
            req,
            arena_mark: s.arena.as_ref().map_or(0, |a| a.head),
            call,
        });
        Ok((lane_idx, lane_rid))
    }

    /// Executes the oldest pending request, if any. Returns the lane it
    /// occupied and the virtual time its execution finished.
    ///
    /// Re-establishes the drained request's id as the ambient request for
    /// the duration of the dispatch, so handler-side spans (device DMA,
    /// kernels, recovery on a trap) are attributed to the request that
    /// caused them; the previous ambient request is restored afterwards.
    fn drain_one(&mut self, id: StreamId) -> Result<Option<Drained>, SrpcError> {
        let s = self.stream_ref(id)?;
        let Some(req) = s.pending.front().map(|p| p.req) else {
            return Ok(None);
        };
        // Executor-side costs (dequeue, kernel, result write) are metered
        // under the callee's executor class, so a GPU partition's SM time
        // lands in the caller's `sm_ns` ledger.
        let scope = Some(s.meter_scope(s.class));
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

        // Fetch + decode the request on the callee side, in place: the
        // name and an inline payload are read out of the slot copy.
        let mut slot = [0u8; SLOT_SIZE];
        self.ring_read(callee, callee_va.add(slot_off), &mut slot)
            .map_err(|e| self.stream_fault(id, callee.0, e))?;
        let mut granted;
        let (name, payload) = match view_slot(&slot)? {
            SlotView::Inline { name, payload } => (name, payload),
            SlotView::Grant { name, grant } => {
                // Resolve the grant from the arena on the callee side: the
                // pages are already in the callee's stage-1, so this is the
                // zero-copy read the descriptor promised. The descriptor
                // came out of shared memory: it must lie inside the arena
                // before a buffer is sized from it.
                let within = |a: &&GrantArena| {
                    let end = grant.offset.checked_add(grant.len);
                    end.is_some_and(|end| end <= a.bytes)
                };
                let arena_va = self
                    .stream_ref(id)?
                    .arena
                    .as_ref()
                    .filter(within)
                    .map(|a| a.callee_va)
                    .ok_or(CodecError::Corrupt)?;
                granted = vec![0u8; grant.len as usize];
                self.ring_read(callee, arena_va.add(grant.offset), &mut granted)
                    .map_err(|e| self.stream_fault(id, callee.0, e))?;
                (name, granted.as_slice())
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
        let outcome = self.run_handler(target, name, payload);
        self.injection_point(id, SrpcPhase::Kernel, lane_idx, slot_idx);
        let exec_time = handler_time(&outcome);
        let (status, result_bytes) = match outcome {
            Ok((bytes, _)) => (ResultStatus::Ok, bytes),
            Err(SrpcError::NoHandler(n)) => {
                // NoHandler crosses the ring under its own kind tag so
                // the caller can reconstruct `SrpcError::NoHandler`.
                let mut wire = vec![FaultKind::NoHandler.as_tag()];
                wire.extend_from_slice(n.as_bytes());
                (ResultStatus::Err, wire)
            }
            Err(SrpcError::Handler(e)) => (ResultStatus::Err, e.encode_wire()),
            Err(other) => return Err(other),
        };

        // Write the result and bump the lane's Sid.
        let encoded = encode_result_slot(status, &result_bytes)?;
        let (result_off, sid_off, lane_sid) = {
            let s = self.stream_ref(id)?;
            (
                s.layout.result_slot(lane_idx, slot_idx),
                s.layout.sid_offset(lane_idx),
                s.lane(lane_idx)?.sid,
            )
        };
        self.ring_write(callee, callee_va.add(result_off), &encoded)
            .map_err(|e| self.stream_fault(id, callee.0, e))?;
        let bumped = (lane_sid + 1).to_le_bytes();
        self.ring_write(callee, callee_va.add(sid_off), &bumped)
            .map_err(|e| self.stream_fault(id, callee.0, e))?;
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
            ref mut partition_executors,
            ..
        } = *self;
        let s = streams.get_mut(&id).ok_or(SrpcError::UnknownStream(id))?;
        let Some(pending) = s.pending.pop_front() else {
            return Ok(None);
        };
        let enq_t = pending.enqueued_at;
        // The earliest-free worker of the stream's executor takes the stream
        // head, whichever lane's ring holds it — one slow lane never
        // serializes the stream — and starts it once both are ready; the
        // gap from enqueue is the dispatch latency.
        let (worker, started, finished) = executor_of(s, partition_executors)
            .ok_or(SrpcError::UnknownStream(id))?
            .dispatch(enq_t, dequeue_cost + exec_time);
        // A lane worker running another lane's request stole it; a
        // partition executor's workers have no lane of their own.
        if !worker.shared && worker.index as usize != lane_idx {
            s.stats.steals += 1;
        }
        s.frontier = s.frontier.max(finished);
        if let Some(arena) = &mut s.arena {
            arena.tail = pending.arena_mark;
        }
        s.lane_mut(lane_idx)?.sid += 1;
        s.executed += 1;
        if s.pending.is_empty() {
            // The batch is fully drained; the next enqueue rings again.
            s.doorbell_pending = false;
        }
        s.stats.result_bytes += result_bytes.len() as u64;
        let drained = stream_obs::Drained {
            lane: lane_idx,
            enqueued_at: enq_t,
            started,
            finished,
            dequeue_cost,
            exec_time,
            worker,
            occupancy: s.backlog() as i64,
        };
        if let Some(call) = pending.call {
            Self::observe_stream(&self.spm, s, |r, obs| obs.drained(r, call, drained));
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
    pub fn call<'a>(&'a mut self, id: StreamId, name: &'a str) -> Call<'a> {
        Call {
            sys: self,
            stream: id,
            name,
            payload: &[],
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
        result.map(|_| req)
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
        if !self.mecall_decl(self.stream_ref(id)?, name)?.idempotent {
            return Err(SrpcError::NotIdempotent {
                mecall: name.to_string(),
            });
        }

        let attempts = policy.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            let backoff = policy.backoff_before(attempt);
            if backoff > SimNs::ZERO {
                let caller_eid = self.stream_ref(id)?.caller.1;
                self.clock_mut(caller_eid).advance(backoff);
                self.observe(id, |r, obs| obs.backed_off(r, backoff));
            }
            // The first attempt runs under the caller's request id, when it
            // brought one; every other attempt is a request of its own.
            let attempt_req = if attempt == 0 { req } else { None };
            match self.call_sync_attempt(id, name, payload, attempt_req, deadline) {
                Err(e) if retryable(&e) && attempt + 1 < attempts => {
                    self.observe(id, |r, obs| obs.retried(r, name));
                }
                done => return done,
            }
            attempt += 1;
        }
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
        // Our call entered the stream FIFO last; remember which lane slot
        // it landed in so the result read targets the right ring.
        let (result_lane, result_slot) = self.enqueue(id, name, payload, req)?;
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
        self.observe(id, |r, obs| obs.call_completed(r, name, wakeup, woke));

        // Deadline enforcement on the virtual clock: the per-call override
        // wins over the stream default.
        if let Some(deadline) = deadline_override.or(stream_deadline) {
            let elapsed = woke.saturating_sub(started);
            if elapsed > deadline {
                self.observe(id, |r, obs| obs.timed_out(r, name));
                return Err(SrpcError::Timeout {
                    mecall: name.to_string(),
                    deadline,
                    elapsed,
                });
            }
        }

        self.injection_point(id, SrpcPhase::SyncWakeup, result_lane, result_slot);

        let mut slot = [0u8; RESULT_SLOT_SIZE];
        self.ring_read(caller, caller_va.add(result_off), &mut slot)
            .map_err(|e| self.stream_fault(id, caller.0, e))?;
        let (status, result) = decode_result(&slot)?;
        self.stream_mut(id)?.stats.sync_calls += 1;
        match status {
            ResultStatus::Ok => Ok(result),
            ResultStatus::Err => Err(decode_wire_error(&result)),
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
        // The executor loop: dispatch order is global enqueue order;
        // execution overlaps across the executor's workers.
        while self.drain_one(id)?.is_some() {}
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
            let (rid_off, sid_off, cached) = {
                let s = self.stream_ref(id)?;
                let Some(l) = s.lanes.get(lane) else { break };
                let (rid_off, sid_off) = (s.layout.rid_offset(lane), s.layout.sid_offset(lane));
                (rid_off, sid_off, (l.rid, l.sid))
            };
            let mut rid_buf = [0u8; 8];
            let mut sid_buf = [0u8; 8];
            self.ring_read(caller, caller_va.add(rid_off), &mut rid_buf)
                .map_err(|e| self.stream_fault(id, caller.0, e))?;
            self.ring_read(caller, caller_va.add(sid_off), &mut sid_buf)
                .map_err(|e| self.stream_fault(id, caller.0, e))?;
            let shared = (u64::from_le_bytes(rid_buf), u64::from_le_bytes(sid_buf));
            if shared.0 != shared.1 || shared != cached {
                self.observe(id, |r, obs| obs.check_failed(r));
                return Err(SrpcError::StreamCheckFailed {
                    stream: id,
                    rid: shared.0,
                    sid: shared.1,
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
        self.observe(id, |r, obs| obs.synced(r, wakeup));
        self.stream_mut(id)?.stats.sync_points += 1;
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
        let mut s = self
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
        // The old rings are abandoned along with any requests still queued
        // on them (a faulted drain can leave one behind without going
        // through quarantine).
        Self::observe_stream(&self.spm, &mut s, |r, obs| obs.reopened(r, at));
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

/// The modeled execution time of a handler outcome (zero for a failed
/// one): the time half of what the callee computed from the payload, as
/// `public()` is the public half of a key pair. It is observable by design —
/// the caller's clock, and the normal world's with it, moves to the call's
/// completion — and timing channels are outside the threat model (§III-B),
/// so the lint declassifies it here and the result bytes stay secret.
fn handler_time(outcome: &Result<(Vec<u8>, SimNs), SrpcError>) -> SimNs {
    outcome.as_ref().map_or(SimNs::ZERO, |(_, t)| *t)
}
