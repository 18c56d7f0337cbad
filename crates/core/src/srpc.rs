//! sRPC stream state and errors.
//!
//! A stream connects one caller mEnclave to one callee mEnclave through
//! trusted shared-memory rings (§IV-C). The caller continuously appends
//! requests (bumping a lane's `Rid`) without waiting; executor workers in
//! the callee drain them (bumping `Sid`); the caller only synchronizes when
//! it needs data or ordering. Virtual time models this with clocks: the
//! caller's enclave clock advances by enqueue costs only, the executor's
//! worker clocks (`executor.rs`) advance by dequeue + execution
//! costs, and synchronization points merge them with `max` — which is
//! precisely why sRPC beats lock-step RPC.
//!
//! A stream owns `lanes` independent ring pairs
//! ([`crate::ring::MultiRingLayout`]) while dispatch order still follows
//! global enqueue order ([`StreamState::pending`] is the stream-FIFO work
//! list). Payloads at or above the stream's zero-copy threshold skip the
//! ring slots and travel through a [`GrantArena`] mapped into both
//! endpoints' stage-1.
//!
//! The protocol driver is [`crate::transport`].

use std::collections::VecDeque;
use std::fmt;

use cronus_mos::manifest::Eid;
use cronus_mos::mos::MosError;
use cronus_obs::{ExecClass, MeterScope, Principal, ReqId};
use cronus_sim::addr::VirtAddr;
use cronus_sim::machine::AsId;
use cronus_sim::SimNs;
use cronus_spm::spm::{ShareHandle, SpmError};

use crate::error::CronusError;
use crate::executor::Executor;
use crate::ring::{CodecError, MultiRingLayout};
use crate::stream_obs::{CallObs, StreamObs};

/// Handle to an open sRPC stream.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StreamId(pub(crate) u64);

impl StreamId {
    /// Returns the raw stream number (stable within one boot; used by the
    /// isolation auditor and reports).
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

/// Errors raised by sRPC operations.
#[derive(Clone, Debug, PartialEq)]
pub enum SrpcError {
    /// The peer's partition failed; the proceed-trap protocol delivered a
    /// failure signal to the surviving enclave (§IV-D step 3). The stream
    /// is dead; sRPC "automatically clears state when getting the signal".
    PeerFailed {
        /// The enclave that received the signal.
        signalled: Eid,
    },
    /// The stream was closed.
    Closed,
    /// The mECall name is not in the callee's static mECall list.
    UnknownMcall(String),
    /// The caller does not own the callee ("only the owner can invoke
    /// mECall of the created mEnclave").
    NotOwner,
    /// dCheck failed during establishment: the far side of the shared
    /// memory is not the authenticated peer.
    DcheckFailed,
    /// Local attestation of the callee failed.
    AttestationFailed,
    /// Slot encoding/decoding failure.
    Codec(CodecError),
    /// The handler reported a typed error. On the caller side of a ring
    /// this is always [`CronusError::Remote`] (the typed payload cannot
    /// cross the serialized trust boundary intact); match on
    /// [`CronusError::kind`] for classification.
    Handler(CronusError),
    /// No handler registered for a declared mECall (runtime not loaded).
    NoHandler(String),
    /// Underlying mOS error that is not a peer failure.
    Mos(MosError),
    /// Underlying SPM error.
    Spm(SpmError),
    /// Unknown stream id.
    UnknownStream(StreamId),
    /// A synchronous call missed its deadline on the virtual clock.
    Timeout {
        /// The mECall that timed out.
        mecall: String,
        /// The deadline that applied (per-call or per-stream).
        deadline: SimNs,
        /// Modeled time the call actually took.
        elapsed: SimNs,
    },
    /// streamCheck failed: after a full drain the shared `Sid` word must
    /// equal the shared `Rid` word and both must match the caller's cached
    /// indices. A mismatch means the ring header was corrupted or the
    /// executor diverged (§IV-C integrity checking).
    StreamCheckFailed {
        /// The stream whose check failed.
        stream: StreamId,
        /// Shared producer index as read back from the ring.
        rid: u64,
        /// Shared consumer index as read back from the ring.
        sid: u64,
    },
    /// The stream was quarantined after a peer failure; re-open it against
    /// a recovered partition with `stream(..).reopen(old)` before issuing
    /// calls.
    Quarantined(StreamId),
    /// A retry policy was supplied but the mECall is not declared
    /// idempotent in the callee's manifest, so replay is unsafe.
    NotIdempotent {
        /// The offending mECall.
        mecall: String,
    },
}

impl fmt::Display for SrpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SrpcError::PeerFailed { signalled } => {
                write!(
                    f,
                    "peer partition failed; {signalled} received failure signal"
                )
            }
            SrpcError::Closed => f.write_str("stream is closed"),
            SrpcError::UnknownMcall(name) => {
                write!(f, "mecall {name:?} is not in the callee's mecall list")
            }
            SrpcError::NotOwner => f.write_str("caller is not the owner of the callee"),
            SrpcError::DcheckFailed => f.write_str("dcheck failed: shared memory peer mismatch"),
            SrpcError::AttestationFailed => f.write_str("local attestation failed"),
            SrpcError::Codec(e) => write!(f, "codec: {e}"),
            SrpcError::Handler(e) => write!(f, "handler failed: {e}"),
            SrpcError::NoHandler(name) => write!(f, "no handler registered for {name:?}"),
            SrpcError::Mos(e) => write!(f, "mos: {e}"),
            SrpcError::Spm(e) => write!(f, "spm: {e}"),
            SrpcError::UnknownStream(id) => write!(f, "unknown stream {id:?}"),
            SrpcError::Timeout {
                mecall,
                deadline,
                elapsed,
            } => write!(
                f,
                "mecall {mecall:?} missed its deadline: {elapsed} elapsed, {deadline} allowed"
            ),
            SrpcError::StreamCheckFailed { stream, rid, sid } => write!(
                f,
                "streamCheck failed on {stream:?}: shared Rid={rid} Sid={sid}"
            ),
            SrpcError::Quarantined(id) => {
                write!(f, "stream {id:?} is quarantined after a peer failure")
            }
            SrpcError::NotIdempotent { mecall } => write!(
                f,
                "mecall {mecall:?} is not declared idempotent; retry is unsafe"
            ),
        }
    }
}

impl std::error::Error for SrpcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SrpcError::Codec(e) => Some(e),
            SrpcError::Handler(e) => Some(e),
            SrpcError::Mos(e) => Some(e),
            SrpcError::Spm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for SrpcError {
    fn from(e: CodecError) -> Self {
        SrpcError::Codec(e)
    }
}

impl From<SpmError> for SrpcError {
    fn from(e: SpmError) -> Self {
        SrpcError::Spm(e)
    }
}

/// Per-stream counters (feed the RPC microbenchmarks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Total mECalls issued.
    pub calls: u64,
    /// Calls that required a synchronous result.
    pub sync_calls: u64,
    /// Explicit synchronization points.
    pub sync_points: u64,
    /// Request payload bytes moved through the ring.
    pub request_bytes: u64,
    /// Result payload bytes returned.
    pub result_bytes: u64,
    /// Times the producer found every lane full and had to drain.
    pub ring_full_stalls: u64,
    /// Doorbells actually rung (one consumer wakeup each).
    pub doorbells_rung: u64,
    /// Enqueues that coalesced onto an already-pending doorbell.
    pub doorbells_coalesced: u64,
    /// Drains where an idle worker took the stream head from another
    /// lane's ring (work stealing across lanes).
    pub steals: u64,
    /// Payloads that travelled as zero-copy page grants instead of being
    /// memcpy'd through ring slots.
    pub zero_copy_grants: u64,
    /// Bytes moved through the grant arena.
    pub zero_copy_bytes: u64,
}

/// One ring lane: the caller's cached copies of its shared indices.
#[derive(Debug, Default)]
pub struct LaneState {
    /// Producer index (cached copy of the lane's shared word).
    pub rid: u64,
    /// Consumer index (cached copy of the lane's shared word).
    pub sid: u64,
}

impl LaneState {
    /// Requests sitting in this lane's ring, enqueued but not drained.
    pub fn backlog(&self) -> u64 {
        self.rid - self.sid
    }
}

/// One enqueued-but-not-executed request, in global stream order. The
/// executor workers always dispatch the front of the stream FIFO (stealing
/// from whichever lane holds it), so per-stream ordering survives lane
/// parallelism.
#[derive(Debug)]
pub struct PendingRequest {
    /// Lane whose ring holds the slot.
    pub lane: usize,
    /// Lane-local ring index the slot was written at (the lane `Rid` at
    /// enqueue time).
    pub slot: u64,
    /// Global per-stream sequence number (enqueue order).
    pub seq: u64,
    /// Virtual time of the enqueue; the executor never starts a request
    /// before it was issued.
    pub enqueued_at: SimNs,
    /// Ambient request id re-established at dispatch so device/recovery
    /// spans inherit the right cause.
    pub req: ReqId,
    /// The grant arena's allocation head right after this request was
    /// enqueued: once the request has executed, every grant made up to
    /// here (its own included) is dead and the arena may reuse the bytes.
    pub arena_mark: u64,
    /// The telemetry names the enqueue resolved from the caller's mECall
    /// name; the drain reports under them. `None` without a recorder.
    pub(crate) call: Option<CallObs>,
}

/// Zero-copy payload arena: a second shared region through which payloads
/// at or above `threshold` travel as page grants (descriptor in the ring
/// slot, bytes mapped into the callee's stage-1) instead of memcpy'd
/// through slot payload space. It rides the same share-ledger machinery as
/// the ring itself, so grant/revoke events keep audit invariants I1–I5.
#[derive(Debug)]
pub struct GrantArena {
    /// Payload size (bytes) at which enqueue switches to a grant.
    pub threshold: usize,
    /// Backing shared-memory region (distinct from the ring share).
    pub share: ShareHandle,
    /// Arena base VA in the caller's address space.
    pub caller_va: VirtAddr,
    /// Arena base VA in the callee's address space.
    pub callee_va: VirtAddr,
    /// Arena size in bytes.
    pub bytes: u64,
    /// Total bytes ever allocated or skipped: the next grant goes at
    /// `head % bytes`. Grants retire in stream-FIFO order, so the bytes in
    /// flight are exactly `tail..head` and the arena is a ring allocator.
    pub head: u64,
    /// `head` as of the newest request that has executed.
    pub tail: u64,
}

impl GrantArena {
    /// Allocates `len <= bytes` contiguous bytes, returning their offset,
    /// or `None` while that range still holds an in-flight grant.
    pub(crate) fn alloc(&mut self, len: u64) -> Option<u64> {
        let at = self.head % self.bytes;
        // A grant that would run off the end starts over at offset 0.
        let skip = if at + len > self.bytes {
            self.bytes - at
        } else {
            0
        };
        let end = self.head + skip + len;
        if self.tail == self.head {
            // Nothing in flight, so the skipped bytes hold nothing either.
            self.tail += skip;
        } else if end > self.tail + self.bytes {
            return None;
        }
        self.head = end;
        Some((end - len) % self.bytes)
    }
}

/// The state of one open stream.
#[derive(Debug)]
pub struct StreamState {
    /// Stream id.
    pub id: StreamId,
    /// Caller (partition, enclave).
    pub caller: (AsId, Eid),
    /// Callee (partition, enclave).
    pub callee: (AsId, Eid),
    /// Backing shared-memory region for the rings.
    pub share: ShareHandle,
    /// Ring base VA in the caller's address space.
    pub caller_va: VirtAddr,
    /// Ring base VA in the callee's address space.
    pub callee_va: VirtAddr,
    /// Multi-lane ring geometry.
    pub layout: MultiRingLayout,
    /// Per-lane cached indices (`layout.lanes` entries).
    pub lanes: Vec<LaneState>,
    /// Global stream FIFO of requests enqueued but not yet executed.
    pub pending: VecDeque<PendingRequest>,
    /// Next global sequence number == total requests ever enqueued.
    pub next_seq: u64,
    /// Total requests executed (trails `next_seq` by `pending.len()`).
    pub executed: u64,
    /// True while an enqueue batch has rung the doorbell and the executor
    /// has not yet drained past it; further enqueues coalesce for free.
    pub doorbell_pending: bool,
    /// Zero-copy grant arena, present when the stream was opened with a
    /// zero-copy threshold.
    pub arena: Option<GrantArena>,
    /// True until closed or poisoned.
    pub open: bool,
    /// Set when a peer failure poisoned the stream; calls return
    /// [`SrpcError::Quarantined`] until the stream is re-opened against a
    /// recovered partition.
    pub quarantined: bool,
    /// Default deadline applied to synchronous calls on this stream.
    pub deadline: Option<SimNs>,
    /// The stream's own executor, one worker per lane; `None` for a
    /// `.shared()` stream, which drains on its callee partition's executor
    /// (`executor_of` resolves which).
    pub(crate) executor: Option<Executor>,
    /// Executor class of the callee partition (CPU / GPU SM / NPU), used
    /// by the resource meter to charge kernel time to the right ledger.
    pub class: ExecClass,
    /// The completion frontier: the latest virtual time any request of this
    /// stream finished, pushed out by injected executor stalls.
    /// Synchronization points merge the caller's clock against it and the
    /// stall watchdog measures lag from it.
    pub frontier: SimNs,
    /// Counters.
    pub stats: StreamStats,
    /// Resolved telemetry handles; `None` when the system runs without a
    /// flight recorder.
    pub(crate) obs: Option<StreamObs>,
}

impl StreamState {
    /// Meter scope for work on this stream: the caller partition — the
    /// tenant driving the work — pays, under a stream sub-account, at the
    /// rates of executor class `class`.
    pub(crate) fn meter_scope(&self, class: ExecClass) -> MeterScope {
        MeterScope {
            principal: Principal(self.caller.0.as_u32()),
            stream: Some(self.id.as_u64()),
            class,
        }
    }

    /// Number of requests enqueued but not yet executed.
    pub fn backlog(&self) -> u64 {
        self.next_seq - self.executed
    }

    /// Lane `lane`'s cached indices. Lanes are named by the stream's own
    /// bookkeeping, so a miss means the stream is not the one it names.
    pub(crate) fn lane(&self, lane: usize) -> Result<&LaneState, SrpcError> {
        self.lanes
            .get(lane)
            .ok_or(SrpcError::UnknownStream(self.id))
    }

    /// [`StreamState::lane`], mutably.
    pub(crate) fn lane_mut(&mut self, lane: usize) -> Result<&mut LaneState, SrpcError> {
        self.lanes
            .get_mut(lane)
            .ok_or(SrpcError::UnknownStream(self.id))
    }

    /// The lane with the smallest ring backlog (ties go to the lowest
    /// index); enqueue targets this lane so load spreads evenly.
    pub fn least_loaded_lane(&self) -> usize {
        let mut best = 0usize;
        let mut best_backlog = u64::MAX;
        for (i, lane) in self.lanes.iter().enumerate() {
            let b = lane.backlog();
            if b < best_backlog {
                best = i;
                best_backlog = b;
            }
        }
        best
    }

    /// Redacted snapshot for the proceed-trap black box: aggregate indices
    /// and state bits only, never ring payload bytes. `rid`/`sid` report
    /// the stream-global produce/consume counts so backlog stays
    /// `rid - sid` regardless of lane geometry.
    pub fn forensic_snapshot(&self) -> cronus_forensics::StreamSnap {
        cronus_forensics::StreamSnap {
            stream: self.id.0,
            rid: self.next_seq,
            sid: self.executed,
            backlog: self.backlog(),
            open: self.open,
            quarantined: self.quarantined,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        let errors: Vec<SrpcError> = vec![
            SrpcError::Closed,
            SrpcError::UnknownMcall("f".into()),
            SrpcError::NotOwner,
            SrpcError::DcheckFailed,
            SrpcError::AttestationFailed,
            SrpcError::Handler(CronusError::app("boom")),
            SrpcError::NoHandler("g".into()),
            SrpcError::UnknownStream(StreamId(3)),
            SrpcError::Timeout {
                mecall: "gemm".into(),
                deadline: SimNs::from_nanos(10),
                elapsed: SimNs::from_nanos(20),
            },
            SrpcError::StreamCheckFailed {
                stream: StreamId(7),
                rid: 4,
                sid: 3,
            },
            SrpcError::Quarantined(StreamId(9)),
            SrpcError::NotIdempotent { mecall: "h".into() },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn codec_error_converts() {
        let e: SrpcError = CodecError::Corrupt.into();
        assert_eq!(e, SrpcError::Codec(CodecError::Corrupt));
    }
}
