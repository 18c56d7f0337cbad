//! The builder-style mECall API.
//!
//! [`crate::system::CronusSystem::call`] is the single entry point for
//! issuing an mECall; the builder collects the payload, an optional
//! [`cronus_obs::ReqId`] for causal tracing, an optional per-call deadline,
//! and an optional [`RetryPolicy`], then commits with either
//! [`Call::start`] (asynchronous append, returns immediately) or
//! [`Call::sync`] (drain the ring and return this call's result).
//!
//! ```ignore
//! let out = sys
//!     .call(stream, "gemm")
//!     .payload(&descriptor)
//!     .deadline(SimNs::from_millis(5))
//!     .sync()?;
//! ```

use cronus_obs::ReqId;
use cronus_sim::SimNs;

use crate::reliability::RetryPolicy;
use crate::srpc::{SrpcError, StreamId};
use crate::system::CronusSystem;

/// A pending mECall, built up fluently and committed with [`Call::sync`]
/// or [`Call::start`]. It borrows the name and payload it was given: a
/// call copies its bytes once, into the ring slot.
#[must_use = "a Call does nothing until .sync() or .start() is invoked"]
pub struct Call<'a> {
    pub(crate) sys: &'a mut CronusSystem,
    pub(crate) stream: StreamId,
    pub(crate) name: &'a str,
    pub(crate) payload: &'a [u8],
    pub(crate) req: Option<ReqId>,
    pub(crate) deadline: Option<SimNs>,
    pub(crate) retry: Option<RetryPolicy>,
}

impl<'a> Call<'a> {
    /// Sets the request payload carried in the ring slot.
    pub fn payload(mut self, payload: &'a [u8]) -> Self {
        self.payload = payload;
        self
    }

    /// Attributes this call to a request for causal tracing.
    pub fn req(mut self, req: ReqId) -> Self {
        self.req = Some(req);
        self
    }

    /// Overrides the stream's default deadline for this call only.
    pub fn deadline(mut self, deadline: SimNs) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Retries transient failures under `policy`. Only permitted for
    /// mECalls declared idempotent in the callee's manifest; otherwise the
    /// call fails with [`SrpcError::NotIdempotent`] before any attempt.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Commits the call synchronously: enqueue, drain the ring, enforce
    /// the deadline, and return this call's result payload.
    pub fn sync(self) -> Result<Vec<u8>, SrpcError> {
        let Call {
            sys,
            stream,
            name,
            payload,
            req,
            deadline,
            retry,
        } = self;
        sys.call_commit_sync(stream, name, payload, req, deadline, retry)
    }

    /// Commits the call asynchronously: append to the ring and return
    /// without waiting. Returns the request id tracing the call; the
    /// result is observed at the next synchronization point
    /// ([`CronusSystem::sync`]).
    pub fn start(self) -> Result<ReqId, SrpcError> {
        let Call {
            sys,
            stream,
            name,
            payload,
            req,
            deadline: _,
            retry,
        } = self;
        if retry.is_some() {
            // Replaying an async call is meaningless: there is no result
            // to judge failure by until the next sync point.
            return Err(SrpcError::NotIdempotent {
                mecall: name.to_string(),
            });
        }
        sys.call_commit_start(stream, name, payload, req)
    }
}
