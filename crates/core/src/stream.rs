//! The builder-style stream-construction API.
//!
//! [`crate::system::CronusSystem::stream`] is the single entry point for
//! opening (or re-opening) an sRPC stream; the builder collects the ring
//! geometry, the zero-copy grant threshold and the default deadline, then
//! commits with [`StreamBuilder::open`] or [`StreamBuilder::reopen`]. It
//! mirrors the [`crate::call::Call`] builder.
//!
//! ```ignore
//! // 16 depth-1 lanes: the latency-optimal geometry for small calls.
//! let stream = sys.stream(cpu, gpu).rings(16).depth(1).open()?;
//! // Default geometry with zero-copy grants for payloads >= 256 bytes.
//! let stream = sys.stream(cpu, gpu).zero_copy(256).open()?;
//! ```

use cronus_sim::{SimNs, PAGE_SIZE};
use cronus_spm::spm::SpmError;

use crate::ring::{MultiRingLayout, RESULT_SLOT_SIZE, SLOT_SIZE};
use crate::srpc::{SrpcError, StreamId};
use crate::system::{CronusSystem, EnclaveRef, DEFAULT_RING_PAGES};

/// Resolved stream parameters handed to the system's open/reopen path.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Multi-lane ring geometry.
    pub layout: MultiRingLayout,
    /// Zero-copy grant threshold in bytes, if enabled.
    pub zero_copy: Option<usize>,
    /// Default deadline for synchronous calls.
    pub deadline: Option<SimNs>,
    /// Drain on the callee partition's executor, shared with every other
    /// such stream, instead of on an executor of the stream's own.
    pub shared: bool,
}

/// A pending stream, built up fluently and committed with
/// [`StreamBuilder::open`] or [`StreamBuilder::reopen`].
#[must_use = "a StreamBuilder does nothing until .open() or .reopen(old) is invoked"]
pub struct StreamBuilder<'a> {
    pub(crate) sys: &'a mut CronusSystem,
    pub(crate) caller: EnclaveRef,
    pub(crate) callee: EnclaveRef,
    pub(crate) lanes: usize,
    pub(crate) pages: Option<usize>,
    pub(crate) depth: Option<u64>,
    pub(crate) zero_copy: Option<usize>,
    pub(crate) deadline: Option<SimNs>,
    pub(crate) shared: bool,
}

impl<'a> StreamBuilder<'a> {
    /// Sets the number of ring lanes (independent ring pairs; a stream's own
    /// executor has one worker per lane). Defaults to
    /// [`crate::system::DEFAULT_STREAM_LANES`].
    pub fn rings(mut self, n: usize) -> Self {
        self.lanes = n.max(1);
        self
    }

    /// Caps each lane at `slots` ring slots. Shallow lanes keep queueing
    /// wait near zero (a slot frees the moment its request executes); deep
    /// lanes let an async producer stream further ahead.
    pub fn depth(mut self, slots: u64) -> Self {
        self.depth = Some(slots.max(1));
        self
    }

    /// Sets the total shared-page budget the lanes are split across
    /// (defaults to [`DEFAULT_RING_PAGES`]). Fewer pages than lanes shrink
    /// the lane count to match.
    pub fn pages(mut self, pages: usize) -> Self {
        self.pages = Some(pages.max(1));
        self
    }

    /// Enables zero-copy payload grants: request payloads of `threshold`
    /// bytes or more travel through a page-granted arena instead of being
    /// copied through ring slots (and are no longer bounded by the slot
    /// payload size).
    pub fn zero_copy(mut self, threshold: usize) -> Self {
        self.zero_copy = Some(threshold);
        self
    }

    /// Sets the stream's default deadline for synchronous calls.
    pub fn deadline(mut self, d: SimNs) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Drains this stream on the callee partition's executor (one per
    /// partition, as wide as the widest stream using it) instead of on an
    /// executor of its own. Streams sharing an executor contend for its
    /// workers, so a noisy neighbor's occupancy delays this stream — exactly
    /// the contention the resource meter's interference matrix attributes.
    pub fn shared(mut self) -> Self {
        self.shared = true;
        self
    }

    /// Resolves the ring geometry from the collected knobs: `None` when the
    /// region they ask for has more bytes than a `u64` counts.
    fn layout(&self) -> Option<MultiRingLayout> {
        match (self.pages, self.depth) {
            // An explicit page budget wins: split it across the lanes
            // (shrinking the lane count if pages run short), then apply the
            // depth cap.
            (Some(pages), depth) => {
                let split = MultiRingLayout::split(pages, self.lanes)?;
                match depth {
                    Some(d) => MultiRingLayout::new(split.lanes, split.lane_pages, Some(d)),
                    None => Some(split),
                }
            }
            // Depth without a budget: size each lane to exactly fit the
            // requested slots.
            (None, Some(d)) => {
                let pair = (SLOT_SIZE + RESULT_SLOT_SIZE) as u64;
                let lane_pages = d.checked_mul(pair)?.div_ceil(PAGE_SIZE);
                MultiRingLayout::new(self.lanes, usize::try_from(lane_pages).ok()?, Some(d))
            }
            (None, None) => MultiRingLayout::split(DEFAULT_RING_PAGES, self.lanes),
        }
    }

    /// The resolved parameters. A ring too large to address is one no
    /// memory can back: [`SpmError::OutOfMemory`], as sharing it would be.
    fn config(&self) -> Result<StreamConfig, SrpcError> {
        Ok(StreamConfig {
            layout: self.layout().ok_or(SrpcError::Spm(SpmError::OutOfMemory))?,
            zero_copy: self.zero_copy,
            deadline: self.deadline,
            shared: self.shared,
        })
    }

    /// Opens the stream: local attestation, trusted shared memory
    /// establishment and dCheck (§IV-C), one ring pair per lane, plus the
    /// grant arena when zero-copy is enabled.
    ///
    /// # Errors
    ///
    /// [`SrpcError::NotOwner`], attestation/dCheck failures, SPM errors.
    pub fn open(self) -> Result<StreamId, SrpcError> {
        let cfg = self.config()?;
        self.sys.open_stream_config(self.caller, self.callee, cfg)
    }

    /// Re-establishes service after a peer failure: discards `old`
    /// (typically quarantined), reclaims its poisoned ring and arena pages,
    /// and opens a fresh stream to this builder's callee — usually a fresh
    /// enclave on a recovered partition. The old stream's default deadline
    /// carries over unless [`StreamBuilder::deadline`] overrides it.
    ///
    /// # Errors
    ///
    /// [`SrpcError::UnknownStream`] for unknown `old`, plus anything
    /// [`StreamBuilder::open`] can raise.
    pub fn reopen(self, old: StreamId) -> Result<StreamId, SrpcError> {
        let cfg = self.config()?;
        self.sys.reopen_stream_config(old, self.callee, cfg)
    }
}
