//! What every accelerator's driver has in common.
//!
//! The paper's generality argument is that an mOS is a *common* manager plus
//! a thin device-specific HAL, so a new accelerator kind costs one driver
//! (§IV-B). [`Accelerator`] is the device half of that common part — the
//! half that does not depend on what the device computes:
//!
//! * identity and the hardware root-of-trust key ([`SimDevice`]),
//! * device DRAM partitioned into per-context buffers: "isolated concurrent
//!   … code execution within the device using virtual memory" (§V-B) — a
//!   buffer handle of one context is invisible to every other, quotas are
//!   enforced, and memory is zeroed on free, destroy and reset (attack A3
//!   in §IV-D),
//! * the DMA engine that lends a span of a buffer to the bus,
//! * the completion interrupt line, and
//! * their telemetry ([`DeviceObs`]).
//!
//! A device ([`crate::gpu::GpuDevice`], [`crate::npu::NpuDevice`]) wraps one
//! `Accelerator`, dereferences to it, and adds only its command set: the
//! state its engine keeps per context and what running a command means.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::fmt::{self, Write as _};

use cronus_crypto::{KeyPair, PublicKey, Signature};
use cronus_obs::{CounterId, FlightRecorder, NameId, QueueKind, RecorderInner, StationId, TrackId};
use cronus_sim::tzpc::DeviceId;
use cronus_sim::{SimNs, StreamId};

use crate::{device_rot_keypair, DeviceKind, SimDevice};

/// Completion-IRQ queue slots a driver ring would provide.
pub const IRQ_QUEUE_SLOTS: u64 = 64;

/// Handle to an execution context (one spatially sharing tenant).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ContextId(u32);

/// Handle to a device-memory buffer. Handles are context-scoped: using a
/// handle with the wrong context fails, enforcing VA isolation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BufferId(u64);

impl BufferId {
    /// Reconstructs a handle from its raw id (runtime wire format).
    pub const fn from_raw(raw: u64) -> Self {
        BufferId(raw)
    }

    /// The raw handle id (runtime wire format).
    pub const fn as_raw(self) -> u64 {
        self.0
    }
}

/// Errors raised by accelerator operations: the memory model's first, then
/// what each command set rejects.
#[derive(Clone, Debug, PartialEq)]
pub enum DeviceError {
    /// The context id is stale, foreign or belongs to a cleared device.
    UnknownContext(ContextId),
    /// The buffer handle is unknown *to this context* — either never
    /// allocated or owned by a different tenant.
    UnknownBuffer(BufferId),
    /// The context's memory quota or the device capacity is exhausted.
    OutOfMemory { requested: u64, available: u64 },
    /// A buffer access fell outside the allocation.
    OutOfBounds {
        buffer: BufferId,
        offset: u64,
        len: u64,
    },
    /// GPU: no kernel with this name is loaded in the context.
    UnknownKernel(String),
    /// GPU: the kernel rejected its arguments.
    BadArg(String),
    /// NPU: GEMM with mismatched scratchpad shapes.
    ShapeMismatch {
        inp: (usize, usize),
        wgt: (usize, usize),
        acc: (usize, usize),
    },
    /// NPU: the instruction needs scratchpad state that was never loaded.
    ScratchpadEmpty(&'static str),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::UnknownContext(c) => write!(f, "unknown device context {c:?}"),
            DeviceError::UnknownBuffer(b) => write!(f, "unknown device buffer {b:?}"),
            DeviceError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "device out of memory: requested {requested}, available {available}"
            ),
            DeviceError::OutOfBounds {
                buffer,
                offset,
                len,
            } => write!(f, "access [{offset}, +{len}) out of bounds for {buffer:?}"),
            DeviceError::UnknownKernel(k) => write!(f, "unknown kernel {k:?}"),
            DeviceError::BadArg(msg) => write!(f, "bad kernel argument: {msg}"),
            DeviceError::ShapeMismatch { inp, wgt, acc } => write!(
                f,
                "gemm shape mismatch: inp {inp:?}, wgt {wgt:?}, acc {acc:?}"
            ),
            DeviceError::ScratchpadEmpty(which) => write!(f, "{which} scratchpad is empty"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// The buffers of one context, by raw handle.
pub(crate) type Buffers = HashMap<u64, Vec<u8>>;

struct Context {
    buffers: Buffers,
    quota: u64,
    used: u64,
    /// What the device's engine keeps with the context (loaded kernels,
    /// scratchpads), created by the first command that needs it.
    engine: Option<Box<dyn Any + Send + Sync>>,
}

impl Context {
    fn zero(&mut self) {
        for buf in self.buffers.values_mut() {
            buf.fill(0);
        }
    }
}

/// Takes `requested` more bytes of `limit` into `used` — the one quota
/// check, for a context's share of the device and a buffer's share of its
/// context. The sum is checked: `requested` arrives from an mECall payload.
fn reserve(used: &mut u64, limit: u64, requested: u64) -> Result<(), DeviceError> {
    match used.checked_add(requested) {
        Some(total) if total <= limit => {
            *used = total;
            Ok(())
        }
        _ => Err(DeviceError::OutOfMemory {
            requested,
            available: limit - *used,
        }),
    }
}

/// A DMA direction (and the `dir` label of the byte counters).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dma {
    /// Host to device.
    H2d = 0,
    /// Device to host.
    D2h = 1,
}

/// The completion line's and DMA engine's telemetry handles on the installed
/// recorder, each resolved once, by the first step that needs it. Each
/// reporting method is one locked recorder step. The handles outlive
/// [`SimDevice::reset`] (the recorder does) and are dropped when another
/// recorder is installed.
struct DeviceObs {
    rec: FlightRecorder,
    kind: DeviceKind,
    id: u32,
    /// `<kind>:<id>.completion`, declared when the recorder is installed.
    station: StationId,
    /// `<kind>:<id>`, created by the first completion: track creation order
    /// numbers the rows of the trace.
    track: Option<TrackId>,
    /// `<kind>.dma_bytes{dir}`, indexed by [`Dma`].
    dma_bytes: Option<[CounterId; 2]>,
}

impl DeviceObs {
    fn install(rec: FlightRecorder, kind: DeviceKind, id: DeviceId) -> DeviceObs {
        let id = id.as_u32();
        // Formatted into one allocation, as the literal `gpu:<id>.completion`
        // was: `format!` with a leading argument grows its buffer in steps,
        // and even transient allocations at boot move `lifecycle_failover`
        // (the heap-layout note in the verify skill).
        let mut name = String::with_capacity(32);
        write!(name, "{kind}:{id}.completion").expect("writing to a String");
        let station = rec.queue_declare(&name, QueueKind::Completion, IRQ_QUEUE_SLOTS);
        DeviceObs {
            rec,
            kind,
            id,
            station,
            track: None,
            dma_bytes: None,
        }
    }

    /// One command finished after `t`: `report` records what the device
    /// counts per command and names the span, which goes on the device track
    /// with the completion IRQ's arrival on its queue. Returns when the IRQ
    /// was raised.
    fn completed(&mut self, t: SimNs, report: impl FnOnce(&mut RecorderInner) -> NameId) -> SimNs {
        self.rec.with(|r| {
            let span = report(r);
            // Span on the device track (time profiling stays in the sRPC
            // layer, which charges the handler's execution time). The span
            // is deliberately not attributed to the ambient request: it uses
            // the device's own timebase, and the sRPC layer already covers
            // the request's kernel phase on the stream track — attaching
            // this one too would stretch the request window with a
            // clock-skew gap the causal report would misread as queueing.
            let track = *self
                .track
                .get_or_insert_with(|| r.spans.track(&format!("{}:{}", self.kind, self.id)));
            let start = r.profiler.total_elapsed();
            let req = r.spans.current_req();
            r.spans.set_current_req(None);
            r.complete_span(track, span, "kernel", start, start + t);
            r.spans.set_current_req(req);
            // The completion IRQ is raised when the command finishes; it
            // sits queued until the driver's ISR (take_irqs) services it.
            let raised = start + t;
            r.queues.at(self.station).enqueue(raised);
            raised
        })
    }

    /// The ISR serviced the completion IRQs raised at `raised`.
    fn irqs_taken(&self, raised: &mut VecDeque<SimNs>) {
        self.rec.with(|r| {
            let now = r.profiler.total_elapsed();
            for at in raised.drain(..) {
                r.queue_dequeue(
                    self.station,
                    now.max(at),
                    now.saturating_sub(at),
                    SimNs::ZERO,
                );
            }
        });
    }

    /// `bytes` crossed the device's DMA engine.
    fn dma(&mut self, dir: Dma, bytes: u64) {
        self.rec.with(|r| {
            let counters = *self.dma_bytes.get_or_insert_with(|| {
                let name = format!("{}.dma_bytes", self.kind);
                [("dir", "h2d"), ("dir", "d2h")].map(|l| r.metrics.counter_id(&name, &[l]))
            });
            r.metrics.counter_bump(counters[dir as usize], bytes);
        });
    }

    /// A reset discarded the in-flight completions: flush the queue station
    /// so the observatory sees the drop rather than a stuck depth.
    fn reset(&self) {
        self.rec.with(|r| {
            let now = r.profiler.total_elapsed();
            r.queues.at(self.station).flush(now);
        });
    }
}

/// The common part of a simulated accelerator (see the module docs).
pub struct Accelerator {
    kind: DeviceKind,
    compatible: &'static str,
    id: DeviceId,
    stream: StreamId,
    rot: KeyPair,
    capacity: u64,
    used: u64,
    contexts: HashMap<u32, Context>,
    next_ctx: u32,
    next_buf: u64,
    pending_irqs: u32,
    irq_raised_at: VecDeque<SimNs>,
    obs: Option<DeviceObs>,
}

impl fmt::Debug for Accelerator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Accelerator")
            .field("kind", &self.kind)
            .field("id", &self.id)
            .field("contexts", &self.contexts.len())
            .field("used", &self.used)
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl Accelerator {
    /// An accelerator of `kind` with `capacity` bytes of device DRAM, whose
    /// root-of-trust key was burned in by `vendor`.
    pub(crate) fn new(
        kind: DeviceKind,
        compatible: &'static str,
        vendor: &str,
        id: DeviceId,
        stream: StreamId,
        capacity: u64,
    ) -> Self {
        Accelerator {
            kind,
            compatible,
            id,
            stream,
            rot: device_rot_keypair(vendor, id),
            capacity,
            used: 0,
            contexts: HashMap::new(),
            next_ctx: 1,
            next_buf: 1,
            pending_irqs: 0,
            irq_raised_at: VecDeque::new(),
            obs: None,
        }
    }

    /// Reports to `rec` from now on: completions gain spans on the
    /// `<kind>:<id>` track, the completion-IRQ queue reports to the queue
    /// observatory and DMA transfers are counted.
    pub(crate) fn set_recorder(&mut self, rec: FlightRecorder) {
        self.obs = Some(DeviceObs::install(rec, self.kind, self.id));
    }

    /// Opens a context with a device-memory `quota` (from the manifest's
    /// `resources.memory`).
    ///
    /// # Errors
    ///
    /// [`DeviceError::OutOfMemory`] if the quota cannot be reserved.
    pub fn create_context(&mut self, quota: u64) -> Result<ContextId, DeviceError> {
        reserve(&mut self.used, self.capacity, quota)?;
        let id = self.next_ctx;
        self.next_ctx += 1;
        self.contexts.insert(
            id,
            Context {
                buffers: HashMap::new(),
                quota,
                used: 0,
                engine: None,
            },
        );
        Ok(ContextId(id))
    }

    /// Destroys a context, zeroing and releasing all of its memory.
    ///
    /// # Errors
    ///
    /// [`DeviceError::UnknownContext`].
    pub fn destroy_context(&mut self, ctx: ContextId) -> Result<(), DeviceError> {
        let mut state = self
            .contexts
            .remove(&ctx.0)
            .ok_or(DeviceError::UnknownContext(ctx))?;
        state.zero();
        self.used -= state.quota;
        Ok(())
    }

    fn ctx_mut(&mut self, ctx: ContextId) -> Result<&mut Context, DeviceError> {
        self.contexts
            .get_mut(&ctx.0)
            .ok_or(DeviceError::UnknownContext(ctx))
    }

    /// The buffers of `ctx` and the state the device's engine keeps with
    /// them, default-created on first use and dropped with the context.
    pub(crate) fn context<E: Default + Send + Sync + 'static>(
        &mut self,
        ctx: ContextId,
    ) -> Result<(&mut Buffers, &mut E), DeviceError> {
        let state = self.ctx_mut(ctx)?;
        let engine = state
            .engine
            .get_or_insert_with(|| Box::new(E::default()))
            .downcast_mut()
            .ok_or(DeviceError::UnknownContext(ctx))?;
        Ok((&mut state.buffers, engine))
    }

    /// Allocates `len` zeroed bytes of device memory in `ctx`.
    ///
    /// # Errors
    ///
    /// [`DeviceError::UnknownContext`] or [`DeviceError::OutOfMemory`] when
    /// the context quota is exhausted.
    pub fn alloc(&mut self, ctx: ContextId, len: u64) -> Result<BufferId, DeviceError> {
        let handle = self.next_buf;
        let state = self.ctx_mut(ctx)?;
        reserve(&mut state.used, state.quota, len)?;
        state.buffers.insert(handle, vec![0u8; len as usize]);
        self.next_buf += 1;
        Ok(BufferId(handle))
    }

    /// Frees a buffer, zeroing it first.
    ///
    /// # Errors
    ///
    /// [`DeviceError::UnknownContext`] or [`DeviceError::UnknownBuffer`].
    pub fn free(&mut self, ctx: ContextId, buf: BufferId) -> Result<(), DeviceError> {
        let state = self.ctx_mut(ctx)?;
        let mut data = state
            .buffers
            .remove(&buf.0)
            .ok_or(DeviceError::UnknownBuffer(buf))?;
        data.fill(0);
        state.used -= data.len() as u64;
        Ok(())
    }

    /// The bytes `[offset, offset + len)` of a context's buffer.
    fn span_of(
        contexts: &mut HashMap<u32, Context>,
        ctx: ContextId,
        buf: BufferId,
        offset: u64,
        len: usize,
    ) -> Result<&mut [u8], DeviceError> {
        let data = contexts
            .get_mut(&ctx.0)
            .ok_or(DeviceError::UnknownContext(ctx))?
            .buffers
            .get_mut(&buf.0)
            .ok_or(DeviceError::UnknownBuffer(buf))?;
        usize::try_from(offset)
            .ok()
            .and_then(|from| data.get_mut(from..from.checked_add(len)?))
            .ok_or(DeviceError::OutOfBounds {
                buffer: buf,
                offset,
                len: len as u64,
            })
    }

    /// Inbound DMA: lends `[offset, offset + len)` of a buffer to `fill`,
    /// which writes the arriving bytes straight into device memory (the
    /// device side of `cudaMemcpyHostToDevice`; the PCIe/SMMU cost is
    /// charged by the HAL). The bytes count as transferred once `fill`
    /// succeeds.
    ///
    /// # Errors
    ///
    /// Buffer/context errors as above, else whatever `fill` returns.
    pub fn dma_in<T, E: From<DeviceError>>(
        &mut self,
        ctx: ContextId,
        buf: BufferId,
        offset: u64,
        len: usize,
        fill: impl FnOnce(&mut [u8]) -> Result<T, E>,
    ) -> Result<T, E> {
        let out = fill(Self::span_of(&mut self.contexts, ctx, buf, offset, len)?)?;
        if let Some(obs) = &mut self.obs {
            obs.dma(Dma::H2d, len as u64);
        }
        Ok(out)
    }

    /// Outbound DMA: lends `[offset, offset + len)` of a buffer to `drain`,
    /// which reads the departing bytes straight out of device memory
    /// (`cudaMemcpyDeviceToHost`).
    ///
    /// # Errors
    ///
    /// Buffer/context errors as above, else whatever `drain` returns.
    pub fn dma_out<T, E: From<DeviceError>>(
        &mut self,
        ctx: ContextId,
        buf: BufferId,
        offset: u64,
        len: usize,
        drain: impl FnOnce(&[u8]) -> Result<T, E>,
    ) -> Result<T, E> {
        let src = Self::span_of(&mut self.contexts, ctx, buf, offset, len)?;
        if let Some(obs) = &mut self.obs {
            obs.dma(Dma::D2h, len as u64);
        }
        drain(src)
    }

    /// Copies host bytes into a device buffer.
    ///
    /// # Errors
    ///
    /// Buffer/context errors as above.
    pub fn write_buffer(
        &mut self,
        ctx: ContextId,
        buf: BufferId,
        offset: u64,
        data: &[u8],
    ) -> Result<(), DeviceError> {
        self.dma_in(ctx, buf, offset, data.len(), |dst| {
            dst.copy_from_slice(data);
            Ok(())
        })
    }

    /// Copies a device buffer out to host bytes.
    ///
    /// # Errors
    ///
    /// Buffer/context errors as above.
    pub fn read_buffer(
        &mut self,
        ctx: ContextId,
        buf: BufferId,
        offset: u64,
        out: &mut [u8],
    ) -> Result<(), DeviceError> {
        self.dma_out(ctx, buf, offset, out.len(), |src| {
            out.copy_from_slice(src);
            Ok(())
        })
    }

    /// Length of a buffer.
    ///
    /// # Errors
    ///
    /// Buffer/context errors as above.
    pub fn buffer_len(&self, ctx: ContextId, buf: BufferId) -> Result<u64, DeviceError> {
        self.contexts
            .get(&ctx.0)
            .ok_or(DeviceError::UnknownContext(ctx))?
            .buffers
            .get(&buf.0)
            .map(|d| d.len() as u64)
            .ok_or(DeviceError::UnknownBuffer(buf))
    }

    /// A command finished after `t`: raises its completion interrupt for the
    /// driver to service and, with a recorder installed, reports it (see
    /// [`DeviceObs::completed`] for `report`).
    pub(crate) fn complete(&mut self, t: SimNs, report: impl FnOnce(&mut RecorderInner) -> NameId) {
        self.pending_irqs += 1;
        if let Some(obs) = &mut self.obs {
            self.irq_raised_at.push_back(obs.completed(t, report));
        }
    }

    /// Takes (and clears) the pending completion interrupts — the HAL's
    /// interrupt service routine.
    pub fn take_irqs(&mut self) -> u32 {
        let n = std::mem::take(&mut self.pending_irqs);
        if !self.irq_raised_at.is_empty() {
            match &self.obs {
                Some(obs) => obs.irqs_taken(&mut self.irq_raised_at),
                None => self.irq_raised_at.clear(),
            }
        }
        n
    }

    /// Device memory in use (context quotas reserved).
    pub fn memory_used(&self) -> u64 {
        self.used
    }

    /// Device memory capacity.
    pub fn memory_capacity(&self) -> u64 {
        self.capacity
    }
}

impl SimDevice for Accelerator {
    fn id(&self) -> DeviceId {
        self.id
    }

    fn dma_stream(&self) -> StreamId {
        self.stream
    }

    fn compatible(&self) -> &str {
        self.compatible
    }

    fn kind(&self) -> DeviceKind {
        self.kind
    }

    fn rot_public(&self) -> PublicKey {
        self.rot.public()
    }

    fn sign_config(&self, config: &[u8]) -> Signature {
        self.rot.sign(config)
    }

    fn context_count(&self) -> usize {
        self.contexts.len()
    }

    fn reset(&mut self) {
        for state in self.contexts.values_mut() {
            state.zero();
        }
        self.contexts.clear();
        self.used = 0;
        self.pending_irqs = 0;
        if let Some(obs) = &self.obs {
            obs.reset();
        }
        self.irq_raised_at.clear();
        self.next_ctx = 1;
        self.next_buf = 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpuDevice, NpuDevice};

    fn accel(capacity: u64) -> Accelerator {
        let (id, stream) = (DeviceId::new(1), StreamId::new(1));
        Accelerator::new(DeviceKind::Gpu, "test,accel", "test", id, stream, capacity)
    }

    #[test]
    fn alloc_write_read_round_trip() {
        let mut a = accel(1 << 20);
        let ctx = a.create_context(4096).unwrap();
        let buf = a.alloc(ctx, 16).unwrap();
        a.write_buffer(ctx, buf, 4, &[1, 2, 3]).unwrap();
        let mut out = [0u8; 3];
        a.read_buffer(ctx, buf, 4, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3]);
        assert_eq!(a.buffer_len(ctx, buf).unwrap(), 16);
    }

    #[test]
    fn contexts_cannot_see_each_others_buffers() {
        let mut a = accel(1 << 20);
        let mine = a.create_context(4096).unwrap();
        let theirs = a.create_context(4096).unwrap();
        let buf = a.alloc(mine, 16).unwrap();
        let mut out = [0u8; 1];
        let err = a.read_buffer(theirs, buf, 0, &mut out).unwrap_err();
        assert_eq!(err, DeviceError::UnknownBuffer(buf));
    }

    #[test]
    fn quota_enforced_per_context() {
        let mut a = accel(1 << 20);
        let ctx = a.create_context(100).unwrap();
        assert!(a.alloc(ctx, 64).is_ok());
        let err = a.alloc(ctx, 64).unwrap_err();
        assert!(matches!(
            err,
            DeviceError::OutOfMemory { available: 36, .. }
        ));
    }

    #[test]
    fn device_capacity_enforced_across_contexts() {
        let mut a = accel(1000);
        a.create_context(600).unwrap();
        let err = a.create_context(600).unwrap_err();
        assert!(matches!(err, DeviceError::OutOfMemory { .. }));
    }

    /// `len` arrives straight from a `cuMalloc`/`vtaAlloc` payload: a sum
    /// that wraps past the quota check used to reach `vec![0; len]` and
    /// abort the partition with `capacity overflow`.
    #[test]
    fn a_length_that_overflows_the_quota_sum_is_out_of_memory() {
        let (id, stream) = (DeviceId::new(1), StreamId::new(1));
        let mut gpu = GpuDevice::new(id, stream, 1 << 20, 46);
        let mut npu = NpuDevice::new(id, stream, 1 << 20);
        for dev in [&mut *gpu, &mut *npu] {
            let ctx = dev.create_context(4096).unwrap();
            let first = dev.alloc(ctx, 16).unwrap();
            let err = dev.alloc(ctx, u64::MAX - 15).unwrap_err();
            let want = DeviceError::OutOfMemory {
                requested: u64::MAX - 15,
                available: 4080,
            };
            assert_eq!(err, want, "{:?}", dev.kind());
            // Nothing was taken: the context still serves its quota.
            assert_eq!(dev.buffer_len(ctx, first).unwrap(), 16);
            assert!(dev.alloc(ctx, 4080).is_ok());
            let err = dev.create_context(u64::MAX - 4095).unwrap_err();
            assert!(matches!(err, DeviceError::OutOfMemory { .. }));
            assert_eq!(dev.memory_used(), 4096);
        }
    }

    #[test]
    fn destroy_context_releases_quota() {
        let mut a = accel(1000);
        let ctx = a.create_context(600).unwrap();
        a.destroy_context(ctx).unwrap();
        assert_eq!(a.memory_used(), 0);
        assert!(a.create_context(600).is_ok());
        assert_eq!(
            a.destroy_context(ctx).unwrap_err(),
            DeviceError::UnknownContext(ctx)
        );
    }

    #[test]
    fn reset_clears_everything() {
        let mut a = accel(1 << 20);
        let ctx = a.create_context(4096).unwrap();
        let _ = a.alloc(ctx, 64).unwrap();
        a.complete(SimNs::from_nanos(5), |_| unreachable!("no recorder"));
        a.reset();
        assert_eq!(a.context_count(), 0);
        assert_eq!(a.memory_used(), 0);
        assert_eq!(a.take_irqs(), 0, "pending completions are discarded");
        // Old handles are dead.
        assert!(a.alloc(ctx, 1).is_err());
    }

    #[test]
    fn out_of_bounds_access_rejected() {
        let mut a = accel(1 << 20);
        let ctx = a.create_context(4096).unwrap();
        let buf = a.alloc(ctx, 8).unwrap();
        let err = a.write_buffer(ctx, buf, 6, &[0; 4]).unwrap_err();
        assert!(matches!(err, DeviceError::OutOfBounds { .. }));
    }

    #[test]
    fn free_zeroes_and_releases() {
        let mut a = accel(1 << 20);
        let ctx = a.create_context(100).unwrap();
        let buf = a.alloc(ctx, 64).unwrap();
        a.free(ctx, buf).unwrap();
        let mut out = [0u8; 1];
        assert!(a.read_buffer(ctx, buf, 0, &mut out).is_err());
        assert!(a.alloc(ctx, 64).is_ok(), "quota was released");
    }

    #[test]
    fn engine_state_lives_and_dies_with_its_context() {
        let mut a = accel(1 << 20);
        let ctx = a.create_context(4096).unwrap();
        *a.context::<u32>(ctx).unwrap().1 = 7;
        assert_eq!(*a.context::<u32>(ctx).unwrap().1, 7);
        // Another engine's state is not this context's.
        assert_eq!(
            a.context::<u64>(ctx).unwrap_err(),
            DeviceError::UnknownContext(ctx)
        );
        a.destroy_context(ctx).unwrap();
        assert!(a.context::<u32>(ctx).is_err());
    }

    #[test]
    fn each_completion_is_one_interrupt_until_serviced() {
        let mut a = accel(1 << 20);
        assert_eq!(a.take_irqs(), 0);
        for _ in 0..3 {
            a.complete(SimNs::from_nanos(5), |_| unreachable!("no recorder"));
        }
        assert_eq!(a.take_irqs(), 3);
        assert_eq!(a.take_irqs(), 0);
    }
}
