//! A CUDA-class GPU simulator with spatial sharing.
//!
//! Stands in for the paper's GTX 2080 driven by nouveau/gdev. The device:
//!
//! * holds device DRAM partitioned into per-context buffers; contexts model
//!   the "GPU virtual address isolation for isolating different mEnclaves'
//!   code" (§V-B) — a buffer handle from one context is invisible to another,
//! * runs *named kernels that really compute* (registered as Rust closures
//!   by the CUDA runtime layer, the analogue of loading a `.cubin`),
//! * models MPS-style spatial sharing: concurrent contexts split the SMs and
//!   memory bandwidth, so small kernels from different tenants overlap until
//!   the machine saturates — the effect behind Fig. 11a,
//! * can be fully [`reset`](crate::SimDevice::reset) so failover clears all
//!   tenant state (attack A3 in §IV-D).

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use cronus_crypto::{KeyPair, PublicKey, Signature};
use cronus_obs::metrics::MetricsRegistry;
use cronus_obs::{
    CounterId, FlightRecorder, GaugeId, HistogramId, NameId, QueueKind, StationId, TrackId,
};
use cronus_sim::tzpc::DeviceId;
use cronus_sim::{CostModel, SimNs, StreamId};

pub use crate::view::{BufView, BufViewMut, F32Cell};
use crate::{device_rot_keypair, DeviceKind, SimDevice};

/// Completion-IRQ queue slots a driver ring would provide.
pub const IRQ_QUEUE_SLOTS: u64 = 64;

/// Handle to a GPU execution context (one spatially sharing tenant).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GpuContextId(u32);

/// Handle to a device-memory buffer. Handles are context-scoped: using a
/// handle with the wrong context fails, enforcing VA isolation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GpuBuffer(u64);

impl GpuBuffer {
    /// Reconstructs a handle from its raw id (runtime wire format).
    pub const fn from_raw(raw: u64) -> Self {
        GpuBuffer(raw)
    }

    /// The raw handle id (runtime wire format).
    pub const fn as_raw(self) -> u64 {
        self.0
    }
}

/// An argument passed to a kernel launch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KernelArg {
    /// A device buffer.
    Buffer(GpuBuffer),
    /// A 64-bit integer scalar.
    Int(i64),
    /// A 32-bit float scalar.
    Float(f32),
}

/// Errors raised by GPU operations.
#[derive(Clone, Debug, PartialEq)]
pub enum GpuError {
    /// The context id is stale or belongs to a cleared device.
    UnknownContext(GpuContextId),
    /// The buffer handle is unknown *to this context* — either never
    /// allocated or owned by a different tenant.
    UnknownBuffer(GpuBuffer),
    /// The context's memory quota or the device capacity is exhausted.
    OutOfMemory { requested: u64, available: u64 },
    /// No kernel with this name is loaded in the context.
    UnknownKernel(String),
    /// A buffer access fell outside the allocation.
    OutOfBounds {
        buffer: GpuBuffer,
        offset: u64,
        len: u64,
    },
    /// The kernel rejected its arguments.
    BadArg(String),
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::UnknownContext(c) => write!(f, "unknown gpu context {c:?}"),
            GpuError::UnknownBuffer(b) => write!(f, "unknown gpu buffer {b:?}"),
            GpuError::OutOfMemory {
                requested,
                available,
            } => {
                write!(
                    f,
                    "gpu out of memory: requested {requested}, available {available}"
                )
            }
            GpuError::UnknownKernel(k) => write!(f, "unknown kernel {k:?}"),
            GpuError::OutOfBounds {
                buffer,
                offset,
                len,
            } => {
                write!(f, "access [{offset}, +{len}) out of bounds for {buffer:?}")
            }
            GpuError::BadArg(msg) => write!(f, "bad kernel argument: {msg}"),
        }
    }
}

impl std::error::Error for GpuError {}

/// What a kernel does with the buffers it was lent: the exclusive views
/// come first, in the order they were asked for, then the shared ones.
pub type KernelBody<'f> =
    dyn FnMut(&mut [BufViewMut<'_>], &[BufView<'_>]) -> Result<(), GpuError> + 'f;

/// Device-memory access handed to a running kernel. Memory is lent, not
/// copied: the kernel computes on the launching context's own buffers, and
/// only on those.
pub trait GpuMemAccess {
    /// Lends `exclusive` buffers for reading and writing and `shared` ones
    /// for reading, and runs `body` on them. A shared buffer that is also
    /// lent exclusively is a snapshot taken before `body` runs, so a kernel
    /// never observes its own writes through an input.
    ///
    /// # Errors
    ///
    /// [`GpuError::UnknownBuffer`] for a handle the launching context does
    /// not own, [`GpuError::BadArg`] when one buffer is asked for
    /// exclusively twice, else whatever `body` returns. The buffers are back
    /// in the context either way.
    fn lend(
        &mut self,
        exclusive: &[GpuBuffer],
        shared: &[GpuBuffer],
        body: &mut KernelBody<'_>,
    ) -> Result<(), GpuError>;
}

/// A kernel implementation: the Rust closure standing in for compiled SASS.
pub type KernelFn =
    Arc<dyn Fn(&mut dyn GpuMemAccess, &[KernelArg]) -> Result<(), GpuError> + Send + Sync>;

/// Description of a kernel launch's cost for the contention model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpuKernelDesc {
    /// Floating point work in FLOPs.
    pub flops: f64,
    /// DRAM traffic in bytes.
    pub mem_bytes: f64,
    /// SMs the launch can usefully occupy (grid width).
    pub sm_demand: u32,
}

struct GpuContextState {
    buffers: HashMap<u64, Vec<u8>>,
    kernels: HashMap<String, KernelFn>,
    quota: u64,
    used: u64,
    kernels_launched: u64,
}

struct ContextMem<'a> {
    buffers: &'a mut HashMap<u64, Vec<u8>>,
}

impl GpuMemAccess for ContextMem<'_> {
    fn lend(
        &mut self,
        exclusive: &[GpuBuffer],
        shared: &[GpuBuffer],
        body: &mut KernelBody<'_>,
    ) -> Result<(), GpuError> {
        // An exclusively lent buffer leaves the context's map while the body
        // runs: nothing else can name it, and the borrow checker sees it as
        // disjoint from the shared ones. It returns whatever the body did.
        let mut held = Vec::with_capacity(exclusive.len());
        let result = self.lend_held(&mut held, exclusive, shared, body);
        for (buf, data) in held {
            self.buffers.insert(buf.0, data);
        }
        result
    }
}

impl ContextMem<'_> {
    fn lend_held(
        &mut self,
        held: &mut Vec<(GpuBuffer, Vec<u8>)>,
        exclusive: &[GpuBuffer],
        shared: &[GpuBuffer],
        body: &mut KernelBody<'_>,
    ) -> Result<(), GpuError> {
        for &buf in exclusive {
            match self.buffers.remove(&buf.0) {
                Some(data) => held.push((buf, data)),
                None if held.iter().any(|(h, _)| *h == buf) => {
                    return Err(GpuError::BadArg(format!(
                        "{buf:?} is written through two arguments"
                    )))
                }
                None => return Err(GpuError::UnknownBuffer(buf)),
            }
        }
        let snapshots: Vec<(GpuBuffer, Vec<u8>)> = held
            .iter()
            .filter(|(h, _)| shared.contains(h))
            .cloned()
            .collect();
        let inputs = shared
            .iter()
            .map(|&buf| {
                let live = self.buffers.get(&buf.0);
                let snapshot = || snapshots.iter().find(|(h, _)| *h == buf).map(|(_, d)| d);
                live.or_else(snapshot)
                    .map(|data| BufView::new(buf, data))
                    .ok_or(GpuError::UnknownBuffer(buf))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut outputs: Vec<_> = held
            .iter_mut()
            .map(|(buf, data)| BufViewMut::new(*buf, data))
            .collect();
        body(&mut outputs, &inputs)
    }
}

/// The simulated GPU.
pub struct GpuDevice {
    id: DeviceId,
    stream: StreamId,
    rot: KeyPair,
    capacity: u64,
    used: u64,
    sm_count: u32,
    contexts: HashMap<u32, GpuContextState>,
    next_ctx: u32,
    next_buf: u64,
    total_launches: u64,
    pending_irqs: u32,
    irq_raised_at: VecDeque<SimNs>,
    obs: Option<GpuObs>,
}

/// A DMA direction, as the `dir` label of `gpu.dma_bytes`.
#[derive(Clone, Copy)]
enum Dma {
    H2d = 0,
    D2h = 1,
}

/// The series of one kernel name.
#[derive(Clone, Copy)]
struct KernelObs {
    launches: CounterId,
    latency: HistogramId,
    span: NameId,
}

/// The device-wide series.
#[derive(Clone, Copy)]
struct DeviceSeries {
    active_contexts: GaugeId,
    mem_used: GaugeId,
    sm_occupancy: GaugeId,
    /// `gpu.dma_bytes{dir}`, indexed by [`Dma`].
    dma_bytes: [CounterId; 2],
}

/// The device's telemetry handles on the installed recorder, each resolved
/// once, by the first step that needs it: the device-wide series by the
/// first launch or transfer, a kernel's by its first launch. Each reporting
/// method below is one locked recorder step. The handles outlive
/// [`SimDevice::reset`] (the recorder does) and are dropped when another
/// recorder is installed.
struct GpuObs {
    rec: FlightRecorder,
    /// `gpu:<id>.completion`, declared when the recorder is installed.
    station: StationId,
    /// `gpu:<id>`, created by the first launch: track creation order numbers
    /// the rows of the trace.
    track: Option<TrackId>,
    id: u32,
    series: Option<DeviceSeries>,
    kernels: HashMap<Box<str>, KernelObs>,
}

/// What one launch reports besides its kernel name and duration.
struct Launched {
    active_contexts: u32,
    mem_used: u64,
    sm_occupancy_pct: i64,
}

impl GpuObs {
    fn install(rec: FlightRecorder, id: DeviceId) -> GpuObs {
        let id = id.as_u32();
        let station = rec.queue_declare(
            &format!("gpu:{id}.completion"),
            QueueKind::Completion,
            IRQ_QUEUE_SLOTS,
        );
        GpuObs {
            rec,
            station,
            track: None,
            id,
            series: None,
            kernels: HashMap::new(),
        }
    }

    fn series(series: &mut Option<DeviceSeries>, m: &mut MetricsRegistry) -> DeviceSeries {
        *series.get_or_insert_with(|| DeviceSeries {
            active_contexts: m.gauge_id("gpu.active_contexts", &[]),
            mem_used: m.gauge_id("gpu.mem_used", &[]),
            sm_occupancy: m.gauge_id("gpu.sm_occupancy_pct", &[]),
            dma_bytes: [
                m.counter_id("gpu.dma_bytes", &[("dir", "h2d")]),
                m.counter_id("gpu.dma_bytes", &[("dir", "d2h")]),
            ],
        })
    }

    /// One finished launch of `kernel` taking `t`: its count and latency,
    /// the device gauges, the span on the device track and the completion
    /// IRQ's arrival on its queue. Returns when the IRQ was raised.
    fn launched(&mut self, kernel: &str, t: SimNs, l: Launched) -> SimNs {
        self.rec.with(|r| {
            let k = match self.kernels.get(kernel) {
                Some(k) => *k,
                None => {
                    let labels = [("kernel", kernel)];
                    let k = KernelObs {
                        launches: r.metrics.counter_id("gpu.kernel_launches", &labels),
                        latency: r.metrics.histogram_id("gpu.kernel_ns", &labels),
                        span: r.spans.intern(kernel),
                    };
                    self.kernels.insert(kernel.into(), k);
                    k
                }
            };
            let s = Self::series(&mut self.series, &mut r.metrics);
            r.metrics.counter_bump(k.launches, 1);
            r.metrics.histogram_record(k.latency, t);
            r.metrics
                .gauge_store(s.active_contexts, l.active_contexts as i64);
            r.metrics.gauge_store(s.mem_used, l.mem_used as i64);
            r.metrics.gauge_store(s.sm_occupancy, l.sm_occupancy_pct);
            // Span on the device track (time profiling stays in the sRPC
            // layer, which charges the handler's execution time). The span
            // is deliberately not attributed to the ambient request: it uses
            // the device's own timebase, and the sRPC layer already covers
            // the request's kernel phase on the stream track — attaching
            // this one too would stretch the request window with a
            // clock-skew gap the causal report would misread as queueing.
            let track = *self
                .track
                .get_or_insert_with(|| r.spans.track(&format!("gpu:{}", self.id)));
            let start = r.profiler.total_elapsed();
            let req = r.spans.current_req();
            r.spans.set_current_req(None);
            r.complete_span(track, k.span, "kernel", start, start + t);
            r.spans.set_current_req(req);
            // The completion IRQ is raised when the kernel finishes; it sits
            // queued until the driver's ISR (take_irqs) services it.
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
            let s = Self::series(&mut self.series, &mut r.metrics);
            r.metrics.counter_bump(s.dma_bytes[dir as usize], bytes);
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

impl fmt::Debug for GpuDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GpuDevice")
            .field("id", &self.id)
            .field("contexts", &self.contexts.len())
            .field("used", &self.used)
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl GpuDevice {
    /// Creates a GPU with `capacity` bytes of device DRAM and `sm_count`
    /// streaming multiprocessors.
    pub fn new(id: DeviceId, stream: StreamId, capacity: u64, sm_count: u32) -> Self {
        GpuDevice {
            id,
            stream,
            rot: device_rot_keypair("nvidia", id),
            capacity,
            used: 0,
            sm_count,
            contexts: HashMap::new(),
            next_ctx: 1,
            next_buf: 1,
            total_launches: 0,
            pending_irqs: 0,
            irq_raised_at: VecDeque::new(),
            obs: None,
        }
    }

    /// Installs a flight recorder: kernel launches gain spans on the
    /// `gpu:<id>` track plus launch/latency/occupancy metrics, and the
    /// completion-IRQ queue reports to the queue observatory.
    pub fn set_recorder(&mut self, rec: FlightRecorder) {
        self.obs = Some(GpuObs::install(rec, self.id));
    }

    /// Creates a GTX 2080-class GPU (8 GiB, 46 SMs) scaled to the cost
    /// model's defaults.
    pub fn gtx2080(id: DeviceId, stream: StreamId) -> Self {
        GpuDevice::new(id, stream, 8 << 30, 46)
    }

    /// Opens a context with a device-memory `quota` (from the manifest's
    /// `resources.memory`).
    ///
    /// # Errors
    ///
    /// [`GpuError::OutOfMemory`] if the quota cannot be reserved.
    pub fn create_context(&mut self, quota: u64) -> Result<GpuContextId, GpuError> {
        if self.used + quota > self.capacity {
            return Err(GpuError::OutOfMemory {
                requested: quota,
                available: self.capacity - self.used,
            });
        }
        self.used += quota;
        let id = self.next_ctx;
        self.next_ctx += 1;
        self.contexts.insert(
            id,
            GpuContextState {
                buffers: HashMap::new(),
                kernels: HashMap::new(),
                quota,
                used: 0,
                kernels_launched: 0,
            },
        );
        Ok(GpuContextId(id))
    }

    /// Destroys a context, zeroing and releasing all of its memory.
    ///
    /// # Errors
    ///
    /// [`GpuError::UnknownContext`].
    pub fn destroy_context(&mut self, ctx: GpuContextId) -> Result<(), GpuError> {
        let mut state = self
            .contexts
            .remove(&ctx.0)
            .ok_or(GpuError::UnknownContext(ctx))?;
        for buf in state.buffers.values_mut() {
            buf.fill(0);
        }
        self.used -= state.quota;
        Ok(())
    }

    fn ctx(&self, ctx: GpuContextId) -> Result<&GpuContextState, GpuError> {
        self.contexts
            .get(&ctx.0)
            .ok_or(GpuError::UnknownContext(ctx))
    }

    fn ctx_mut(&mut self, ctx: GpuContextId) -> Result<&mut GpuContextState, GpuError> {
        self.contexts
            .get_mut(&ctx.0)
            .ok_or(GpuError::UnknownContext(ctx))
    }

    /// Allocates `len` bytes of device memory in `ctx`.
    ///
    /// # Errors
    ///
    /// [`GpuError::UnknownContext`] or [`GpuError::OutOfMemory`] when the
    /// context quota is exhausted.
    pub fn alloc(&mut self, ctx: GpuContextId, len: u64) -> Result<GpuBuffer, GpuError> {
        let handle = self.next_buf;
        let state = self.ctx_mut(ctx)?;
        if state.used + len > state.quota {
            return Err(GpuError::OutOfMemory {
                requested: len,
                available: state.quota - state.used,
            });
        }
        state.used += len;
        state.buffers.insert(handle, vec![0u8; len as usize]);
        self.next_buf += 1;
        Ok(GpuBuffer(handle))
    }

    /// Frees a buffer, zeroing it first.
    ///
    /// # Errors
    ///
    /// [`GpuError::UnknownContext`] or [`GpuError::UnknownBuffer`].
    pub fn free(&mut self, ctx: GpuContextId, buf: GpuBuffer) -> Result<(), GpuError> {
        let state = self.ctx_mut(ctx)?;
        let mut data = state
            .buffers
            .remove(&buf.0)
            .ok_or(GpuError::UnknownBuffer(buf))?;
        data.fill(0);
        state.used -= data.len() as u64;
        Ok(())
    }

    /// The bytes `[offset, offset + len)` of a context's buffer.
    fn span_of(
        contexts: &mut HashMap<u32, GpuContextState>,
        ctx: GpuContextId,
        buf: GpuBuffer,
        offset: u64,
        len: usize,
    ) -> Result<&mut [u8], GpuError> {
        let state = contexts
            .get_mut(&ctx.0)
            .ok_or(GpuError::UnknownContext(ctx))?;
        let data = state
            .buffers
            .get_mut(&buf.0)
            .ok_or(GpuError::UnknownBuffer(buf))?;
        usize::try_from(offset)
            .ok()
            .and_then(|from| data.get_mut(from..from.checked_add(len)?))
            .ok_or(GpuError::OutOfBounds {
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
    pub fn dma_in<T, E: From<GpuError>>(
        &mut self,
        ctx: GpuContextId,
        buf: GpuBuffer,
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
    pub fn dma_out<T, E: From<GpuError>>(
        &mut self,
        ctx: GpuContextId,
        buf: GpuBuffer,
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
        ctx: GpuContextId,
        buf: GpuBuffer,
        offset: u64,
        data: &[u8],
    ) -> Result<(), GpuError> {
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
        ctx: GpuContextId,
        buf: GpuBuffer,
        offset: u64,
        out: &mut [u8],
    ) -> Result<(), GpuError> {
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
    pub fn buffer_len(&self, ctx: GpuContextId, buf: GpuBuffer) -> Result<u64, GpuError> {
        self.ctx(ctx)?
            .buffers
            .get(&buf.0)
            .map(|d| d.len() as u64)
            .ok_or(GpuError::UnknownBuffer(buf))
    }

    /// Registers a kernel implementation under `name` in `ctx` (the device
    /// half of module loading; the image hash lives in the manifest).
    ///
    /// # Errors
    ///
    /// [`GpuError::UnknownContext`].
    pub fn register_kernel(
        &mut self,
        ctx: GpuContextId,
        name: &str,
        f: KernelFn,
    ) -> Result<(), GpuError> {
        self.ctx_mut(ctx)?.kernels.insert(name.to_string(), f);
        Ok(())
    }

    /// Launches a kernel: runs the registered closure against the context's
    /// buffers and returns the simulated execution time under the current
    /// spatial-sharing contention.
    ///
    /// # Errors
    ///
    /// [`GpuError::UnknownKernel`] plus anything the kernel body raises.
    pub fn launch(
        &mut self,
        cost: &CostModel,
        ctx: GpuContextId,
        kernel: &str,
        args: &[KernelArg],
        desc: GpuKernelDesc,
    ) -> Result<SimNs, GpuError> {
        let active = self.contexts.len().max(1) as u32;
        let sm_count = self.sm_count;
        let state = self.ctx_mut(ctx)?;
        let f = state
            .kernels
            .get(kernel)
            .ok_or_else(|| GpuError::UnknownKernel(kernel.to_string()))?
            .clone();
        f(
            &mut ContextMem {
                buffers: &mut state.buffers,
            },
            args,
        )?;
        state.kernels_launched += 1;
        self.total_launches += 1;
        // Completion interrupt for the driver to service.
        self.pending_irqs += 1;
        let t = Self::exec_time(cost, sm_count, active, desc);
        if let Some(obs) = &mut self.obs {
            // Device-wide SM occupancy under the MPS split.
            let sms_avail = (sm_count as f64 / active as f64).max(1.0);
            let sms_used = (desc.sm_demand.max(1) as f64).min(sms_avail);
            let pct = (sms_used * active as f64 / sm_count as f64 * 100.0).min(100.0);
            let launched = Launched {
                active_contexts: active,
                mem_used: self.used,
                sm_occupancy_pct: pct as i64,
            };
            self.irq_raised_at
                .push_back(obs.launched(kernel, t, launched));
        }
        Ok(t)
    }

    /// The contention model: concurrent contexts split SMs (MPS-style) and
    /// memory bandwidth, and the launch path (driver + doorbell) degrades
    /// quadratically with tenant count — small kernels from different
    /// tenants overlap well at 2 tenants but the submission pipeline
    /// saturates by 4, which is the Fig. 11a shape ("up to 63.4% higher
    /// throughput" at 2, degradation at 4).
    pub fn exec_time(
        cost: &CostModel,
        sm_count: u32,
        active_contexts: u32,
        desc: GpuKernelDesc,
    ) -> SimNs {
        let active = active_contexts.max(1) as f64;
        let sms_avail = (sm_count as f64 / active).max(1.0);
        let sms_used = (desc.sm_demand.max(1) as f64).min(sms_avail);
        let compute_ns = desc.flops / (cost.gpu_flops_per_sm_ns * sms_used);
        let mem_ns = desc.mem_bytes / (cost.gpu_mem_bytes_per_ns / active);
        let launch_factor = 1.0 + 0.18 * (active - 1.0) * (active - 1.0);
        cost.gpu_kernel_launch.scale(launch_factor)
            + SimNs::from_nanos(compute_ns.max(mem_ns).ceil() as u64)
    }

    /// Number of kernels launched in a context (throughput accounting).
    ///
    /// # Errors
    ///
    /// [`GpuError::UnknownContext`].
    pub fn kernels_launched(&self, ctx: GpuContextId) -> Result<u64, GpuError> {
        Ok(self.ctx(ctx)?.kernels_launched)
    }

    /// Total kernels launched across all contexts since the last reset.
    pub fn total_launches(&self) -> u64 {
        self.total_launches
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

    /// SM count.
    pub fn sm_count(&self) -> u32 {
        self.sm_count
    }
}

impl SimDevice for GpuDevice {
    fn id(&self) -> DeviceId {
        self.id
    }

    fn dma_stream(&self) -> StreamId {
        self.stream
    }

    fn compatible(&self) -> &str {
        "nvidia,gtx2080"
    }

    fn kind(&self) -> DeviceKind {
        DeviceKind::Gpu
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
            for buf in state.buffers.values_mut() {
                buf.fill(0);
            }
        }
        self.contexts.clear();
        self.used = 0;
        self.total_launches = 0;
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

    fn gpu() -> GpuDevice {
        GpuDevice::new(DeviceId::new(1), StreamId::new(1), 1 << 20, 46)
    }

    fn scale_kernel() -> KernelFn {
        Arc::new(|mem, args| {
            let (buf, factor) = match args {
                [KernelArg::Buffer(b), KernelArg::Float(f)] => (*b, *f),
                _ => return Err(GpuError::BadArg("expected (buffer, float)".into())),
            };
            mem.lend(&[buf], &[], &mut |outs, _| {
                for mut v in outs[0].f32s_mut() {
                    v.set(v.get() * factor);
                }
                Ok(())
            })
        })
    }

    const TINY: GpuKernelDesc = GpuKernelDesc {
        flops: 1.0,
        mem_bytes: 1.0,
        sm_demand: 1,
    };

    /// Registers `body` as kernel `k` of `ctx` and launches it on `args`.
    fn launch_body(
        g: &mut GpuDevice,
        ctx: GpuContextId,
        args: &[KernelArg],
        body: impl Fn(&mut dyn GpuMemAccess, &[KernelArg]) -> Result<(), GpuError>
            + Send
            + Sync
            + 'static,
    ) -> Result<SimNs, GpuError> {
        g.register_kernel(ctx, "k", Arc::new(body)).unwrap();
        g.launch(&CostModel::default(), ctx, "k", args, TINY)
    }

    fn bytes_of(g: &mut GpuDevice, ctx: GpuContextId, buf: GpuBuffer, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        g.read_buffer(ctx, buf, 0, &mut out).unwrap();
        out
    }

    #[test]
    fn alloc_write_read_round_trip() {
        let mut g = gpu();
        let ctx = g.create_context(4096).unwrap();
        let buf = g.alloc(ctx, 16).unwrap();
        g.write_buffer(ctx, buf, 4, &[1, 2, 3]).unwrap();
        let mut out = [0u8; 3];
        g.read_buffer(ctx, buf, 4, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3]);
        assert_eq!(g.buffer_len(ctx, buf).unwrap(), 16);
    }

    #[test]
    fn contexts_cannot_see_each_others_buffers() {
        let mut g = gpu();
        let a = g.create_context(4096).unwrap();
        let b = g.create_context(4096).unwrap();
        let buf = g.alloc(a, 16).unwrap();
        let mut out = [0u8; 1];
        let err = g.read_buffer(b, buf, 0, &mut out).unwrap_err();
        assert_eq!(err, GpuError::UnknownBuffer(buf));
    }

    #[test]
    fn a_kernel_is_lent_only_its_own_contexts_buffers() {
        let mut g = gpu();
        let a = g.create_context(4096).unwrap();
        let b = g.create_context(4096).unwrap();
        let mine = g.alloc(a, 16).unwrap();
        let theirs = g.alloc(b, 16).unwrap();
        g.write_buffer(b, theirs, 0, &[7; 16]).unwrap();
        for (exclusive, shared) in [(vec![theirs], vec![]), (vec![mine], vec![theirs])] {
            let err = launch_body(&mut g, a, &[], move |mem, _| {
                mem.lend(&exclusive, &shared, &mut |_, _| {
                    panic!("a foreign buffer must not be lent")
                })
            })
            .unwrap_err();
            assert_eq!(err, GpuError::UnknownBuffer(theirs));
        }
        // A freed handle is as unknown as a foreign one.
        g.free(a, mine).unwrap();
        let err = launch_body(&mut g, a, &[], move |mem, _| {
            mem.lend(&[], &[mine], &mut |_, _| Ok(()))
        })
        .unwrap_err();
        assert_eq!(err, GpuError::UnknownBuffer(mine));
        assert_eq!(bytes_of(&mut g, b, theirs, 16), [7; 16], "untouched");
    }

    #[test]
    fn exclusive_buffers_return_even_when_the_kernel_fails() {
        let mut g = gpu();
        let ctx = g.create_context(100).unwrap();
        let out = g.alloc(ctx, 64).unwrap();
        let inp = g.alloc(ctx, 16).unwrap();
        let err = launch_body(&mut g, ctx, &[], move |mem, _| {
            mem.lend(&[out], &[inp], &mut |outs, _| {
                outs[0].set_u32(0, 0xDEAD_BEEF)?;
                outs[0].set_u32(16, 1)
            })
        })
        .unwrap_err();
        assert!(
            matches!(err, GpuError::OutOfBounds { buffer, offset: 64, len: 4 } if buffer == out)
        );
        // The buffer is back in its context, with what the kernel wrote
        // before it failed, and is zeroed and released by free as ever.
        assert_eq!(bytes_of(&mut g, ctx, out, 4), 0xDEAD_BEEFu32.to_le_bytes());
        assert_eq!(g.kernels_launched(ctx).unwrap(), 0);
        g.free(ctx, out).unwrap();
        assert_eq!(
            g.free(ctx, out).unwrap_err(),
            GpuError::UnknownBuffer(out),
            "freed exactly once"
        );
        let again = g.alloc(ctx, 64).expect("quota was released");
        assert_eq!(bytes_of(&mut g, ctx, again, 64), [0; 64]);
        // Lending the same buffer exclusively twice fails before the body
        // runs, and gives back the one already taken.
        let err = launch_body(&mut g, ctx, &[], move |mem, _| {
            mem.lend(&[again, again], &[], &mut |_, _| {
                panic!("two exclusive views of one buffer")
            })
        })
        .unwrap_err();
        assert!(matches!(err, GpuError::BadArg(_)));
        assert_eq!(g.buffer_len(ctx, again).unwrap(), 64);
    }

    #[test]
    fn an_input_that_is_also_an_output_is_a_snapshot() {
        let mut g = gpu();
        let ctx = g.create_context(4096).unwrap();
        let buf = g.alloc(ctx, 12).unwrap();
        let init: Vec<u8> = [1u32, 2, 3].iter().flat_map(|v| v.to_le_bytes()).collect();
        g.write_buffer(ctx, buf, 0, &init).unwrap();
        // out[i] = in[i] + in[(i + 1) % 3], with in == out.
        launch_body(&mut g, ctx, &[], move |mem, _| {
            mem.lend(&[buf], &[buf], &mut |outs, ins| {
                for i in 0..3 {
                    outs[0].set_u32(i, ins[0].u32(i)? + ins[0].u32((i + 1) % 3)?)?;
                }
                Ok(())
            })
        })
        .unwrap();
        let want: Vec<u8> = [3u32, 5, 4].iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(bytes_of(&mut g, ctx, buf, 12), want);
    }

    #[test]
    fn reset_zeroes_what_kernels_wrote() {
        let mut g = gpu();
        let ctx = g.create_context(4096).unwrap();
        let buf = g.alloc(ctx, 8).unwrap();
        launch_body(&mut g, ctx, &[], move |mem, _| {
            mem.lend(&[buf], &[], &mut |outs, _| outs[0].set_f32(1, 4.5))
        })
        .unwrap();
        assert_eq!(bytes_of(&mut g, ctx, buf, 8)[4..], 4.5f32.to_le_bytes());
        g.reset();
        assert_eq!(g.context_count(), 0);
        let ctx = g.create_context(4096).unwrap();
        let err = launch_body(&mut g, ctx, &[], move |mem, _| {
            mem.lend(&[], &[buf], &mut |_, _| Ok(()))
        })
        .unwrap_err();
        assert_eq!(err, GpuError::UnknownBuffer(buf), "old handles are dead");
    }

    #[test]
    fn quota_enforced_per_context() {
        let mut g = gpu();
        let ctx = g.create_context(100).unwrap();
        assert!(g.alloc(ctx, 64).is_ok());
        let err = g.alloc(ctx, 64).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { available: 36, .. }));
    }

    #[test]
    fn device_capacity_enforced_across_contexts() {
        let mut g = GpuDevice::new(DeviceId::new(1), StreamId::new(1), 1000, 46);
        g.create_context(600).unwrap();
        let err = g.create_context(600).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { .. }));
    }

    #[test]
    fn kernel_computes_on_device_memory() {
        let cm = CostModel::default();
        let mut g = gpu();
        let ctx = g.create_context(4096).unwrap();
        let buf = g.alloc(ctx, 16).unwrap();
        let init: Vec<u8> = [1.0f32, 2.0, 3.0, 4.0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        g.write_buffer(ctx, buf, 0, &init).unwrap();
        g.register_kernel(ctx, "scale", scale_kernel()).unwrap();
        let desc = GpuKernelDesc {
            flops: 4.0,
            mem_bytes: 32.0,
            sm_demand: 1,
        };
        let t = g
            .launch(
                &cm,
                ctx,
                "scale",
                &[KernelArg::Buffer(buf), KernelArg::Float(2.0)],
                desc,
            )
            .unwrap();
        assert!(t >= cm.gpu_kernel_launch);
        let mut out = [0u8; 4];
        g.read_buffer(ctx, buf, 0, &mut out).unwrap();
        assert_eq!(f32::from_le_bytes(out), 2.0);
        assert_eq!(g.kernels_launched(ctx).unwrap(), 1);
        assert_eq!(g.total_launches(), 1);
    }

    #[test]
    fn unknown_kernel_rejected() {
        let cm = CostModel::default();
        let mut g = gpu();
        let ctx = g.create_context(4096).unwrap();
        let desc = GpuKernelDesc {
            flops: 1.0,
            mem_bytes: 1.0,
            sm_demand: 1,
        };
        let err = g.launch(&cm, ctx, "nope", &[], desc).unwrap_err();
        assert_eq!(err, GpuError::UnknownKernel("nope".into()));
    }

    #[test]
    fn exec_time_contention_shape() {
        let cm = CostModel::default();
        // A small kernel (8 SM demand) should not slow down with 2 tenants on
        // a 46-SM machine but must slow down with 16.
        let small = GpuKernelDesc {
            flops: 1e8,
            mem_bytes: 0.0,
            sm_demand: 8,
        };
        let t1 = GpuDevice::exec_time(&cm, 46, 1, small);
        let t2 = GpuDevice::exec_time(&cm, 46, 2, small);
        let t16 = GpuDevice::exec_time(&cm, 46, 16, small);
        // Two tenants: only the mild launch-path contention applies.
        assert!(t2 >= t1);
        assert!(t2 < t1.scale(1.3));
        assert!(t16 > t2);
        // A machine-filling kernel slows down immediately.
        let big = GpuKernelDesc {
            flops: 1e9,
            mem_bytes: 0.0,
            sm_demand: 46,
        };
        assert!(GpuDevice::exec_time(&cm, 46, 2, big) > GpuDevice::exec_time(&cm, 46, 1, big));
    }

    #[test]
    fn destroy_context_releases_quota() {
        let mut g = GpuDevice::new(DeviceId::new(1), StreamId::new(1), 1000, 46);
        let ctx = g.create_context(600).unwrap();
        g.destroy_context(ctx).unwrap();
        assert_eq!(g.memory_used(), 0);
        assert!(g.create_context(600).is_ok());
        assert_eq!(
            g.destroy_context(ctx).unwrap_err(),
            GpuError::UnknownContext(ctx)
        );
    }

    #[test]
    fn reset_clears_everything() {
        let mut g = gpu();
        let ctx = g.create_context(4096).unwrap();
        let _ = g.alloc(ctx, 64).unwrap();
        g.reset();
        assert_eq!(g.context_count(), 0);
        assert_eq!(g.memory_used(), 0);
        assert_eq!(g.total_launches(), 0);
        // Old handles are dead.
        assert!(g.alloc(ctx, 1).is_err());
    }

    #[test]
    fn out_of_bounds_access_rejected() {
        let mut g = gpu();
        let ctx = g.create_context(4096).unwrap();
        let buf = g.alloc(ctx, 8).unwrap();
        let err = g.write_buffer(ctx, buf, 6, &[0; 4]).unwrap_err();
        assert!(matches!(err, GpuError::OutOfBounds { .. }));
    }

    #[test]
    fn free_zeroes_and_releases() {
        let mut g = gpu();
        let ctx = g.create_context(100).unwrap();
        let buf = g.alloc(ctx, 64).unwrap();
        g.free(ctx, buf).unwrap();
        let mut out = [0u8; 1];
        assert!(g.read_buffer(ctx, buf, 0, &mut out).is_err());
        assert!(g.alloc(ctx, 64).is_ok(), "quota was released");
    }

    #[test]
    fn sim_device_trait_surface() {
        let g = gpu();
        assert_eq!(g.kind(), DeviceKind::Gpu);
        assert_eq!(g.compatible(), "nvidia,gtx2080");
        let sig = g.sign_config(b"cfg");
        assert!(g.rot_public().verify(b"cfg", &sig).is_ok());
    }
}
