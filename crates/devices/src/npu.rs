//! A VTA-class NPU simulator.
//!
//! The paper builds its NPU "by implementing a simulated QEMU PCIe device
//! that runs VTA's fsim simulator code" and enforces "isolated concurrent
//! NPU code execution within the device using virtual memory" (§V-B). This
//! module is the Rust analogue: an interpreter for a VTA-style instruction
//! set (LOAD / GEMM / ALU / STORE) over int8 tensors with int32 accumulation,
//! with per-context buffer isolation and a MAC-throughput cost model.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use cronus_crypto::{KeyPair, PublicKey, Signature};
use cronus_obs::{
    CounterId, FlightRecorder, HistogramId, NameId, QueueKind, RecorderInner, StationId, TrackId,
};
use cronus_sim::tzpc::DeviceId;
use cronus_sim::{CostModel, SimNs, StreamId};

use crate::{device_rot_keypair, DeviceKind, SimDevice};

/// Handle to an NPU execution context.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NpuContextId(u32);

/// Handle to an NPU device-memory buffer (context-scoped).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NpuBuffer(u64);

impl NpuBuffer {
    /// Reconstructs a handle from its raw id (runtime wire format).
    pub const fn from_raw(raw: u64) -> Self {
        NpuBuffer(raw)
    }

    /// The raw handle id (runtime wire format).
    pub const fn as_raw(self) -> u64 {
        self.0
    }
}

/// Element-wise ALU operations on the accumulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AluOp {
    /// `acc += imm`
    AddImm(i32),
    /// `acc = max(acc, imm)` — ReLU is `MaxImm(0)`.
    MaxImm(i32),
    /// `acc = min(acc, imm)`
    MinImm(i32),
    /// Arithmetic right shift (requantization).
    ShrImm(u8),
}

/// One VTA instruction.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum VtaInsn {
    /// Loads an `rows x cols` i8 matrix from device memory into the input
    /// scratchpad. `stride` is the row pitch in bytes (2-D DMA); pass
    /// `cols` for a dense matrix.
    LoadInp {
        src: NpuBuffer,
        offset: u64,
        rows: usize,
        cols: usize,
        stride: usize,
    },
    /// Loads an `rows x cols` i8 matrix into the weight scratchpad (same
    /// 2-D addressing as `LoadInp`).
    LoadWgt {
        src: NpuBuffer,
        offset: u64,
        rows: usize,
        cols: usize,
        stride: usize,
    },
    /// Zeroes the accumulator and shapes it `rows x cols` (i32).
    ResetAcc { rows: usize, cols: usize },
    /// `acc[m x n] += inp[m x k] * wgt[n x k]^T` (VTA weight layout).
    Gemm,
    /// Applies an ALU op across the accumulator.
    Alu(AluOp),
    /// Stores the accumulator, saturated to i8, into device memory with a
    /// row pitch of `stride` bytes.
    StoreAcc {
        dst: NpuBuffer,
        offset: u64,
        stride: usize,
    },
}

/// A compiled NPU program (what the TVM-like compiler emits).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VtaProgram {
    /// Instruction sequence.
    pub insns: Vec<VtaInsn>,
}

impl VtaProgram {
    /// Creates an empty program.
    pub fn new() -> Self {
        VtaProgram::default()
    }

    /// Appends an instruction (builder style).
    pub fn push(&mut self, insn: VtaInsn) -> &mut Self {
        self.insns.push(insn);
        self
    }

    /// Total multiply-accumulate operations in the program, given the
    /// scratchpad shapes at each GEMM (computed by simulating shapes).
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }
}

/// Errors raised by NPU operations.
#[derive(Clone, Debug, PartialEq)]
pub enum NpuError {
    /// Stale or foreign context id.
    UnknownContext(NpuContextId),
    /// Unknown (or cross-context) buffer handle.
    UnknownBuffer(NpuBuffer),
    /// Context quota or device capacity exhausted.
    OutOfMemory { requested: u64, available: u64 },
    /// Buffer access out of bounds.
    OutOfBounds {
        buffer: NpuBuffer,
        offset: u64,
        len: u64,
    },
    /// GEMM with mismatched scratchpad shapes.
    ShapeMismatch {
        inp: (usize, usize),
        wgt: (usize, usize),
        acc: (usize, usize),
    },
    /// Instruction needs scratchpad state that was never loaded.
    ScratchpadEmpty(&'static str),
}

impl fmt::Display for NpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NpuError::UnknownContext(c) => write!(f, "unknown npu context {c:?}"),
            NpuError::UnknownBuffer(b) => write!(f, "unknown npu buffer {b:?}"),
            NpuError::OutOfMemory {
                requested,
                available,
            } => {
                write!(
                    f,
                    "npu out of memory: requested {requested}, available {available}"
                )
            }
            NpuError::OutOfBounds {
                buffer,
                offset,
                len,
            } => {
                write!(f, "access [{offset}, +{len}) out of bounds for {buffer:?}")
            }
            NpuError::ShapeMismatch { inp, wgt, acc } => write!(
                f,
                "gemm shape mismatch: inp {inp:?}, wgt {wgt:?}, acc {acc:?}"
            ),
            NpuError::ScratchpadEmpty(which) => {
                write!(f, "{which} scratchpad is empty")
            }
        }
    }
}

impl std::error::Error for NpuError {}

#[derive(Default)]
struct Scratchpads {
    inp: Option<(Vec<i8>, usize, usize)>,
    wgt: Option<(Vec<i8>, usize, usize)>,
    acc: Option<(Vec<i32>, usize, usize)>,
}

struct NpuContextState {
    buffers: HashMap<u64, Vec<u8>>,
    quota: u64,
    used: u64,
    pads: Scratchpads,
    programs_run: u64,
}

/// The simulated NPU device.
pub struct NpuDevice {
    id: DeviceId,
    stream: StreamId,
    rot: KeyPair,
    capacity: u64,
    used: u64,
    contexts: HashMap<u32, NpuContextState>,
    next_ctx: u32,
    next_buf: u64,
    pending_irqs: u32,
    irq_raised_at: VecDeque<SimNs>,
    obs: Option<NpuObs>,
}

/// A DMA direction, as the `dir` label of `npu.dma_bytes`.
#[derive(Clone, Copy)]
enum Dma {
    H2d = 0,
    D2h = 1,
}

/// The device-wide series.
#[derive(Clone, Copy)]
struct DeviceSeries {
    programs_run: CounterId,
    insns_run: CounterId,
    program_ns: HistogramId,
    span: NameId,
    /// `npu.dma_bytes{dir}`, indexed by [`Dma`].
    dma_bytes: [CounterId; 2],
}

/// The device's telemetry handles on the installed recorder, resolved once
/// by the first program or transfer; each reporting method is one locked
/// recorder step (see the GPU device, whose scheme this follows).
struct NpuObs {
    rec: FlightRecorder,
    /// `npu:<id>.completion`, declared when the recorder is installed.
    station: StationId,
    /// `npu:<id>`, created by the first program run (track creation order
    /// numbers the rows of the trace).
    track: Option<TrackId>,
    id: u32,
    series: Option<DeviceSeries>,
}

impl NpuObs {
    fn install(rec: FlightRecorder, id: DeviceId) -> NpuObs {
        let id = id.as_u32();
        let station = rec.queue_declare(
            &format!("npu:{id}.completion"),
            QueueKind::Completion,
            crate::gpu::IRQ_QUEUE_SLOTS,
        );
        NpuObs {
            rec,
            station,
            track: None,
            id,
            series: None,
        }
    }

    fn series(series: &mut Option<DeviceSeries>, r: &mut RecorderInner) -> DeviceSeries {
        *series.get_or_insert_with(|| DeviceSeries {
            programs_run: r.metrics.counter_id("npu.programs_run", &[]),
            insns_run: r.metrics.counter_id("npu.insns_run", &[]),
            program_ns: r.metrics.histogram_id("npu.program_ns", &[]),
            span: r.spans.intern("vta-program"),
            dma_bytes: [
                r.metrics.counter_id("npu.dma_bytes", &[("dir", "h2d")]),
                r.metrics.counter_id("npu.dma_bytes", &[("dir", "d2h")]),
            ],
        })
    }

    /// One finished program of `insns` instructions taking `total`: the run
    /// counters, the span on the device track and the completion IRQ's
    /// arrival on its queue. Returns when the IRQ was raised.
    fn ran(&mut self, insns: u64, total: SimNs) -> SimNs {
        self.rec.with(|r| {
            let s = Self::series(&mut self.series, r);
            r.metrics.counter_bump(s.programs_run, 1);
            r.metrics.counter_bump(s.insns_run, insns);
            r.metrics.histogram_record(s.program_ns, total);
            // Device-timebase span, not attributed to the ambient request
            // (the sRPC layer covers the request's kernel phase on the
            // stream track; see the GPU device for the rationale).
            let track = *self
                .track
                .get_or_insert_with(|| r.spans.track(&format!("npu:{}", self.id)));
            let start = r.profiler.total_elapsed();
            let req = r.spans.current_req();
            r.spans.set_current_req(None);
            r.complete_span(track, s.span, "kernel", start, start + total);
            r.spans.set_current_req(req);
            // Completion IRQ raised when the program finishes; queued until
            // the driver's ISR services it.
            let raised = start + total;
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
            let s = Self::series(&mut self.series, r);
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

impl fmt::Debug for NpuDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NpuDevice")
            .field("id", &self.id)
            .field("contexts", &self.contexts.len())
            .finish_non_exhaustive()
    }
}

impl NpuDevice {
    /// Creates an NPU with `capacity` bytes of device memory.
    pub fn new(id: DeviceId, stream: StreamId, capacity: u64) -> Self {
        NpuDevice {
            id,
            stream,
            rot: device_rot_keypair("vta", id),
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

    /// Installs a flight recorder: program runs gain spans on the `npu:<id>`
    /// track plus run-count/latency metrics, and the completion-IRQ queue
    /// reports to the queue observatory.
    pub fn set_recorder(&mut self, rec: FlightRecorder) {
        self.obs = Some(NpuObs::install(rec, self.id));
    }

    /// A VTA-class device (256 MiB).
    pub fn vta(id: DeviceId, stream: StreamId) -> Self {
        NpuDevice::new(id, stream, 256 << 20)
    }

    /// Opens a context with a memory quota.
    ///
    /// # Errors
    ///
    /// [`NpuError::OutOfMemory`].
    pub fn create_context(&mut self, quota: u64) -> Result<NpuContextId, NpuError> {
        if self.used + quota > self.capacity {
            return Err(NpuError::OutOfMemory {
                requested: quota,
                available: self.capacity - self.used,
            });
        }
        self.used += quota;
        let id = self.next_ctx;
        self.next_ctx += 1;
        self.contexts.insert(
            id,
            NpuContextState {
                buffers: HashMap::new(),
                quota,
                used: 0,
                pads: Scratchpads::default(),
                programs_run: 0,
            },
        );
        Ok(NpuContextId(id))
    }

    /// Destroys a context, zeroing its buffers.
    ///
    /// # Errors
    ///
    /// [`NpuError::UnknownContext`].
    pub fn destroy_context(&mut self, ctx: NpuContextId) -> Result<(), NpuError> {
        let mut state = self
            .contexts
            .remove(&ctx.0)
            .ok_or(NpuError::UnknownContext(ctx))?;
        for buf in state.buffers.values_mut() {
            buf.fill(0);
        }
        self.used -= state.quota;
        Ok(())
    }

    fn ctx_mut(&mut self, ctx: NpuContextId) -> Result<&mut NpuContextState, NpuError> {
        self.contexts
            .get_mut(&ctx.0)
            .ok_or(NpuError::UnknownContext(ctx))
    }

    /// Allocates device memory.
    ///
    /// # Errors
    ///
    /// Context/quota errors as above.
    pub fn alloc(&mut self, ctx: NpuContextId, len: u64) -> Result<NpuBuffer, NpuError> {
        let handle = self.next_buf;
        let state = self.ctx_mut(ctx)?;
        if state.used + len > state.quota {
            return Err(NpuError::OutOfMemory {
                requested: len,
                available: state.quota - state.used,
            });
        }
        state.used += len;
        state.buffers.insert(handle, vec![0u8; len as usize]);
        self.next_buf += 1;
        Ok(NpuBuffer(handle))
    }

    /// The bytes `[offset, offset + len)` of a context's buffer.
    fn span_of(
        contexts: &mut HashMap<u32, NpuContextState>,
        ctx: NpuContextId,
        buf: NpuBuffer,
        offset: u64,
        len: usize,
    ) -> Result<&mut [u8], NpuError> {
        let state = contexts
            .get_mut(&ctx.0)
            .ok_or(NpuError::UnknownContext(ctx))?;
        let data = state
            .buffers
            .get_mut(&buf.0)
            .ok_or(NpuError::UnknownBuffer(buf))?;
        usize::try_from(offset)
            .ok()
            .and_then(|from| data.get_mut(from..from.checked_add(len)?))
            .ok_or(NpuError::OutOfBounds {
                buffer: buf,
                offset,
                len: len as u64,
            })
    }

    /// Inbound DMA: lends `[offset, offset + len)` of a buffer to `fill`,
    /// which writes the arriving bytes straight into device memory. The
    /// bytes count as transferred once `fill` succeeds.
    ///
    /// # Errors
    ///
    /// Buffer/context errors, else whatever `fill` returns.
    pub fn dma_in<T, E: From<NpuError>>(
        &mut self,
        ctx: NpuContextId,
        buf: NpuBuffer,
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
    /// which reads the departing bytes straight out of device memory.
    ///
    /// # Errors
    ///
    /// Buffer/context errors, else whatever `drain` returns.
    pub fn dma_out<T, E: From<NpuError>>(
        &mut self,
        ctx: NpuContextId,
        buf: NpuBuffer,
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

    /// Writes host bytes into a device buffer.
    ///
    /// # Errors
    ///
    /// Buffer/context errors.
    pub fn write_buffer(
        &mut self,
        ctx: NpuContextId,
        buf: NpuBuffer,
        offset: u64,
        data: &[u8],
    ) -> Result<(), NpuError> {
        self.dma_in(ctx, buf, offset, data.len(), |dst| {
            dst.copy_from_slice(data);
            Ok(())
        })
    }

    /// Reads a device buffer into host bytes.
    ///
    /// # Errors
    ///
    /// Buffer/context errors.
    pub fn read_buffer(
        &mut self,
        ctx: NpuContextId,
        buf: NpuBuffer,
        offset: u64,
        out: &mut [u8],
    ) -> Result<(), NpuError> {
        self.dma_out(ctx, buf, offset, out.len(), |src| {
            out.copy_from_slice(src);
            Ok(())
        })
    }

    /// Runs a program to completion, returning the simulated execution time.
    ///
    /// # Errors
    ///
    /// Shape/buffer/context errors from individual instructions. On error the
    /// scratchpads are left as-is (the device would raise an interrupt).
    pub fn run(
        &mut self,
        cost: &CostModel,
        ctx: NpuContextId,
        program: &VtaProgram,
    ) -> Result<SimNs, NpuError> {
        let mut total = SimNs::ZERO;
        // Split borrows: temporarily take the state out of the map.
        let state = self.ctx_mut(ctx)?;
        for insn in &program.insns {
            total += Self::step(cost, state, insn)?;
        }
        state.programs_run += 1;
        self.pending_irqs += 1;
        if let Some(obs) = &mut self.obs {
            self.irq_raised_at
                .push_back(obs.ran(program.insns.len() as u64, total));
        }
        Ok(total)
    }

    fn step(
        cost: &CostModel,
        state: &mut NpuContextState,
        insn: &VtaInsn,
    ) -> Result<SimNs, NpuError> {
        let issue = cost.npu_issue;
        match *insn {
            VtaInsn::LoadInp {
                src,
                offset,
                rows,
                cols,
                stride,
            } => {
                let data = Self::load_i8_2d(state, src, offset, rows, cols, stride)?;
                state.pads.inp = Some((data, rows, cols));
                Ok(issue + cost.pcie_copy((rows * cols) as u64))
            }
            VtaInsn::LoadWgt {
                src,
                offset,
                rows,
                cols,
                stride,
            } => {
                let data = Self::load_i8_2d(state, src, offset, rows, cols, stride)?;
                state.pads.wgt = Some((data, rows, cols));
                Ok(issue + cost.pcie_copy((rows * cols) as u64))
            }
            VtaInsn::ResetAcc { rows, cols } => {
                state.pads.acc = Some((vec![0i32; rows * cols], rows, cols));
                Ok(issue)
            }
            VtaInsn::Gemm => {
                let (inp, m, k) = state
                    .pads
                    .inp
                    .as_ref()
                    .ok_or(NpuError::ScratchpadEmpty("input"))?;
                let (wgt, n, k2) = state
                    .pads
                    .wgt
                    .as_ref()
                    .ok_or(NpuError::ScratchpadEmpty("weight"))?;
                let (acc, am, an) = state
                    .pads
                    .acc
                    .as_mut()
                    .ok_or(NpuError::ScratchpadEmpty("accumulator"))?;
                if *k != *k2 || *am != *m || *an != *n {
                    return Err(NpuError::ShapeMismatch {
                        inp: (*m, *k),
                        wgt: (*n, *k2),
                        acc: (*am, *an),
                    });
                }
                for i in 0..*m {
                    for j in 0..*n {
                        let mut sum = 0i32;
                        for kk in 0..*k {
                            sum += inp[i * *k + kk] as i32 * wgt[j * *k + kk] as i32;
                        }
                        acc[i * *n + j] += sum;
                    }
                }
                let macs = (*m * *n * *k) as f64;
                Ok(issue + cost.npu_gemm(macs))
            }
            VtaInsn::Alu(op) => {
                let (acc, _, _) = state
                    .pads
                    .acc
                    .as_mut()
                    .ok_or(NpuError::ScratchpadEmpty("accumulator"))?;
                for v in acc.iter_mut() {
                    *v = match op {
                        AluOp::AddImm(imm) => v.saturating_add(imm),
                        AluOp::MaxImm(imm) => (*v).max(imm),
                        AluOp::MinImm(imm) => (*v).min(imm),
                        AluOp::ShrImm(s) => *v >> s,
                    };
                }
                Ok(issue + SimNs::from_nanos(acc.len() as u64 / 16 + 1))
            }
            VtaInsn::StoreAcc {
                dst,
                offset,
                stride,
            } => {
                let (acc, rows, cols) = state
                    .pads
                    .acc
                    .as_ref()
                    .ok_or(NpuError::ScratchpadEmpty("accumulator"))?;
                let (rows, cols) = (*rows, *cols);
                let stride = stride.max(cols);
                let bytes: Vec<u8> = acc
                    .iter()
                    .map(|v| (*v).clamp(i8::MIN as i32, i8::MAX as i32) as i8 as u8)
                    .collect();
                let buf = state
                    .buffers
                    .get_mut(&dst.0)
                    .ok_or(NpuError::UnknownBuffer(dst))?;
                let end = offset as usize + (rows - 1) * stride + cols;
                if rows == 0 || end > buf.len() {
                    return Err(NpuError::OutOfBounds {
                        buffer: dst,
                        offset,
                        len: (rows * cols) as u64,
                    });
                }
                for r in 0..rows {
                    let dst_off = offset as usize + r * stride;
                    buf[dst_off..dst_off + cols].copy_from_slice(&bytes[r * cols..(r + 1) * cols]);
                }
                Ok(issue + cost.pcie_copy((rows * cols) as u64))
            }
        }
    }

    fn load_i8_2d(
        state: &NpuContextState,
        src: NpuBuffer,
        offset: u64,
        rows: usize,
        cols: usize,
        stride: usize,
    ) -> Result<Vec<i8>, NpuError> {
        let stride = stride.max(cols);
        let buf = state
            .buffers
            .get(&src.0)
            .ok_or(NpuError::UnknownBuffer(src))?;
        if rows == 0 || cols == 0 {
            return Ok(Vec::new());
        }
        let end = offset as usize + (rows - 1) * stride + cols;
        if end > buf.len() {
            return Err(NpuError::OutOfBounds {
                buffer: src,
                offset,
                len: (rows * cols) as u64,
            });
        }
        let mut out = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            let row_off = offset as usize + r * stride;
            out.extend(buf[row_off..row_off + cols].iter().map(|b| *b as i8));
        }
        Ok(out)
    }

    /// Takes (and clears) the pending completion interrupts.
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

    /// Programs completed in a context.
    ///
    /// # Errors
    ///
    /// [`NpuError::UnknownContext`].
    pub fn programs_run(&self, ctx: NpuContextId) -> Result<u64, NpuError> {
        self.contexts
            .get(&ctx.0)
            .map(|s| s.programs_run)
            .ok_or(NpuError::UnknownContext(ctx))
    }
}

impl SimDevice for NpuDevice {
    fn id(&self) -> DeviceId {
        self.id
    }

    fn dma_stream(&self) -> StreamId {
        self.stream
    }

    fn compatible(&self) -> &str {
        "tvm,vta-fsim"
    }

    fn kind(&self) -> DeviceKind {
        DeviceKind::Npu
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

    fn npu() -> NpuDevice {
        NpuDevice::new(DeviceId::new(2), StreamId::new(2), 1 << 20)
    }

    /// Runs `acc = relu(inp[m x k] * wgt[n x k]^T)` through the ISA.
    fn matmul_relu(
        dev: &mut NpuDevice,
        ctx: NpuContextId,
        inp: &[i8],
        wgt: &[i8],
        m: usize,
        n: usize,
        k: usize,
    ) -> Vec<i8> {
        let cm = CostModel::default();
        let a = dev.alloc(ctx, (m * k) as u64).unwrap();
        let b = dev.alloc(ctx, (n * k) as u64).unwrap();
        let out = dev.alloc(ctx, (m * n) as u64).unwrap();
        let inp_u8: Vec<u8> = inp.iter().map(|v| *v as u8).collect();
        let wgt_u8: Vec<u8> = wgt.iter().map(|v| *v as u8).collect();
        dev.write_buffer(ctx, a, 0, &inp_u8).unwrap();
        dev.write_buffer(ctx, b, 0, &wgt_u8).unwrap();
        let mut prog = VtaProgram::new();
        prog.push(VtaInsn::LoadInp {
            src: a,
            offset: 0,
            rows: m,
            cols: k,
            stride: k,
        })
        .push(VtaInsn::LoadWgt {
            src: b,
            offset: 0,
            rows: n,
            cols: k,
            stride: k,
        })
        .push(VtaInsn::ResetAcc { rows: m, cols: n })
        .push(VtaInsn::Gemm)
        .push(VtaInsn::Alu(AluOp::MaxImm(0)))
        .push(VtaInsn::StoreAcc {
            dst: out,
            offset: 0,
            stride: n,
        });
        let t = dev.run(&cm, ctx, &prog).unwrap();
        assert!(t > SimNs::ZERO);
        let mut bytes = vec![0u8; m * n];
        dev.read_buffer(ctx, out, 0, &mut bytes).unwrap();
        bytes.iter().map(|b| *b as i8).collect()
    }

    #[test]
    fn gemm_computes_correctly() {
        let mut dev = npu();
        let ctx = dev.create_context(4096).unwrap();
        // inp = [[1, 2], [3, 4]], wgt = [[1, 0], [0, 1]] (identity) => out = inp.
        let out = matmul_relu(&mut dev, ctx, &[1, 2, 3, 4], &[1, 0, 0, 1], 2, 2, 2);
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut dev = npu();
        let ctx = dev.create_context(4096).unwrap();
        // inp = [[-1, 2]], wgt = identity => pre-relu [-1, 2] => relu [0, 2].
        let out = matmul_relu(&mut dev, ctx, &[-1, 2], &[1, 0, 0, 1], 1, 2, 2);
        assert_eq!(out, vec![0, 2]);
    }

    #[test]
    fn store_saturates_to_i8() {
        let mut dev = npu();
        let ctx = dev.create_context(4096).unwrap();
        // 100 * 2 = 200 saturates to 127.
        let out = matmul_relu(&mut dev, ctx, &[100], &[2], 1, 1, 1);
        assert_eq!(out, vec![127]);
    }

    #[test]
    fn gemm_shape_mismatch_rejected() {
        let cm = CostModel::default();
        let mut dev = npu();
        let ctx = dev.create_context(4096).unwrap();
        let a = dev.alloc(ctx, 4).unwrap();
        dev.write_buffer(ctx, a, 0, &[1, 1, 1, 1]).unwrap();
        let mut prog = VtaProgram::new();
        prog.push(VtaInsn::LoadInp {
            src: a,
            offset: 0,
            rows: 2,
            cols: 2,
            stride: 2,
        })
        .push(VtaInsn::LoadWgt {
            src: a,
            offset: 0,
            rows: 1,
            cols: 4,
            stride: 4,
        })
        .push(VtaInsn::ResetAcc { rows: 2, cols: 1 })
        .push(VtaInsn::Gemm);
        let err = dev.run(&cm, ctx, &prog).unwrap_err();
        assert!(matches!(err, NpuError::ShapeMismatch { .. }));
    }

    #[test]
    fn gemm_without_loads_rejected() {
        let cm = CostModel::default();
        let mut dev = npu();
        let ctx = dev.create_context(4096).unwrap();
        let mut prog = VtaProgram::new();
        prog.push(VtaInsn::Gemm);
        assert_eq!(
            dev.run(&cm, ctx, &prog).unwrap_err(),
            NpuError::ScratchpadEmpty("input")
        );
    }

    #[test]
    fn contexts_are_isolated() {
        let mut dev = npu();
        let a = dev.create_context(4096).unwrap();
        let b = dev.create_context(4096).unwrap();
        let buf = dev.alloc(a, 16).unwrap();
        let mut out = [0u8; 1];
        assert_eq!(
            dev.read_buffer(b, buf, 0, &mut out).unwrap_err(),
            NpuError::UnknownBuffer(buf)
        );
    }

    #[test]
    fn alu_shift_requantizes() {
        let cm = CostModel::default();
        let mut dev = npu();
        let ctx = dev.create_context(4096).unwrap();
        let a = dev.alloc(ctx, 1).unwrap();
        let out = dev.alloc(ctx, 1).unwrap();
        dev.write_buffer(ctx, a, 0, &[64]).unwrap();
        let mut prog = VtaProgram::new();
        prog.push(VtaInsn::LoadInp {
            src: a,
            offset: 0,
            rows: 1,
            cols: 1,
            stride: 1,
        })
        .push(VtaInsn::LoadWgt {
            src: a,
            offset: 0,
            rows: 1,
            cols: 1,
            stride: 1,
        })
        .push(VtaInsn::ResetAcc { rows: 1, cols: 1 })
        .push(VtaInsn::Gemm) // 64 * 64 = 4096
        .push(VtaInsn::Alu(AluOp::ShrImm(6))) // 4096 >> 6 = 64
        .push(VtaInsn::StoreAcc {
            dst: out,
            offset: 0,
            stride: 1,
        });
        dev.run(&cm, ctx, &prog).unwrap();
        let mut b = [0u8; 1];
        dev.read_buffer(ctx, out, 0, &mut b).unwrap();
        assert_eq!(b[0] as i8, 64);
    }

    #[test]
    fn cost_scales_with_gemm_size() {
        let cm = CostModel::default();
        let mut dev = npu();
        let ctx = dev.create_context(1 << 16).unwrap();
        let small = matmul_time(&cm, &mut dev, ctx, 4);
        let large = matmul_time(&cm, &mut dev, ctx, 32);
        assert!(large > small);

        fn matmul_time(
            cm: &CostModel,
            dev: &mut NpuDevice,
            ctx: NpuContextId,
            dim: usize,
        ) -> SimNs {
            let a = dev.alloc(ctx, (dim * dim) as u64).unwrap();
            let mut prog = VtaProgram::new();
            prog.push(VtaInsn::LoadInp {
                src: a,
                offset: 0,
                rows: dim,
                cols: dim,
                stride: dim,
            })
            .push(VtaInsn::LoadWgt {
                src: a,
                offset: 0,
                rows: dim,
                cols: dim,
                stride: dim,
            })
            .push(VtaInsn::ResetAcc {
                rows: dim,
                cols: dim,
            })
            .push(VtaInsn::Gemm);
            dev.run(cm, ctx, &prog).unwrap()
        }
    }

    #[test]
    fn reset_clears_contexts_and_counters() {
        let mut dev = npu();
        let ctx = dev.create_context(4096).unwrap();
        let _ = dev.alloc(ctx, 16).unwrap();
        dev.reset();
        assert_eq!(dev.context_count(), 0);
        assert!(dev.alloc(ctx, 1).is_err());
    }

    #[test]
    fn programs_run_counter() {
        let cm = CostModel::default();
        let mut dev = npu();
        let ctx = dev.create_context(4096).unwrap();
        assert_eq!(dev.programs_run(ctx).unwrap(), 0);
        let mut prog = VtaProgram::new();
        prog.push(VtaInsn::ResetAcc { rows: 1, cols: 1 });
        dev.run(&cm, ctx, &prog).unwrap();
        dev.run(&cm, ctx, &prog).unwrap();
        assert_eq!(dev.programs_run(ctx).unwrap(), 2);
    }

    #[test]
    fn sim_device_trait_surface() {
        let dev = npu();
        assert_eq!(dev.kind(), DeviceKind::Npu);
        let sig = dev.sign_config(b"vta-config");
        assert!(dev.rot_public().verify(b"vta-config", &sig).is_ok());
    }
}
