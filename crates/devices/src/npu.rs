//! A VTA-class NPU simulator.
//!
//! The paper builds its NPU "by implementing a simulated QEMU PCIe device
//! that runs VTA's fsim simulator code" and enforces "isolated concurrent
//! NPU code execution within the device using virtual memory" (§V-B). Memory,
//! contexts, DMA and completion interrupts are the common [`Accelerator`]'s;
//! this module is what is VTA about the device: an interpreter for a
//! VTA-style instruction set (LOAD / GEMM / ALU / STORE) over int8 tensors
//! with int32 accumulation, per-context scratchpads and a MAC-throughput
//! cost model.

use std::ops::{Deref, DerefMut};

use cronus_obs::{CounterId, FlightRecorder, HistogramId, NameId, RecorderInner};
use cronus_sim::tzpc::DeviceId;
use cronus_sim::{CostModel, SimNs, StreamId};

use crate::accel::{Accelerator, Buffers, ContextId, DeviceError};
use crate::DeviceKind;

/// The name compiled programs are written against.
pub use crate::accel::BufferId as NpuBuffer;

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

/// What the NPU keeps with a context: its on-chip scratchpads.
#[derive(Default)]
struct Scratchpads {
    inp: Option<(Vec<i8>, usize, usize)>,
    wgt: Option<(Vec<i8>, usize, usize)>,
    acc: Option<(Vec<i32>, usize, usize)>,
}

/// The simulated NPU: the common [`Accelerator`] plus the VTA core.
#[derive(Debug)]
pub struct NpuDevice {
    base: Accelerator,
    series: Option<ProgramSeries>,
}

impl Deref for NpuDevice {
    type Target = Accelerator;

    fn deref(&self) -> &Accelerator {
        &self.base
    }
}

impl DerefMut for NpuDevice {
    fn deref_mut(&mut self) -> &mut Accelerator {
        &mut self.base
    }
}

/// The program telemetry handles on the installed recorder, resolved by the
/// first program and dropped when another recorder is installed.
#[derive(Clone, Copy, Debug)]
struct ProgramSeries {
    programs_run: CounterId,
    insns_run: CounterId,
    program_ns: HistogramId,
    span: NameId,
}

impl ProgramSeries {
    /// One finished program of `insns` instructions taking `total`: the run
    /// counters. Returns the program's span name.
    fn ran(
        series: &mut Option<ProgramSeries>,
        r: &mut RecorderInner,
        insns: u64,
        total: SimNs,
    ) -> NameId {
        let s = *series.get_or_insert_with(|| ProgramSeries {
            programs_run: r.metrics.counter_id("npu.programs_run", &[]),
            insns_run: r.metrics.counter_id("npu.insns_run", &[]),
            program_ns: r.metrics.histogram_id("npu.program_ns", &[]),
            span: r.spans.intern("vta-program"),
        });
        r.metrics.counter_bump(s.programs_run, 1);
        r.metrics.counter_bump(s.insns_run, insns);
        r.metrics.histogram_record(s.program_ns, total);
        s.span
    }
}

impl NpuDevice {
    /// Creates an NPU with `capacity` bytes of device memory.
    pub fn new(id: DeviceId, stream: StreamId, capacity: u64) -> Self {
        NpuDevice {
            base: Accelerator::new(DeviceKind::Npu, "tvm,vta-fsim", "vta", id, stream, capacity),
            series: None,
        }
    }

    /// Installs a flight recorder: program runs gain spans on the `npu:<id>`
    /// track plus run-count/latency metrics, and the completion-IRQ queue
    /// reports to the queue observatory.
    pub fn set_recorder(&mut self, rec: FlightRecorder) {
        self.series = None;
        self.base.set_recorder(rec);
    }

    /// A VTA-class device (256 MiB).
    pub fn vta(id: DeviceId, stream: StreamId) -> Self {
        NpuDevice::new(id, stream, 256 << 20)
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
        ctx: ContextId,
        program: &VtaProgram,
    ) -> Result<SimNs, DeviceError> {
        let mut total = SimNs::ZERO;
        let (buffers, pads) = self.base.context::<Scratchpads>(ctx)?;
        for insn in &program.insns {
            total += Self::step(cost, buffers, pads, insn)?;
        }
        let series = &mut self.series;
        self.base.complete(total, |r| {
            ProgramSeries::ran(series, r, program.insns.len() as u64, total)
        });
        Ok(total)
    }

    fn step(
        cost: &CostModel,
        buffers: &mut Buffers,
        pads: &mut Scratchpads,
        insn: &VtaInsn,
    ) -> Result<SimNs, DeviceError> {
        let issue = cost.npu_issue;
        match *insn {
            VtaInsn::LoadInp {
                src,
                offset,
                rows,
                cols,
                stride,
            } => {
                let data = Self::load_i8_2d(buffers, src, offset, rows, cols, stride)?;
                pads.inp = Some((data, rows, cols));
                Ok(issue + cost.pcie_copy((rows * cols) as u64))
            }
            VtaInsn::LoadWgt {
                src,
                offset,
                rows,
                cols,
                stride,
            } => {
                let data = Self::load_i8_2d(buffers, src, offset, rows, cols, stride)?;
                pads.wgt = Some((data, rows, cols));
                Ok(issue + cost.pcie_copy((rows * cols) as u64))
            }
            VtaInsn::ResetAcc { rows, cols } => {
                pads.acc = Some((vec![0i32; rows * cols], rows, cols));
                Ok(issue)
            }
            VtaInsn::Gemm => {
                let (inp, m, k) = pads
                    .inp
                    .as_ref()
                    .ok_or(DeviceError::ScratchpadEmpty("input"))?;
                let (wgt, n, k2) = pads
                    .wgt
                    .as_ref()
                    .ok_or(DeviceError::ScratchpadEmpty("weight"))?;
                let (acc, am, an) = pads
                    .acc
                    .as_mut()
                    .ok_or(DeviceError::ScratchpadEmpty("accumulator"))?;
                if *k != *k2 || *am != *m || *an != *n {
                    return Err(DeviceError::ShapeMismatch {
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
                let (acc, _, _) = pads
                    .acc
                    .as_mut()
                    .ok_or(DeviceError::ScratchpadEmpty("accumulator"))?;
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
                let (acc, rows, cols) = pads
                    .acc
                    .as_ref()
                    .ok_or(DeviceError::ScratchpadEmpty("accumulator"))?;
                let (rows, cols) = (*rows, *cols);
                let stride = stride.max(cols);
                let bytes: Vec<u8> = acc
                    .iter()
                    .map(|v| (*v).clamp(i8::MIN as i32, i8::MAX as i32) as i8 as u8)
                    .collect();
                let buf = buffers
                    .get_mut(&dst.as_raw())
                    .ok_or(DeviceError::UnknownBuffer(dst))?;
                let end = offset as usize + (rows - 1) * stride + cols;
                if rows == 0 || end > buf.len() {
                    return Err(DeviceError::OutOfBounds {
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
        buffers: &Buffers,
        src: NpuBuffer,
        offset: u64,
        rows: usize,
        cols: usize,
        stride: usize,
    ) -> Result<Vec<i8>, DeviceError> {
        let stride = stride.max(cols);
        let buf = buffers
            .get(&src.as_raw())
            .ok_or(DeviceError::UnknownBuffer(src))?;
        if rows == 0 || cols == 0 {
            return Ok(Vec::new());
        }
        let end = offset as usize + (rows - 1) * stride + cols;
        if end > buf.len() {
            return Err(DeviceError::OutOfBounds {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDevice;

    fn npu() -> NpuDevice {
        NpuDevice::new(DeviceId::new(2), StreamId::new(2), 1 << 20)
    }

    /// Runs `acc = relu(inp[m x k] * wgt[n x k]^T)` through the ISA.
    fn matmul_relu(
        dev: &mut NpuDevice,
        ctx: ContextId,
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
        assert!(matches!(err, DeviceError::ShapeMismatch { .. }));
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
            DeviceError::ScratchpadEmpty("input")
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

        fn matmul_time(cm: &CostModel, dev: &mut NpuDevice, ctx: ContextId, dim: usize) -> SimNs {
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
    fn each_finished_program_raises_one_completion() {
        let cm = CostModel::default();
        let mut dev = npu();
        let ctx = dev.create_context(4096).unwrap();
        let mut prog = VtaProgram::new();
        prog.push(VtaInsn::ResetAcc { rows: 1, cols: 1 });
        dev.run(&cm, ctx, &prog).unwrap();
        dev.run(&cm, ctx, &prog).unwrap();
        prog.push(VtaInsn::Gemm);
        dev.run(&cm, ctx, &prog).unwrap_err();
        assert_eq!(dev.take_irqs(), 2);
    }

    #[test]
    fn sim_device_trait_surface() {
        let dev = npu();
        assert_eq!(dev.kind(), DeviceKind::Npu);
        let sig = dev.sign_config(b"vta-config");
        assert!(dev.rot_public().verify(b"vta-config", &sig).is_ok());
    }
}
