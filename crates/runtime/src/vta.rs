//! The VTA NPU execution model.
//!
//! The paper "uses the fsim runtime code for the NPU mEnclave and the fsim
//! driver code for its mOS's HAL" (§V-B). This module is what VTA adds to
//! the accelerator [`Session`] (buffer management, host↔device copies and
//! synchronization are the session's): the wire codec of compiled
//! [`VtaProgram`]s and their submission.

use std::ops::{Deref, DerefMut};

use cronus_core::{CronusSystem, EnclaveRef, DEFAULT_RING_PAGES};
use cronus_devices::npu::{AluOp, NpuBuffer, VtaInsn, VtaProgram};
use cronus_devices::DeviceKind;
use cronus_mos::hal::DeviceCtx;
use cronus_mos::manifest::{Manifest, McallDecl};

use crate::session::{RuntimeError, Session, SessionNames};
use crate::wire::{Reader, WireError, Writer};

const NAMES: SessionNames = SessionNames {
    alloc_call: "vtaAlloc",
    h2d_call: "vtaMemcpyH2D",
    d2h_call: "vtaMemcpyD2H",
    bytes_metric: "vta.memcpy_bytes",
};

/// Options for the VTA context.
#[derive(Clone, Copy, Debug)]
pub struct VtaOptions {
    /// NPU memory quota.
    pub memory: u64,
    /// Descriptor ring pages.
    pub ring_pages: usize,
    /// Staging buffer pages.
    pub staging_pages: usize,
}

impl Default for VtaOptions {
    fn default() -> Self {
        VtaOptions {
            memory: 64 << 20,
            ring_pages: DEFAULT_RING_PAGES,
            staging_pages: 32,
        }
    }
}

/// The NPU mEnclave manifest.
pub fn vta_manifest(memory: u64) -> Manifest {
    Manifest::new(DeviceKind::Npu)
        .with_mecall(McallDecl::synchronous("vtaAlloc"))
        .with_mecall(McallDecl::asynchronous("vtaMemcpyH2D").idempotent())
        .with_mecall(McallDecl::synchronous("vtaMemcpyD2H").idempotent())
        .with_mecall(McallDecl::asynchronous("vtaRun"))
        .with_memory(memory)
}

/// Serializes a program into the wire format.
pub fn encode_program(prog: &VtaProgram) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(prog.insns.len() as u32);
    for insn in &prog.insns {
        match *insn {
            VtaInsn::LoadInp {
                src,
                offset,
                rows,
                cols,
                stride,
            } => {
                w.u8(0)
                    .u64(src.as_raw())
                    .u64(offset)
                    .u32(rows as u32)
                    .u32(cols as u32);
                w.u32(stride as u32);
            }
            VtaInsn::LoadWgt {
                src,
                offset,
                rows,
                cols,
                stride,
            } => {
                w.u8(1)
                    .u64(src.as_raw())
                    .u64(offset)
                    .u32(rows as u32)
                    .u32(cols as u32);
                w.u32(stride as u32);
            }
            VtaInsn::ResetAcc { rows, cols } => {
                w.u8(2).u32(rows as u32).u32(cols as u32);
            }
            VtaInsn::Gemm => {
                w.u8(3);
            }
            VtaInsn::Alu(op) => {
                w.u8(4);
                match op {
                    AluOp::AddImm(v) => w.u8(0).i64(v as i64),
                    AluOp::MaxImm(v) => w.u8(1).i64(v as i64),
                    AluOp::MinImm(v) => w.u8(2).i64(v as i64),
                    AluOp::ShrImm(v) => w.u8(3).i64(v as i64),
                };
            }
            VtaInsn::StoreAcc {
                dst,
                offset,
                stride,
            } => {
                w.u8(5).u64(dst.as_raw()).u64(offset).u32(stride as u32);
            }
        }
    }
    w.finish()
}

/// Deserializes a program from the wire format.
///
/// # Errors
///
/// [`WireError`] on malformed bytes.
pub fn decode_program(bytes: &[u8]) -> Result<VtaProgram, WireError> {
    let mut r = Reader::new(bytes);
    let n = r.u32()? as usize;
    let mut prog = VtaProgram::new();
    for _ in 0..n {
        let insn = match r.u8()? {
            0 => VtaInsn::LoadInp {
                src: NpuBuffer::from_raw(r.u64()?),
                offset: r.u64()?,
                rows: r.u32()? as usize,
                cols: r.u32()? as usize,
                stride: r.u32()? as usize,
            },
            1 => VtaInsn::LoadWgt {
                src: NpuBuffer::from_raw(r.u64()?),
                offset: r.u64()?,
                rows: r.u32()? as usize,
                cols: r.u32()? as usize,
                stride: r.u32()? as usize,
            },
            2 => VtaInsn::ResetAcc {
                rows: r.u32()? as usize,
                cols: r.u32()? as usize,
            },
            3 => VtaInsn::Gemm,
            4 => {
                let tag = r.u8()?;
                let v = r.i64()?;
                VtaInsn::Alu(match tag {
                    0 => AluOp::AddImm(v as i32),
                    1 => AluOp::MaxImm(v as i32),
                    2 => AluOp::MinImm(v as i32),
                    3 => AluOp::ShrImm(v as u8),
                    _ => return Err(WireError),
                })
            }
            5 => VtaInsn::StoreAcc {
                dst: NpuBuffer::from_raw(r.u64()?),
                offset: r.u64()?,
                stride: r.u32()? as usize,
            },
            _ => return Err(WireError),
        };
        prog.push(insn);
    }
    Ok(prog)
}

/// A live VTA context: a [`Session`] with an NPU mEnclave (`dev`).
#[derive(Debug)]
pub struct VtaContext {
    session: Session,
}

impl Deref for VtaContext {
    type Target = Session;

    fn deref(&self) -> &Session {
        &self.session
    }
}

impl DerefMut for VtaContext {
    fn deref_mut(&mut self) -> &mut Session {
        &mut self.session
    }
}

impl VtaContext {
    /// Creates the NPU mEnclave, stream, staging buffer and handlers.
    ///
    /// # Errors
    ///
    /// Creation/sharing failures.
    pub fn new(
        sys: &mut CronusSystem,
        cpu: EnclaveRef,
        opts: VtaOptions,
    ) -> Result<Self, RuntimeError> {
        let manifest = vta_manifest(opts.memory);
        let (session, dctx) = Session::open(
            sys,
            cpu,
            manifest,
            opts.ring_pages,
            opts.staging_pages,
            &NAMES,
        )?;
        let DeviceCtx::Accel(DeviceKind::Npu, nctx) = dctx else {
            return Err(RuntimeError::WrongDeviceCtx);
        };
        sys.register_handler(
            session.dev,
            "vtaRun",
            Box::new(move |ctx, payload| {
                let prog = decode_program(payload)?;
                let cm = ctx.spm.machine().cost().clone();
                let npu = ctx.spm.mos_mut(ctx.asid)?.hal_mut().npu_mut()?;
                let t = npu.run(&cm, nctx, &prog)?;
                Ok((Vec::new(), t))
            }),
        );
        Ok(VtaContext { session })
    }

    /// Submits a compiled program asynchronously.
    ///
    /// # Errors
    ///
    /// RPC errors.
    pub fn run(&mut self, sys: &mut CronusSystem, prog: &VtaProgram) -> Result<(), RuntimeError> {
        sys.call(self.stream, "vtaRun")
            .payload(&encode_program(prog))
            .start()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cronus_core::{Actor, SrpcError};
    use cronus_spm::spm::{BootConfig, DeviceSpec, PartitionSpec};
    use std::collections::BTreeMap;

    fn boot() -> (CronusSystem, EnclaveRef) {
        let mut sys = CronusSystem::boot(BootConfig {
            partitions: vec![
                PartitionSpec::new(1, b"cpu-mos", "v1", DeviceSpec::Cpu),
                PartitionSpec::new(3, b"npu-mos", "v1", DeviceSpec::Npu { memory: 1 << 26 }),
            ],
            ..Default::default()
        });
        let app = sys.create_app();
        let cpu = sys
            .create_enclave(
                Actor::App(app),
                Manifest::new(DeviceKind::Cpu).with_memory(1 << 20),
                &BTreeMap::new(),
            )
            .unwrap();
        (sys, cpu)
    }

    #[test]
    fn program_codec_round_trips() {
        let mut prog = VtaProgram::new();
        prog.push(VtaInsn::LoadInp {
            src: NpuBuffer::from_raw(7),
            offset: 3,
            rows: 2,
            cols: 4,
            stride: 4,
        })
        .push(VtaInsn::LoadWgt {
            src: NpuBuffer::from_raw(8),
            offset: 0,
            rows: 4,
            cols: 4,
            stride: 4,
        })
        .push(VtaInsn::ResetAcc { rows: 2, cols: 4 })
        .push(VtaInsn::Gemm)
        .push(VtaInsn::Alu(AluOp::MaxImm(0)))
        .push(VtaInsn::Alu(AluOp::ShrImm(3)))
        .push(VtaInsn::StoreAcc {
            dst: NpuBuffer::from_raw(9),
            offset: 16,
            stride: 4,
        });
        let encoded = encode_program(&prog);
        assert_eq!(decode_program(&encoded).unwrap(), prog);
        assert!(decode_program(&encoded[..encoded.len() - 1]).is_err());
        assert!(decode_program(&[9, 0, 0, 0, 42]).is_err());
    }

    #[test]
    fn npu_matmul_end_to_end() {
        let (mut sys, cpu) = boot();
        let mut vta = VtaContext::new(&mut sys, cpu, VtaOptions::default()).unwrap();

        // out = relu(inp * wgt^T) with identity weights.
        let inp = vta.alloc(&mut sys, 4).unwrap();
        let wgt = vta.alloc(&mut sys, 4).unwrap();
        let out = vta.alloc(&mut sys, 4).unwrap();
        vta.memcpy_h2d(&mut sys, inp, &[1, 2, 3u8, 0xFF /* -1 */])
            .unwrap();
        vta.memcpy_h2d(&mut sys, wgt, &[1, 0, 0, 1]).unwrap();

        let mut prog = VtaProgram::new();
        prog.push(VtaInsn::LoadInp {
            src: NpuBuffer::from_raw(inp.0),
            offset: 0,
            rows: 2,
            cols: 2,
            stride: 2,
        })
        .push(VtaInsn::LoadWgt {
            src: NpuBuffer::from_raw(wgt.0),
            offset: 0,
            rows: 2,
            cols: 2,
            stride: 2,
        })
        .push(VtaInsn::ResetAcc { rows: 2, cols: 2 })
        .push(VtaInsn::Gemm)
        .push(VtaInsn::Alu(AluOp::MaxImm(0)))
        .push(VtaInsn::StoreAcc {
            dst: NpuBuffer::from_raw(out.0),
            offset: 0,
            stride: 2,
        });
        vta.run(&mut sys, &prog).unwrap();
        vta.synchronize(&mut sys).unwrap();

        let bytes = vta.memcpy_d2h(&mut sys, out, 4).unwrap();
        // [[1,2],[3,-1]] * I, relu => [[1,2],[3,0]]
        assert_eq!(bytes, vec![1, 2, 3, 0]);
    }

    #[test]
    fn npu_failure_propagates() {
        let (mut sys, cpu) = boot();
        let mut vta = VtaContext::new(&mut sys, cpu, VtaOptions::default()).unwrap();
        let buf = vta.alloc(&mut sys, 16).unwrap();
        sys.inject_partition_failure(vta.dev.asid).unwrap();
        let err = vta.memcpy_h2d(&mut sys, buf, &[1, 2, 3]).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Srpc(SrpcError::PeerFailed { .. })),
            "{err:?}"
        );
    }
}
