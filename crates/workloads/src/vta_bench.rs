//! vta-bench: the NPU microbenchmark of Fig. 10a.
//!
//! The original vta-bench measures GEMM and ALU throughput over the VTA
//! ISA. Each workload here constructs a real [`VtaProgram`] (tiled int8
//! GEMMs, ALU sweeps), runs it on the NPU mEnclave and reports throughput
//! in simulated ops/second.

use cronus_core::CronusSystem;
use cronus_devices::npu::{AluOp, NpuBuffer, VtaInsn, VtaProgram};
use cronus_runtime::{RuntimeError, VtaContext};
use cronus_sim::SimNs;

/// One vta-bench result row.
#[derive(Clone, Debug, PartialEq)]
pub struct VtaBenchRun {
    /// Workload name.
    pub name: &'static str,
    /// Simulated execution time.
    pub sim_time: SimNs,
    /// Operations performed (MACs for GEMM, element ops for ALU).
    pub ops: u64,
}

impl VtaBenchRun {
    /// Throughput in giga-ops per simulated second.
    pub fn gops(&self) -> f64 {
        self.ops as f64 / self.sim_time.as_nanos().max(1) as f64
    }
}

/// Builds tiled GEMM programs: `out = inp * wgt^T` in `tile`-sized blocks,
/// one program per output block so each submission fits one sRPC slot
/// (TVM similarly chunks VTA instruction streams).
pub fn tiled_gemm_programs(
    inp: NpuBuffer,
    wgt: NpuBuffer,
    out: NpuBuffer,
    dim: usize,
    tile: usize,
) -> Vec<VtaProgram> {
    let mut progs = Vec::new();
    let tiles = dim / tile;
    for bi in 0..tiles {
        for bj in 0..tiles {
            let mut prog = VtaProgram::new();
            prog.push(VtaInsn::ResetAcc {
                rows: tile,
                cols: tile,
            });
            for bk in 0..tiles {
                prog.push(VtaInsn::LoadInp {
                    src: inp,
                    offset: ((bi * tile) * dim + bk * tile) as u64,
                    rows: tile,
                    cols: tile,
                    stride: dim,
                })
                .push(VtaInsn::LoadWgt {
                    src: wgt,
                    offset: ((bj * tile) * dim + bk * tile) as u64,
                    rows: tile,
                    cols: tile,
                    stride: dim,
                })
                .push(VtaInsn::Gemm);
            }
            prog.push(VtaInsn::Alu(AluOp::ShrImm(4)))
                .push(VtaInsn::StoreAcc {
                    dst: out,
                    offset: ((bi * tile) * dim + bj * tile) as u64,
                    stride: dim,
                });
            progs.push(prog);
        }
    }
    progs
}

/// GEMM throughput workload (`dim x dim` int8 matrices, `tile`d).
///
/// # Errors
///
/// RPC/device failures.
pub fn run_gemm(
    sys: &mut CronusSystem,
    vta: &mut VtaContext,
    dim: usize,
    tile: usize,
) -> Result<VtaBenchRun, RuntimeError> {
    assert!(dim.is_multiple_of(tile), "dim must be a multiple of tile");
    let bytes = (dim * dim) as u64;
    let inp = vta.alloc(sys, bytes)?;
    let wgt = vta.alloc(sys, bytes)?;
    let out = vta.alloc(sys, bytes)?;
    let data: Vec<u8> = (0..bytes).map(|i| (i % 5) as u8).collect();
    vta.memcpy_h2d(sys, inp, &data)?;
    vta.memcpy_h2d(sys, wgt, &data)?;

    let start = sys.enclave_time(vta.cpu);
    for prog in tiled_gemm_programs(
        NpuBuffer::from_raw(inp.0),
        NpuBuffer::from_raw(wgt.0),
        NpuBuffer::from_raw(out.0),
        dim,
        tile,
    ) {
        vta.run(sys, &prog)?;
    }
    vta.synchronize(sys)?;
    let sim_time = sys.enclave_time(vta.cpu) - start;
    Ok(VtaBenchRun {
        name: "gemm",
        sim_time,
        ops: (dim * dim * dim) as u64,
    })
}

/// ALU throughput workload: `reps` passes of relu + shift over a
/// `dim x dim` accumulator.
///
/// # Errors
///
/// RPC/device failures.
pub fn run_alu(
    sys: &mut CronusSystem,
    vta: &mut VtaContext,
    dim: usize,
    reps: usize,
) -> Result<VtaBenchRun, RuntimeError> {
    let bytes = (dim * dim) as u64;
    let buf = vta.alloc(sys, bytes)?;
    let data: Vec<u8> = (0..bytes).map(|i| (i % 97) as u8).collect();
    vta.memcpy_h2d(sys, buf, &data)?;

    let start = sys.enclave_time(vta.cpu);
    let mut prog = VtaProgram::new();
    prog.push(VtaInsn::LoadInp {
        src: NpuBuffer::from_raw(buf.0),
        offset: 0,
        rows: dim,
        cols: dim,
        stride: dim,
    })
    .push(VtaInsn::LoadWgt {
        src: NpuBuffer::from_raw(buf.0),
        offset: 0,
        rows: dim,
        cols: dim,
        stride: dim,
    })
    .push(VtaInsn::ResetAcc {
        rows: dim,
        cols: dim,
    });
    for _ in 0..reps {
        prog.push(VtaInsn::Alu(AluOp::MaxImm(0)))
            .push(VtaInsn::Alu(AluOp::AddImm(1)))
            .push(VtaInsn::Alu(AluOp::ShrImm(1)));
    }
    vta.run(sys, &prog)?;
    vta.synchronize(sys)?;
    let sim_time = sys.enclave_time(vta.cpu) - start;
    Ok(VtaBenchRun {
        name: "alu",
        sim_time,
        ops: (dim * dim * reps * 3) as u64,
    })
}

/// The full vta-bench suite at a given scale.
///
/// # Errors
///
/// RPC/device failures.
pub fn suite(
    sys: &mut CronusSystem,
    vta: &mut VtaContext,
    scale: usize,
) -> Result<Vec<VtaBenchRun>, RuntimeError> {
    let dim = 16 * scale.max(1);
    Ok(vec![
        run_gemm(sys, vta, dim, 16)?,
        run_alu(sys, vta, dim, 8)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::cronus_vta_fixture;

    #[test]
    fn gemm_and_alu_run() {
        let (mut sys, mut vta) = cronus_vta_fixture();
        let runs = suite(&mut sys, &mut vta, 1).unwrap();
        assert_eq!(runs.len(), 2);
        for r in &runs {
            assert!(r.sim_time > SimNs::ZERO, "{} took time", r.name);
            assert!(r.ops > 0);
            assert!(r.gops() > 0.0);
        }
    }

    #[test]
    fn tiled_gemm_matches_whole_gemm() {
        // Functional check: a 32x32 tiled GEMM equals a single 32x32 GEMM.
        let (mut sys, mut vta) = cronus_vta_fixture();
        let dim = 32;
        let bytes = (dim * dim) as u64;
        let a = vta.alloc(&mut sys, bytes).unwrap();
        let b = vta.alloc(&mut sys, bytes).unwrap();
        let tiled_out = vta.alloc(&mut sys, bytes).unwrap();
        let whole_out = vta.alloc(&mut sys, bytes).unwrap();
        let data: Vec<u8> = (0..bytes).map(|i| (i % 3) as u8).collect();
        vta.memcpy_h2d(&mut sys, a, &data).unwrap();
        vta.memcpy_h2d(&mut sys, b, &data).unwrap();

        for prog in tiled_gemm_programs(
            NpuBuffer::from_raw(a.0),
            NpuBuffer::from_raw(b.0),
            NpuBuffer::from_raw(tiled_out.0),
            dim,
            16,
        ) {
            vta.run(&mut sys, &prog).unwrap();
        }

        let mut whole = VtaProgram::new();
        whole
            .push(VtaInsn::LoadInp {
                src: NpuBuffer::from_raw(a.0),
                offset: 0,
                rows: dim,
                cols: dim,
                stride: dim,
            })
            .push(VtaInsn::LoadWgt {
                src: NpuBuffer::from_raw(b.0),
                offset: 0,
                rows: dim,
                cols: dim,
                stride: dim,
            })
            .push(VtaInsn::ResetAcc {
                rows: dim,
                cols: dim,
            })
            .push(VtaInsn::Gemm)
            .push(VtaInsn::Alu(AluOp::ShrImm(4)))
            .push(VtaInsn::StoreAcc {
                dst: NpuBuffer::from_raw(whole_out.0),
                offset: 0,
                stride: dim,
            });
        vta.run(&mut sys, &whole).unwrap();
        vta.synchronize(&mut sys).unwrap();

        let t = vta.memcpy_d2h(&mut sys, tiled_out, bytes).unwrap();
        let w = vta.memcpy_d2h(&mut sys, whole_out, bytes).unwrap();
        assert_eq!(t, w, "tiling must not change results");
    }
}
