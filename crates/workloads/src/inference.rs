//! TVM-style quantized inference on the NPU (Fig. 10b).
//!
//! The paper compiles ResNet-18/50 and YOLOv3 with TVM to a VTA NPU and
//! measures inference latency. Here each model's layers are lowered to
//! their im2col GEMM shapes; latency is computed from the NPU's calibrated
//! cost model (the same formula the simulated device charges per GEMM), and
//! functional correctness is demonstrated end-to-end on a real quantized
//! MLP executed by the device ([`run_quant_mlp`]).

use cronus_core::CronusSystem;
use cronus_devices::npu::{AluOp, NpuBuffer, VtaInsn, VtaProgram};
use cronus_runtime::{RuntimeError, VtaContext};
use cronus_sim::{CostModel, SimNs};

use crate::dnn::models::Model;

/// A model lowered to GEMM shapes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuantModel {
    /// Source model name.
    pub name: &'static str,
    /// `(m, n, k)` per compute layer.
    pub gemms: Vec<(usize, usize, usize)>,
}

/// Lowers a model to its GEMM sequence (conv/dense layers only; pooling,
/// ReLU and BN fold into the surrounding GEMMs as in TVM's quantized
/// pipelines).
pub fn lower(model: &Model) -> QuantModel {
    QuantModel {
        name: model.name,
        gemms: model.layers.iter().filter_map(|l| l.gemm_shape()).collect(),
    }
}

/// Total MACs of the lowered model.
pub fn total_macs(q: &QuantModel) -> f64 {
    q.gemms.iter().map(|(m, n, k)| (*m * *n * *k) as f64).sum()
}

/// Estimated NPU inference latency: per-GEMM issue + MAC time + scratchpad
/// load/store traffic, using the same constants the simulated device
/// charges.
pub fn estimate_npu_latency(q: &QuantModel, cm: &CostModel) -> SimNs {
    let mut total = SimNs::ZERO;
    for (m, n, k) in &q.gemms {
        let macs = (*m * *n * *k) as f64;
        total += cm.npu_gemm(macs);
        // Weight + activation traffic (int8).
        let bytes = (m * k + n * k + m * n) as u64;
        total += cm.pcie_copy(bytes) + cm.npu_issue * 3;
    }
    total
}

/// Estimated CPU inference latency for the same model (the paper's Fig. 10b
/// CPU bars): quantized ops at the CPU's scalar rate.
pub fn estimate_cpu_latency(q: &QuantModel, cm: &CostModel) -> SimNs {
    cm.cpu_ops(2.0 * total_macs(q))
}

/// An inference latency row for the Fig. 10b table.
#[derive(Clone, Debug, PartialEq)]
pub struct InferenceRow {
    /// Model name.
    pub model: &'static str,
    /// NPU latency.
    pub npu: SimNs,
    /// CPU latency.
    pub cpu: SimNs,
}

/// Builds Fig. 10b rows for a set of models.
pub fn latency_table(models: &[Model], cm: &CostModel) -> Vec<InferenceRow> {
    models
        .iter()
        .map(|m| {
            let q = lower(m);
            InferenceRow {
                model: m.name,
                npu: estimate_npu_latency(&q, cm),
                cpu: estimate_cpu_latency(&q, cm),
            }
        })
        .collect()
}

/// Runs a real quantized 2-layer MLP (`relu(x·W1)·W2`) on the NPU mEnclave
/// and returns the int8 logits. The CPU reference in the tests must match
/// exactly — this is the functional half of the Fig. 10b claim.
///
/// # Errors
///
/// RPC/device failures.
pub fn run_quant_mlp(
    sys: &mut CronusSystem,
    vta: &mut VtaContext,
    x: &[i8; 16],
    w1: &[i8; 16 * 16],
    w2: &[i8; 16 * 16],
) -> Result<Vec<i8>, RuntimeError> {
    let to_u8 = |s: &[i8]| s.iter().map(|v| *v as u8).collect::<Vec<u8>>();
    let d_x = vta.alloc(sys, 16)?;
    let d_w1 = vta.alloc(sys, 256)?;
    let d_w2 = vta.alloc(sys, 256)?;
    let d_h = vta.alloc(sys, 16)?;
    let d_out = vta.alloc(sys, 16)?;
    vta.memcpy_h2d(sys, d_x, &to_u8(x))?;
    vta.memcpy_h2d(sys, d_w1, &to_u8(w1))?;
    vta.memcpy_h2d(sys, d_w2, &to_u8(w2))?;

    let mut prog = VtaProgram::new();
    // h = relu((x W1^T) >> 4)
    prog.push(VtaInsn::LoadInp {
        src: NpuBuffer::from_raw(d_x.0),
        offset: 0,
        rows: 1,
        cols: 16,
        stride: 16,
    })
    .push(VtaInsn::LoadWgt {
        src: NpuBuffer::from_raw(d_w1.0),
        offset: 0,
        rows: 16,
        cols: 16,
        stride: 16,
    })
    .push(VtaInsn::ResetAcc { rows: 1, cols: 16 })
    .push(VtaInsn::Gemm)
    .push(VtaInsn::Alu(AluOp::ShrImm(4)))
    .push(VtaInsn::Alu(AluOp::MaxImm(0)))
    .push(VtaInsn::StoreAcc {
        dst: NpuBuffer::from_raw(d_h.0),
        offset: 0,
        stride: 16,
    });
    // out = (h W2^T) >> 4
    prog.push(VtaInsn::LoadInp {
        src: NpuBuffer::from_raw(d_h.0),
        offset: 0,
        rows: 1,
        cols: 16,
        stride: 16,
    })
    .push(VtaInsn::LoadWgt {
        src: NpuBuffer::from_raw(d_w2.0),
        offset: 0,
        rows: 16,
        cols: 16,
        stride: 16,
    })
    .push(VtaInsn::ResetAcc { rows: 1, cols: 16 })
    .push(VtaInsn::Gemm)
    .push(VtaInsn::Alu(AluOp::ShrImm(4)))
    .push(VtaInsn::StoreAcc {
        dst: NpuBuffer::from_raw(d_out.0),
        offset: 0,
        stride: 16,
    });
    vta.run(sys, &prog)?;
    vta.synchronize(sys)?;

    let out = vta.memcpy_d2h(sys, d_out, 16)?;
    Ok(out.iter().map(|b| *b as i8).collect())
}

/// CPU reference of [`run_quant_mlp`]'s arithmetic.
pub fn reference_quant_mlp(x: &[i8; 16], w1: &[i8; 16 * 16], w2: &[i8; 16 * 16]) -> Vec<i8> {
    let gemm = |inp: &[i32], wgt: &[i8]| -> Vec<i32> {
        (0..16)
            .map(|j| {
                (0..16)
                    .map(|k| inp[k] * wgt[j * 16 + k] as i32)
                    .sum::<i32>()
            })
            .collect()
    };
    let sat = |v: i32| v.clamp(i8::MIN as i32, i8::MAX as i32) as i8;
    let xi: Vec<i32> = x.iter().map(|v| *v as i32).collect();
    let h: Vec<i32> = gemm(&xi, w1).iter().map(|v| (v >> 4).max(0)).collect();
    // The device saturates h to i8 on store, then reloads it.
    let h8: Vec<i32> = h.iter().map(|v| sat(*v) as i32).collect();
    gemm(&h8, w2).iter().map(|v| sat(v >> 4)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dnn::models;
    use crate::testutil::cronus_vta_fixture;

    #[test]
    fn lowering_produces_gemms() {
        let q = lower(&models::resnet18());
        assert!(
            q.gemms.len() > 15,
            "resnet18 has many conv layers: {}",
            q.gemms.len()
        );
        assert!(total_macs(&q) > 1e8);
    }

    #[test]
    fn latency_ordering_matches_fig10b() {
        let cm = CostModel::default();
        let rows = latency_table(
            &[models::resnet18(), models::resnet50(), models::yolov3()],
            &cm,
        );
        assert!(rows[0].npu < rows[1].npu, "resnet18 < resnet50");
        assert!(rows[1].npu < rows[2].npu, "resnet50 < yolov3");
        // The NPU beats scalar CPU execution on every model.
        for row in &rows {
            assert!(
                row.npu < row.cpu,
                "{}: npu {} < cpu {}",
                row.model,
                row.npu,
                row.cpu
            );
        }
    }

    #[test]
    fn quant_mlp_matches_reference() {
        let (mut sys, mut vta) = cronus_vta_fixture();
        let mut x = [0i8; 16];
        let mut w1 = [0i8; 256];
        let mut w2 = [0i8; 256];
        for (i, v) in x.iter_mut().enumerate() {
            *v = (i as i8) - 8;
        }
        for i in 0..256 {
            w1[i] = ((i * 7) % 11) as i8 - 5;
            w2[i] = ((i * 5) % 13) as i8 - 6;
        }
        let device = run_quant_mlp(&mut sys, &mut vta, &x, &w1, &w2).unwrap();
        let reference = reference_quant_mlp(&x, &w1, &w2);
        assert_eq!(device, reference);
    }
}
