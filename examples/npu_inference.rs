//! NPU inference (Fig. 10b): quantized execution on the VTA-class NPU
//! mEnclave, plus the model latency table.
//!
//! ```text
//! cargo run --example npu_inference
//! ```

use cronus::core::{Actor, CronusSystem};
use cronus::devices::DeviceKind;
use cronus::mos::manifest::Manifest;
use cronus::runtime::{VtaContext, VtaOptions};
use cronus::sim::CostModel;
use cronus::spm::spm::{BootConfig, DeviceSpec, PartitionSpec};
use cronus::workloads::dnn::models::{resnet18, resnet50, yolov3};
use cronus::workloads::inference::{latency_table, reference_quant_mlp, run_quant_mlp};
use std::collections::BTreeMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut sys = CronusSystem::boot(BootConfig {
        partitions: vec![
            PartitionSpec::new(1, b"cpu-mos-v1", "v1", DeviceSpec::Cpu),
            PartitionSpec::new(3, b"npu-mos-v1", "v1", DeviceSpec::Npu { memory: 64 << 20 }),
        ],
        ..Default::default()
    });
    let app = sys.create_app();
    let cpu = sys.create_enclave(
        Actor::App(app),
        Manifest::new(DeviceKind::Cpu).with_memory(1 << 20),
        &BTreeMap::new(),
    )?;
    let mut vta = VtaContext::new(&mut sys, cpu, VtaOptions::default())?;
    println!("NPU mEnclave {} ready behind sRPC", vta.dev.eid);

    // Real quantized inference: a 16-16-16 int8 MLP executed by the VTA ISA
    // interpreter, checked bit-for-bit against a CPU reference.
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
    let device_logits = run_quant_mlp(&mut sys, &mut vta, &x, &w1, &w2)?;
    let reference = reference_quant_mlp(&x, &w1, &w2);
    assert_eq!(
        device_logits, reference,
        "NPU matches the CPU reference exactly"
    );
    println!("quantized MLP logits (NPU == CPU reference): {device_logits:?}");
    let argmax = device_logits
        .iter()
        .enumerate()
        .max_by_key(|(_, v)| **v)
        .map(|(i, _)| i)
        .expect("non-empty logits");
    println!("predicted class: {argmax}");

    // Fig. 10b: per-model latency from the calibrated NPU cost model.
    println!("\nmodel      npu-latency   cpu-latency");
    for row in latency_table(&[resnet18(), resnet50(), yolov3()], &CostModel::default()) {
        println!("{:<10} {:<13} {}", row.model, row.npu.to_string(), row.cpu);
    }
    println!("npu_inference OK");
    Ok(())
}
