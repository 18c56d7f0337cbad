//! Failover walkthrough: the proceed-trap protocol of §IV-D, live.
//!
//! ```text
//! cargo run --example failover_demo
//! ```
//!
//! Two accelerator partitions run side by side. One crashes mid-stream; the
//! demo shows the TOCTOU window closing (the survivor's next access
//! faults), only the faulting partition clearing + restarting, the failure
//! signal reaching the surviving mEnclave, and fresh work resuming — while
//! a monolithic design would reboot the machine for two minutes.

use cronus::core::{Actor, CronusSystem, SrpcError};
use cronus::devices::DeviceKind;
use cronus::mos::manifest::Manifest;
use cronus::runtime::{CudaContext, CudaOptions};
use cronus::spm::spm::{BootConfig, DeviceSpec, PartitionSpec};
use std::collections::BTreeMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut sys = CronusSystem::boot(BootConfig {
        partitions: vec![
            PartitionSpec::new(1, b"cpu-mos-v1", "v1", DeviceSpec::Cpu),
            PartitionSpec::new(
                2,
                b"cuda-mos-v3",
                "v3",
                DeviceSpec::Gpu {
                    memory: 1 << 28,
                    sms: 46,
                },
            ),
            PartitionSpec::new(
                3,
                b"cuda-mos-v3",
                "v3",
                DeviceSpec::Gpu {
                    memory: 1 << 28,
                    sms: 46,
                },
            ),
        ],
        ..Default::default()
    });
    let app = sys.create_app();
    let cpu = sys.create_enclave(
        Actor::App(app),
        Manifest::new(DeviceKind::Cpu).with_memory(1 << 20),
        &BTreeMap::new(),
    )?;

    // Two tasks on two isolated GPU partitions.
    let mut task_a = CudaContext::new(&mut sys, cpu, CudaOptions::default())?;
    let mut task_b = CudaContext::new(&mut sys, cpu, CudaOptions::default())?;
    println!(
        "task A on partition {}, task B on partition {}",
        task_a.dev.asid, task_b.dev.asid
    );
    assert_ne!(
        task_a.dev.asid, task_b.dev.asid,
        "dispatcher spread the GPUs"
    );

    let da = task_a.alloc(&mut sys, 4096)?;
    let db = task_b.alloc(&mut sys, 4096)?;
    task_a.memcpy_h2d(&mut sys, da, &[1u8; 4096])?;
    task_b.memcpy_h2d(&mut sys, db, &[2u8; 4096])?;
    println!("both tasks computing normally");

    // CRASH: the untrusted OS kills task B's partition.
    let (invalidated, proceed_time) = sys.inject_partition_failure(task_b.dev.asid)?;
    println!(
        "partition {} crashed: {} stage-2/SMMU entries invalidated in {} (proceed step)",
        task_b.dev.asid, invalidated, proceed_time
    );

    // Task A is completely unaffected (fault isolation, R3.1).
    task_a.memcpy_h2d(&mut sys, da, &[3u8; 4096])?;
    let back = task_a.memcpy_d2h(&mut sys, da, 16)?;
    assert_eq!(back, vec![3u8; 16]);
    println!("task A kept running through the crash (R3.1)");

    // Task B's next access traps and turns into a failure signal — no
    // TOCTOU leak to a substituted peer, no deadlock (A1/A2).
    match task_b.memcpy_h2d(&mut sys, db, &[4u8; 16]) {
        Err(cronus::runtime::RuntimeError::Srpc(SrpcError::PeerFailed { signalled })) => {
            println!("task B received the failure signal (delivered to {signalled})");
        }
        other => panic!("expected PeerFailed, got {other:?}"),
    }

    // Recovery: only the faulting partition clears and reloads its mOS.
    let stats = sys.recover_partition(task_b.dev.asid)?;
    println!(
        "recovered partition {}: clear {} + mOS restart {} = {} total (machine reboot would be {})",
        task_b.dev.asid,
        stats.clear_time,
        stats.restart_time,
        stats.total(),
        sys.spm().machine().cost().machine_reboot,
    );

    // The task resubmits onto the recovered partition and works again.
    let mut task_b2 = CudaContext::new(&mut sys, cpu, CudaOptions::default())?;
    let db2 = task_b2.alloc(&mut sys, 4096)?;
    task_b2.memcpy_h2d(&mut sys, db2, &[5u8; 64])?;
    let out = task_b2.memcpy_d2h(&mut sys, db2, 64)?;
    assert_eq!(out, vec![5u8; 64]);
    println!("task B resubmitted and is computing again");

    // A3: the crashed partition's data was cleared before the restart.
    let count = |name: &str| sys.recorder().with(|r| r.metrics.counter_total(name));
    println!(
        "events recorded: {} faults, {} partition failures, {} recoveries",
        count("faults"),
        count("partition.failed"),
        count("partition.recovered"),
    );
    println!("failover_demo OK");
    Ok(())
}
