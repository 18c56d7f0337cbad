//! Quickstart: boot a CRONUS platform, create mEnclaves, and run a GPU
//! computation over streaming RPC.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! This walks the paper's §III-D application workflow: an untrusted app
//! creates a CPU mEnclave; the CPU mEnclave creates a CUDA mEnclave it owns;
//! the two connect over an sRPC stream through trusted shared memory; the
//! CPU side then drives `saxpy` on the GPU with CUDA-like calls.

use std::collections::BTreeMap;
use std::sync::Arc;

use cronus::core::{Actor, CronusSystem};
use cronus::devices::gpu::{GpuKernelDesc, KernelArg};
use cronus::devices::DeviceKind;
use cronus::mos::manifest::Manifest;
use cronus::runtime::{CudaContext, CudaOptions, LaunchArg};
use cronus::spm::spm::{BootConfig, DeviceSpec, PartitionSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Secure boot: one CPU partition, one GPU partition, each running its
    //    own MicroOS inside an isolated S-EL2 partition.
    let mut sys = CronusSystem::boot(BootConfig {
        partitions: vec![
            PartitionSpec::new(1, b"cpu-mos-v1", "v1", DeviceSpec::Cpu),
            PartitionSpec::new(
                2,
                b"cuda-mos-v3",
                "v3",
                DeviceSpec::Gpu {
                    memory: 1 << 30,
                    sms: 46,
                },
            ),
        ],
        ..Default::default()
    });
    println!(
        "booted secure world with partitions: {:?}",
        sys.spm().partition_ids()
    );

    // 2. The app creates its CPU mEnclave (the trusted part of the app).
    let app = sys.create_app();
    let cpu = sys.create_enclave(
        Actor::App(app),
        Manifest::new(DeviceKind::Cpu).with_memory(1 << 20),
        &BTreeMap::new(),
    )?;
    println!("created CPU mEnclave {} in partition {}", cpu.eid, cpu.asid);

    // 3. The CPU mEnclave creates the CUDA mEnclave it will drive. The
    //    runtime sets up the sRPC stream (with automatic local attestation
    //    and dCheck) plus a DMA staging buffer.
    let mut cuda = CudaContext::new(&mut sys, cpu, CudaOptions::default())?;
    println!(
        "created CUDA mEnclave {} and opened sRPC stream",
        cuda.dev.eid
    );

    // 4. Load a kernel (the analogue of shipping a .cubin in the manifest).
    cuda.load_kernel(
        &mut sys,
        "saxpy",
        Arc::new(|mem, args| {
            let (a, x, y) = match args {
                [KernelArg::Float(a), KernelArg::Buffer(x), KernelArg::Buffer(y)] => (*a, *x, *y),
                _ => {
                    return Err(cronus::devices::gpu::GpuError::BadArg(
                        "saxpy(a, x, y)".into(),
                    ))
                }
            };
            // The device lends the kernel `y` to update in place and `x`
            // to read: no copy of either is made.
            mem.lend(&[y], &[x], &mut |outs, ins| {
                for (mut yi, xi) in outs[0].f32s_mut().zip(ins[0].f32s()) {
                    yi.set(yi.get() + a * xi);
                }
                Ok(())
            })
        }),
    )?;

    // 5. Drive the GPU with CUDA-like calls. Launches stream asynchronously;
    //    only the copy-back synchronizes.
    let n = 1 << 16;
    let xs: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
    let ys: Vec<u8> = (0..n).flat_map(|_| 1.0f32.to_le_bytes()).collect();
    let dx = cuda.alloc(&mut sys, (n * 4) as u64)?;
    let dy = cuda.alloc(&mut sys, (n * 4) as u64)?;
    cuda.memcpy_h2d(&mut sys, dx, &xs)?;
    cuda.memcpy_h2d(&mut sys, dy, &ys)?;
    cuda.launch(
        &mut sys,
        "saxpy",
        &[
            LaunchArg::Float(2.0),
            LaunchArg::Ptr(dx),
            LaunchArg::Ptr(dy),
        ],
        GpuKernelDesc {
            flops: 2.0 * n as f64,
            mem_bytes: 12.0 * n as f64,
            sm_demand: 8,
        },
    )?;
    let out = cuda.memcpy_d2h(&mut sys, dy, (n * 4) as u64)?;

    let y0 = f32::from_le_bytes(out[0..4].try_into()?);
    let y_last = f32::from_le_bytes(out[out.len() - 4..].try_into()?);
    println!(
        "saxpy: y[0] = {y0} (expect 1.0), y[{}] = {y_last} (expect {})",
        n - 1,
        1.0 + 2.0 * (n - 1) as f32
    );
    assert_eq!(y0, 1.0);
    assert_eq!(y_last, 1.0 + 2.0 * (n - 1) as f32);

    // 6. Timing: the simulated clock shows how cheap the sRPC path was.
    println!("CPU mEnclave virtual time: {}", sys.enclave_time(cpu));
    println!(
        "stream stats: {:?}",
        sys.stream_stats(cuda.stream).expect("stream is open")
    );
    println!(
        "world switches performed (sRPC needs none): {}",
        sys.recorder()
            .with(|r| r.metrics.counter_total("world_switches"))
    );
    println!("quickstart OK");
    Ok(())
}
