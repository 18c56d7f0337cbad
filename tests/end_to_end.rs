//! End-to-end integration: the full §III-D application workflow across
//! every crate — boot, attestation, CPU + GPU + NPU mEnclaves, streaming
//! RPC, heterogeneous computation, teardown.

use std::collections::BTreeMap;
use std::sync::Arc;

use cronus::core::{Actor, CronusSystem, SrpcError};
use cronus::crypto::measure;
use cronus::devices::gpu::{GpuKernelDesc, KernelArg};
use cronus::devices::{vendor_keypair, DeviceKind};
use cronus::mos::manifest::{Manifest, McallDecl};
use cronus::runtime::{CudaContext, CudaOptions, LaunchArg, VtaContext, VtaOptions};
use cronus::sim::SimNs;
use cronus::spm::attest::{ClientVerifier, Expectations};
use cronus::spm::spm::{BootConfig, DeviceSpec, PartitionSpec};

fn full_platform() -> BootConfig {
    BootConfig {
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
            PartitionSpec::new(3, b"npu-mos-v1", "v1", DeviceSpec::Npu { memory: 64 << 20 }),
        ],
        ..Default::default()
    }
}

#[test]
fn paas_application_lifecycle() {
    let mut sys = CronusSystem::boot(full_platform());

    // 1. App creates and attests its CPU mEnclave.
    let app = sys.create_app();
    let cpu = sys
        .create_enclave(
            Actor::App(app),
            Manifest::new(DeviceKind::Cpu)
                .with_mecall(McallDecl::synchronous("ingest"))
                .with_memory(1 << 20),
            &BTreeMap::new(),
        )
        .expect("cpu enclave");

    let mut verifier = ClientVerifier::new(sys.spm().monitor().platform_public());
    verifier.add_vendor("arm", vendor_keypair("arm").public());
    let report = sys.attestation_report(cpu).expect("report");
    verifier
        .verify(
            &report,
            &Expectations {
                mos_digest: Some(measure("mos-image", b"cpu-mos-v1")),
                devtree_digest: Some(report.report.devtree_digest),
                ..Default::default()
            },
        )
        .expect("client attests the CPU partition");

    // 2. The app passes (encrypted) data in via an ECall.
    sys.register_handler(
        cpu,
        "ingest",
        Box::new(|_, payload| Ok((vec![payload.len() as u8], SimNs::from_micros(3)))),
    );
    let ack = sys
        .app_ecall(app, cpu, "ingest", b"ciphertext....")
        .expect("ecall");
    assert_eq!(ack, vec![14]);

    // 3. The CPU mEnclave spins up both accelerators.
    let mut cuda = CudaContext::new(&mut sys, cpu, CudaOptions::default()).expect("cuda");
    let mut vta = VtaContext::new(&mut sys, cpu, VtaOptions::default()).expect("vta");
    assert_ne!(cuda.dev.asid, vta.dev.asid);

    // 4. GPU work: scale a vector.
    cuda.load_kernel(
        &mut sys,
        "scale2",
        Arc::new(|mem, args| {
            let [KernelArg::Buffer(b)] = args else {
                return Err(cronus::devices::gpu::GpuError::BadArg("scale2(buf)".into()));
            };
            mem.lend(&[*b], &[], &mut |outs, _| {
                for mut x in outs[0].f32s_mut() {
                    x.set(x.get() * 2.0);
                }
                Ok(())
            })
        }),
    )
    .expect("kernel");
    let d = cuda.alloc(&mut sys, 16).expect("malloc");
    let input: Vec<u8> = [1.0f32, 2.0, 3.0, 4.0]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    cuda.memcpy_h2d(&mut sys, d, &input).expect("h2d");
    cuda.launch(
        &mut sys,
        "scale2",
        &[LaunchArg::Ptr(d)],
        GpuKernelDesc {
            flops: 4.0,
            mem_bytes: 32.0,
            sm_demand: 1,
        },
    )
    .expect("launch");
    let gpu_out = cuda.memcpy_d2h(&mut sys, d, 16).expect("d2h");
    let first = f32::from_le_bytes(gpu_out[0..4].try_into().expect("4 bytes"));
    assert_eq!(first, 2.0);

    // 5. NPU work: identity matmul through the VTA ISA.
    let a = vta.alloc(&mut sys, 4).expect("alloc");
    let w = vta.alloc(&mut sys, 4).expect("alloc");
    let o = vta.alloc(&mut sys, 4).expect("alloc");
    vta.memcpy_h2d(&mut sys, a, &[5, 6, 7, 8]).expect("h2d");
    vta.memcpy_h2d(&mut sys, w, &[1, 0, 0, 1]).expect("h2d");
    let mut prog = cronus::devices::npu::VtaProgram::new();
    use cronus::devices::npu::{NpuBuffer, VtaInsn};
    prog.push(VtaInsn::LoadInp {
        src: NpuBuffer::from_raw(a.0),
        offset: 0,
        rows: 2,
        cols: 2,
        stride: 2,
    })
    .push(VtaInsn::LoadWgt {
        src: NpuBuffer::from_raw(w.0),
        offset: 0,
        rows: 2,
        cols: 2,
        stride: 2,
    })
    .push(VtaInsn::ResetAcc { rows: 2, cols: 2 })
    .push(VtaInsn::Gemm)
    .push(VtaInsn::StoreAcc {
        dst: NpuBuffer::from_raw(o.0),
        offset: 0,
        stride: 2,
    });
    vta.run(&mut sys, &prog).expect("npu run");
    vta.synchronize(&mut sys).expect("sync");
    assert_eq!(
        vta.memcpy_d2h(&mut sys, o, 4).expect("d2h"),
        vec![5, 6, 7, 8]
    );

    // 6. Teardown: destroying the accelerator enclaves reclaims everything;
    //    further stream use fails cleanly.
    let gpu_ref = cuda.dev;
    sys.destroy_enclave(gpu_ref).expect("destroy");
    assert!(matches!(
        cuda.alloc(&mut sys, 4).unwrap_err(),
        cronus::runtime::RuntimeError::Srpc(SrpcError::UnknownStream(_))
    ));
}

#[test]
fn trust_is_scoped_per_partition() {
    // A task using CPU + GPU never needs the NPU partition: its attestation
    // report covers only its own partitions (R3.2).
    let mut sys = CronusSystem::boot(full_platform());
    let app = sys.create_app();
    let cpu = sys
        .create_enclave(
            Actor::App(app),
            Manifest::new(DeviceKind::Cpu).with_memory(1 << 20),
            &BTreeMap::new(),
        )
        .expect("cpu enclave");
    let cuda = CudaContext::new(&mut sys, cpu, CudaOptions::default()).expect("cuda");

    let gpu_report = sys.attestation_report(cuda.dev).expect("gpu report");
    assert_eq!(gpu_report.report.vendor, "nvidia");
    // The GPU partition's report lists only GPU-partition enclaves.
    for (eid, _) in &gpu_report.report.enclaves {
        assert_eq!(eid.mos().0, 2, "only GPU-partition enclaves appear");
    }
}

#[test]
fn accelerator_failure_does_not_cross_partitions() {
    let mut sys = CronusSystem::boot(full_platform());
    let app = sys.create_app();
    let cpu = sys
        .create_enclave(
            Actor::App(app),
            Manifest::new(DeviceKind::Cpu).with_memory(1 << 20),
            &BTreeMap::new(),
        )
        .expect("cpu enclave");
    let mut cuda = CudaContext::new(&mut sys, cpu, CudaOptions::default()).expect("cuda");
    let mut vta = VtaContext::new(&mut sys, cpu, VtaOptions::default()).expect("vta");

    // Kill the GPU partition mid-flight.
    sys.inject_partition_failure(cuda.dev.asid)
        .expect("failure");
    let d = cuda.alloc(&mut sys, 4);
    assert!(d.is_err(), "GPU path is dead");

    // The NPU path is untouched.
    let buf = vta.alloc(&mut sys, 16).expect("npu alive");
    vta.memcpy_h2d(&mut sys, buf, &[1, 2, 3])
        .expect("npu alive");

    // Recover the GPU and start fresh.
    sys.recover_partition(cuda.dev.asid).expect("recovery");
    let mut cuda2 = CudaContext::new(&mut sys, cpu, CudaOptions::default()).expect("fresh cuda");
    let d2 = cuda2
        .alloc(&mut sys, 64)
        .expect("alloc on recovered partition");
    cuda2.memcpy_h2d(&mut sys, d2, &[9u8; 64]).expect("h2d");
    assert_eq!(
        cuda2.memcpy_d2h(&mut sys, d2, 64).expect("d2h"),
        vec![9u8; 64]
    );
}
