//! Security integration tests: every in-scope attack from §III-B, mounted
//! through the public API and defeated by the mechanism the paper names.

use std::collections::BTreeMap;

use cronus::core::{Actor, CronusSystem, SrpcError, SystemError};
use cronus::devices::DeviceKind;
use cronus::mos::manifest::{Manifest, McallDecl};
use cronus::sim::machine::AsId;
use cronus::sim::{PhysAddr, SimNs, World};
use cronus::spm::spm::{BootConfig, DeviceSpec, PartitionSpec, SpmError};

fn platform() -> BootConfig {
    BootConfig {
        partitions: vec![
            PartitionSpec::new(1, b"cpu-mos-v1", "v1", DeviceSpec::Cpu),
            PartitionSpec::new(
                2,
                b"cuda-mos-v3",
                "v3",
                DeviceSpec::Gpu {
                    memory: 1 << 26,
                    sms: 46,
                },
            ),
        ],
        ..Default::default()
    }
}

fn gpu_manifest() -> Manifest {
    Manifest::new(DeviceKind::Gpu)
        .with_mecall(McallDecl::asynchronous("work"))
        .with_memory(1 << 20)
}

fn setup() -> (
    CronusSystem,
    cronus::core::EnclaveRef,
    cronus::core::EnclaveRef,
) {
    let mut sys = CronusSystem::boot(platform());
    let app = sys.create_app();
    let cpu = sys
        .create_enclave(
            Actor::App(app),
            Manifest::new(DeviceKind::Cpu).with_memory(1 << 20),
            &BTreeMap::new(),
        )
        .expect("cpu");
    let gpu = sys
        .create_enclave(Actor::Enclave(cpu), gpu_manifest(), &BTreeMap::new())
        .expect("gpu");
    sys.register_handler(
        gpu,
        "work",
        Box::new(|_, p| Ok((p.to_vec(), SimNs::from_micros(5)))),
    );
    (sys, cpu, gpu)
}

/// Attack: the untrusted OS reads or rewrites sRPC ring state (the basis of
/// replay/reorder/drop attacks on untrusted-memory RPC). Defense: the ring
/// lives in trusted TEE memory; the TZASC filters every access.
#[test]
fn normal_world_cannot_touch_srpc_state() {
    let (mut sys, cpu, gpu) = setup();
    let stream = sys.stream(cpu, gpu).open().expect("stream");
    sys.call(stream, "work")
        .payload(&[1, 2, 3])
        .start()
        .expect("call");

    // The attacker targets the ring's physical pages directly.
    let ring_pages = sys.stream_share_pages(stream).expect("ring pages");
    for ppn in &ring_pages {
        let pa = PhysAddr::from_page_number(*ppn);
        let err = sys
            .spm_mut()
            .machine_mut()
            .mem_write(AsId::NORMAL_WORLD, World::Normal, pa, &99u64.to_le_bytes())
            .unwrap_err();
        assert!(
            err.is_world_filter(),
            "ring page {ppn:#x} is TZASC-protected"
        );
    }
    // And secure memory generally is unreadable/unwritable to it.
    let secure_page = {
        let machine = sys.spm().machine();
        machine.tzasc().secure_regions()[0].start()
    };
    let err = sys
        .spm_mut()
        .machine_mut()
        .mem_write(AsId::NORMAL_WORLD, World::Normal, secure_page, &[0xAA])
        .unwrap_err();
    assert!(err.is_world_filter());
    let err = sys
        .spm_mut()
        .machine_mut()
        .mem_read_vec(AsId::NORMAL_WORLD, World::Normal, secure_page, 8)
        .unwrap_err();
    assert!(err.is_world_filter());
}

/// Attack: invoke an mECall of an enclave you do not own (fabricated RPC).
/// Defense: ownership assurance — only the creator may call.
#[test]
fn non_owner_mecall_rejected() {
    let (mut sys, _cpu, gpu) = setup();
    let app2 = sys.create_app();
    let intruder = sys
        .create_enclave(
            Actor::App(app2),
            Manifest::new(DeviceKind::Cpu).with_memory(1 << 20),
            &BTreeMap::new(),
        )
        .expect("intruder cpu enclave");
    assert_eq!(
        sys.stream(intruder, gpu).open().unwrap_err(),
        SrpcError::NotOwner
    );
    // Direct app ECall into someone else's enclave also fails.
    assert_eq!(
        sys.app_ecall(app2, gpu, "work", &[]).unwrap_err(),
        SystemError::NotOwner
    );
}

/// Attack: the untrusted dispatcher routes an enclave-creation request to
/// the wrong partition. Defense: the target mOS checks the manifest's
/// device type itself.
#[test]
fn malicious_dispatch_rejected_by_mos() {
    let mut sys = CronusSystem::boot(platform());
    let app = sys.create_app();
    sys.dispatcher_mut()
        .inject_misroute(DeviceKind::Gpu, AsId::new(1));
    let err = sys
        .create_enclave(Actor::App(app), gpu_manifest(), &BTreeMap::new())
        .unwrap_err();
    assert!(matches!(err, SystemError::Spm(_)));
    // Clearing the attack restores service.
    sys.dispatcher_mut().clear_misroute();
    let cpu = sys
        .create_enclave(
            Actor::App(app),
            Manifest::new(DeviceKind::Cpu).with_memory(1 << 20),
            &BTreeMap::new(),
        )
        .expect("cpu");
    assert!(sys
        .create_enclave(Actor::Enclave(cpu), gpu_manifest(), &BTreeMap::new())
        .is_ok());
}

/// Attack: undeclared mECall names (arbitrary-parameter mECall invocation).
/// Defense: the static mECall list in the manifest.
#[test]
fn undeclared_mecalls_rejected() {
    let (mut sys, cpu, gpu) = setup();
    let stream = sys.stream(cpu, gpu).open().expect("stream");
    assert_eq!(
        sys.call(stream, "not_in_manifest").start().unwrap_err(),
        SrpcError::UnknownMcall("not_in_manifest".into())
    );
}

/// Attack: TOCTOU after a partition failure — keep sending data to a peer
/// that may have been substituted. Defense: proceed-trap invalidation means
/// the very next access faults and delivers a failure signal (A1).
#[test]
fn toctou_window_is_closed_after_failure() {
    let (mut sys, cpu, gpu) = setup();
    let stream = sys.stream(cpu, gpu).open().expect("stream");
    sys.call(stream, "work")
        .payload(b"pre-crash")
        .start()
        .expect("call");
    sys.sync(stream).expect("sync");

    sys.inject_partition_failure(gpu.asid).expect("failure");
    // The caller does NOT know about the failure; its next send traps
    // instead of reaching a potentially substituted peer.
    let err = sys
        .call(stream, "work")
        .payload(b"would-be-leak")
        .start()
        .unwrap_err();
    assert_eq!(err, SrpcError::PeerFailed { signalled: cpu.eid });
    // sRPC quarantined the stream automatically; it stays unusable until
    // explicitly re-opened against a recovered partition.
    assert_eq!(
        sys.call(stream, "work")
            .payload(b"again")
            .start()
            .unwrap_err(),
        SrpcError::Quarantined(stream)
    );
}

/// Attack A3: a recovered (possibly malicious) partition reads the crashed
/// tenant's leftovers. Defense: device + shared memory are cleared before
/// the mOS reload.
#[test]
fn crashed_data_is_cleared_before_recovery() {
    let (mut sys, cpu, gpu) = setup();
    let stream = sys.stream(cpu, gpu).open().expect("stream");
    sys.call(stream, "work")
        .payload(b"SECRET-GRADIENTS")
        .start()
        .expect("call");

    // Locate a ring page and confirm the secret is physically there.
    let share_pages = sys.stream_share_pages(stream).expect("stream share pages");
    let found_before = share_pages.iter().any(|ppn| {
        let pa = PhysAddr::from_page_number(*ppn);
        let bytes = sys
            .spm_mut()
            .machine_mut()
            .phys_read_vec(World::Secure, pa, 4096)
            .expect("monitor read");
        bytes.windows(16).any(|w| w == b"SECRET-GRADIENTS")
    });
    assert!(found_before, "the secret reached the shared ring");

    sys.inject_partition_failure(gpu.asid).expect("failure");
    sys.recover_partition(gpu.asid).expect("recovery");

    let found_after = share_pages.iter().any(|ppn| {
        let pa = PhysAddr::from_page_number(*ppn);
        let bytes = sys
            .spm_mut()
            .machine_mut()
            .phys_read_vec(World::Secure, pa, 4096)
            .expect("monitor read");
        bytes.windows(16).any(|w| w == b"SECRET-GRADIENTS")
    });
    assert!(
        !found_after,
        "recovery cleared the crashed partition's shared memory"
    );
}

/// A caller sizing a ring past what memory can back gets the SPM's typed
/// refusal, in debug and release builds alike, and the system stays usable:
/// `depth(u64::MAX)` alone overflows a lane's byte count, `pages(usize::MAX)`
/// a lane region's, and a huge lane count the stream region's.
#[test]
fn a_ring_no_memory_can_back_is_refused_with_a_typed_error() {
    let (mut sys, cpu, gpu) = setup();
    let refused = [
        sys.stream(cpu, gpu).depth(u64::MAX).open(),
        sys.stream(cpu, gpu).pages(usize::MAX).open(),
        sys.stream(cpu, gpu).rings(usize::MAX).depth(1).open(),
    ];
    for outcome in refused {
        assert_eq!(outcome, Err(SrpcError::Spm(SpmError::OutOfMemory)));
    }
    let stream = sys.stream(cpu, gpu).depth(4).open().expect("a sane ring");
    sys.call(stream, "work").payload(&[7]).sync().expect("call");
}
