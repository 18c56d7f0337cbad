//! Failover integration tests at the SPM level: deadlock avoidance (A2),
//! concurrent failures, trap-based reclaim, and repeated crash/recover
//! cycles.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use cronus::devices::DeviceKind;
use cronus::mos::manager::Owner;
use cronus::mos::manifest::{Manifest, MosId};
use cronus::mos::shim::{SharedSpinLock, SpinLockError};
use cronus::sim::machine::AsId;
use cronus::sim::{EventKind, EventSink, PhysAddr, SimNs, World};
use cronus::spm::spm::{asid_of, BootConfig, DeviceSpec, PartitionSpec, Spm};

fn platform() -> BootConfig {
    BootConfig {
        partitions: vec![
            PartitionSpec::new(1, b"cpu-mos", "v1", DeviceSpec::Cpu),
            PartitionSpec::new(
                2,
                b"cuda-mos",
                "v3",
                DeviceSpec::Gpu {
                    memory: 1 << 26,
                    sms: 46,
                },
            ),
            PartitionSpec::new(3, b"npu-mos", "v1", DeviceSpec::Npu { memory: 1 << 24 }),
        ],
        ..Default::default()
    }
}

fn boot() -> Spm {
    Spm::boot(platform())
}

fn enclave_pair(
    spm: &mut Spm,
) -> (
    (AsId, cronus::mos::manifest::Eid),
    (AsId, cronus::mos::manifest::Eid),
) {
    let cpu = asid_of(MosId(1));
    let gpu = asid_of(MosId(2));
    let a = spm
        .create_enclave(
            cpu,
            Manifest::new(DeviceKind::Cpu),
            &BTreeMap::new(),
            Owner::App(1),
            7,
        )
        .expect("cpu enclave");
    let b = spm
        .create_enclave(
            gpu,
            Manifest::new(DeviceKind::Gpu).with_memory(1 << 20),
            &BTreeMap::new(),
            Owner::Enclave(a),
            7,
        )
        .expect("gpu enclave");
    ((cpu, a), (gpu, b))
}

/// Attack A2: the peer dies while holding a spinlock in shared memory.
/// Without proceed-trap the survivor would spin forever; with it the very
/// next lock access faults and the SPM converts it into a failure signal.
#[test]
fn dead_lock_holder_does_not_deadlock_survivor() {
    let mut spm = boot();
    let (cpu, gpu) = enclave_pair(&mut spm);
    let (_, _, _) = (cpu.0, gpu.0, 0);
    let (handle, _, _) = spm.share_memory(cpu, gpu, 1).expect("share");
    let page = spm.share_pages(handle).expect("pages")[0];
    let lock = SharedSpinLock::new(PhysAddr::from_page_number(page));

    // The GPU-side enclave takes the lock... and its partition dies.
    lock.try_acquire(spm.machine_mut(), gpu.0, World::Secure, 2)
        .expect("gpu acquires");
    spm.fail_partition(gpu.0).expect("proceed");

    // The survivor's next lock access faults instead of spinning (A2).
    let err = lock
        .try_acquire(spm.machine_mut(), cpu.0, World::Secure, 1)
        .unwrap_err();
    let SpinLockError::Fault(f) = err else {
        panic!("expected a fault, got {err:?}");
    };
    assert!(f.is_stage2());

    // The SPM handles the trap: the survivor gets a signal, the page is
    // reclaimed and zeroed (the dead holder's tag is gone).
    let outcome = spm.handle_trap(cpu.0, page).expect("trap");
    assert_eq!(outcome.signalled, cpu.1);
    let word = spm
        .machine_mut()
        .phys_read_vec(World::Secure, PhysAddr::from_page_number(page), 4)
        .expect("monitor read");
    assert_eq!(
        word,
        vec![0u8; 4],
        "the lock word was cleared with the page"
    );
}

/// Concurrent failures of several partitions recover independently while
/// the CPU partition never stops.
#[test]
fn concurrent_partition_failures_recover_independently() {
    let mut spm = boot();
    let cpu = asid_of(MosId(1));
    let gpu = asid_of(MosId(2));
    let npu = asid_of(MosId(3));

    for round in 0..3 {
        spm.fail_partition(gpu).expect("gpu fails");
        spm.fail_partition(npu).expect("npu fails");
        let g = spm
            .recover_partition(gpu, b"cuda-mos", "v3")
            .expect("gpu recovery");
        let n = spm
            .recover_partition(npu, b"npu-mos", "v1")
            .expect("npu recovery");
        assert!(
            g.total() < SimNs::from_secs(1),
            "round {round}: gpu fast recovery"
        );
        assert!(
            n.total() < SimNs::from_secs(1),
            "round {round}: npu fast recovery"
        );
        assert!(!spm.machine().is_failed(gpu));
        assert!(!spm.machine().is_failed(npu));
        assert_eq!(
            spm.mos(cpu).expect("cpu mos").status(),
            cronus::mos::mos::MosStatus::Running,
            "round {round}: cpu partition unaffected"
        );
    }
}

/// A partition can crash and recover repeatedly, and enclaves can be
/// created on it after every recovery.
#[test]
fn crash_recover_create_cycles() {
    let mut spm = boot();
    let gpu = asid_of(MosId(2));
    for cycle in 0..5 {
        let eid = spm
            .create_enclave(
                gpu,
                Manifest::new(DeviceKind::Gpu).with_memory(1 << 20),
                &BTreeMap::new(),
                Owner::App(cycle),
                7,
            )
            .expect("create after recovery");
        assert_eq!(eid.mos(), MosId(2));
        spm.fail_partition(gpu).expect("fail");
        spm.recover_partition(gpu, b"cuda-mos", "v3")
            .expect("recover");
        // All enclaves from before the crash are gone.
        assert_eq!(spm.mos(gpu).expect("mos").manager().len(), 0);
    }
}

/// Failure detection: a panicked mOS is found by the SPM's sweep.
#[test]
fn detection_sweep_finds_panicked_mos() {
    let mut spm = boot();
    let npu = asid_of(MosId(3));
    assert!(spm.detect_failures().is_empty());
    spm.mos_mut(npu).expect("mos").fail();
    assert_eq!(spm.detect_failures(), vec![npu]);
    spm.fail_partition(npu).expect("proceed");
    spm.recover_partition(npu, b"npu-mos", "v1")
        .expect("recover");
    assert!(spm.detect_failures().is_empty());
}

/// The proceed-trap recovery phases reach the event sink in order:
/// failed → invalidated → cleared → recovered.
#[test]
fn recovery_phases_are_ordered() {
    struct Collect(Arc<Mutex<Vec<EventKind>>>);
    impl EventSink for Collect {
        fn on_event(&mut self, _at: SimNs, kind: &EventKind) {
            self.0.lock().unwrap().push(kind.clone());
        }
    }

    let mut spm = boot();
    let events = Arc::new(Mutex::new(Vec::new()));
    spm.machine_mut()
        .set_event_sink(Box::new(Collect(events.clone())));
    let gpu = asid_of(MosId(2));
    spm.fail_partition(gpu).expect("fail");
    spm.recover_partition(gpu, b"cuda-mos", "v3")
        .expect("recover");

    let events = events.lock().unwrap();
    let pos = |want: &dyn Fn(&EventKind) -> bool| {
        events.iter().position(want).expect("phase event present")
    };
    let failed =
        pos(&|k| matches!(k, EventKind::PartitionFailed { partition } if *partition == gpu));
    let invalidated = pos(&|k| matches!(k, EventKind::Marker("failover:invalidated")));
    let cleared =
        pos(&|k| matches!(k, EventKind::PartitionCleared { partition } if *partition == gpu));
    let recovered =
        pos(&|k| matches!(k, EventKind::PartitionRecovered { partition } if *partition == gpu));
    assert!(
        failed < invalidated,
        "failed ({failed}) before invalidated ({invalidated})"
    );
    assert!(
        invalidated < cleared,
        "invalidated ({invalidated}) before cleared ({cleared})"
    );
    assert!(
        cleared < recovered,
        "cleared ({cleared}) before recovered ({recovered})"
    );
}

/// Untouched poisoned shares are reclaimed at enclave termination rather
/// than leaking frames.
#[test]
fn untouched_poisoned_share_is_reclaimable() {
    let mut spm = boot();
    let (cpu, gpu) = enclave_pair(&mut spm);
    let free_before = spm.machine().free_pages(World::Secure);
    let (handle, _, _) = spm.share_memory(cpu, gpu, 4).expect("share");
    spm.fail_partition(gpu.0).expect("fail");
    spm.recover_partition(gpu.0, b"cuda-mos", "v3")
        .expect("recover");
    // The survivor never touched the share; terminating reclaims it.
    spm.reclaim_share(handle).expect("reclaim");
    assert_eq!(spm.machine().free_pages(World::Secure), free_before);
}

/// Destroying an enclave reclaims the shares of every stream it terminates,
/// and each reclaim appends a hash-chained ledger record, so the order is
/// output: it must be the same on every run. The stream table is ordered and
/// the reclaims run in stream-id order.
#[test]
fn destroying_a_multi_stream_enclave_ledgers_identically_every_run() {
    use cronus::core::{Actor, CronusSystem};
    use cronus::forensics::{verify_export, SecurityEvent};

    let run = || {
        let mut sys = CronusSystem::boot(platform());
        let app = sys.create_app();
        let cpu = sys
            .create_enclave(
                Actor::App(app),
                Manifest::new(DeviceKind::Cpu),
                &BTreeMap::new(),
            )
            .expect("cpu enclave");
        for _ in 0..4 {
            let gpu = sys
                .create_enclave(
                    Actor::Enclave(cpu),
                    Manifest::new(DeviceKind::Gpu).with_memory(1 << 20),
                    &BTreeMap::new(),
                )
                .expect("gpu enclave");
            sys.stream(cpu, gpu).open().expect("stream");
        }
        sys.destroy_enclave(cpu).expect("destroy");
        sys.spm().ledger().export()
    };

    let first = run();
    verify_export(&first).expect("ledger verifies");
    let reclaimed: Vec<u64> = first
        .records_by_seq()
        .into_iter()
        .filter_map(|r| match r.event {
            SecurityEvent::ShareReclaimed { share } => Some(share),
            _ => None,
        })
        .collect();
    assert_eq!(reclaimed, [1, 2, 3, 4], "reclaims run in stream order");
    for i in 1..8 {
        assert_eq!(run(), first, "run {i} ledgered differently");
    }
}
