//! Property-based tests for the sRPC protocol.
//!
//! Cases come from the in-repo `proptest` shim (`crates/ptest`): seeded by the
//! test's name, so every run generates the same ones.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use cronus_core::{Actor, CronusSystem, EnclaveRef};
use cronus_devices::DeviceKind;
use cronus_mos::manifest::{Manifest, McallDecl};
use cronus_sim::SimNs;
use cronus_spm::spm::{BootConfig, DeviceSpec, PartitionSpec};

fn setup() -> (CronusSystem, EnclaveRef, EnclaveRef) {
    let mut sys = CronusSystem::boot(BootConfig {
        partitions: vec![
            PartitionSpec::new(1, b"cpu-mos", "v1", DeviceSpec::Cpu),
            PartitionSpec::new(
                2,
                b"cuda-mos",
                "v3",
                DeviceSpec::Gpu {
                    memory: 1 << 24,
                    sms: 46,
                },
            ),
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
        .expect("cpu");
    let gpu = sys
        .create_enclave(
            Actor::Enclave(cpu),
            Manifest::new(DeviceKind::Gpu)
                .with_mecall(McallDecl::asynchronous("append"))
                .with_mecall(McallDecl::synchronous("drain"))
                .with_memory(1 << 20),
            &BTreeMap::new(),
        )
        .expect("gpu");
    (sys, cpu, gpu)
}

/// Registers an `append` handler that logs each first payload byte (charging
/// `exec` per call) and a `drain` handler returning the log.
fn register_log_handlers(
    sys: &mut CronusSystem,
    gpu: EnclaveRef,
    exec: SimNs,
) -> Arc<Mutex<Vec<u8>>> {
    let log = Arc::new(Mutex::new(Vec::<u8>::new()));
    let log_append = Arc::clone(&log);
    sys.register_handler(
        gpu,
        "append",
        Box::new(move |_, p| {
            log_append.lock().expect("lock").push(p[0]);
            Ok((Vec::new(), exec))
        }),
    );
    let log_drain = Arc::clone(&log);
    sys.register_handler(
        gpu,
        "drain",
        Box::new(move |_, _| Ok((log_drain.lock().expect("lock").clone(), SimNs::ZERO))),
    );
    log
}

mod full {
    use super::*;

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// sRPC executes every request exactly once, in submission order,
        /// regardless of how async calls and syncs interleave — the integrity
        /// property replay/reorder/drop attacks try to break.
        #[test]
        fn srpc_preserves_order_and_exactly_once(
            ops in proptest::collection::vec((any::<u8>(), any::<bool>()), 1..120),
        ) {
            let (mut sys, cpu, gpu) = setup();
            register_log_handlers(&mut sys, gpu, SimNs::from_nanos(500));
            let stream = sys.stream(cpu, gpu).open().expect("stream");

            let mut expected = Vec::new();
            for (byte, sync_now) in &ops {
                sys.call(stream, "append").payload(&[*byte]).start().expect("append");
                expected.push(*byte);
                if *sync_now {
                    sys.sync(stream).expect("sync");
                }
            }
            let observed = sys.call(stream, "drain").sync().expect("drain");
            prop_assert_eq!(observed, expected);
        }

        /// Doorbell batching coalesces back-to-back enqueues into one ring
        /// per batch without perturbing per-stream FIFO order: every sync
        /// boundary starts a new batch, and rung + coalesced == calls.
        #[test]
        fn doorbell_coalescing_preserves_fifo(
            ops in proptest::collection::vec((any::<u8>(), any::<bool>()), 1..120),
        ) {
            let (mut sys, cpu, gpu) = setup();
            register_log_handlers(&mut sys, gpu, SimNs::from_nanos(500));
            let stream = sys.stream(cpu, gpu).rings(4).open().expect("stream");

            let mut expected = Vec::new();
            let mut batches = 0u64;
            let mut batch_open = false;
            for (byte, sync_now) in &ops {
                sys.call(stream, "append").payload(&[*byte]).start().expect("append");
                if !batch_open {
                    batches += 1;
                    batch_open = true;
                }
                expected.push(*byte);
                if *sync_now {
                    sys.sync(stream).expect("sync");
                    batch_open = false;
                }
            }
            sys.sync(stream).expect("final sync");
            let observed = sys.call(stream, "drain").sync().expect("drain");
            // The drain call itself rings one more doorbell (its batch).
            prop_assert_eq!(observed, expected);
            let stats = sys.stream_stats(stream).expect("stats");
            prop_assert_eq!(stats.doorbells_rung, batches + 1);
            prop_assert_eq!(
                stats.doorbells_rung + stats.doorbells_coalesced,
                stats.calls
            );
        }

        /// Per-stream FIFO survives lane-ring wraparound: tiny lanes force
        /// both wraparound and full-ring stalls, and order still holds.
        #[test]
        fn multi_ring_wraparound_preserves_order(
            bytes in proptest::collection::vec(any::<u8>(), 1..200),
            lanes in 1usize..5,
            depth in 1u64..4,
        ) {
            let (mut sys, cpu, gpu) = setup();
            register_log_handlers(&mut sys, gpu, SimNs::from_micros(2));
            let stream = sys
                .stream(cpu, gpu)
                .rings(lanes)
                .depth(depth)
                .open()
                .expect("stream");
            for b in &bytes {
                sys.call(stream, "append").payload(&[*b]).start().expect("append");
            }
            let observed = sys.call(stream, "drain").sync().expect("drain");
            prop_assert_eq!(observed, bytes.clone());
            let capacity = lanes as u64 * depth;
            if bytes.len() as u64 > capacity {
                let stats = sys.stream_stats(stream).expect("stats");
                prop_assert!(stats.ring_full_stalls > 0, "producer outran {capacity} slots");
            }
        }

        /// Work stealing never reorders a stream: wildly uneven kernel times
        /// skew the lane workers' clocks, yet dispatch stays global-FIFO.
        #[test]
        fn steal_never_reorders_a_stream(
            ops in proptest::collection::vec((any::<u8>(), 1u64..5000), 1..120),
        ) {
            let (mut sys, cpu, gpu) = setup();
            let log = Arc::new(Mutex::new(Vec::<u8>::new()));
            let sink = Arc::clone(&log);
            sys.register_handler(
                gpu,
                "append",
                Box::new(move |_, p| {
                    sink.lock().expect("lock").push(p[0]);
                    // Exec time driven by the (adversarial) payload.
                    let ns = u64::from(p[1]) * 40 + 10;
                    Ok((Vec::new(), SimNs::from_nanos(ns)))
                }),
            );
            let src = Arc::clone(&log);
            sys.register_handler(
                gpu,
                "drain",
                Box::new(move |_, _| Ok((src.lock().expect("lock").clone(), SimNs::ZERO))),
            );
            let stream = sys.stream(cpu, gpu).rings(8).depth(2).open().expect("stream");
            let mut expected = Vec::new();
            for (i, (byte, jitter)) in ops.iter().enumerate() {
                let _ = i;
                sys.call(stream, "append")
                    .payload(&[*byte, (*jitter % 256) as u8])
                    .start()
                    .expect("append");
                expected.push(*byte);
            }
            let observed = sys.call(stream, "drain").sync().expect("drain");
            prop_assert_eq!(observed, expected);
        }

        /// Zero-copy grants are transparent: payloads cross the arena above
        /// the threshold and the ring below it, with identical results; the
        /// grant counters account for exactly the above-threshold calls.
        #[test]
        fn zero_copy_grants_are_transparent(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..2000), 1..30),
        ) {
            let (mut sys, cpu, gpu) = setup();
            let sums = Arc::new(Mutex::new(Vec::<u64>::new()));
            let sink = Arc::clone(&sums);
            sys.register_handler(
                gpu,
                "append",
                Box::new(move |_, p| {
                    sink.lock().expect("lock").push(p.iter().map(|b| u64::from(*b)).sum());
                    Ok((Vec::new(), SimNs::from_nanos(200)))
                }),
            );
            let threshold = 256usize;
            let stream = sys
                .stream(cpu, gpu)
                .zero_copy(threshold)
                .open()
                .expect("stream");
            let mut expected_sums = Vec::new();
            let mut expected_grants = 0u64;
            let mut expected_bytes = 0u64;
            for p in &payloads {
                sys.call(stream, "append").payload(p).start().expect("append");
                expected_sums.push(p.iter().map(|b| u64::from(*b)).sum());
                if p.len() >= threshold {
                    expected_grants += 1;
                    expected_bytes += p.len() as u64;
                }
            }
            sys.sync(stream).expect("sync");
            prop_assert_eq!(sums.lock().expect("lock").clone(), expected_sums);
            let stats = sys.stream_stats(stream).expect("stats");
            prop_assert_eq!(stats.zero_copy_grants, expected_grants);
            prop_assert_eq!(stats.zero_copy_bytes, expected_bytes);
        }

        /// The caller's clock is monotone and never exceeds the executor's by
        /// more than its own enqueue work (async never waits).
        #[test]
        fn async_calls_never_wait(n in 1usize..100) {
            let (mut sys, cpu, gpu) = setup();
            sys.register_handler(
                gpu,
                "append",
                Box::new(|_, _| Ok((Vec::new(), SimNs::from_micros(30)))),
            );
            let stream = sys.stream(cpu, gpu).open().expect("stream");
            let t0 = sys.enclave_time(cpu);
            let mut last = t0;
            for _ in 0..n.min(200) {
                sys.call(stream, "append").payload(&[1]).start().expect("call");
                let now = sys.enclave_time(cpu);
                prop_assert!(now >= last, "clock is monotone");
                last = now;
            }
            let per_call = (last - t0).as_nanos() / n as u64;
            // Default ring capacity (16 lanes x 16 slots) exceeds n, so no
            // stall can occur.
            prop_assert!(per_call < 1_000, "async call cost {per_call}ns");
        }
    }
}
