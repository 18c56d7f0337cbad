//! `tenants_mixed`: the `core` layer used the other way.
//!
//! A victim CPU partition and a noisy CPU partition drive one GPU partition
//! through `.shared()` streams. Each round the noisy tenant front-runs with a
//! burst of heavy `gemm` calls, then the victim's app hands it the round's
//! data (a normal-world ECall: two world switches) and the victim issues a few
//! requests drawn 6:1:1 from async `echo`, synchronous `sum` (reply verified)
//! and 4 KiB zero-copy `blob` grants, then syncs. Sync calls, grant-arena writes and
//! shared-executor contention sit beside `srpc_stream`'s async path, so a
//! fast-path gain that costs those paths shows here, and this is the only
//! workload where a scheduling policy can move a user-visible number (the
//! victim's round latency).

use std::collections::BTreeMap;
use std::time::Instant;

use cronus_core::{Actor, CronusSystem};
use cronus_devices::DeviceKind;
use cronus_mos::manifest::{Manifest, McallDecl};
use cronus_sim::{CostModel, SimNs};
use cronus_spm::spm::BootConfig;

use super::{cpu_partition, gpu_partition, RepFn, RepOutcome};
use crate::rng::Rng;
use crate::trace::Name;

/// Rounds per rep at scale 1 (frozen).
pub const ROUNDS: u64 = 20_000;
/// Zero-copy threshold of the victim stream, and the blob size above it.
const ZERO_COPY: usize = 1024;
const BLOB_LEN: usize = 4096;
const SUM_LEN: usize = 32;

#[derive(Clone, Copy, Debug)]
enum Victim {
    /// Async echo of `len` bytes.
    Echo { len: u8 },
    /// Synchronous sum of 32 bytes; the reply is checked.
    Sum,
    /// Async 4 KiB payload, granted zero-copy through the arena.
    Blob,
}

#[derive(Clone, Debug)]
struct Round {
    /// Payload lengths of the noisy tenant's gemm burst.
    gemm: Vec<u8>,
    victim: Vec<Victim>,
}

fn byte_sum(p: &[u8]) -> u64 {
    p.iter().map(|&b| u64::from(b)).sum()
}

pub fn prepare(seed: u64, scale_div: u64) -> RepFn {
    let rounds = (ROUNDS / scale_div).max(20);
    let mut rng = Rng::new(seed, 2);
    let pool = rng.bytes(BLOB_LEN + 256);
    let plan: Vec<Round> = (0..rounds)
        .map(|_| Round {
            gemm: (0..3 + rng.below(3))
                .map(|_| 64 + rng.below(64) as u8)
                .collect(),
            victim: (0..2 + rng.below(3))
                .map(|_| match rng.below(8) {
                    0 => Victim::Sum,
                    1 => Victim::Blob,
                    _ => Victim::Echo {
                        len: 8 + rng.below(16) as u8,
                    },
                })
                .collect(),
        })
        .collect();
    // Every sRPC request of either tenant is an op, and so is the victim
    // app's ECall of each round.
    let srpc_calls: u64 = plan
        .iter()
        .map(|r| (r.gemm.len() + r.victim.len()) as u64)
        .sum();
    let ops = srpc_calls + rounds;
    let blobs: u64 = plan
        .iter()
        .flat_map(|r| &r.victim)
        .filter(|v| matches!(v, Victim::Blob))
        .count() as u64;

    Box::new(move |tracer| {
        let mut out = RepOutcome::new(ops);
        let kernel = CostModel::default().gpu_kernel_launch;
        let t0 = Instant::now();
        let (sys, streams) = tracer.span(Name::Driver, || {
            let mut sys = tracer.span(Name::CoreBoot, || {
                CronusSystem::boot(BootConfig {
                    partitions: vec![cpu_partition(1), cpu_partition(4), gpu_partition(2)],
                    ..Default::default()
                })
            });
            let (victim_app, noisy_app) = (sys.create_app(), sys.create_app());
            // Least-loaded routing puts the first CPU enclave on partition 1
            // and the second on partition 4: two metering principals.
            let (victim_cpu, noisy_cpu, victim_gpu, noisy_gpu) =
                tracer.span(Name::CoreCreateEnclave, || {
                    let mut cpu = |app| {
                        sys.create_enclave(
                            Actor::App(app),
                            Manifest::new(DeviceKind::Cpu)
                                .with_mecall(McallDecl::synchronous("prep"))
                                .with_memory(1 << 20),
                            &BTreeMap::new(),
                        )
                        .expect("cpu enclave")
                    };
                    let (victim_cpu, noisy_cpu) = (cpu(victim_app), cpu(noisy_app));
                    sys.register_handler(
                        victim_cpu,
                        "prep",
                        Box::new(|_, _| Ok((Vec::new(), SimNs::from_micros(2)))),
                    );
                    let victim_gpu = sys
                        .create_enclave(
                            Actor::Enclave(victim_cpu),
                            Manifest::new(DeviceKind::Gpu)
                                .with_mecall(McallDecl::asynchronous("echo"))
                                .with_mecall(McallDecl::synchronous("sum"))
                                .with_mecall(McallDecl::asynchronous("blob"))
                                .with_memory(1 << 20),
                            &BTreeMap::new(),
                        )
                        .expect("victim gpu enclave");
                    let noisy_gpu = sys
                        .create_enclave(
                            Actor::Enclave(noisy_cpu),
                            Manifest::new(DeviceKind::Gpu)
                                .with_mecall(McallDecl::asynchronous("gemm"))
                                .with_memory(1 << 20),
                            &BTreeMap::new(),
                        )
                        .expect("noisy gpu enclave");
                    sys.register_handler(
                        victim_gpu,
                        "echo",
                        Box::new(move |_, p| Ok((Vec::new(), kernel * (1 + p.len() as u64 % 3)))),
                    );
                    sys.register_handler(
                        victim_gpu,
                        "sum",
                        Box::new(move |_, p| Ok((byte_sum(p).to_le_bytes().to_vec(), kernel))),
                    );
                    sys.register_handler(
                        victim_gpu,
                        "blob",
                        Box::new(move |_, _| Ok((Vec::new(), kernel * 2))),
                    );
                    // A GEMM tile is an order of magnitude heavier than the
                    // victim's kernels: one burst seizes the shared pool.
                    sys.register_handler(
                        noisy_gpu,
                        "gemm",
                        Box::new(move |_, p| Ok((Vec::new(), kernel * (24 + p.len() as u64 % 8)))),
                    );
                    (victim_cpu, noisy_cpu, victim_gpu, noisy_gpu)
                });
            let (victim, noisy) = tracer.span(Name::CoreStreamOpen, || {
                let victim = sys
                    .stream(victim_cpu, victim_gpu)
                    .rings(2)
                    .depth(4)
                    .zero_copy(ZERO_COPY)
                    .shared()
                    .open()
                    .expect("victim stream");
                let noisy = sys
                    .stream(noisy_cpu, noisy_gpu)
                    .rings(2)
                    .depth(8)
                    .shared()
                    .open()
                    .expect("noisy stream");
                (victim, noisy)
            });

            for (i, round) in plan.iter().enumerate() {
                tracer.set_op(i);
                for &len in &round.gemm {
                    let r = tracer.span(Name::CoreCallStart, || {
                        sys.call(noisy, "gemm")
                            .payload(&pool[..len as usize])
                            .start()
                    });
                    out.sim.failed += u64::from(r.is_err());
                }
                let r = tracer.span(Name::CoreSync, || sys.sync(noisy));
                out.sim.failed += u64::from(r.is_err());

                // The victim's requests now queue behind the neighbour's
                // occupancy of the shared pool.
                let r = tracer.span(Name::CoreAppEcall, || {
                    sys.app_ecall(victim_app, victim_cpu, "prep", &pool[..16])
                });
                out.sim.failed += u64::from(r.is_err());
                let begun = sys.enclave_time(victim_cpu);
                for v in &round.victim {
                    let ok = match *v {
                        Victim::Echo { len } => tracer
                            .span(Name::CoreCallStart, || {
                                sys.call(victim, "echo")
                                    .payload(&pool[..len as usize])
                                    .start()
                            })
                            .is_ok(),
                        Victim::Blob => tracer
                            .span(Name::CoreCallStart, || {
                                sys.call(victim, "blob").payload(&pool[..BLOB_LEN]).start()
                            })
                            .is_ok(),
                        Victim::Sum => {
                            let p = &pool[i % 128..i % 128 + SUM_LEN];
                            let reply = tracer.span(Name::CoreCallSync, || {
                                sys.call(victim, "sum").payload(p).sync()
                            });
                            reply.is_ok_and(|r| r == byte_sum(p).to_le_bytes())
                        }
                    };
                    out.sim.failed += u64::from(!ok);
                }
                let r = tracer.span(Name::CoreSync, || sys.sync(victim));
                out.sim.failed += u64::from(r.is_err());
                out.sim
                    .victim_round_ns
                    .push((sys.enclave_time(victim_cpu) - begun).as_nanos());
            }
            (sys, [victim, noisy])
        });
        out.host_ns = t0.elapsed().as_nanos() as u64;

        // Every request was accepted, and every blob went through the arena.
        let calls: u64 = streams
            .iter()
            .map(|&s| sys.stream_stats(s).expect("stream stats").calls)
            .sum();
        out.sim.failed += u64::from(calls != srpc_calls);
        let grants = sys
            .stream_stats(streams[0])
            .expect("stats")
            .zero_copy_grants;
        out.sim.failed += u64::from(grants != blobs);
        out.close(&sys, &streams, tracer);
        out
    })
}
