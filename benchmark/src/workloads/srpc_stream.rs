//! `srpc_stream`: the steady-state sRPC fast path.
//!
//! Async `echo` mECalls over a default 16-lane stream in bursts of 128 on
//! average, a `sync` after each burst.
//! At least nine tenths of the host time is `core` + `obs` + `sim` page-table
//! work; no device, crypto or workload code runs. This is where ROADMAP
//! item 2's µs-per-call headline and the per-call memory retention show.

use std::collections::BTreeMap;
use std::time::Instant;

use cronus_core::{Actor, CronusSystem};
use cronus_devices::DeviceKind;
use cronus_mos::manifest::{Manifest, McallDecl};
use cronus_sim::SimNs;
use cronus_spm::spm::BootConfig;

use super::{cpu_enclave, cpu_partition, gpu_partition, RepFn, RepOutcome};
use crate::rng::Rng;
use crate::trace::Name;

/// Calls per rep at scale 1 (frozen).
pub const CALLS: u64 = 200_000;
/// Calls between synchronization points are drawn from `MIN_BURST..=MAX_BURST`
/// (128 on average). The ring charges no simulated time per payload byte, so
/// the burst lengths are what the simulated clock sees of the seed.
pub const MIN_BURST: u64 = 96;
pub const MAX_BURST: u64 = 160;
/// Payload sizes are drawn from `MIN_LEN..=MAX_LEN`, 64 B on average.
pub const MIN_LEN: usize = 56;
pub const MAX_LEN: usize = 72;
/// Simulated handler cost.
const HANDLER_COST: SimNs = SimNs::from_nanos(100);
const POOL: usize = 1 << 16;

pub fn prepare(seed: u64, scale_div: u64) -> RepFn {
    let calls = (CALLS / scale_div).max(MAX_BURST);
    let mut rng = Rng::new(seed, 1);
    let pool = rng.bytes(POOL + MAX_LEN);
    // (offset into the pool, length) of every call's payload.
    let slices: Vec<(u16, u8)> = (0..calls)
        .map(|_| {
            let off = rng.below(POOL as u64) as u16;
            let len = MIN_LEN as u64 + rng.below((MAX_LEN - MIN_LEN + 1) as u64);
            (off, len as u8)
        })
        .collect();
    let expected_bytes: u64 = slices.iter().map(|&(_, len)| u64::from(len)).sum();
    // Index of the last call of every burst; the final burst may run short.
    let mut burst_ends = Vec::new();
    let mut end = 0;
    while end < calls {
        end = (end + MIN_BURST + rng.below(MAX_BURST - MIN_BURST + 1)).min(calls);
        burst_ends.push(end as usize - 1);
    }

    Box::new(move |tracer| {
        let mut out = RepOutcome::new(calls);
        let t0 = Instant::now();
        let (sys, stream) = tracer.span(Name::Driver, || {
            let mut sys = tracer.span(Name::CoreBoot, || {
                CronusSystem::boot(BootConfig {
                    partitions: vec![cpu_partition(1), gpu_partition(2)],
                    ..Default::default()
                })
            });
            let (cpu, gpu) = tracer.span(Name::CoreCreateEnclave, || {
                let cpu = cpu_enclave(&mut sys);
                let gpu = sys
                    .create_enclave(
                        Actor::Enclave(cpu),
                        Manifest::new(DeviceKind::Gpu)
                            .with_mecall(McallDecl::asynchronous("echo"))
                            .with_memory(1 << 20),
                        &BTreeMap::new(),
                    )
                    .expect("gpu enclave");
                sys.register_handler(gpu, "echo", Box::new(|_, p| Ok((p.to_vec(), HANDLER_COST))));
                (cpu, gpu)
            });
            let stream = tracer.span(Name::CoreStreamOpen, || {
                sys.stream(cpu, gpu).open().expect("stream")
            });

            let mut burst_ends = burst_ends.iter().copied().peekable();
            for (i, &(off, len)) in slices.iter().enumerate() {
                tracer.set_op(i);
                let payload = &pool[off as usize..off as usize + len as usize];
                let started = tracer.span(Name::CoreCallStart, || {
                    sys.call(stream, "echo").payload(payload).start()
                });
                out.sim.failed += u64::from(started.is_err());
                if burst_ends.next_if_eq(&i).is_some() {
                    let synced = tracer.span(Name::CoreSync, || sys.sync(stream));
                    out.sim.failed += u64::from(synced.is_err());
                }
            }
            (sys, stream)
        });
        out.host_ns = t0.elapsed().as_nanos() as u64;

        // Every call was accepted and every echo came back whole.
        let stats = sys.stream_stats(stream).expect("stream stats");
        out.sim.failed += u64::from(stats.calls != calls);
        out.sim.failed += u64::from(stats.request_bytes != expected_bytes);
        out.sim.failed += u64::from(stats.result_bytes != expected_bytes);
        out.close(&sys, &[stream], tracer);
        out
    })
}
