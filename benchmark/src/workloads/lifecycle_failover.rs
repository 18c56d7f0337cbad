//! `lifecycle_failover`: boot, attest, fail, recover, reopen.
//!
//! A cycle boots a two-GPU platform, creates a CPU and a GPU mEnclave (local
//! attestation), opens a stream, makes about 16 calls, kills the GPU partition,
//! has the survivor trip the proceed-trap, recovers the partition, respawns
//! the callee, reopens the stream and verifies one echo. `spm`, `mos`,
//! `crypto` (measurement, Schnorr, DH), `forensics` (HMAC-chained ledger
//! appends) and stream set-up do nearly all the work and steady-state ring
//! traffic almost none: the mirror image of `srpc_stream`. It carries the
//! paper's Fig. 9 recovery-time claim.

use std::collections::BTreeMap;
use std::time::Instant;

use cronus_audit::audit_system;
use cronus_core::{Actor, CronusSystem, EnclaveRef, SrpcError, StreamId};
use cronus_devices::DeviceKind;
use cronus_forensics::verify_export;
use cronus_mos::manifest::{Manifest, McallDecl};
use cronus_sim::SimNs;
use cronus_spm::spm::BootConfig;

use super::{cpu_enclave, cpu_partition, gpu_partition, RepFn, RepOutcome};
use crate::account::ReportStats;
use crate::rng::Rng;
use crate::trace::{Name, Tracer};

/// Cycles per rep at scale 1 (frozen).
pub const CYCLES: u64 = 600;
/// Calls before the failure are drawn from `MIN_CALLS..=MAX_CALLS` per cycle
/// (16 on average): payload bytes cost no simulated time, so the call count is
/// what the simulated clock sees of the seed.
pub const MIN_CALLS: u64 = 12;
pub const MAX_CALLS: u64 = 20;
/// Payload sizes are drawn from `MIN_LEN..=MAX_LEN`.
const MIN_LEN: u64 = 16;
const MAX_LEN: u64 = 240;
const HANDLER_COST: SimNs = SimNs::from_nanos(100);

fn spawn_callee(sys: &mut CronusSystem, tracer: &Tracer, cpu: EnclaveRef) -> EnclaveRef {
    tracer.span(Name::CoreCreateEnclave, || {
        let gpu = sys
            .create_enclave(
                Actor::Enclave(cpu),
                Manifest::new(DeviceKind::Gpu)
                    .with_mecall(McallDecl::asynchronous("echo"))
                    .with_mecall(McallDecl::synchronous("echo_sync"))
                    .with_memory(1 << 20),
                &BTreeMap::new(),
            )
            .expect("gpu enclave");
        for name in ["echo", "echo_sync"] {
            sys.register_handler(gpu, name, Box::new(|_, p| Ok((p.to_vec(), HANDLER_COST))));
        }
        gpu
    })
}

/// One cycle; returns the system as the cycle left it, the reopened stream,
/// and whether every step behaved.
fn cycle(
    tracer: &Tracer,
    payloads: &[Vec<u8>],
    out: &mut RepOutcome,
) -> (CronusSystem, Option<StreamId>, bool) {
    let mut ok = true;
    let mut sys = tracer.span(Name::CoreBoot, || {
        CronusSystem::boot(BootConfig {
            partitions: vec![cpu_partition(1), gpu_partition(2), gpu_partition(3)],
            ..Default::default()
        })
    });
    let cpu = tracer.span(Name::CoreCreateEnclave, || cpu_enclave(&mut sys));
    let gpu = spawn_callee(&mut sys, tracer, cpu);
    let stream = tracer.span(Name::CoreStreamOpen, || sys.stream(cpu, gpu).open());
    let Ok(stream) = stream else {
        return (sys, None, false);
    };
    let (echo, calls) = payloads.split_last().expect("a cycle has payloads");
    for p in calls {
        ok &= tracer
            .span(Name::CoreCallStart, || {
                sys.call(stream, "echo").payload(p).start()
            })
            .is_ok();
    }
    ok &= tracer.span(Name::CoreSync, || sys.sync(stream)).is_ok();

    ok &= tracer
        .span(Name::CoreInjectFailure, || {
            sys.inject_partition_failure(gpu.asid)
        })
        .is_ok();
    // The survivor touches the dead peer: proceed-trap must turn the stage-2
    // fault into a peer-failure signal, not a hang and not a result.
    let trapped = tracer.span(Name::CoreTrapCall, || {
        sys.call(stream, "echo_sync").payload(&payloads[0]).sync()
    });
    ok &= matches!(trapped, Err(SrpcError::PeerFailed { .. }));
    match tracer.span(Name::CoreRecoverPartition, || {
        sys.recover_partition(gpu.asid)
    }) {
        Ok(stats) => {
            let (ns, n) = out.sim.recovery_ns.unwrap_or((0, 0));
            out.sim.recovery_ns = Some((ns + stats.total().as_nanos(), n + 1));
        }
        Err(_) => ok = false,
    }
    let gpu = spawn_callee(&mut sys, tracer, cpu);
    let reopened = tracer
        .span(Name::CoreStreamReopen, || {
            sys.stream(cpu, gpu).reopen(stream)
        })
        .ok();
    match reopened {
        Some(stream) => {
            let echoed = tracer.span(Name::CoreCallSync, || {
                sys.call(stream, "echo_sync").payload(echo).sync()
            });
            ok &= echoed.is_ok_and(|r| r == *echo);
        }
        None => ok = false,
    }
    (sys, reopened, ok)
}

pub fn prepare(seed: u64, scale_div: u64) -> RepFn {
    let cycles = (CYCLES / scale_div).max(2);
    let mut rng = Rng::new(seed, 4);
    // The payloads of the calls before the failure, then the post-recovery
    // echo's.
    let plan: Vec<Vec<Vec<u8>>> = (0..cycles)
        .map(|_| {
            let calls = MIN_CALLS + rng.below(MAX_CALLS - MIN_CALLS + 1);
            (0..=calls)
                .map(|_| {
                    let len = MIN_LEN + rng.below(MAX_LEN - MIN_LEN + 1);
                    rng.bytes(len as usize)
                })
                .collect()
        })
        .collect();

    Box::new(move |tracer| {
        let mut out = RepOutcome::new(cycles);
        let t0 = Instant::now();
        let last = tracer.span(Name::Driver, || {
            let mut last = None;
            for (i, payloads) in plan.iter().enumerate() {
                tracer.set_op(i);
                let (sys, reopened, ok) = cycle(tracer, payloads, &mut out);
                out.sim.failed += u64::from(!ok);
                // Each cycle's system is gone before the next boots (two live
                // machines thrash the cache and make boot time erratic), so
                // its books are read inside the timed section: a few µs
                // against a cycle of more than a millisecond. The pre-failure
                // stream went with `reopen`; only the reopened one still has
                // counters to read.
                out.sim.account.absorb(&sys, reopened.as_slice());
                if i + 1 == plan.len() {
                    last = Some(sys);
                }
            }
            last.expect("at least one cycle")
        });
        out.host_ns = t0.elapsed().as_nanos() as u64;

        // Outside the timed section: the last cycle must leave an isolation
        // state that audits clean and a ledger whose chains verify.
        out.sim.failed += u64::from(!audit_system(&last).passed());
        out.sim.failed += u64::from(verify_export(&last.spm().ledger().export()).is_err());
        out.report_stats = tracer.is_on().then(|| ReportStats::of(&last));
        out
    })
}
