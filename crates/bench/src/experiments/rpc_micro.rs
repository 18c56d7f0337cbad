//! §VI-B RPC microbenchmark: sRPC vs synchronous RPC vs encrypted RPC.
//!
//! Measures the caller-side cost per call and the context switches each
//! protocol performs, plus an sRPC ring-size ablation (one of the design
//! choices DESIGN.md calls out).

use std::collections::BTreeMap;

use cronus_core::{Actor, CronusSystem, SrpcError, StreamStats};
use cronus_devices::DeviceKind;
use cronus_mos::manifest::{Manifest, McallDecl};
use cronus_obs::{FlightRecorder, Headline};
use cronus_sim::{CostModel, SimNs};

use super::{FigureRun, Params};
use crate::report::Table;

/// Result of one protocol measurement.
#[derive(Clone, Debug)]
pub struct RpcCost {
    /// Protocol name.
    pub protocol: &'static str,
    /// Caller-side cost per asynchronous call.
    pub per_call: SimNs,
    /// Context switches per call: eight for the lock-step protocols (the
    /// paper's analysis); zero for sRPC, whose path contains no switch site.
    pub context_switches_per_call: f64,
}

fn echo_system() -> (
    CronusSystem,
    cronus_core::EnclaveRef,
    cronus_core::EnclaveRef,
) {
    let mut sys = CronusSystem::boot(super::standard_boot());
    let cpu = super::cpu_enclave(&mut sys);
    let gpu = sys
        .create_enclave(
            Actor::Enclave(cpu),
            Manifest::new(DeviceKind::Gpu)
                .with_mecall(McallDecl::asynchronous("echo"))
                .with_memory(1 << 20),
            &BTreeMap::new(),
        )
        .expect("gpu enclave");
    // The echo kernel costs exactly one GPU launch from the cost model — no
    // free-standing constants, so retuning the model retunes the benchmark.
    let kernel = CostModel::default().gpu_kernel_launch;
    sys.register_handler(gpu, "echo", Box::new(move |_, p| Ok((p.to_vec(), kernel))));
    (sys, cpu, gpu)
}

/// Measures the three protocols with `calls` iterations of a 64-byte call.
pub fn run(calls: u64) -> Vec<RpcCost> {
    run_recorded(calls).0
}

/// [`run`], also returning the sRPC stream's protocol stats (doorbell
/// batching, steals) and the system's flight recorder (the synchronous and
/// encrypted baselines are computed from the cost model, so only the sRPC
/// measurement records spans and metrics).
pub fn run_recorded(calls: u64) -> (Vec<RpcCost>, StreamStats, FlightRecorder) {
    let cm = CostModel::default();

    // sRPC: measured on the real stack, on the latency-optimal fast-path
    // geometry: 16 depth-1 lanes keep queueing wait near zero (a slot frees
    // the moment its request executes) while the lane workers overlap the
    // 5 us echo kernels 16-wide.
    let (mut sys, cpu, gpu) = echo_system();
    let stream = sys
        .stream(cpu, gpu)
        .rings(16)
        .depth(1)
        .open()
        .expect("stream");
    sys.mark("rpc_micro:srpc-measure");
    let t0 = sys.enclave_time(cpu);
    for _ in 0..calls {
        sys.call(stream, "echo")
            .payload(&[0u8; 64])
            .start()
            .expect("call");
    }
    let srpc_caller = (sys.enclave_time(cpu) - t0) / calls;
    sys.sync(stream).expect("sync");
    sys.mark("rpc_micro:srpc-drained");
    let stats = sys.stream_stats(stream).expect("stats");

    // The profiler must attribute every elapsed nanosecond.
    let rec = sys.recorder();
    {
        let inner = rec.lock();
        let attributed: u64 = inner
            .profiler
            .attribution()
            .iter()
            .map(|(_, d)| d.as_nanos())
            .sum();
        assert_eq!(attributed, inner.profiler.total_elapsed().as_nanos());
    }

    // Synchronous (unencrypted) RPC: four context switches in, four out,
    // per the paper's analysis, plus the callee's execution in lock-step.
    // The kernel component is *measured* from the sRPC run's causal report
    // (mean per-request "kernel" attribution) rather than restating the
    // handler's cost — the baselines stay honest if the handler changes.
    let causal = rec.causal_report();
    let kernel_total: u64 = causal
        .requests
        .iter()
        .flat_map(|r| r.phases.iter())
        .filter(|(phase, _)| phase == "kernel")
        .map(|(_, ns)| ns)
        .sum();
    let measured_kernel = SimNs::from_nanos(kernel_total / causal.requests.len().max(1) as u64);
    let sync_per_call =
        cm.sync_rpc_transport() + cm.srpc_enqueue + cm.srpc_dequeue + measured_kernel;

    // Encrypted RPC over untrusted memory (HIX/Panoply style): sync RPC
    // plus encryption of request and acknowledged response.
    let encrypted_per_call = sync_per_call + cm.encrypt(64) * 2;

    let costs = vec![
        RpcCost {
            protocol: "srpc (cronus)",
            per_call: srpc_caller,
            context_switches_per_call: 0.0,
        },
        RpcCost {
            protocol: "synchronous rpc",
            per_call: sync_per_call,
            context_switches_per_call: 8.0,
        },
        RpcCost {
            protocol: "encrypted rpc (hix)",
            per_call: encrypted_per_call,
            context_switches_per_call: 8.0,
        },
    ];
    (costs, stats, rec)
}

/// Caller-side cost per zero-copy call: 4 KiB payloads granted by mapping
/// arena pages into the callee instead of chunking through ring slots (a
/// 4 KiB payload does not even fit a slot, so there is no inline baseline
/// to compare against — the headline tracks the grant path's own cost).
pub fn grant_micro(calls: u64) -> (SimNs, StreamStats) {
    let (mut sys, cpu, gpu) = echo_system();
    // Summing handler: the 4 KiB request crosses via a grant; the 8-byte
    // result still rides the ring slot.
    let kernel = CostModel::default().gpu_kernel_launch;
    sys.register_handler(
        gpu,
        "echo",
        Box::new(move |_, p| {
            let sum: u64 = p.iter().map(|&b| b as u64).sum();
            Ok((sum.to_le_bytes().to_vec(), kernel))
        }),
    );
    let stream = sys
        .stream(cpu, gpu)
        .rings(16)
        .depth(1)
        .zero_copy(512)
        .open()
        .expect("stream");
    let payload = vec![3u8; 4096];
    let t0 = sys.enclave_time(cpu);
    for _ in 0..calls {
        sys.call(stream, "echo")
            .payload(&payload)
            .start()
            .expect("grant call");
    }
    let per_call = (sys.enclave_time(cpu) - t0) / calls;
    sys.sync(stream).expect("sync");
    let stats = sys.stream_stats(stream).expect("stats");
    assert_eq!(
        stats.zero_copy_grants, calls,
        "every 4 KiB call must take the grant path"
    );
    (per_call, stats)
}

/// Ring-size ablation point.
#[derive(Clone, Debug)]
pub struct RingSweepPoint {
    /// Ring pages.
    pub pages: usize,
    /// Producer stalls over the run.
    pub stalls: u64,
    /// Caller cost per call.
    pub per_call: SimNs,
}

/// Sweeps the sRPC ring size with a slow consumer (50 µs kernels).
pub fn ring_sweep(calls: u64, page_sizes: &[usize]) -> Vec<RingSweepPoint> {
    page_sizes
        .iter()
        .map(|&pages| {
            let (mut sys, cpu, gpu) = echo_system();
            // Slow consumer: 10 back-to-back launches' worth of kernel time,
            // expressed through the cost model like the echo handler.
            let slow = CostModel::default().gpu_kernel_launch * 10;
            sys.register_handler(gpu, "echo", Box::new(move |_, p| Ok((p.to_vec(), slow))));
            let stream = sys.stream(cpu, gpu).pages(pages).open().expect("stream");
            sys.mark("rpc_micro:ring-sweep");
            let t0 = sys.enclave_time(cpu);
            for _ in 0..calls {
                match sys.call(stream, "echo").payload(&[0u8; 32]).start() {
                    Ok(_) => {}
                    Err(SrpcError::Closed) => break,
                    Err(e) => panic!("unexpected srpc error: {e}"),
                }
            }
            let per_call = (sys.enclave_time(cpu) - t0) / calls;
            let stalls = sys.stream_stats(stream).expect("stats").ring_full_stalls;
            RingSweepPoint {
                pages,
                stalls,
                per_call,
            }
        })
        .collect()
}

/// Renders the microbenchmark.
pub fn print(costs: &[RpcCost], sweep: &[RingSweepPoint]) -> String {
    let mut out = String::new();
    let mut t = Table::new(
        "RPC microbenchmark: caller-side cost per inter-mEnclave call",
        &["protocol", "per call", "ctx switches/call"],
    );
    for c in costs {
        t.row(&[
            c.protocol.to_string(),
            c.per_call.to_string(),
            format!("{:.2}", c.context_switches_per_call),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    let mut t = Table::new(
        "sRPC ring-size ablation (50us kernels, slow consumer)",
        &["ring pages", "producer stalls", "caller cost/call"],
    );
    for p in sweep {
        t.row(&[
            p.pages.to_string(),
            p.stalls.to_string(),
            p.per_call.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Headline metrics of the committed baseline: per-call cost of each
/// protocol, sRPC's context switches per call (0.0: its path contains no
/// switch site), doorbell batching quality and the zero-copy grant path's
/// per-call cost.
pub fn headlines(costs: &[RpcCost], stats: &StreamStats, grant_per_call: SimNs) -> Vec<Headline> {
    let mut out = Vec::new();
    for c in costs {
        let key = match c.protocol {
            "srpc (cronus)" => "srpc_per_call_ns",
            "synchronous rpc" => "sync_rpc_per_call_ns",
            "encrypted rpc (hix)" => "encrypted_rpc_per_call_ns",
            other => panic!("unknown protocol {other}"),
        };
        out.push(Headline::ns(key, c.per_call));
    }
    if let Some(srpc) = costs.iter().find(|c| c.protocol == "srpc (cronus)") {
        out.push(Headline::lower(
            "srpc_ctx_switches_per_call",
            srpc.context_switches_per_call,
            "switches",
        ));
    }
    // Doorbells rung per call: 1.0 means every enqueue paid a wakeup;
    // coalescing pushes this toward 0.
    out.push(Headline::lower(
        "srpc_doorbells_per_call",
        stats.doorbells_rung as f64 / stats.calls.max(1) as f64,
        "rings",
    ));
    out.push(Headline::ns("srpc_grant_4k_per_call_ns", grant_per_call));
    out
}

/// The table row's entry point: `size` is the number of measured calls.
pub fn figure(p: Params) -> FigureRun {
    let (costs, stats, recorder) = run_recorded(p.size);
    let sweep = ring_sweep(400, &[1, 4, 16, 64]);
    let (grant_per_call, _) = grant_micro(256);
    FigureRun {
        text: print(&costs, &sweep) + &recorder.causal_report().render_text(8),
        headlines: headlines(&costs, &stats, grant_per_call),
        meta: vec![("calls".to_string(), p.size.to_string())],
        recorder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn srpc_beats_lockstep_protocols() {
        let costs = run(500);
        let srpc = &costs[0];
        let sync = &costs[1];
        let enc = &costs[2];
        assert_eq!(
            srpc.context_switches_per_call, 0.0,
            "sRPC needs no per-call switches"
        );
        assert!(
            srpc.per_call * 10 < sync.per_call,
            "{} vs {}",
            srpc.per_call,
            sync.per_call
        );
        assert!(enc.per_call > sync.per_call);
    }

    #[test]
    fn multi_ring_fast_path_beats_single_queue_baseline() {
        // The committed pre-multi-queue baseline was 3770 ns/call; the
        // 16-lane depth-1 geometry must be at least 10x cheaper.
        let (costs, stats, _) = run_recorded(500);
        let srpc = &costs[0];
        assert!(
            srpc.per_call <= SimNs::from_nanos(377),
            "fast path regressed: {} > 377ns",
            srpc.per_call
        );
        // Back-to-back enqueues coalesce onto one doorbell.
        assert!(
            stats.doorbells_rung < stats.calls / 4,
            "doorbells {} not coalescing over {} calls",
            stats.doorbells_rung,
            stats.calls
        );
        assert_eq!(
            stats.doorbells_rung + stats.doorbells_coalesced,
            stats.calls
        );
    }

    #[test]
    fn grant_micro_takes_the_zero_copy_path() {
        let (per_call, stats) = grant_micro(64);
        assert!(per_call > SimNs::ZERO);
        assert_eq!(stats.zero_copy_grants, 64);
        assert_eq!(stats.zero_copy_bytes, 64 * 4096);
    }

    #[test]
    fn causal_split_sums_to_end_to_end_on_real_run() {
        let (_, _, rec) = run_recorded(50);
        let report = rec.causal_report();
        assert!(
            report.requests.len() >= 50,
            "expected >= 50 traced requests, got {}",
            report.requests.len()
        );
        for r in &report.requests {
            let split: u64 = r.phases.iter().map(|(_, ns)| ns).sum();
            assert_eq!(
                split,
                r.total_ns(),
                "request {} split does not cover its latency",
                r.req
            );
        }
        // The ring protocol work and the 5 µs echo kernels must both show
        // up in the overall critical path.
        assert!(report.overall.iter().any(|(p, _)| p == "kernel"));
        assert!(report.overall.iter().any(|(p, _)| p == "ring"));
    }

    #[test]
    fn flow_events_pair_up_in_real_trace() {
        use std::collections::BTreeMap;
        let (_, _, rec) = run_recorded(20);
        let trace = cronus_obs::parse(&rec.chrome_trace_json()).expect("trace parses");
        let mut starts: BTreeMap<u64, u64> = BTreeMap::new();
        let mut finishes: BTreeMap<u64, u64> = BTreeMap::new();
        for e in trace
            .get("traceEvents")
            .and_then(cronus_obs::Json::as_arr)
            .expect("traceEvents")
        {
            let (Some(ph), Some(id)) = (
                e.get("ph").and_then(cronus_obs::Json::as_str),
                e.get("id").and_then(cronus_obs::Json::as_u64),
            ) else {
                continue;
            };
            match ph {
                "s" => *starts.entry(id).or_insert(0) += 1,
                "f" => *finishes.entry(id).or_insert(0) += 1,
                _ => {}
            }
        }
        assert!(!starts.is_empty(), "trace has no flow events");
        assert_eq!(starts.len(), finishes.len());
        for (id, n) in &starts {
            assert_eq!(*n, 1, "flow {id} has {n} starts");
            assert_eq!(finishes.get(id), Some(&1), "flow {id} unterminated");
        }
    }

    #[test]
    fn bigger_rings_stall_less() {
        let sweep = ring_sweep(400, &[1, 4, 64]);
        assert!(sweep[0].stalls > sweep[2].stalls);
        assert!(sweep[0].per_call >= sweep[2].per_call);
        assert!(print(&run(100), &sweep).contains("ablation"));
    }
}
