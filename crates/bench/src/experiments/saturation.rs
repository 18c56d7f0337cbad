//! The saturation workload.
//!
//! Not a paper figure: a seeded mix of bursty sRPC echo traffic, staging
//! DMA and GPU kernel launches that pushes every instrumented queue class
//! at once — sRPC rings, the dispatch queue, the PCIe DMA engine and the
//! device completion queues — so the bottleneck-attribution report has real
//! contention to rank. `cargo run --bin obs -- report` drives it by default.

use std::collections::BTreeMap;

use cronus_core::{Actor, CronusSystem};
use cronus_devices::DeviceKind;
use cronus_mos::manifest::{Manifest, McallDecl};
use cronus_obs::{FlightRecorder, Headline};
use cronus_runtime::{CudaContext, CudaOptions, LaunchArg};
use cronus_sim::CostModel;
use cronus_workloads::kernels;

/// Deterministic xorshift64* generator: the ranked queue report is a pure
/// function of `(seed, calls)`.
#[derive(Clone, Debug)]
pub struct SatRng(u64);

impl SatRng {
    /// Seeds the generator (zero maps to a fixed nonzero state).
    pub fn new(seed: u64) -> SatRng {
        SatRng(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    /// Next raw draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Runs the mixed workload and returns the system's flight recorder.
///
/// The echo mEnclave's handler burns 1–7 kernel launches' worth of GPU
/// time per call (derived from the payload length, so it stays
/// deterministic). Its stream uses the multi-queue geometry — 8 depth-2
/// lanes — so the echo kernels overlap instead of serializing behind a
/// single ring and the figure is kernel-bound, not queue-bound; the ring
/// stations still see real contention from the bursty mix.
pub fn run_recorded(seed: u64, calls: u64) -> FlightRecorder {
    let mut sys = CronusSystem::boot(super::standard_boot());
    let cpu = super::cpu_enclave(&mut sys);

    let echo = sys
        .create_enclave(
            Actor::Enclave(cpu),
            Manifest::new(DeviceKind::Gpu)
                .with_mecall(McallDecl::asynchronous("echo"))
                .with_memory(1 << 20),
            &BTreeMap::new(),
        )
        .expect("echo enclave");
    let kernel_cost = CostModel::default().gpu_kernel_launch;
    sys.register_handler(
        echo,
        "echo",
        Box::new(move |_, p| {
            let burst = 1 + (p.len() as u64 % 7);
            Ok((Vec::new(), kernel_cost * burst))
        }),
    );
    let stream = sys
        .stream(cpu, echo)
        .rings(8)
        .depth(2)
        .open()
        .expect("echo stream");

    sys.mark("saturation:mixed");

    // A real CUDA context: its memcpys cross the secure bus (DMA station)
    // and its launches raise completion interrupts (completion stations).
    let mut cuda = CudaContext::new(&mut sys, cpu, CudaOptions::default()).expect("cuda ctx");
    cuda.load_kernel(&mut sys, "saxpy", kernels::saxpy())
        .expect("saxpy");
    let vec_len = 256usize;
    let bytes = (vec_len * 4) as u64;
    let x = cuda.alloc(&mut sys, bytes).expect("x");
    let y = cuda.alloc(&mut sys, bytes).expect("y");
    let host: Vec<u8> = (0..vec_len)
        .flat_map(|i| (i as f32).to_le_bytes())
        .collect();
    cuda.memcpy_h2d(&mut sys, x, &host).expect("seed x");
    cuda.memcpy_h2d(&mut sys, y, &host).expect("seed y");

    let mut rng = SatRng::new(seed);
    for i in 0..calls {
        match rng.below(8) {
            // Bursty echo traffic dominates the mix and stalls the ring.
            0..=4 => {
                let payload = vec![0u8; 16 + rng.below(48) as usize];
                sys.call(stream, "echo")
                    .payload(&payload)
                    .start()
                    .expect("echo call");
            }
            5 => cuda.memcpy_h2d(&mut sys, x, &host).expect("h2d"),
            6 => cuda
                .launch(
                    &mut sys,
                    "saxpy",
                    &[LaunchArg::Float(1.5), LaunchArg::Ptr(x), LaunchArg::Ptr(y)],
                    kernels::elementwise_desc(vec_len),
                )
                .expect("launch"),
            _ => {
                cuda.memcpy_d2h(&mut sys, y, bytes).expect("d2h");
            }
        }
        // Periodic drains: depth returns to zero, so every station stays
        // eligible for the Little's-law cross-check.
        if i % 64 == 63 {
            sys.sync(stream).expect("echo sync");
            cuda.synchronize(&mut sys).expect("cuda sync");
        }
    }
    sys.sync(stream).expect("final echo sync");
    cuda.synchronize(&mut sys).expect("final cuda sync");
    sys.recorder()
}

/// The table row's entry point: `size` is the number of bursty calls.
pub fn figure(p: super::Params) -> super::FigureRun {
    let recorder = run_recorded(p.seed, p.size);
    super::FigureRun {
        text: recorder
            .queue_report(cronus_obs::queue::DEFAULT_LITTLE_TOLERANCE)
            .render_text(),
        headlines: vec![Headline::ns("total_sim_ns", recorder.total_elapsed())],
        meta: vec![
            ("seed".to_string(), p.seed.to_string()),
            ("calls".to_string(), p.size.to_string()),
        ],
        recorder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cronus_obs::queue::DEFAULT_LITTLE_TOLERANCE;

    #[test]
    fn saturation_exercises_every_queue_class() {
        let rec = run_recorded(42, 200);
        let report = rec.queue_report(DEFAULT_LITTLE_TOLERANCE);
        let kinds: std::collections::BTreeSet<&str> =
            report.queues.iter().map(|q| q.kind.as_str()).collect();
        for kind in ["ring", "dispatch", "completion", "dma"] {
            assert!(kinds.contains(kind), "no active {kind} queue: {kinds:?}");
        }
        assert!(
            report.little_all_within(),
            "little violations: {:?}",
            report
                .little_violations()
                .iter()
                .map(|q| &q.name)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn same_seed_is_byte_identical_across_runs() {
        let a = run_recorded(7, 150).queue_report(DEFAULT_LITTLE_TOLERANCE);
        let b = run_recorded(7, 150).queue_report(DEFAULT_LITTLE_TOLERANCE);
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.to_json().render(), b.to_json().render());
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_recorded(1, 150).queue_report(DEFAULT_LITTLE_TOLERANCE);
        let b = run_recorded(2, 150).queue_report(DEFAULT_LITTLE_TOLERANCE);
        assert_ne!(a.to_json().render(), b.to_json().render());
    }
}
