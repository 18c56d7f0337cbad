//! Regenerates the fig_interference baseline (the noisy-neighbor mix).
//!
//! Not a paper figure: a victim partition's latency-sensitive echo/saxpy
//! stream shares the GPU partition's executor pool with a noisy GEMM
//! neighbor. Headlines: the victim's p99 request latency and the Jain
//! fairness indices over CPU and SM time; the meta names the partition the
//! interference matrix convicts as top interferer. Usage:
//! `fig_interference [seed] [rounds]` (defaults 42, 24).
use cronus_bench::experiments::interference;
use cronus_bench::{artifacts, baseline};

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(42);
    let rounds: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(24);
    let run = interference::run_recorded(seed, rounds);
    let rec = &run.recorder;
    let headlines = run.headlines();

    println!(
        "fig_interference: victim={} noisy={}",
        run.victim, run.noisy
    );
    for h in &headlines {
        match h.unit.as_str() {
            "ns" => println!("  {:<15} {}", h.key, h.value),
            _ => println!("  {:<15} {:.4}", h.key, h.value),
        }
    }
    println!("  {:<15} {}", "top_interferer", run.top_interferer());

    if let Err(e) = rec.meter_conservation() {
        eprintln!("fig_interference: conservation self-test failed: {e}");
        std::process::exit(1);
    }

    artifacts::dump_and_report("fig_interference", rec);
    baseline::emit("fig_interference", headlines, run.meta(seed, rounds), rec);
}
