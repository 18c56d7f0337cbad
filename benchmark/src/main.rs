//! `cronus-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>`
//!
//! Prints every metric by name with its unit, then one JSON object on the
//! last line; exits non-zero if a correctness check failed.

use std::process::ExitCode;
use std::time::Instant;

use cronus_benchmark::harness::{run, Args, DEFAULT_SEED};
use cronus_benchmark::workloads::NAMES;

fn usage() -> String {
    format!(
        "usage: cronus-benchmark --workload <{}> [--seed <u64>] [--seconds <n>] [--trace <0|1>]",
        NAMES.join("|")
    )
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value {value:?} for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=600.0).contains(&args.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    if args.workload.is_empty() {
        return Err(usage());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let report = match parse(&argv).and_then(|args| {
        println!(
            "workload {} seed {} seconds {} trace {}",
            args.workload, args.seed, args.seconds, args.trace as u8
        );
        run(&args, started)
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    for m in &report.metrics {
        println!("{:<44} {:>16.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    for p in &report.problems {
        println!("FAILED: {p}");
    }
    println!("{}", report.to_json().render());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
