//! Regenerates gated figures from the table in `cronus_bench::experiments`.
//!
//! ```text
//! cargo run -p cronus-bench --bin fig -- fig7 fig9   # the named figures
//! cargo run -p cronus-bench --bin fig -- all         # every table and figure, in paper order
//! ```
//!
//! Each figure runs with its row's committed parameters, prints its table,
//! dumps its flight-recorder artifacts and writes its fresh
//! `target/bench/BUNDLE_<name>.json`.
use std::process::ExitCode;

use cronus_bench::experiments::{figure, tables, Figure, FIGURES};
use cronus_bench::{artifacts, baseline};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args == ["all"];
    let rows: Option<Vec<&Figure>> = if all {
        Some(FIGURES.iter().collect())
    } else {
        args.iter().map(|name| figure(name)).collect()
    };
    let rows = match rows {
        Some(rows) if !rows.is_empty() => rows,
        _ => {
            let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
            eprintln!(
                "usage: fig all | fig NAME...   (names: {})",
                names.join(" ")
            );
            return ExitCode::from(2);
        }
    };

    if all {
        println!("{}", tables::table1());
        println!("{}", tables::table2());
    }
    for row in rows {
        let run = (row.run)(row.committed);
        print!("{}", run.text);
        artifacts::dump_and_report(row.name, &run.recorder);
        baseline::emit(row.name, &run);
    }
    if all {
        println!("{}", tables::table3());
    }
    ExitCode::SUCCESS
}
