//! Every charged nanosecond is a count times a named cost.
//!
//! The system crates price simulated time only through the rows of
//! `cronus_sim::Cost` and charge it only through `cronus_obs::spend`, which
//! counts each row's operations beside its time. Run at its reduced scale,
//! every row of the figure table must therefore reconcile: a per-operation
//! row's time is its count times its price, the rows that share a profiler
//! frame make up exactly that frame, and every world switch charged is a
//! world switch the machine counted.

use std::collections::BTreeMap;

use cronus::bench::experiments::{cpu_enclave, recorded_figure, standard_boot, FIGURES};
use cronus::core::CronusSystem;
use cronus::sim::{Cost, CostModel, SimNs, Unit};

/// The charged nanoseconds of folded-stack frame `cronus;<frame>`.
fn frame_ns(folded: &str, frame: &str) -> u64 {
    folded
        .lines()
        .filter_map(|line| line.rsplit_once(' '))
        .find(|(stack, _)| stack.strip_prefix("cronus;") == Some(frame))
        .map_or(0, |(_, ns)| ns.parse().expect("folded count"))
}

/// `category[;detail]`, as the folded stacks name a row's frame.
fn frame_of(cost: Cost) -> String {
    let row = cost.row();
    match row.detail {
        Some(detail) => format!("{};{detail}", row.category.name()),
        None => row.category.name().to_string(),
    }
}

#[test]
fn every_figure_reconciles_with_the_cost_table() {
    let cm = CostModel::default();
    for figure in &FIGURES {
        let name = figure.name;
        let rec = recorded_figure(name).expect("a table row");
        let r = rec.lock();
        let mut frames: BTreeMap<String, u64> = BTreeMap::new();
        for cost in Cost::ALL {
            let (n, ns) = r.profiler.spent(cost);
            match cost.row().unit {
                Unit::Op(per_op) => {
                    assert_eq!(
                        ns,
                        per_op(&cm) * n,
                        "{name}: {cost:?} is not {n} × its price"
                    );
                }
                // Each copy rounds its own bytes up to a nanosecond.
                Unit::Bytes(_) => {
                    assert!(ns >= cm.price(cost, n), "{name}: {cost:?} under-charged");
                }
            }
            *frames.entry(frame_of(cost)).or_default() += ns.as_nanos();
        }
        let folded = r.profiler.folded_stacks();
        for (frame, ns) in frames {
            assert_eq!(frame_ns(&folded, &frame), ns, "{name}: frame {frame}");
        }
        let (switches, _) = r.profiler.spent(Cost::WorldSwitch);
        assert_eq!(
            r.metrics.counter_total("world_switches"),
            switches,
            "{name}: a world switch charged is a world switch counted"
        );
    }
}

#[test]
fn a_created_enclave_counts_the_world_switches_it_is_charged_for() {
    let mut sys = CronusSystem::boot(standard_boot());
    cpu_enclave(&mut sys);
    let rec = sys.recorder();
    let r = rec.lock();
    let world_switch = CostModel::default().world_switch;
    assert_eq!(r.profiler.spent(Cost::WorldSwitch), (2, world_switch * 2));
    assert_eq!(r.metrics.counter_total("world_switches"), 2);
    let folded = r.profiler.folded_stacks();
    assert_eq!(
        SimNs::from_nanos(frame_ns(&folded, "world-switch")),
        world_switch * 2
    );
}
