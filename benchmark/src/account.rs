//! The simulated-clock account of a rep: the profiler's category split (which
//! sums exactly to the elapsed simulated time) and the exact event counts,
//! read from public accessors of a finished system. Everything here is
//! deterministic for a seed, so two commits compare exactly.

use cronus_core::{CronusSystem, StreamId};
use cronus_obs::profile::TimeCategory;

/// Profiler categories in metric order; `Idle` is the derived remainder.
pub const CATEGORIES: [(TimeCategory, &str); 9] = [
    (TimeCategory::WorldSwitch, "simclk.world_switch_ns_per_op"),
    (
        TimeCategory::ContextSwitch,
        "simclk.context_switch_ns_per_op",
    ),
    (TimeCategory::Crypto, "simclk.crypto_ns_per_op"),
    (TimeCategory::Memcpy, "simclk.memcpy_ns_per_op"),
    (TimeCategory::Ring, "simclk.ring_ns_per_op"),
    (TimeCategory::Kernel, "simclk.kernel_ns_per_op"),
    (TimeCategory::Recovery, "simclk.recovery_ns_per_op"),
    (TimeCategory::Mgmt, "simclk.mgmt_ns_per_op"),
    (TimeCategory::Idle, "simclk.idle_ns_per_op"),
];

/// Sums over every system a rep booted (one, or one per failover cycle).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimAccount {
    /// `recorder().total_elapsed()`, summed.
    pub elapsed_ns: u64,
    /// Nanoseconds per [`CATEGORIES`] entry; sums to `elapsed_ns`.
    pub category_ns: [u64; 9],
    pub world_switches: u64,
    pub context_switches: u64,
    pub doorbells_rung: u64,
    pub doorbells_coalesced: u64,
    pub ring_full_stalls: u64,
    pub steals: u64,
    pub zero_copy_grants: u64,
    pub request_bytes: u64,
    pub ledger_records: u64,
    /// Spans the flight recorder retained.
    pub obs_spans: u64,
}

/// Two numbers derived from whole-recorder reports, which walk every queue
/// station and ledger; taken on traced reps only, from the rep's last system.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReportStats {
    /// Worst p99 wait over the recorder's queue stations.
    pub queue_p99_wait_ns: u64,
    /// Jain fairness index of GPU SM time across principals (0 when the
    /// meter saw no SM time).
    pub jain_sm: f64,
}

impl ReportStats {
    pub fn of(sys: &CronusSystem) -> Self {
        let rec = sys.recorder();
        ReportStats {
            queue_p99_wait_ns: rec
                .queue_report(0.05)
                .queues
                .iter()
                .map(|q| q.p99_wait_ns)
                .max()
                .unwrap_or(0),
            jain_sm: rec.fairness_report().jain_of("sm_ns").unwrap_or(0.0),
        }
    }
}

impl SimAccount {
    /// Adds one finished system's books. `streams` are the streams the driver
    /// opened on it.
    pub fn absorb(&mut self, sys: &CronusSystem, streams: &[StreamId]) {
        let rec = sys.recorder();
        {
            let inner = rec.lock();
            self.elapsed_ns += inner.profiler.total_elapsed().as_nanos();
            for (slot, (cat, _)) in self.category_ns.iter_mut().zip(CATEGORIES) {
                *slot += match cat {
                    TimeCategory::Idle => inner.profiler.idle().as_nanos(),
                    busy => inner.profiler.busy_in(busy).as_nanos(),
                };
            }
            self.world_switches += inner.metrics.counter_total("world_switches");
            self.context_switches += inner.metrics.counter_total("context_switches");
            self.obs_spans += inner.spans.spans().len() as u64;
        }
        for &id in streams {
            // A stream replaced by `reopen` is gone; its counters went with it.
            let Ok(s) = sys.stream_stats(id) else {
                continue;
            };
            self.doorbells_rung += s.doorbells_rung;
            self.doorbells_coalesced += s.doorbells_coalesced;
            self.ring_full_stalls += s.ring_full_stalls;
            self.steals += s.steals;
            self.zero_copy_grants += s.zero_copy_grants;
            self.request_bytes += s.request_bytes;
        }
        self.ledger_records += sys.spm().ledger().records_total();
    }

    /// True when the category split closes on the elapsed total.
    pub fn closes(&self) -> bool {
        self.category_ns.iter().sum::<u64>() == self.elapsed_ns
    }
}
