//! Simulated-time attribution: charge every nanosecond to a category.
//!
//! Instrumented sites call [`TimeProfiler::charge`] with the same `CostModel`
//! durations they feed into their `SimClock`s, so the profiler's busy total
//! is an exact decomposition of the simulated work. Whatever part of the
//! run's elapsed span was *not* charged shows up as [`TimeCategory::Idle`],
//! making the attribution sum exactly equal to total elapsed time — the
//! invariant the figure harnesses assert.
//!
//! Output is folded-stack lines (`cronus;ring;enqueue 1234`) consumable by
//! standard flamegraph tooling.

use std::collections::BTreeMap;

use cronus_sim::SimNs;

/// Where a nanosecond of simulated time went.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimeCategory {
    /// Normal ↔ secure world switches.
    WorldSwitch,
    /// S-EL2 partition context switches.
    ContextSwitch,
    /// Crypto: attestation, key exchange, signing, encrypted RPC.
    Crypto,
    /// CPU/PCIe data movement.
    Memcpy,
    /// sRPC ring operations (enqueue, dequeue, sync wakeups, stream setup).
    Ring,
    /// Device/compute kernel execution.
    Kernel,
    /// Failover: invalidate, clear, reload, trap handling.
    Recovery,
    /// Partition/enclave management (boot, create, page mapping).
    Mgmt,
    /// Elapsed time not charged to any busy category.
    Idle,
}

impl TimeCategory {
    /// The folded-stack frame name.
    pub fn name(self) -> &'static str {
        match self {
            TimeCategory::WorldSwitch => "world-switch",
            TimeCategory::ContextSwitch => "context-switch",
            TimeCategory::Crypto => "crypto",
            TimeCategory::Memcpy => "memcpy",
            TimeCategory::Ring => "ring",
            TimeCategory::Kernel => "kernel",
            TimeCategory::Recovery => "recovery",
            TimeCategory::Mgmt => "mgmt",
            TimeCategory::Idle => "idle",
        }
    }

    /// All busy categories (everything except [`TimeCategory::Idle`]).
    pub const BUSY: [TimeCategory; 8] = [
        TimeCategory::WorldSwitch,
        TimeCategory::ContextSwitch,
        TimeCategory::Crypto,
        TimeCategory::Memcpy,
        TimeCategory::Ring,
        TimeCategory::Kernel,
        TimeCategory::Recovery,
        TimeCategory::Mgmt,
    ];
}

/// Handle to one `(category, detail)` frame of a [`TimeProfiler`]: resolve
/// it once with [`TimeProfiler::frame`], then charge it without a lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FrameId(u32);

#[derive(Clone, Debug)]
struct Frame {
    cat: TimeCategory,
    detail: Option<Box<str>>,
    ns: u64,
}

/// The frames of one category: the bare one and the detailed ones by name.
#[derive(Clone, Debug, Default)]
struct CategoryFrames {
    plain: Option<FrameId>,
    detailed: BTreeMap<Box<str>, FrameId>,
}

/// Accumulates charged time per `(category, detail)` pair.
#[derive(Clone, Debug, Default)]
pub struct TimeProfiler {
    frames: Vec<Frame>,
    /// Frame lookup, in folded-stack order: category, bare frame first,
    /// then details by name.
    index: BTreeMap<TimeCategory, CategoryFrames>,
    /// High-water mark of observed simulated instants.
    watermark: SimNs,
}

impl TimeProfiler {
    /// Creates an empty profiler starting at simulated time zero.
    pub fn new() -> Self {
        TimeProfiler::default()
    }

    /// Resolves the frame `cat[;detail]`, creating it (with nothing charged,
    /// so invisible in every report) on first sight. Allocation-free when
    /// the frame exists.
    pub fn frame(&mut self, cat: TimeCategory, detail: Option<&str>) -> FrameId {
        debug_assert!(cat != TimeCategory::Idle, "idle is derived, not charged");
        let next = FrameId(self.frames.len() as u32);
        let of_cat = self.index.entry(cat).or_default();
        let id = match detail {
            None => *of_cat.plain.get_or_insert(next),
            Some(d) => match of_cat.detailed.get(d) {
                Some(&id) => id,
                None => {
                    of_cat.detailed.insert(d.into(), next);
                    next
                }
            },
        };
        if id == next {
            self.frames.push(Frame {
                cat,
                detail: detail.map(Into::into),
                ns: 0,
            });
        }
        id
    }

    /// Charges `d` to a resolved frame, returning its category.
    pub fn charge_frame(&mut self, frame: FrameId, d: SimNs) -> TimeCategory {
        let f = &mut self.frames[frame.0 as usize];
        f.ns += d.as_nanos();
        f.cat
    }

    /// Charges `d` to `cat` with no detail frame.
    pub fn charge(&mut self, cat: TimeCategory, d: SimNs) {
        let frame = self.frame(cat, None);
        self.charge_frame(frame, d);
    }

    /// Charges `d` to `cat` under a named detail frame (e.g. the kernel or
    /// mcall name), producing a deeper folded stack.
    pub fn charge_detail(&mut self, cat: TimeCategory, detail: &str, d: SimNs) {
        let frame = self.frame(cat, Some(detail));
        self.charge_frame(frame, d);
    }

    /// Advances the elapsed-time watermark to at least `at` (monotone).
    pub fn observe_instant(&mut self, at: SimNs) {
        self.watermark = self.watermark.max(at);
    }

    /// Total busy time across all categories.
    pub fn total_busy(&self) -> SimNs {
        SimNs::from_nanos(self.frames.iter().map(|f| f.ns).sum())
    }

    /// Busy time charged to one category (all detail frames included).
    pub fn busy_in(&self, cat: TimeCategory) -> SimNs {
        SimNs::from_nanos(
            self.frames
                .iter()
                .filter(|f| f.cat == cat)
                .map(|f| f.ns)
                .sum(),
        )
    }

    /// Total elapsed simulated time: the later of the watermark and the busy
    /// total (concurrent actors can accumulate busy time faster than the
    /// frontier advances; a mostly-idle run has a frontier past its work).
    pub fn total_elapsed(&self) -> SimNs {
        self.watermark.max(self.total_busy())
    }

    /// Derived idle time: elapsed minus busy.
    pub fn idle(&self) -> SimNs {
        self.total_elapsed() - self.total_busy()
    }

    /// Per-category attribution including the derived idle slice. The
    /// returned values sum to exactly [`TimeProfiler::total_elapsed`].
    pub fn attribution(&self) -> Vec<(TimeCategory, SimNs)> {
        let mut rows: Vec<(TimeCategory, SimNs)> = TimeCategory::BUSY
            .iter()
            .map(|&c| (c, self.busy_in(c)))
            .filter(|(_, d)| *d > SimNs::ZERO)
            .collect();
        if self.idle() > SimNs::ZERO {
            rows.push((TimeCategory::Idle, self.idle()));
        }
        rows
    }

    /// Folded-stack lines (`flamegraph.pl` / speedscope "folded" format):
    /// one line per stack, `cronus;<category>[;<detail>] <nanoseconds>`.
    pub fn folded_stacks(&self) -> String {
        let mut out = String::new();
        let in_order = self
            .index
            .values()
            .flat_map(|c| c.plain.iter().chain(c.detailed.values()));
        for id in in_order {
            let Frame { cat, detail, ns } = &self.frames[id.0 as usize];
            if *ns == 0 {
                continue;
            }
            match detail {
                Some(d) => out.push_str(&format!("cronus;{};{} {}\n", cat.name(), d, ns)),
                None => out.push_str(&format!("cronus;{} {}\n", cat.name(), ns)),
            }
        }
        let idle = self.idle();
        if idle > SimNs::ZERO {
            out.push_str(&format!("cronus;idle {}\n", idle.as_nanos()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> SimNs {
        SimNs::from_nanos(v)
    }

    #[test]
    fn attribution_sums_to_elapsed_with_idle() {
        let mut p = TimeProfiler::new();
        p.charge(TimeCategory::Ring, ns(100));
        p.charge_detail(TimeCategory::Kernel, "gemm", ns(900));
        p.observe_instant(ns(5_000));
        assert_eq!(p.total_busy(), ns(1_000));
        assert_eq!(p.total_elapsed(), ns(5_000));
        assert_eq!(p.idle(), ns(4_000));
        let total: u64 = p.attribution().iter().map(|(_, d)| d.as_nanos()).sum();
        assert_eq!(total, p.total_elapsed().as_nanos());
    }

    #[test]
    fn attribution_sums_to_elapsed_when_busy_exceeds_watermark() {
        let mut p = TimeProfiler::new();
        // Two concurrent actors each charge 1ms while the frontier only
        // reaches 1.5ms: busy (2ms) > watermark, idle must be zero.
        p.charge(TimeCategory::Kernel, ns(1_000_000));
        p.charge(TimeCategory::Kernel, ns(1_000_000));
        p.observe_instant(ns(1_500_000));
        assert_eq!(p.total_elapsed(), ns(2_000_000));
        assert_eq!(p.idle(), SimNs::ZERO);
        let total: u64 = p.attribution().iter().map(|(_, d)| d.as_nanos()).sum();
        assert_eq!(total, p.total_elapsed().as_nanos());
    }

    #[test]
    fn per_category_accounting() {
        let mut p = TimeProfiler::new();
        p.charge(TimeCategory::WorldSwitch, ns(40));
        p.charge(TimeCategory::WorldSwitch, ns(40));
        p.charge_detail(TimeCategory::Ring, "enqueue", ns(120));
        p.charge_detail(TimeCategory::Ring, "dequeue", ns(150));
        assert_eq!(p.busy_in(TimeCategory::WorldSwitch), ns(80));
        assert_eq!(p.busy_in(TimeCategory::Ring), ns(270));
        assert_eq!(p.busy_in(TimeCategory::Crypto), SimNs::ZERO);
    }

    #[test]
    fn folded_stacks_format() {
        let mut p = TimeProfiler::new();
        p.charge_detail(TimeCategory::Kernel, "gaussian", ns(500));
        p.charge(TimeCategory::ContextSwitch, ns(70));
        p.observe_instant(ns(1_000));
        let folded = p.folded_stacks();
        assert!(folded.contains("cronus;kernel;gaussian 500\n"));
        assert!(folded.contains("cronus;context-switch 70\n"));
        assert!(folded.contains("cronus;idle 430\n"));
        // Every line is `stack space count`.
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').unwrap();
            assert!(stack.starts_with("cronus;"));
            assert!(count.parse::<u64>().is_ok());
        }
    }

    #[test]
    fn empty_profiler_is_all_zero() {
        let p = TimeProfiler::new();
        assert_eq!(p.total_elapsed(), SimNs::ZERO);
        assert!(p.attribution().is_empty());
        assert!(p.folded_stacks().is_empty());
    }
}
