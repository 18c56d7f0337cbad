//! The chaos row: the full fault-injection sweep (every workload × phase ×
//! action, see FAULTS.md) reduced to its headline numbers.
//!
//! Each scenario boots its own system with its own recorder, so the row
//! returns an empty one: consumers that need queues skip it on
//! `!recorder.has_queues()`, as they skip Fig. 10b.

use cronus_chaos::{run_campaign, CampaignReport, InjectionPlan};
use cronus_obs::{FlightRecorder, Headline};

use super::{FigureRun, Params};

/// The table row's entry point: `seed` seeds the injection plan.
pub fn figure(p: Params) -> FigureRun {
    of_campaign(&run_campaign(&InjectionPlan::full(p.seed)), p.seed)
}

/// The row's run for a finished full sweep made with `seed`
/// (`src/bin/chaos.rs` has the report in hand for its exit code).
pub fn of_campaign(report: &CampaignReport, seed: u64) -> FigureRun {
    FigureRun {
        text: report.render(),
        headlines: vec![
            Headline::higher("scenarios", report.scenarios.len() as f64, "count"),
            Headline::higher("faults_fired", report.faults_fired() as f64, "count"),
            Headline::lower("invariant_violations", report.violations() as f64, "count"),
            Headline::lower("max_recovery_ns", report.max_recovery_ns() as f64, "ns"),
            Headline::lower("max_queue_depth", report.max_queue_depth() as f64, "slots"),
            Headline::lower("undrained_scenarios", report.undrained() as f64, "count"),
        ],
        meta: vec![
            ("seed".to_string(), seed.to_string()),
            ("mode".to_string(), "full".to_string()),
        ],
        recorder: FlightRecorder::default(),
    }
}
