//! Latency SLOs with error-budget burn rates over the queue observatory.
//!
//! A figure declares per-queue-kind wait budgets (p50 and p99). Evaluation
//! does not just compare percentile point estimates against the budget — it
//! computes, per queue, the *fraction of requests* that exceeded each budget
//! and divides by the allowed fraction (50% for the p50 budget, 1% for the
//! p99 budget). The quotient is the **burn rate**: 1.0 means the error
//! budget is exactly spent, above 1.0 the objective is breached. Burn rates
//! degrade gracefully (1.7× over budget reads differently from 40×), which
//! point-estimate comparisons cannot express.
//!
//! `ci.sh --all` (gate `slo`) runs `obs report --slo` over the smoke figures and fails on
//! any breached objective, so a queue regression fails CI with a named
//! queue, not just a slower end-to-end headline.

use std::fmt::Write as _;

use cronus_sim::SimNs;

use crate::json::Json;
use crate::queue::{QueueKind, QueueObservatory};

/// Fraction of requests allowed over the p50 budget (by definition of p50).
pub const ALLOWED_OVER_P50: f64 = 0.50;

/// Fraction of requests allowed over the p99 budget.
pub const ALLOWED_OVER_P99: f64 = 0.01;

/// A wait-time objective for every queue of one kind.
#[derive(Clone, Copy, Debug)]
pub struct SloObjective {
    /// Which queue kind the budgets apply to.
    pub kind: QueueKind,
    /// Budget the median wait must respect.
    pub p50_budget: SimNs,
    /// Budget the 99th-percentile wait must respect.
    pub p99_budget: SimNs,
}

/// The set of objectives for one figure.
#[derive(Clone, Debug)]
pub struct SloPolicy {
    /// Figure name the policy belongs to.
    pub figure: String,
    /// Per-kind objectives.
    pub objectives: Vec<SloObjective>,
}

fn objective(kind: QueueKind, p50: SimNs, p99: SimNs) -> SloObjective {
    SloObjective {
        kind,
        p50_budget: p50,
        p99_budget: p99,
    }
}

impl SloPolicy {
    /// The committed latency objectives for a figure. Budgets are calibrated
    /// against the committed baselines: tight enough that the known bounding
    /// queue burning meaningfully more budget fails the gate, loose enough
    /// that the seed passes with headroom.
    pub fn for_figure(figure: &str) -> SloPolicy {
        let ms = SimNs::from_millis;
        let us = SimNs::from_micros;
        let objectives = match figure {
            // 1000 back-to-back 64B echoes: the ring backlog grows linearly,
            // so waits reach ~sync-free milliseconds by design.
            "rpc_micro" => vec![
                objective(QueueKind::Ring, ms(8), ms(16)),
                objective(QueueKind::Dispatch, us(50), us(200)),
            ],
            // Compute/training figures: the ring carries the workload, so it
            // gets the widest envelope (fig8's DNN epochs reach ~3ms median
            // ring waits at the committed scale); DMA and completion queues
            // drain inline and must stay near-instant.
            "fig7" | "fig8" => vec![
                objective(QueueKind::Ring, ms(50), ms(200)),
                objective(QueueKind::Dma, ms(5), ms(50)),
                objective(QueueKind::Completion, ms(50), ms(400)),
            ],
            // Failover: rings stay shallow around the fault window, and
            // recovery work may wait at most a restart's worth of time.
            "fig9" => vec![
                objective(QueueKind::Ring, ms(50), ms(200)),
                objective(QueueKind::Dispatch, us(50), us(200)),
                objective(QueueKind::Recovery, ms(400), ms(800)),
            ],
            // Scalability / sharing figures tolerate contention-driven waits
            // that grow with the context count (~300µs p99 at the committed
            // scale, budgeted with room for the full bench sweep).
            "fig10a" | "fig10b" | "fig11a" | "fig11b" => vec![
                objective(QueueKind::Ring, ms(100), ms(400)),
                objective(QueueKind::Completion, ms(50), ms(400)),
                objective(QueueKind::Dma, ms(5), ms(50)),
            ],
            // Fault campaigns: recovery work is allowed to take a restart's
            // worth of time, rings must stay shallow.
            "chaos" => vec![
                objective(QueueKind::Ring, ms(50), ms(200)),
                objective(QueueKind::Recovery, ms(400), ms(800)),
            ],
            // Unknown figures get a permissive envelope so ad-hoc runs still
            // produce burn rates without spurious failures.
            _ => vec![
                objective(QueueKind::Ring, ms(2_000), ms(6_000)),
                objective(QueueKind::Dispatch, ms(1), ms(10)),
                objective(QueueKind::Completion, ms(200), ms(2_000)),
                objective(QueueKind::Dma, ms(20), ms(200)),
                objective(QueueKind::Recovery, ms(400), ms(800)),
            ],
        };
        SloPolicy {
            figure: figure.to_string(),
            objectives,
        }
    }
}

/// One queue evaluated against its kind's objective.
#[derive(Clone, Debug)]
pub struct SloEval {
    /// Queue name.
    pub queue: String,
    /// Queue kind.
    pub kind: QueueKind,
    /// Requests observed.
    pub count: u64,
    /// Observed median wait.
    pub p50_observed_ns: u64,
    /// p50 budget.
    pub p50_budget_ns: u64,
    /// Error-budget burn rate against the p50 budget.
    pub burn_p50: f64,
    /// Observed p99 wait.
    pub p99_observed_ns: u64,
    /// p99 budget.
    pub p99_budget_ns: u64,
    /// Error-budget burn rate against the p99 budget.
    pub burn_p99: f64,
}

impl SloEval {
    /// Whether either error budget is overspent.
    pub fn breached(&self) -> bool {
        self.burn_p50 > 1.0 || self.burn_p99 > 1.0
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("queue", Json::Str(self.queue.clone())),
            ("kind", Json::from(self.kind.as_str())),
            ("count", Json::U64(self.count)),
            ("p50_observed_ns", Json::U64(self.p50_observed_ns)),
            ("p50_budget_ns", Json::U64(self.p50_budget_ns)),
            ("burn_p50", Json::F64(self.burn_p50)),
            ("p99_observed_ns", Json::U64(self.p99_observed_ns)),
            ("p99_budget_ns", Json::U64(self.p99_budget_ns)),
            ("burn_p99", Json::F64(self.burn_p99)),
            ("breached", Json::Bool(self.breached())),
        ])
    }
}

/// Every queue's verdict for one figure.
#[derive(Clone, Debug)]
pub struct SloReport {
    /// Figure evaluated.
    pub figure: String,
    /// Per-queue verdicts, in observatory (name) order.
    pub evals: Vec<SloEval>,
}

impl SloReport {
    /// Whether every objective holds.
    pub fn passed(&self) -> bool {
        self.evals.iter().all(|e| !e.breached())
    }

    /// Queues that overspent an error budget.
    pub fn breaches(&self) -> Vec<&SloEval> {
        self.evals.iter().filter(|e| e.breached()).collect()
    }

    /// Deterministic text rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "slo evaluation — figure {}", self.figure);
        if self.evals.is_empty() {
            let _ = writeln!(out, "  (no queue matched an objective)");
            return out;
        }
        let _ = writeln!(
            out,
            "  queue                      kind        n      p50 / budget      burn    p99 / budget      burn  verdict"
        );
        for e in &self.evals {
            let _ = writeln!(
                out,
                "  {:<25}  {:<10}  {:>5}  {:>8}/{:<8}  {:>5.2}x  {:>8}/{:<8}  {:>5.2}x  {}",
                e.queue,
                e.kind.as_str(),
                e.count,
                SimNs::from_nanos(e.p50_observed_ns).to_string(),
                SimNs::from_nanos(e.p50_budget_ns).to_string(),
                e.burn_p50,
                SimNs::from_nanos(e.p99_observed_ns).to_string(),
                SimNs::from_nanos(e.p99_budget_ns).to_string(),
                e.burn_p99,
                if e.breached() { "BREACH" } else { "ok" },
            );
        }
        let _ = writeln!(
            out,
            "  verdict: {}",
            if self.passed() {
                "all objectives hold".to_string()
            } else {
                format!("{} objective(s) breached", self.breaches().len())
            }
        );
        out
    }

    /// JSON rendering (same order).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("figure", Json::Str(self.figure.clone())),
            ("passed", Json::Bool(self.passed())),
            (
                "evals",
                Json::Arr(self.evals.iter().map(|e| e.to_json()).collect()),
            ),
        ])
    }
}

/// Evaluates `policy` against every matching queue in the observatory.
/// Queues with no completed requests are skipped (nothing waited).
pub fn evaluate(policy: &SloPolicy, obs: &QueueObservatory) -> SloReport {
    let mut evals = Vec::new();
    for station in obs.stations() {
        let Some(obj) = policy.objectives.iter().find(|o| o.kind == station.kind()) else {
            continue;
        };
        let wait = station.wait_histogram();
        let count = wait.count();
        if count == 0 {
            continue;
        }
        let over_p50 = wait.count_over(obj.p50_budget) as f64 / count as f64;
        let over_p99 = wait.count_over(obj.p99_budget) as f64 / count as f64;
        evals.push(SloEval {
            queue: station.name().to_string(),
            kind: station.kind(),
            count,
            p50_observed_ns: wait.p50().as_nanos(),
            p50_budget_ns: obj.p50_budget.as_nanos(),
            burn_p50: over_p50 / ALLOWED_OVER_P50,
            p99_observed_ns: wait.p99().as_nanos(),
            p99_budget_ns: obj.p99_budget.as_nanos(),
            burn_p99: over_p99 / ALLOWED_OVER_P99,
        });
    }
    SloReport {
        figure: policy.figure.clone(),
        evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueueObservatory;

    fn ns(v: u64) -> SimNs {
        SimNs::from_nanos(v)
    }

    fn obs_with_waits(waits: &[u64]) -> QueueObservatory {
        let mut obs = QueueObservatory::new();
        obs.declare("q.ring", QueueKind::Ring, 64);
        let mut t = 0u64;
        for &w in waits {
            obs.enqueue("q.ring", ns(t));
            obs.dequeue("q.ring", ns(t + w + 100), ns(w), ns(100));
            t += 1_000;
        }
        obs
    }

    fn ring_policy(p50: u64, p99: u64) -> SloPolicy {
        SloPolicy {
            figure: "test".to_string(),
            objectives: vec![objective(QueueKind::Ring, ns(p50), ns(p99))],
        }
    }

    #[test]
    fn within_budget_passes_with_low_burn() {
        let obs = obs_with_waits(&[10; 100]);
        let report = evaluate(&ring_policy(1_000_000, 2_000_000), &obs);
        assert_eq!(report.evals.len(), 1);
        assert!(report.passed(), "{}", report.render_text());
        assert!(report.evals[0].burn_p99 < 0.5);
    }

    #[test]
    fn tail_breach_burns_p99_budget() {
        // 5% of requests wait far over the p99 budget: burn = 0.05/0.01 = 5x.
        let mut waits = vec![10u64; 95];
        waits.extend([1 << 30; 5]);
        let obs = obs_with_waits(&waits);
        let report = evaluate(&ring_policy(1_000_000, 2_000_000), &obs);
        assert!(!report.passed());
        let e = &report.evals[0];
        assert!(e.burn_p99 > 1.0, "burn_p99 = {}", e.burn_p99);
        assert!(e.burn_p50 <= 1.0, "median unaffected");
        assert_eq!(report.breaches().len(), 1);
    }

    #[test]
    fn median_breach_burns_p50_budget() {
        // Every request over the p50 budget: burn = 1.0/0.5 = 2x.
        let obs = obs_with_waits(&[1 << 20; 50]);
        let report = evaluate(&ring_policy(1_000, u64::MAX >> 1), &obs);
        let e = &report.evals[0];
        assert!(e.burn_p50 > 1.0, "burn_p50 = {}", e.burn_p50);
        assert!(!report.passed());
    }

    #[test]
    fn unmatched_kinds_and_idle_queues_are_skipped() {
        let mut obs = QueueObservatory::new();
        obs.declare("idle.ring", QueueKind::Ring, 8);
        obs.declare("spm.recovery", QueueKind::Recovery, 8);
        obs.enqueue("spm.recovery", ns(0));
        obs.dequeue("spm.recovery", ns(100), ns(0), ns(100));
        let report = evaluate(&ring_policy(1, 1), &obs);
        assert!(report.evals.is_empty(), "ring idle, recovery unmatched");
        assert!(report.passed());
    }

    #[test]
    fn every_figure_policy_is_nonempty_and_ordered() {
        for fig in [
            "fig7",
            "fig8",
            "fig9",
            "fig10a",
            "fig10b",
            "fig11a",
            "fig11b",
            "rpc_micro",
            "chaos",
            "adhoc",
        ] {
            let p = SloPolicy::for_figure(fig);
            assert!(!p.objectives.is_empty());
            for o in &p.objectives {
                assert!(o.p50_budget <= o.p99_budget, "{fig}: p50 <= p99 budget");
            }
        }
    }

    #[test]
    fn report_renders_deterministically() {
        let obs = obs_with_waits(&[10, 20, 30, 40]);
        let policy = SloPolicy::for_figure("rpc_micro");
        let a = evaluate(&policy, &obs).render_text();
        let b = evaluate(&policy, &obs).render_text();
        assert_eq!(a, b);
        assert!(crate::json::is_well_formed(
            &evaluate(&policy, &obs).to_json().render()
        ));
    }
}
