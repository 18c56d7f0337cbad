//! # cronus-audit — the isolation auditor
//!
//! CRONUS's security argument (R3.1/R3.2, §IV) is a statement about
//! *mapping state*: whatever the workloads and failures do, the TZASC,
//! TZPC, stage-2, SMMU and devtree configurations must always compose into
//! mutually isolated partitions. This crate verifies that statically, at
//! any moment, against a live system:
//!
//! * [`model::IsolationModel::extract`] snapshots the complete mapping
//!   state into plain sorted data (renderable with `audit --dump`);
//! * [`invariants::check_model`] checks five named invariants I1–I5 and
//!   reports per-invariant counterexamples down to the exact physical page,
//!   every mapper involved, and the share/stream provenance;
//! * [`install_hooks`] wires the audit into
//!   [`cronus_core::CronusSystem`]'s reconfiguration points (enclave
//!   create/destroy, stream open/close/reopen, ecall, failure injection,
//!   recovery) through `CronusSystem::set_audit_hook`, so every state
//!   transition is re-verified during tests and campaigns;
//! * the **cronus-lint v2** static-analysis engine — a hand-written
//!   lexer ([`lex`]), brace-tree item parser ([`syntax`]), per-function
//!   fact extraction ([`facts`]), a repo-wide call graph ([`graph`]),
//!   the interprocedural secret-taint analysis ([`taint`]) and the rule
//!   catalog ([`rules`]) — orchestrated by [`engine::run`] and exposed as
//!   `cargo run --bin lint`, a gate that passes only at zero findings.
//!
//! The chaos campaign runs the full audit after every scenario as its
//! fourth invariant (A4); `cargo run --bin audit` drives it over every
//! example workload; `scripts/ci.sh --all` gates both (`audit`) and the
//! static analyses (`lint`). See `AUDIT.md` for
//! the model schema, the invariant catalogue and the lint rule catalog.

pub mod engine;
pub mod facts;
pub mod graph;
pub mod invariants;
pub mod lex;
pub mod model;
pub mod rules;
pub mod syntax;
pub mod taint;

pub use engine::{Report, SourceSet};
pub use invariants::{audit_system, check_model, AuditReport, Invariant, Violation};
pub use model::{IsolationModel, ShareModel};
pub use rules::{Finding, Rule, RULES};

use cronus_core::CronusSystem;

/// Installs a counting audit hook: the five invariants are re-checked at
/// every reconfiguration point, violations are tallied in
/// [`CronusSystem::audit_violations`] and the `audit.violations` metric,
/// and execution continues (so a campaign can finish and report).
pub fn install_hooks(sys: &mut CronusSystem) {
    sys.set_audit_hook(Box::new(|sys| audit_system(sys).violations.len()));
}

/// Installs a failing-fast audit hook: panics with the rendered report at
/// the first reconfiguration point where an invariant breaks. For tests.
///
/// # Panics
///
/// Panics when any invariant I1–I5 is violated.
pub fn install_strict_hooks(sys: &mut CronusSystem) {
    sys.set_audit_hook(Box::new(|sys| {
        let report = audit_system(sys);
        assert!(
            report.passed(),
            "isolation audit failed at a reconfiguration point:\n{}",
            report.render()
        );
        0
    }));
}

/// Installs the mapping-state digest hook used by the forensics black box:
/// on a proceed-trap, the snapshot records a digest of the full extracted
/// [`IsolationModel`], so a post-mortem can prove which mapping state the
/// survivor saw without dumping the mappings themselves.
pub fn install_digest_hook(sys: &mut CronusSystem) {
    sys.set_digest_hook(Box::new(|sys| {
        let model = IsolationModel::extract(sys);
        cronus_crypto::measure("mapping-state", model.render().as_bytes())
    }));
}
