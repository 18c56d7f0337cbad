//! End-to-end tests of the isolation auditor (`cronus-audit`, see
//! `AUDIT.md`).
//!
//! Three layers:
//!
//! * **clean runs** — every chaos workload, plus a full failover with trap
//!   and re-establishment, audits to zero violations at every lifecycle
//!   checkpoint;
//! * **mutation tests** — deliberately break the mapping state (double-map
//!   a page across partitions, widen a TZASC region past the secure pool,
//!   plant a stale SMMU grant after recovery) and assert the auditor
//!   reports *exactly* the targeted invariant with a PPN-level
//!   counterexample naming every party;
//! * **hook wiring** — the reconfiguration-point audit hooks stay
//!   silent across a healthy lifecycle and do count violations once the
//!   state is broken.

use cronus::audit::{
    audit_system, check_model, install_hooks, install_strict_hooks, AuditReport, Invariant,
    IsolationModel,
};
use cronus::chaos::workload::{self, WorkloadKind};
use cronus::sim::{PagePerms, SimRng, StreamId};
use cronus::spm::spm::ShareState;

/// Asserts the report fails on `inv` and *only* on `inv`.
fn assert_only(report: &AuditReport, inv: Invariant) {
    assert!(
        !report.passed(),
        "expected {inv} violations, audit passed clean"
    );
    for other in Invariant::ALL {
        if other != inv {
            assert!(
                report.of(other).is_empty(),
                "unexpected {other} violations:\n{}",
                report.render()
            );
        }
    }
}

fn assert_clean(sys: &cronus::core::CronusSystem, point: &str) {
    let report = audit_system(sys);
    assert!(report.passed(), "audit at {point}:\n{}", report.render());
}

// ---------------------------------------------------------------------------
// Clean runs
// ---------------------------------------------------------------------------

#[test]
fn every_workload_lifecycle_audits_clean() {
    for kind in WorkloadKind::ALL {
        let mut sys = workload::boot();
        assert_clean(&sys, "boot");

        let h = workload::build(&mut sys, kind);
        assert_clean(&sys, "build");

        let mut rng = SimRng::new(11);
        let payload = workload::request(kind, &mut rng);
        let out = sys
            .call(h.stream, kind.mecall())
            .payload(&payload)
            .sync()
            .expect("healthy call");
        assert_eq!(out, workload::expected(kind, &payload));
        assert_clean(&sys, "calls");

        sys.close_stream(h.stream).expect("close");
        assert_clean(&sys, "close");
    }
}

#[test]
fn failover_with_trap_audits_clean_at_every_step() {
    let kind = WorkloadKind::GpuSaxpy;
    let mut sys = workload::boot();
    let mut h = workload::build(&mut sys, kind);

    sys.inject_partition_failure(h.callee.asid).expect("inject");
    assert_clean(&sys, "proceed");

    sys.call(h.stream, kind.mecall())
        .payload(&[1, 2, 3])
        .sync()
        .expect_err("peer is down");
    assert_clean(&sys, "trap");

    sys.recover_partition(h.callee.asid).expect("recovery");
    assert_clean(&sys, "recovery");

    h.callee = workload::spawn_callee(&mut sys, kind, h.caller, h.dma);
    h.stream = sys
        .stream(h.caller, h.callee)
        .reopen(h.stream)
        .expect("reopen");
    let mut rng = SimRng::new(12);
    let payload = workload::request(kind, &mut rng);
    let out = sys
        .call(h.stream, kind.mecall())
        .payload(&payload)
        .sync()
        .expect("post-recovery call");
    assert_eq!(out, workload::expected(kind, &payload));
    assert_clean(&sys, "reestablish");
}

// ---------------------------------------------------------------------------
// Mutation tests: each breaks exactly one invariant
// ---------------------------------------------------------------------------

#[test]
fn double_mapping_a_page_into_a_third_partition_trips_exactly_i1() {
    let mut sys = workload::boot();
    let h = workload::build(&mut sys, WorkloadKind::GpuSaxpy);

    // Pick a ring page of the stream's share (the only pages two stage-2
    // tables legitimately map) and a partition that is NOT an endpoint.
    let model = IsolationModel::extract(&sys);
    let victim = model.shares[0].pages[0];
    let interloper = model
        .partitions
        .iter()
        .map(|p| p.asid)
        .find(|a| *a != h.caller.asid && *a != h.callee.asid)
        .expect("boot brings up a third partition");

    // The mutation: grant the third partition a writable stage-2 entry to
    // the ring page — exactly what the SPM must never do.
    sys.spm_mut()
        .machine_mut()
        .stage2_grant(interloper, victim, PagePerms::RW)
        .expect("mutation grant");

    let report = audit_system(&sys);
    assert_only(&report, Invariant::ExclusiveWriter);
    let hits = report.of(Invariant::ExclusiveWriter);
    assert_eq!(hits.len(), 1, "one page, one counterexample");
    assert_eq!(hits[0].ppn, Some(victim), "counterexample names the page");
    for asid in [h.caller.asid, h.callee.asid, interloper] {
        assert!(
            hits[0].detail.contains(&asid.to_string()),
            "counterexample names all three mappers: {}",
            hits[0].detail
        );
    }
    assert!(
        hits[0].detail.contains("share h"),
        "provenance names the share the page belongs to: {}",
        hits[0].detail
    );
}

#[test]
fn widening_a_tzasc_region_past_the_secure_pool_trips_exactly_i2() {
    let sys = workload::boot();
    let mut model = IsolationModel::extract(&sys);

    // The mutation: stretch the first secure region 16 pages past the end
    // of the secure DRAM pool, silently reclassifying normal-world pages.
    let region = model
        .tzasc_secure_regions
        .first_mut()
        .expect("boot programs at least one secure region");
    region.end += 16;
    let start = region.start;

    let report = check_model(&model);
    assert_only(&report, Invariant::NormalWorldConfinement);
    let hits = report.of(Invariant::NormalWorldConfinement);
    assert_eq!(hits.len(), 1);
    assert_eq!(
        hits[0].ppn,
        Some(start),
        "counterexample anchors the region"
    );
    assert!(
        hits[0].detail.contains("outside the secure dram pool"),
        "detail explains the overreach: {}",
        hits[0].detail
    );
}

#[test]
fn stale_smmu_grant_after_recovery_trips_exactly_i4() {
    let mut sys = workload::boot();
    let h = workload::build(&mut sys, WorkloadKind::GpuSaxpy);

    // Kill and recover the callee; its stream's share is now poisoned and
    // the recovered side must hold nothing.
    sys.inject_partition_failure(h.callee.asid).expect("inject");
    sys.recover_partition(h.callee.asid).expect("recovery");
    assert_clean(&sys, "recovery");

    let model = IsolationModel::extract(&sys);
    let share = model
        .shares
        .iter()
        .find(|s| matches!(s.state, ShareState::Poisoned { .. }))
        .expect("the dead stream's share is poisoned");
    let stale = share.pages[0];
    let stream = model
        .partition(h.callee.asid)
        .and_then(|p| p.dma_stream)
        .expect("gpu partition has a dma stream");

    // The mutation: re-grant the recovered partition's DMA engine a page
    // of the poisoned share — a stale SMMU entry recovery failed to cut.
    sys.spm_mut()
        .machine_mut()
        .smmu_mut()
        .grant(StreamId::new(stream), stale, PagePerms::RW);

    let report = audit_system(&sys);
    assert_only(&report, Invariant::RevocationCompleteness);
    let hits = report.of(Invariant::RevocationCompleteness);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].ppn, Some(stale), "counterexample names the page");
    assert!(
        hits[0].detail.contains("retains a valid grant"),
        "detail blames the stale grant: {}",
        hits[0].detail
    );
    assert!(
        hits[0].detail.contains(&h.callee.asid.to_string()),
        "detail names the recovered partition: {}",
        hits[0].detail
    );
}

// ---------------------------------------------------------------------------
// Zero-copy grant lifecycle
// ---------------------------------------------------------------------------
//
// The grant arena is a second share through the same ledger as the ring, so
// I1 (exclusive writer) and I4 (revocation completeness) must hold for
// granted payload pages across the whole grant -> call -> revoke ->
// trap-recovery lifecycle, exactly as they do for ring pages.

/// The grant arena's share: the only share no stream claims as its ring.
fn arena_share(model: &IsolationModel) -> &cronus::audit::ShareModel {
    model
        .shares
        .iter()
        .find(|s| model.streams.iter().all(|st| st.share != s.handle))
        .expect("zero-copy stream has a grant arena share")
}

#[test]
fn zero_copy_grant_lifecycle_audits_clean_at_every_step() {
    let kind = WorkloadKind::Echo;
    let mut sys = workload::boot();
    let mut h = workload::build(&mut sys, kind);

    // Swap the default stream for a zero-copy one: every request payload
    // (16-byte secret + 48 data bytes) clears the 32-byte threshold, so
    // all calls travel through the granted arena, not the ring slots.
    sys.close_stream(h.stream).expect("close default stream");
    h.stream = sys
        .stream(h.caller, h.callee)
        .zero_copy(32)
        .open()
        .expect("zero-copy stream");
    assert_clean(&sys, "grant (arena mapped)");

    let mut rng = SimRng::new(21);
    let payload = workload::request(kind, &mut rng);
    let out = sys
        .call(h.stream, kind.mecall())
        .payload(&payload)
        .sync()
        .expect("granted call");
    assert_eq!(out, workload::expected(kind, &payload));
    let stats = sys.stream_stats(h.stream).expect("stats");
    assert_eq!(
        stats.zero_copy_grants, 1,
        "payload must take the grant path"
    );
    assert_clean(&sys, "call");

    sys.inject_partition_failure(h.callee.asid).expect("inject");
    sys.call(h.stream, kind.mecall())
        .payload(&payload)
        .sync()
        .expect_err("peer is down");
    assert_clean(&sys, "trap");

    // Recovery must poison the arena alongside the ring and cut every
    // grant to its pages (I4 checks both shares at this checkpoint).
    sys.recover_partition(h.callee.asid).expect("recovery");
    assert_clean(&sys, "recovery");
    let model = IsolationModel::extract(&sys);
    assert!(
        matches!(
            arena_share(&model).state,
            ShareState::Poisoned { .. } | ShareState::Reclaimed
        ),
        "recovery must not leave the arena share active"
    );

    // Re-establishment reclaims the poisoned arena and grants a fresh one;
    // the zero-copy path must work again end to end.
    h.callee = workload::spawn_callee(&mut sys, kind, h.caller, h.dma);
    h.stream = sys
        .stream(h.caller, h.callee)
        .zero_copy(32)
        .reopen(h.stream)
        .expect("reopen");
    let payload = workload::request(kind, &mut rng);
    let out = sys
        .call(h.stream, kind.mecall())
        .payload(&payload)
        .sync()
        .expect("post-recovery granted call");
    assert_eq!(out, workload::expected(kind, &payload));
    assert_eq!(
        sys.stream_stats(h.stream).expect("stats").zero_copy_grants,
        1,
        "reopened stream must grant through its fresh arena"
    );
    assert_clean(&sys, "reestablish");

    // Revocation: close reclaims ring and arena pages together.
    sys.close_stream(h.stream).expect("close");
    assert_clean(&sys, "revoke");
}

#[test]
fn double_mapping_a_granted_arena_page_trips_exactly_i1() {
    let kind = WorkloadKind::Echo;
    let mut sys = workload::boot();
    let mut h = workload::build(&mut sys, kind);
    sys.close_stream(h.stream).expect("close default stream");
    h.stream = sys
        .stream(h.caller, h.callee)
        .zero_copy(32)
        .open()
        .expect("zero-copy stream");
    let mut rng = SimRng::new(22);
    let payload = workload::request(kind, &mut rng);
    sys.call(h.stream, kind.mecall())
        .payload(&payload)
        .sync()
        .expect("granted call");

    // The mutation: map a live granted payload page into a partition that
    // is neither endpoint — a leak of request plaintext, exactly what I1
    // must catch on arena pages as well as ring pages.
    let model = IsolationModel::extract(&sys);
    let victim = arena_share(&model).pages[0];
    let interloper = model
        .partitions
        .iter()
        .map(|p| p.asid)
        .find(|a| *a != h.caller.asid && *a != h.callee.asid)
        .expect("third partition");
    sys.spm_mut()
        .machine_mut()
        .stage2_grant(interloper, victim, PagePerms::RW)
        .expect("mutation grant");

    let report = audit_system(&sys);
    assert_only(&report, Invariant::ExclusiveWriter);
    let hits = report.of(Invariant::ExclusiveWriter);
    assert_eq!(hits.len(), 1, "one arena page, one counterexample");
    assert_eq!(hits[0].ppn, Some(victim), "counterexample names the page");
}

#[test]
fn stale_grant_on_poisoned_arena_page_trips_exactly_i4() {
    let kind = WorkloadKind::GpuSaxpy;
    let mut sys = workload::boot();
    let mut h = workload::build(&mut sys, kind);
    sys.close_stream(h.stream).expect("close default stream");
    h.stream = sys
        .stream(h.caller, h.callee)
        .zero_copy(32)
        .open()
        .expect("zero-copy stream");
    let mut rng = SimRng::new(23);
    let payload = workload::request(kind, &mut rng);
    sys.call(h.stream, kind.mecall())
        .payload(&payload)
        .sync()
        .expect("granted call");

    sys.inject_partition_failure(h.callee.asid).expect("inject");
    sys.recover_partition(h.callee.asid).expect("recovery");
    assert_clean(&sys, "recovery");

    // The mutation: re-grant the recovered partition's DMA engine a page
    // of the poisoned *arena* — a stale payload-page grant recovery
    // failed to cut.
    let model = IsolationModel::extract(&sys);
    let arena = arena_share(&model);
    assert!(matches!(arena.state, ShareState::Poisoned { .. }));
    let stale = arena.pages[0];
    let stream = model
        .partition(h.callee.asid)
        .and_then(|p| p.dma_stream)
        .expect("gpu partition has a dma stream");
    sys.spm_mut()
        .machine_mut()
        .smmu_mut()
        .grant(StreamId::new(stream), stale, PagePerms::RW);

    let report = audit_system(&sys);
    assert_only(&report, Invariant::RevocationCompleteness);
    let hits = report.of(Invariant::RevocationCompleteness);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].ppn, Some(stale), "counterexample names the page");
}

// ---------------------------------------------------------------------------
// Audit-hook wiring
// ---------------------------------------------------------------------------

#[test]
fn strict_hooks_stay_silent_across_a_full_lifecycle() {
    let kind = WorkloadKind::GpuSaxpy;
    let mut sys = workload::boot();
    // Panics inside the hook on any violation at any reconfiguration point.
    install_strict_hooks(&mut sys);

    let mut h = workload::build(&mut sys, kind);
    let mut rng = SimRng::new(13);
    let payload = workload::request(kind, &mut rng);
    sys.call(h.stream, kind.mecall())
        .payload(&payload)
        .sync()
        .expect("healthy call");

    sys.inject_partition_failure(h.callee.asid).expect("inject");
    sys.call(h.stream, kind.mecall())
        .payload(&payload)
        .sync()
        .expect_err("peer is down");
    sys.recover_partition(h.callee.asid).expect("recovery");
    h.callee = workload::spawn_callee(&mut sys, kind, h.caller, h.dma);
    h.stream = sys
        .stream(h.caller, h.callee)
        .reopen(h.stream)
        .expect("reopen");
    sys.close_stream(h.stream).expect("close");
}

#[test]
fn counting_hooks_report_zero_clean_and_nonzero_once_broken() {
    let mut sys = workload::boot();
    install_hooks(&mut sys);

    let h = workload::build(&mut sys, WorkloadKind::Echo);
    let h2 = workload::build(&mut sys, WorkloadKind::Echo);
    sys.close_stream(h2.stream).expect("close");
    assert_eq!(sys.audit_violations(), 0, "healthy lifecycle audits clean");

    // Break I1 behind the SPM's back, then hit a reconfiguration point so
    // the hook runs again: the violation must be counted.
    let model = IsolationModel::extract(&sys);
    let victim = model
        .shares
        .iter()
        .find(|s| s.state == ShareState::Active)
        .expect("open stream has an active share")
        .pages[0];
    let interloper = model
        .partitions
        .iter()
        .map(|p| p.asid)
        .find(|a| *a != h.caller.asid && *a != h.callee.asid)
        .expect("third partition");
    sys.spm_mut()
        .machine_mut()
        .stage2_grant(interloper, victim, PagePerms::RW)
        .expect("mutation grant");
    sys.close_stream(h.stream).expect("close");
    assert!(
        sys.audit_violations() > 0,
        "the hook at close must count the planted violation"
    );
}
