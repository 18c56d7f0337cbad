#!/usr/bin/env bash
# Local CI gate: formatting, lints, offline tier-1 build + tests, and the
# benchmark package's own build + self-tests.
#
# Everything runs offline (the workspace has no crates.io dependencies), so
# this is exactly what a hermetic CI job would run.
#
# With --bench, also re-runs the gated figure binaries and compares their
# fresh BENCH_*.json headline metrics against the committed repo-root
# baselines, failing on any regression beyond the tolerance (default 10%,
# override with BENCH_TOLERANCE_PCT). The gate additionally asserts that no
# rebaselined figure reports meta bounding_category == "queue": the
# multi-queue sRPC fast path keeps every figure off protocol queueing, and
# a queue-bound baseline or fresh run fails the gate outright. To accept a
# deliberate change, run scripts/rebaseline.sh and commit the updated
# BENCH_*.json files.
#
# With --chaos, also runs the fault-injection smoke campaign (one injection
# per sRPC phase; see FAULTS.md), failing if any scenario violates an
# invariant — including A4, the full static isolation audit. Nightly jobs
# should run the full sweep instead — every workload × phase × action,
# which also refreshes BENCH_chaos.json for the bench gate:
#   cargo run --offline --release --bin chaos
#
# With --lint, also runs the cronus-lint v2 static-analysis gate (see
# AUDIT.md): secret-taint, panic-reachability and deprecated-API analysis
# over every workspace crate, ratcheted against LINT_BASELINE.json. Any
# new finding, stale baseline entry or unused allowlist entry fails the
# gate. To accept a deliberate finding, run scripts/relint.sh and commit
# the shrunk-or-justified LINT_BASELINE.json.
#
# With --audit, also runs the isolation auditor (see AUDIT.md): the
# repo-rule source lint, then the mapping-state audit of every example
# workload scenario, failing on any lint finding or invariant violation.
#
# With --forensics, also runs the forensics gate (see FORENSICS.md): the
# failover timeline reconstruction (ledger and span evidence must agree on
# inject -> detect -> trap -> recover -> re-establish, byte-identically
# across two same-seed runs) plus ledger verification over the smoke
# campaign. --chaos also includes the ledger smoke verification, since A5
# is a campaign invariant.
#
# With --slo, also runs the queue observatory gate (see OBSERVABILITY.md):
# obs-report analyzes representative figure workloads, failing on any
# Little's-law cross-check violation (the instrumentation self-test) or any
# per-figure SLO burn-rate breach.
#
# With --diff, also runs the differential-forensics gate (see
# OBSERVABILITY.md, "Explaining a regression"): regenerates fresh telemetry
# bundles for representative figures and self-diffs them against the
# committed BUNDLE_*.json baselines with obs-diff, which must report "no
# significant deltas" (exit 0) on a clean tree.
#
# With --meter, also runs the resource-metering gate (see OBSERVABILITY.md,
# "Who is using the machine?"): obs-meter replays every figure plus the
# rpc_micro/saturation/fig_interference workloads and fails if any
# per-principal ledger does not sum exactly to the profiler's category
# totals (the conservation self-test), or if fig_interference's
# interference matrix fails to convict the injected noisy GEMM partition
# (p4) as the top interferer.
set -euo pipefail
cd "$(dirname "$0")/.."

run_bench=0
run_chaos=0
run_audit=0
run_lint=0
run_forensics=0
run_slo=0
run_diff=0
run_meter=0
for arg in "$@"; do
  case "$arg" in
    --bench) run_bench=1 ;;
    --chaos) run_chaos=1 ;;
    --audit) run_audit=1 ;;
    --lint) run_lint=1 ;;
    --forensics) run_forensics=1 ;;
    --slo) run_slo=1 ;;
    --diff) run_diff=1 ;;
    --meter) run_meter=1 ;;
    *) echo "unknown flag: $arg (supported: --bench, --chaos, --audit, --lint, --forensics, --slo, --diff, --meter)" >&2; exit 2 ;;
  esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings denied)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --offline --release

echo "==> tier-1: cargo test -q"
cargo test --offline -q

echo "==> workspace tests"
cargo test --offline -q --workspace

# benchmark/ is its own workspace, so nothing above compiles it. It builds
# against the public obs/core/ring API (FlightRecorder's string-keyed
# methods, RecorderInner's stores, the slot codec); running its self-tests
# here makes an accidental signature change fail locally instead of in the
# benchmark driver.
echo "==> benchmark package: build + self-tests (own workspace)"
cargo test --offline -q --manifest-path benchmark/Cargo.toml

if [[ "$run_lint" -eq 1 ]]; then
  echo "==> lint gate: cronus-lint v2 (taint + panic-reachability, ratcheted)"
  cargo run --offline --release -q --bin lint
fi

if [[ "$run_audit" -eq 1 ]]; then
  echo "==> audit gate: repo-rule source lint"
  cargo run --offline --release -q --bin audit -- --lint

  echo "==> audit gate: mapping-state audit of the example workloads"
  cargo run --offline --release -q --bin audit
fi

if [[ "$run_chaos" -eq 1 ]]; then
  echo "==> chaos gate: smoke fault-injection campaign"
  cargo run --offline --release -q --bin chaos -- --smoke

  echo "==> chaos gate: ledger verification over the smoke campaign (A5)"
  cargo run --offline --release -q --bin forensics -- --verify --smoke
fi

if [[ "$run_forensics" -eq 1 ]]; then
  echo "==> forensics gate: failover timeline reconstruction + ordering"
  cargo run --offline --release -q --bin forensics > /dev/null

  echo "==> forensics gate: ledger verification over the smoke campaign"
  cargo run --offline --release -q --bin forensics -- --verify --smoke
fi

if [[ "$run_slo" -eq 1 ]]; then
  echo "==> slo gate: queue observatory + burn-rate budgets"
  # Representative figures: the RPC microbenchmark (ring-bound), the
  # failover path (recovery queue), and the mixed saturation workload.
  cargo run --offline --release -q --bin obs-report -- \
    --figure rpc_micro --figure fig9 --figure saturation --slo > /dev/null
fi

if [[ "$run_diff" -eq 1 ]]; then
  echo "==> diff gate: regenerate fresh bundles"
  # Same representative subset as --bench; the self-diff below compares
  # whichever fresh bundles exist against their committed baselines.
  cargo run --offline --release -q -p cronus-bench --bin rpc_micro > /dev/null
  cargo run --offline --release -q -p cronus-bench --bin fig9 > /dev/null
  cargo run --offline --release -q -p cronus-bench --bin saturation > /dev/null

  echo "==> diff gate: self-diff fresh bundles vs committed BUNDLE_*.json"
  for fresh in target/bench/BUNDLE_*.json; do
    name="$(basename "$fresh" .json)"; name="${name#BUNDLE_}"
    base="BUNDLE_${name}.json"
    if [[ ! -f "$base" ]]; then
      echo "diff gate: missing committed baseline $base — run scripts/rebaseline.sh and commit it" >&2
      exit 1
    fi
    echo "--- obs-diff $name"
    cargo run --offline --release -q --bin obs-diff -- \
      --baseline "$base" --candidate "$fresh" --verdict
  done
fi

if [[ "$run_meter" -eq 1 ]]; then
  echo "==> meter gate: conservation self-test over every figure"
  cargo run --offline --release -q --bin obs-meter -- --all > /dev/null

  echo "==> meter gate: fig_interference must convict the noisy GEMM partition"
  cargo run --offline --release -q --bin obs-meter -- \
    --figure fig_interference --expect-top p4 > /dev/null
fi

if [[ "$run_bench" -eq 1 ]]; then
  echo "==> bench gate: regenerate fresh reports"
  # The fast subset: the gate skips figures without a fresh report, so run
  # `cargo run -p cronus-bench --bin all` first for full coverage.
  cargo run --offline --release -q -p cronus-bench --bin rpc_micro > /dev/null
  cargo run --offline --release -q -p cronus-bench --bin fig9 > /dev/null

  echo "==> bench gate: compare against committed baselines (+ no figure queue-bound)"
  cargo run --offline --release -q -p cronus-bench --bin bench_gate
fi

echo "CI gate passed."
