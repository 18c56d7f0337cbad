#!/usr/bin/env bash
# Local CI gate, fully offline: runs the rows of GATES below in order — the
# `core` rows always, the `all` rows only with --all — and stops at the
# first failure. One line per row (each names the doc that explains it):
#   fmt, clippy, build, test, workspace   formatting, lints, tier-1 and workspace tests
#   benchmark   build + self-tests of benchmark/, its own workspace (benchmark/README.md)
#   bench-run   the release cronus-benchmark once per workload at frozen scale (--seconds 0 --trace 1):
#               its exit status carries `correct`, the last cycle's audit and ledger verification and
#               the traced span coverage; the self-tests above run only 1/100-scale reps (benchmark/README.md).
#               Also the recorder's retention budget: srpc_stream's host.rss_bytes_per_op must stay at or
#               under SRPC_RSS_BUDGET (OBSERVABILITY.md, "What observing costs")
#   lint        cronus-lint v2 at zero findings: no accepted list, a finding is fixed where it sits (AUDIT.md)
#   audit       mapping-state audit I1-I5 of every example workload (AUDIT.md)
#   chaos       smoke fault-injection campaign, A1-A5; the full sweep is the figure table's chaos row (FAULTS.md)
#   forensics   failover timeline reconstruction + ledger verification of the smoke campaign (FORENSICS.md)
#   slo         Little's-law self-test + per-figure burn-rate budgets (OBSERVABILITY.md)
#   meter       per-principal conservation on every figure + fig_interference convicts p4 (OBSERVABILITY.md)
#   figs        `fig all` regenerates every figure's bundle, then `obs diff` of each fresh bundle against
#               its committed BUNDLE_*.json must report no significant delta: the binary -> file -> diff
#               path that tier-1's in-process byte-identity test (tests/baseline_identity.rs) does not
#               cover; accept a deliberate change with scripts/rebaseline.sh (EXPERIMENTS.md)
set -euo pipefail
cd "$(dirname "$0")/.."

run() { cargo run --offline --release -q "$@"; }

fresh_figures_match() {
  rm -f target/bench/BUNDLE_*.json
  run -p cronus-bench --bin fig -- all > /dev/null
  for fresh in target/bench/BUNDLE_*.json; do
    echo "--- obs diff $(basename "$fresh")"
    run --bin obs -- diff --baseline "$(basename "$fresh")" --candidate "$fresh" --verdict
  done
}

# Bytes an async call leaves in the recorder: three 40-byte spans and one
# 40-byte meter slice, measured at 166 B/op on x86-64 (352 when a span was
# 96 bytes). A new per-span or per-slice field shows up here first.
SRPC_RSS_BUDGET=200

# Exact counts per workload at the default seed, zero tolerance: a change
# that adds span or ledger traffic fails here instead of drifting host time.
#   workload            obs.spans  forensics.ledger_records
EXACT_COUNTS="
    srpc_stream          600003     14
    tenants_mixed        571343     26
    accel_apps           491320     26
    lifecycle_failover    36474  18000"

# The value of metric $1 in the benchmark's JSON result line $2.
metric() { grep -o "\"$1\":{\"value\":[^,}]*" <<< "$2" | cut -d: -f3; }

bench_runs_pass() {
  cargo build --offline --release -q --manifest-path benchmark/Cargo.toml
  for workload in srpc_stream tenants_mixed accel_apps lifecycle_failover; do
    echo "--- $workload"
    out=$(benchmark/target/release/cronus-benchmark --workload "$workload" --seconds 0 --trace 1) \
      || { echo "$out"; return 1; }
    result=$(tail -n 1 <<< "$out")
    read -r _ spans records <<< "$(grep -w "$workload" <<< "$EXACT_COUNTS")"
    for expected in "obs.spans $spans" "forensics.ledger_records $records"; do
      read -r name want <<< "$expected"
      got=$(metric "$name" "$result")
      echo "$name ${got:-missing} (exactly $want)"
      awk -v got="$got" -v want="$want" 'BEGIN { exit !(got != "" && got + 0 == want) }' \
        || { echo "$workload: $name moved"; return 1; }
    done
    if [[ "$workload" == srpc_stream ]]; then
      rss=$(metric host.rss_bytes_per_op "$result")
      echo "host.rss_bytes_per_op ${rss:-missing} B (budget $SRPC_RSS_BUDGET B)"
      awk -v rss="$rss" -v budget="$SRPC_RSS_BUDGET" 'BEGIN { exit !(rss != "" && rss + 0 <= budget) }' \
        || { echo "srpc_stream retains more per call than the budget"; return 1; }
    fi
  done
}

# name | when | banner | commands
GATES=(
  "fmt|core|cargo fmt --check|cargo fmt --all -- --check"
  "clippy|core|cargo clippy (warnings denied)|cargo clippy --offline --workspace --all-targets -- -D warnings"
  "build|core|tier-1: cargo build --release|cargo build --offline --release"
  "test|core|tier-1: cargo test -q|cargo test --offline -q"
  "workspace|core|workspace tests|cargo test --offline -q --workspace"
  "benchmark|core|benchmark package: build + self-tests (own workspace)|cargo test --offline -q --manifest-path benchmark/Cargo.toml"
  "bench-run|all|benchmark correctness gates, one frozen-scale traced run per workload|bench_runs_pass"
  "lint|all|cronus-lint v2 (taint + panic-reachability), zero findings|run --bin lint"
  "audit|all|mapping-state audit of the example workloads|run --bin audit"
  "chaos|all|smoke fault-injection campaign|run --bin chaos -- --smoke"
  "forensics|all|failover timeline + ledger verification over the smoke campaign|run --bin forensics > /dev/null && run --bin forensics -- --verify --smoke"
  "slo|all|queue observatory + burn-rate budgets|run --bin obs -- report --figure rpc_micro --figure fig9 --figure saturation --slo > /dev/null"
  "meter|all|conservation over every figure; fig_interference convicts p4|run --bin obs -- meter --all > /dev/null && run --bin obs -- meter --figure fig_interference --expect-top p4 > /dev/null"
  "figs|all|fresh bundles of every figure vs committed BUNDLE_*.json|fresh_figures_match"
)

case "${1:-}" in
  "") all=0 ;;
  --all) all=1 ;;
  *) echo "usage: ci.sh [--all]" >&2; exit 2 ;;
esac

for gate in "${GATES[@]}"; do
  IFS='|' read -r name when banner commands <<< "$gate"
  if [[ "$when" == core || "$all" -eq 1 ]]; then
    echo "==> $name: $banner"
    eval "$commands"
  fi
done

echo "CI gate passed."
echo "trusted-surface LOC: $(cat $(find crates/{sim,crypto,mos,spm,core}/src -name '*.rs') | wc -l)"
echo "tooling LOC:         $(cat $(find crates/{obs,audit,forensics,chaos,bench}/src -name '*.rs') src/bin/*.rs scripts/*.sh | wc -l)"
# Lines before the unit-test module of the GPU/NPU stack: devices, their HAL, their runtimes.
echo "accelerator-stack LOC: $(awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 } !t' crates/{devices,runtime}/src/*.rs crates/mos/src/hal.rs | wc -l)"
