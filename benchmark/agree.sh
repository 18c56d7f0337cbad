#!/usr/bin/env bash
# Runs the whole benchmark twice on this tree, the way the driver does, and
# checks that the two sets of runs agree within the benchmark's own bounds.
#
#   benchmark/agree.sh [SEEDS]     (default 10 seeds per workload and set)
#
# A set is, per workload, SEEDS untraced runs (seeds 1..SEEDS) and one traced
# run (seed 1), each of `run_seconds` from BENCHMARK.json. Checked:
#   - every end-to-end metric's spread over a set's seeds (interquartile range
#     over median) stays within its bound (`setup_s` is exempt, as in the
#     driver), and is flagged when above a third of it;
#   - the second set's median is within the bound of the first's;
#   - simulated metrics and counts are bit-identical between the sets;
#   - the traced run prints every per-layer metric, among them
#     `host.rep_spread_pct` and `host.trace_overhead_pct`.
# Prints a per-workload table and exits non-zero on a miss. Results land in
# benchmark/out/agree/.
set -euo pipefail
cd "$(dirname "$0")/.."
seeds=${1:-10}
out=benchmark/out/agree
rm -rf "$out"
mkdir -p "$out"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/cronus-benchmark
seconds=$(python3 -c "import json; print(json.load(open('BENCHMARK.json'))['run_seconds'])")
workloads=$(python3 -c "import json; print(' '.join(w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']))")

for set in 1 2; do
    for w in $workloads; do
        for seed in $(seq 1 "$seeds"); do
            echo "set $set $w seed $seed" >&2
            "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
                | tail -n 1 >"$out/$set-$w-$seed.json"
        done
        echo "set $set $w traced" >&2
        "$bin" --workload "$w" --seed 1 --seconds "$seconds" --trace 1 \
            | tail -n 1 >"$out/$set-$w-trace.json"
    done
done

python3 - "$out" "$seeds" <<'PY'
import json, statistics, sys

out, seeds = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
misses = []

def load(path):
    run = json.load(open(path))
    if not run["correct"] or run["failed"]:
        misses.append(f"{path}: correct={run['correct']} failed={run['failed']}")
    return {k: v["value"] for k, v in run["metrics"].items()}

def spread(values):
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med

def exact(metric):
    """Simulated-clock metrics and counts: deterministic for a seed."""
    name = metric["name"]
    if name.startswith("host."):
        return False
    return (metric["unit"] in ("count", "B") or name == "failed_ops_frac"
            or name.startswith(("sim_", "simclk.", "obs.queue_p99", "obs.jain")))

for w in (w["name"] for w in bench["workloads"]):
    print(f"\n{w}")
    print(f"  {'metric':<16}{'median 1':>14}{'median 2':>14}{'drift':>9}"
          f"{'spread 1':>10}{'spread 2':>10}{'bound':>8}")
    runs = [[load(f"{out}/{s}-{w}-{seed}.json") for seed in range(1, seeds + 1)]
            for s in (1, 2)]
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a, b = ([r[name] for r in rs] for rs in runs)
        ma, mb = statistics.median(a), statistics.median(b)
        drift = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        notes = []
        if exact(m):
            if a != b:
                notes.append("NOT IDENTICAL")
        if abs(drift) > bound:
            notes.append("MEDIANS DISAGREE")
        if name != "setup_s":
            if max(sa, sb) > bound:
                notes.append("SPREAD OVER BOUND")
            elif max(sa, sb) > bound / 3:
                notes.append("(spread over a third of the bound)")
        print(f"  {name:<16}{ma:>14.4f}{mb:>14.4f}{drift:>9.2%}{sa:>10.2%}{sb:>10.2%}"
              f"{bound:>8.0%}  {' '.join(notes)}")
        misses += [f"{w} {name}: {n}" for n in notes if n.isupper()]

    traced = [load(f"{out}/{s}-{w}-trace.json") for s in (1, 2)]
    differing = []
    for m in bench["per_layer"]:
        name = m["name"]
        if any(name not in t for t in traced):
            misses.append(f"{w}: traced run does not report {name}")
        elif exact(m) and traced[0][name] != traced[1][name]:
            differing.append(name)
    misses += [f"{w} {n}: differs between the traced runs" for n in differing]
    for name in ("host.rep_spread_pct", "host.trace_overhead_pct"):
        print(f"  {name:<26}{traced[0].get(name, float('nan')):>8.2f}"
              f"{traced[1].get(name, float('nan')):>8.2f}  %")
    print(f"  per-layer simulated metrics and counts identical: {not differing}")

print()
for miss in misses:
    print("MISS:", miss)
print("agree:", "no" if misses else "yes")
sys.exit(1 if misses else 0)
PY
