#!/usr/bin/env bash
# Re-baselines the figures: regenerates every row of the figure table
# (`fig all`), prints what moved in each bundle against its committed copy
# (`obs diff`: headline movements with direction-aware verdicts, then the
# ranked attribution) and promotes the fresh target/bench/BUNDLE_*.json to
# the committed repo-root baselines. Run this after a deliberate change to
# a simulated result, review the diff, and commit the updated BUNDLE_*.json:
# tests/baseline_identity.rs compares them byte for byte.
set -euo pipefail
cd "$(dirname "$0")/.."

run() { cargo run --offline --release -q "$@"; }

echo "==> regenerating every figure's fresh bundle"
rm -f target/bench/BUNDLE_*.json
run -p cronus-bench --bin fig -- all > /dev/null

echo "==> what moved (committed -> fresh)"
for fresh in target/bench/BUNDLE_*.json; do
  base="$(basename "$fresh")"
  if [ ! -f "$base" ]; then
    echo "$base: no committed bundle yet (new table row)"
    continue
  fi
  # Exit 1 only says "significant deltas found", which is why we are here.
  run --bin obs -- diff --baseline "$base" --candidate "$fresh" || [ $? -eq 1 ]
done

echo "==> promoting fresh bundles to repo-root baselines"
cp -v target/bench/BUNDLE_*.json .

echo "re-baselined; review 'git diff BUNDLE_*.json' and commit."
