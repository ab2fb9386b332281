#!/usr/bin/env bash
# Regenerates every experiment recorded in EXPERIMENTS.md.
#
# Usage: scripts/run_experiments.sh [build-dir]
set -euo pipefail

BUILD="${1:-build}"
if [[ ! -d "$BUILD/bench" ]]; then
  echo "build directory '$BUILD' not found; run:" >&2
  echo "  cmake -B $BUILD -G Ninja && cmake --build $BUILD" >&2
  exit 1
fi

# Every experiment runs even if an earlier one fails; failures are
# collected and the script exits nonzero at the end so CI (and EXPERIMENTS.md
# regeneration) cannot silently record a partial sweep as a success.
FAILED=()

run() {
  echo
  echo "================================================================"
  echo "\$ $*"
  echo "================================================================"
  local status=0
  "$@" || status=$?
  if (( status != 0 )); then
    echo "FAILED (exit $status): $*" >&2
    FAILED+=("$* (exit $status)")
  fi
}

# Exact paper-table reproductions.
run "$BUILD/bench/bench_fig3_lattice_counts"
run "$BUILD/bench/bench_table4_minimal_generalization"
run "$BUILD/bench/bench_table56_conditions"

# The §4 experiment (shape reproduction on synthetic Adult) + JSON record.
run "$BUILD/bench/bench_table8_attribute_disclosure" table8_results.json

# Extension experiments.
run "$BUILD/bench/bench_query_error"
run "$BUILD/bench/bench_ru_frontier"
run "$BUILD/bench/bench_parallel_scaling" --trace 600000 BENCH_parallel.json

# Archive the run traces next to the numeric results so a regression can
# be diagnosed from the span trees without re-running anything. A bench
# that failed above may not have written its trace; skip what's missing
# (the failure itself is already recorded).
mkdir -p traces
for trace in BENCH_parallel.trace.json; do
  if [[ -f "$trace" ]]; then
    mv -f "$trace" traces/
    echo "archived traces/$trace"
  fi
done

# Timed ablations (google-benchmark; pass a smaller min_time for a quick
# look).
MIN_TIME="${BENCH_MIN_TIME:-0.1}"
run "$BUILD/bench/bench_condition_pruning" --benchmark_min_time="$MIN_TIME"
run "$BUILD/bench/bench_algorithms" --benchmark_min_time="$MIN_TIME"

if (( ${#FAILED[@]} > 0 )); then
  echo >&2
  echo "${#FAILED[@]} experiment(s) failed:" >&2
  printf '  %s\n' "${FAILED[@]}" >&2
  exit 1
fi
echo
echo "all experiments completed successfully"
