#!/usr/bin/env bash
# Simulator perf tracking: builds the three Google Benchmark suites in
# Release and writes BENCH_noc.json (BM_NocSimulator, BM_NocFeatureOverhead,
# routing and topology legs), BENCH_snn.json (BM_SnnSimulator) and
# BENCH_cosim.json (BM_CoSimulator) at the repo root, so the simulators'
# throughput and work counters are recorded PR over PR.
#
#   scripts/bench.sh [extra google-benchmark flags...]
#   scripts/bench.sh --check [extra google-benchmark flags...]
#
# Every suite records its build context (build_type and compiler from the
# build tree's CMake configuration; Google Benchmark adds num_cpus).  A
# record runs every leg 3 times (--benchmark_repetitions=3) and the gate
# takes each leg's median aggregate row as its baseline, so a single fast or
# slow measurement window cannot set it.
#
# --check runs the same suites once into a scratch directory and gates them
# against the committed files via scripts/bench_gate.py, leaving the
# committed files untouched.  The gate refuses (exit 2) when the build
# context differs from the committed one or a deterministic work counter
# changed: re-measuring cannot fix either, so nothing is retried.  A rate
# more than 15% below its committed value fails (exit 1).  Because a shared
# VM's effective clock swings between measurement windows (±20-25% on a
# minutes timescale), a rate failure triggers a full re-measurement, up to
# 3 attempts, and the gate takes the best value per rate across all
# attempts: a real regression is slow in every window and still fails.
#
# Requires Google Benchmark (the script aborts with a notice when the
# library is absent and the benchmark targets were not generated).
set -euo pipefail
cd "$(dirname "$0")/.."

CHECK=0
if [[ "${1:-}" == "--check" ]]; then
  CHECK=1
  shift
fi

BUILD_DIR=${BUILD_DIR:-build-release}
JOBS=${JOBS:-$(nproc)}
SUITES=(noc:noc_sim_benchmarks snn:snn_sim_benchmarks cosim:cosim_benchmarks)

configure_log=$(cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DSNNMAP_BUILD_TESTS=OFF \
  -DSNNMAP_BUILD_EXAMPLES=OFF 2>&1) \
  || { printf '%s\n' "$configure_log" >&2; exit 1; }
printf '%s\n' "$configure_log"
# bench/CMakeLists.txt prints this notice and skips the benchmark targets;
# abort up front so the build step below only ever fails on real compile
# errors (never on 'unknown target', never falling back to stale binaries).
if grep -q "Google Benchmark not found" <<<"$configure_log"; then
  echo "benchmark targets not generated (Google Benchmark missing?)" >&2
  exit 1
fi
cmake --build "$BUILD_DIR" -j "$JOBS" --target "${SUITES[@]#*:}"

build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' \
  "$BUILD_DIR/CMakeCache.txt")
compiler=$(sed -n 's/^set(CMAKE_CXX_COMPILER_\(ID\|VERSION\) "\(.*\)")$/\2/p' \
  "$BUILD_DIR"/CMakeFiles/*/CMakeCXXCompiler.cmake | head -n 2 | paste -sd-)
if [[ -z "$build_type" || -z "$compiler" ]]; then
  echo "cannot read the build type and compiler of $BUILD_DIR" >&2
  exit 1
fi

# Runs every suite, writing BENCH_<suite>.json into $1.  A suite that ran
# but produced no (or an empty) JSON would silently hold its trajectory at
# the previous value, so that fails loudly.
run_all_suites() {
  local out_dir=$1
  shift
  local suite out
  for suite in "${SUITES[@]}"; do
    out="$out_dir/BENCH_${suite%%:*}.json"
    "$BUILD_DIR/bench/${suite#*:}" \
      --benchmark_min_time=2 \
      --benchmark_out="$out" \
      --benchmark_out_format=json \
      --benchmark_context="build_type=$build_type,compiler=$compiler" \
      "$@"
    if [[ ! -s "$out" ]]; then
      echo "${suite#*:} did not produce $out" >&2
      exit 1
    fi
    echo "wrote $out"
  done
}

if [[ "$CHECK" == "0" ]]; then
  run_all_suites . --benchmark_repetitions=3 \
    --benchmark_display_aggregates_only=true "$@"
  exit 0
fi

SCRATCH=$(mktemp -d "${TMPDIR:-/tmp}/snnmap-bench-check.XXXXXX")
trap 'rm -rf "$SCRATCH"' EXIT
fresh_args=()
for try in 1 2 3; do
  mkdir -p "$SCRATCH/try$try"
  run_all_suites "$SCRATCH/try$try" "$@"
  fresh_args+=(--fresh-dir "$SCRATCH/try$try")
  status=0
  python3 scripts/bench_gate.py "${fresh_args[@]}" --committed-dir . \
    || status=$?
  if ((status != 1)); then
    exit "$status"
  fi
  echo "bench gate: a rate regressed on attempt $try/3" \
       "(best per rate across the attempts so far)" >&2
done
exit 1
