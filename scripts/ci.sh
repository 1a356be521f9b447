#!/usr/bin/env bash
# Tier-1 verify: a lint gate, four build/test legs and a benchmark smoke run.
#   0. Lint      — scripts/lint.sh: snnmap-lint determinism/contract rules
#                  (always), clang-tidy + clang-format when the toolchain
#                  has them (each skipped with a notice otherwise).
#   1. Debug     — assertions and debug-only checks live, warnings-as-errors.
#   2. Release   — -O3 -DNDEBUG, the configuration the benchmarks and the
#                  perf acceptance numbers (scripts/bench.sh) are measured in.
#   3. Sanitize  — Debug + AddressSanitizer + UndefinedBehaviorSanitizer
#                  (-fno-sanitize-recover, so any finding fails the leg),
#                  plus -D_GLIBCXX_ASSERTIONS so libstdc++ bounds-checks
#                  every operator[] in the flat-array hot loops.
#   4. TSan      — Debug + ThreadSanitizer over the concurrency surface:
#                  the ThreadPool suite (parallel_for and map) plus every
#                  suite that fans work out over it from many threads.
#   5. Perfbench — builds the perfbench harness (its own build file, which
#                  no other leg compiles) and runs one short traced pass of
#                  each workload; fails on a nonzero harness exit.
# Legs 1-3 run the full CTest suite, so optimization-dependent breakage
# (UB, fragile float expectations) and memory errors surface here and not
# in a profile run.  Leg 4 runs the filtered concurrency subset (TSan's
# 5-15x slowdown makes the full suite impractical).  Skips:
#   SKIP_LINT=1      drop leg 0
#   SKIP_SANITIZE=1  drop leg 3 (e.g. on toolchains without libasan)
#   SKIP_TSAN=1      drop leg 4 (e.g. on toolchains without libtsan)
# Perf is gated separately: scripts/bench.sh --check compares the Release
# benchmarks against the committed BENCH_*.json trajectories.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}

run_leg() {
  local build_type=$1
  local build_dir=$2
  shift 2
  echo "=== ci leg: ${build_type} (${build_dir}) $* ==="
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE="$build_type" \
    -DSNNMAP_WERROR=ON \
    "$@"
  cmake --build "$build_dir" -j "$JOBS"
  # The benchmark suites (BENCH_*.json trajectories) are part of the `all`
  # target, so the build above compiles them whenever Google Benchmark is
  # available; assert every binary actually materialized so a silently
  # skipped/ungenerated target cannot pass the leg.
  if ! grep -q "benchmark_DIR:PATH=benchmark_DIR-NOTFOUND" \
      "$build_dir/CMakeCache.txt"; then
    for bench in noc_sim_benchmarks snn_sim_benchmarks cosim_benchmarks; do
      if [[ ! -x "$build_dir/bench/$bench" ]]; then
        echo "$bench did not build despite Google Benchmark" >&2
        exit 1
      fi
    done
  else
    echo "note: benchmark targets absent (Google Benchmark missing)"
  fi
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS"
}

if [[ "${SKIP_LINT:-0}" != "1" ]]; then
  echo "=== ci leg: lint ==="
  scripts/lint.sh
fi

run_leg Debug "${DEBUG_BUILD_DIR:-build-debug}"
run_leg Release "${BUILD_DIR:-build}"
if [[ "${SKIP_SANITIZE:-0}" != "1" ]]; then
  run_leg Debug "${SANITIZE_BUILD_DIR:-build-asan}" \
    -DSNNMAP_SANITIZE=address,undefined \
    -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS
fi

# Dedicated block rather than run_leg: benches and examples are off here
# (TSan rebuild cost buys no coverage there), which would trip run_leg's
# bench-binary assertion.
if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  tsan_dir="${TSAN_BUILD_DIR:-build-tsan}"
  echo "=== ci leg: Debug (${tsan_dir}) -DSNNMAP_SANITIZE=thread ==="
  cmake -B "$tsan_dir" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DSNNMAP_WERROR=ON \
    -DSNNMAP_SANITIZE=thread \
    -DSNNMAP_BUILD_BENCH=OFF \
    -DSNNMAP_BUILD_EXAMPLES=OFF
  cmake --build "$tsan_dir" -j "$JOBS"
  # The concurrency surface: the pool itself (parallel_for and map), one
  # CostModel scored from several workers and NoC batches on the pool,
  # the PSO suite (particles are stepped and repaired on worker threads),
  # the determinism suites that run serial vs parallel back to back, and
  # the DVFS and fault tests that map co-sim and NoC runs onto a pool.
  # --no-tests=error so a filter typo (or a suite rename) fails loudly
  # instead of green-skipping the leg.
  tsan_tests='^util\.ThreadPool|^core\.Determinism|^core\.Batch|^core\.Pso'
  tsan_tests+='|^cosim\.CoSimDvfs\.BatchDvfsSweep'
  tsan_tests+='|^noc\.NocSimulatorFaults\.MaxCyclesHaltMidFlight'
  ctest --test-dir "$tsan_dir" --output-on-failure -j "$JOBS" \
    --no-tests=error -R "$tsan_tests"
fi

# perfbench/ builds the library from src/ with its own build file, so an
# API change there could break the benchmark harness unseen by the legs
# above.  The harness exits nonzero on any failed operation: a flow that
# throws, PSO worse than PACMAN, or a traced/untraced parity mismatch.
# Each workload drives a different path: the partitioners (paper-flow),
# the one-shot NoC run (noc-mesh) and the closed loop (cosim-lockstep).
echo "=== ci leg: perfbench (${PERFBENCH_BUILD_DIR:-build-perfbench}) ==="
for workload in paper-flow noc-mesh cosim-lockstep; do
  CARGO_TARGET_DIR="${PERFBENCH_BUILD_DIR:-build-perfbench}" \
    python3 perfbench/run.py --workload "$workload" --seconds 1 --trace 1
done
