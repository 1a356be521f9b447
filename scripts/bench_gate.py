#!/usr/bin/env python3
"""Exact check of the kernel suites' work counters against BENCH_*.json.

Runs each Google Benchmark suite once, briefly, and compares every work
counter of every leg with the committed record.

    scripts/bench_gate.py [--record] [--committed-dir DIR] SUITE...

SUITE is a suite binary.  Its record is BENCH_<prefix>.json, the prefix
being the binary's name up to its first underscore (noc_sim_benchmarks ->
BENCH_noc.json), and maps each leg name to its counters.

Counters are every numeric field of a leg except Google Benchmark's run
fields (iterations, times, indices) and rates (items_per_second and
`*_per_sec`).  They are deterministic work counts (router traversals,
spikes, copies delivered, footprint bytes, ...) that depend on neither the
build type nor the iteration count, so one short run reproduces them
exactly.  The rates are wall-clock: the suites print them on the console,
and nothing records or gates them.

--record rewrites the records from this run.  Without it, the gate exits 1
naming suite, leg and counter when a value changed, a recorded leg or
counter is missing from the run, or a suite has no record.  Legs and
counters new in the run pass until they are recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Numeric fields Google Benchmark writes into every leg; they describe the
# run, not the work.
RUN_FIELDS = frozenset({
    "family_index", "per_family_instance_index", "repetitions",
    "repetition_index", "threads", "iterations", "real_time", "cpu_time",
})


def is_rate(key: str) -> bool:
    return key == "items_per_second" or key.endswith("_per_sec")


def run_suite(binary: str) -> dict[str, dict[str, float]] | None:
    """Leg name -> counters of one short run, or None if the suite failed."""
    proc = subprocess.run(
        [binary, "--benchmark_min_time=0.001", "--benchmark_format=json"],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None
    return {leg["name"]: {key: value for key, value in leg.items()
                          if key not in RUN_FIELDS and not is_rate(key)
                          and isinstance(value, (int, float))
                          and not isinstance(value, bool)}
            for leg in json.loads(proc.stdout)["benchmarks"]}


def compare(suite: str, recorded: dict[str, dict[str, float]],
            fresh: dict[str, dict[str, float]]) -> list[str]:
    failures = []
    for leg, counters in sorted(recorded.items()):
        if leg not in fresh:
            failures.append(f"{suite}: {leg}: missing from the run")
            continue
        for counter, value in sorted(counters.items()):
            if counter not in fresh[leg]:
                failures.append(f"{suite}: {leg}: {counter} missing from "
                                f"the run")
            elif fresh[leg][counter] != value:
                failures.append(f"{suite}: {leg}: {counter} changed "
                                f"{value:.17g} -> {fresh[leg][counter]:.17g}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("suites", nargs="+", metavar="SUITE",
                        help="Google Benchmark suite binary")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the records from this run")
    parser.add_argument("--committed-dir", default=REPO,
                        help="directory holding the BENCH_*.json records "
                             "(default: the repository root)")
    args = parser.parse_args()

    failures: list[str] = []
    for binary in args.suites:
        suite = os.path.basename(binary)
        path = os.path.join(args.committed_dir,
                            f"BENCH_{suite.split('_', 1)[0]}.json")
        fresh = run_suite(binary)
        if fresh is None:
            failures.append(f"{suite}: the suite failed")
            continue
        counted = sum(len(counters) for counters in fresh.values())
        if args.record:
            with open(path, "w", encoding="utf-8") as f:
                json.dump(fresh, f, indent=2, sort_keys=True)
                f.write("\n")
            print(f"wrote {path}: {len(fresh)} legs, {counted} counters")
        elif not os.path.exists(path):
            failures.append(f"{suite}: no record {path}")
        else:
            with open(path, "r", encoding="utf-8") as f:
                failures.extend(compare(suite, json.load(f), fresh))
            print(f"{suite}: {len(fresh)} legs, {counted} counters run")

    if failures:
        print(f"\nbench gate FAILED ({len(failures)}):", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    if not args.record:
        print(f"bench gate passed ({len(args.suites)} suites)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
