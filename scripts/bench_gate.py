#!/usr/bin/env python3
"""Benchmark regression gate over the committed BENCH_*.json trajectories.

Compares freshly measured Google Benchmark JSON files against the committed
copies and fails when a suite slowed down or its work changed.

    scripts/bench_gate.py --fresh-dir DIR [--fresh-dir DIR2 ...]
                          [--committed-dir DIR]

Build context.  The committed and the fresh files must agree on num_cpus,
build_type and compiler (scripts/bench.sh records the last two).  When the
committed file lacks one of them or a fresh file differs, the gate refuses
at once, names the keys and exits 2: numbers from another build or host say
nothing about this one, so re-baseline with scripts/bench.sh instead.

Gated quantities, per leg (matched by its run name, so every leg is gated
on its own).  scripts/bench.sh records the committed files with three
repetitions per leg, and the gate compares against each leg's `median`
aggregate row, so one fast or slow window cannot set the baseline:

  * rates: items_per_second and every counter ending in `_per_sec`.  A rate
    more than 15% below its committed value fails (exit 1).  Passing
    --fresh-dir more than once merges measurement attempts, keeping the best
    (largest) value per rate: on a shared VM whose effective clock swings
    between runs, a rate only regresses if every attempt is slow.
  * exact counters: every other numeric counter a suite sets (router
    traversals, spikes, footprint bytes, ...).  These are deterministic
    work counts, so each attempt must match the committed value exactly.  A
    change is a semantic change to explain and re-baseline (exit 2).

A leg present in the committed file but missing from a fresh run fails
(exit 2): a dropped leg must not pass as "no regression".  Legs and
counters new in the fresh run pass; they are gated once re-baselined.
Exit 2 marks every failure re-measuring cannot change, so scripts/bench.sh
retries only on exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

SUITE_FILES = ("BENCH_noc.json", "BENCH_snn.json", "BENCH_cosim.json")
CONTEXT_KEYS = ("num_cpus", "build_type", "compiler")
TOLERANCE = 0.15
REGRESSED = 1
REFUSED = 2

# Numeric fields Google Benchmark writes into every entry; they describe the
# run, not the work, so they are neither rates nor exact counters.
RUN_FIELDS = frozenset({
    "family_index", "per_family_instance_index", "repetitions",
    "repetition_index", "threads", "iterations", "real_time", "cpu_time",
})


def load(path: str) -> tuple[dict, dict[str, dict]]:
    """(context, leg name -> entry) of a Google Benchmark JSON file.

    A leg recorded with --benchmark_repetitions has one row per repetition
    plus mean/median/stddev/cv aggregate rows; its median row stands for
    the leg.  A leg run once has a single iteration row.
    """
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    runs, medians = {}, {}
    for entry in doc.get("benchmarks", []):
        name = entry.get("run_name", entry["name"])
        if entry.get("run_type") != "aggregate":
            runs.setdefault(name, entry)
        elif entry.get("aggregate_name") == "median":
            medians[name] = entry
    return doc.get("context", {}), {**runs, **medians}


def is_rate(key: str) -> bool:
    return key == "items_per_second" or key.endswith("_per_sec")


def counters(entry: dict) -> dict[str, float]:
    """Every numeric counter of one entry, rates and exact counters."""
    return {key: float(value) for key, value in entry.items()
            if key not in RUN_FIELDS and isinstance(value, (int, float))
            and not isinstance(value, bool)}


def context_refusals(base: str, committed: dict,
                     fresh: list[tuple[str, dict]]) -> list[str]:
    missing = [key for key in CONTEXT_KEYS if key not in committed]
    if missing:
        return [f"{base}: committed file lacks context key(s) "
                f"{', '.join(missing)}"]
    out = []
    for path, context in fresh:
        differing = [f"{key} {committed[key]!r} -> {context.get(key)!r}"
                     for key in CONTEXT_KEYS
                     if context.get(key) != committed[key]]
        if differing:
            out.append(f"{path}: build context differs: "
                       f"{'; '.join(differing)}")
    return out


def compare(base: str, committed: dict[str, dict],
            fresh: list[dict[str, dict]]) -> tuple[list[str], list[str]]:
    """(rate regressions, exact failures) of one suite over all attempts."""
    regressions: list[str] = []
    exact: list[str] = []
    for name, old_entry in sorted(committed.items()):
        attempts = [counters(doc[name]) for doc in fresh if name in doc]
        if not attempts:
            exact.append(f"{base}: {name}: missing from fresh run")
            continue
        for counter, old_value in sorted(counters(old_entry).items()):
            values = [a[counter] for a in attempts if counter in a]
            if not values:
                exact.append(f"{base}: {name}: counter {counter} missing "
                             f"from fresh run")
            elif not is_rate(counter):
                changed = sorted({v for v in values if v != old_value})
                if changed:
                    exact.append(f"{base}: {name}: {counter} changed "
                                 f"{old_value:.17g} -> {changed[0]:.17g}")
            elif old_value > 0:
                ratio = max(values) / old_value
                verdict = "ok" if ratio >= 1.0 - TOLERANCE else "REGRESSED"
                print(f"{base}: {name}: {counter}: {old_value:.4g} -> "
                      f"{max(values):.4g} ({ratio:.1%} of baseline, "
                      f"{verdict})")
                if verdict != "ok":
                    regressions.append(
                        f"{base}: {name}: {counter} regressed to "
                        f"{ratio:.1%} of baseline")
    return regressions, exact


def report(title: str, lines: list[str]) -> None:
    print(f"\nbench gate {title} ({len(lines)}):", file=sys.stderr)
    for line in lines:
        print(f"  {line}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh-dir", action="append", required=True,
                        help="directory holding freshly measured "
                             "BENCH_*.json files (repeatable: attempts "
                             "merge best-per-rate)")
    parser.add_argument("--committed-dir", default=".",
                        help="directory holding the committed baselines "
                             "(default: the current directory)")
    args = parser.parse_args()

    refusals: list[str] = []
    suites = []
    for base in SUITE_FILES:
        committed_path = os.path.join(args.committed_dir, base)
        fresh_paths = [os.path.join(d, base) for d in args.fresh_dir]
        missing = [p for p in [committed_path] + fresh_paths
                   if not os.path.exists(p)]
        if missing:
            refusals.extend(f"{p}: missing" for p in missing)
            continue
        committed_context, committed = load(committed_path)
        fresh = [(p, *load(p)) for p in fresh_paths]
        refusals.extend(context_refusals(
            base, committed_context, [(p, c) for p, c, _ in fresh]))
        suites.append((base, committed, [entries for _, _, entries in fresh]))
    if refusals:
        report("REFUSED", refusals)
        print("re-baseline with scripts/bench.sh on this host and build",
              file=sys.stderr)
        return REFUSED

    regressions: list[str] = []
    exact: list[str] = []
    for base, committed, fresh in suites:
        r, e = compare(base, committed, fresh)
        regressions.extend(r)
        exact.extend(e)
    if exact:
        report("FAILED: work changed", exact)
    if regressions:
        report(f"FAILED: rates more than {TOLERANCE:.0%} slower", regressions)
    if exact:
        return REFUSED
    if regressions:
        return REGRESSED
    print(f"\nbench gate passed ({len(suites)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
