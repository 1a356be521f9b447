#!/usr/bin/env python3
"""Self-tests for snnmap-lint: every rule must fire on its seeded-violation
fixture (exact line accounting, so a silently dead rule fails here) and stay
quiet on the clean fixture that exercises every waiver/gating shape.

Run directly or via CTest (`lint.selftest`).  Exit 0 on success.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
LINT = HERE / "snnmap_lint.py"
CASES = HERE / "tests" / "cases"

# case directory -> (rules to run, expected exit, expected finding anchors).
# Anchors are "path:line" prefixes that must each appear exactly once; the
# total finding count must equal the anchor count.
EXPECTATIONS = {
    "clean": (None, 0, []),
    "nondeterminism_bad": (["nondeterminism"], 1, [
        "src/bad.cpp:3",    # include <random>
        "src/bad.cpp:4",    # include <chrono>
        "src/bad.cpp:9",    # random_device
        "src/bad.cpp:10",   # mt19937
        "src/bad.cpp:11",   # uniform_int_distribution
        "src/bad.cpp:16",   # steady_clock
        "src/bad.cpp:21",   # srand
        "src/bad.cpp:22",   # bare waiver without justification
        "src/bad.cpp:23",   # rand() (the bare waiver must not silence it)
        "src/bad.cpp:26",   # getenv
    ]),
    "unordered_bad": (["unordered-iteration"], 1, [
        "src/bad.cpp:8",    # unordered_set declaration
        "src/bad.cpp:9",    # unordered_map declaration
        "src/bad.cpp:11",   # range-for over unordered_set
        "src/bad.cpp:14",   # iterator walk via .begin()
    ]),
    "hoisted_bad": (["hoisted-gate"], 1, [
        "src/bad.cpp:7",    # record gated on the wrong flag
        "src/bad.cpp:9",    # ungated fault-mask consult
    ]),
    "hoisted_good": (["hoisted-gate"], 0, []),
    "ci_sync_bad": (["ci-bench-sync"], 1, [
        "bench/CMakeLists.txt:4",  # beta_benchmarks never asserted
        "scripts/ci.sh:1",         # phantom_benchmarks has no target
    ]),
    "config_bad": (["config-key-coverage"], 1, [
        "src/core/config_io.cpp:8",   # noc.read_only never written back
        "src/core/config_io.cpp:13",  # noc.write_only never read back
        "src/core/config_io.cpp:8",   # noc.read_only missing from test
        "src/core/config_io.cpp:13",  # noc.write_only missing from test
        "src/hw/energy_model.cpp:11",  # energy.uncovered_pj not in test
        "tests/core/config_io_test.cpp:1",  # stale noc.renamed_away
    ]),
    "config_template_read": (["config-key-coverage"], 1, [
        "src/core/config_io.cpp:12",  # uint_or<...> read, never written
    ]),
}


def run_case(case, rules):
    cmd = [sys.executable, str(LINT), "--repo", str(CASES / case)]
    for rule in rules or []:
        cmd += ["--rule", rule]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    findings = [line for line in proc.stdout.splitlines() if line.strip()]
    return proc.returncode, findings


def untracked_fixture_files():
    """Files and directories under tests/cases/ that git does not track
    (a directory counts when no tracked file lies beneath it), or None when
    the tree is not a git checkout.  A fixture must be exactly what a fresh
    clone sees: git drops empty directories and ignored files, so a case
    relying on either passes locally and fails on a clean checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", str(HERE), *args],
                              capture_output=True, text=True)
    try:
        if git("rev-parse", "--is-inside-work-tree").returncode != 0:
            return None
        listed = git("ls-files", "--full-name", "--", str(CASES))
    except OSError:  # no git binary
        return None
    top = pathlib.Path(git("rev-parse", "--show-toplevel").stdout.strip())
    tracked = {(top / line).resolve() for line in listed.stdout.splitlines()}
    tracked |= {d for path in tracked for d in path.parents}
    on_disk = (p.resolve() for p in CASES.rglob("*"))
    return sorted(str(p.relative_to(CASES.resolve())) for p in on_disk
                  if p not in tracked)


def main():
    failures = []
    untracked = untracked_fixture_files()
    if untracked is None:
        print("notice: not a git checkout; fixture tracking check skipped")
    elif untracked:
        failures.append("fixture paths not tracked by git (a fresh clone "
                        "would not see them):\n  " + "\n  ".join(untracked))
    for case, (rules, want_exit, anchors) in sorted(EXPECTATIONS.items()):
        code, findings = run_case(case, rules)
        if code != want_exit:
            failures.append(
                f"{case}: exit {code}, expected {want_exit}; findings:\n  "
                + "\n  ".join(findings))
            continue
        if len(findings) != len(anchors):
            failures.append(
                f"{case}: {len(findings)} findings, expected "
                f"{len(anchors)}:\n  " + "\n  ".join(findings))
            continue
        remaining = list(findings)
        for anchor in anchors:
            hit = next((f for f in remaining if anchor + ":" in f), None)
            if hit is None:
                failures.append(f"{case}: no finding at {anchor}; got:\n  "
                                + "\n  ".join(findings))
                break
            remaining.remove(hit)
        print(f"ok: {case} ({len(anchors)} expected finding(s))")
    if failures:
        print("\nFAIL", file=sys.stderr)
        for failure in failures:
            print(failure, file=sys.stderr)
        return 1
    print("snnmap-lint self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
