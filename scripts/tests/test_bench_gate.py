#!/usr/bin/env python3
"""Self-tests for scripts/bench_gate.py.

Each case copies the committed fixtures under scripts/tests/committed/ into
one or more fresh directories, doctors one value, and checks the gate's exit
code: 0 passes, 1 is a rate regression (worth re-measuring), 2 is a refusal
or a work change (re-measuring cannot help).

Run directly or via CTest (`bench_gate.selftest`).  Exit 0 on success.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
GATE = HERE.parent / "bench_gate.py"
COMMITTED = HERE / "committed"


def doctor(path: pathlib.Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def leg(doc: dict, name: str) -> dict:
    return next(e for e in doc["benchmarks"] if e["name"] == name)


class BenchGateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = pathlib.Path(tempfile.mkdtemp(prefix="bench-gate-test."))

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def fresh(self, attempt: str, edit=None,
              suite: str = "BENCH_noc.json") -> pathlib.Path:
        """A fresh-run directory: the committed fixtures, with `edit`
        applied to `suite`."""
        out = self.tmp / attempt
        shutil.copytree(COMMITTED, out)
        if edit is not None:
            doctor(out / suite, edit)
        return out

    def gate(self, *fresh_dirs: pathlib.Path):
        cmd = [sys.executable, str(GATE), "--committed-dir", str(COMMITTED)]
        for d in fresh_dirs:
            cmd += ["--fresh-dir", str(d)]
        return subprocess.run(cmd, capture_output=True, text=True)

    def assertExit(self, proc, code: int) -> None:
        self.assertEqual(proc.returncode, code, proc.stdout + proc.stderr)

    def test_identical_run_passes(self):
        self.assertExit(self.gate(self.fresh("a")), 0)

    def test_rate_within_tolerance_passes(self):
        def slower(doc):
            leg(doc, "BM_Noc/none")["items_per_second"] *= 0.90
            leg(doc, "BM_Noc/none")["iterations"] = 7  # run field: ignored
        self.assertExit(self.gate(self.fresh("a", slower)), 0)

    def test_rate_30_percent_lower_fails(self):
        def slower(doc):
            leg(doc, "BM_Noc/faults")["cycles_per_sec"] *= 0.70
        proc = self.gate(self.fresh("a", slower))
        self.assertExit(proc, 1)
        self.assertIn("BM_Noc/faults: cycles_per_sec regressed", proc.stderr)

    def test_missing_leg_fails(self):
        def drop(doc):
            doc["benchmarks"] = [e for e in doc["benchmarks"]
                                 if e["name"] != "BM_Noc/faults"]
        proc = self.gate(self.fresh("a", drop))
        self.assertExit(proc, 2)
        self.assertIn("BM_Noc/faults: missing from fresh run", proc.stderr)

    def test_changed_exact_counter_fails(self):
        def more(doc):
            leg(doc, "BM_CoSim")["packets_offered"] += 1
        proc = self.gate(self.fresh("a", more, suite="BENCH_cosim.json"))
        self.assertExit(proc, 2)
        self.assertIn("BM_CoSim: packets_offered changed", proc.stderr)

    def test_exact_counter_checked_in_every_attempt(self):
        def more(doc):
            leg(doc, "BM_Snn")["spikes"] += 1
        proc = self.gate(self.fresh("a"),
                         self.fresh("b", more, suite="BENCH_snn.json"))
        self.assertExit(proc, 2)

    def test_context_mismatch_is_refused(self):
        for key, value in (("num_cpus", 1), ("compiler", "GNU-13.1.0"),
                           ("build_type", "Debug")):
            with self.subTest(key=key):
                def edit(doc):
                    doc["context"][key] = value
                proc = self.gate(self.fresh(key, edit,
                                            suite="BENCH_snn.json"))
                self.assertExit(proc, 2)
                self.assertIn("REFUSED", proc.stderr)
                self.assertIn(key, proc.stderr)
                self.assertIn("re-baseline with scripts/bench.sh",
                              proc.stderr)
                # Refused before any comparison is made.
                self.assertNotIn("of baseline", proc.stdout)

    def test_committed_file_without_context_is_refused(self):
        committed = self.tmp / "committed"
        shutil.copytree(COMMITTED, committed)
        doctor(committed / "BENCH_cosim.json",
               lambda doc: doc["context"].pop("compiler"))
        proc = subprocess.run(
            [sys.executable, str(GATE), "--committed-dir", str(committed),
             "--fresh-dir", str(self.fresh("a"))],
            capture_output=True, text=True)
        self.assertExit(proc, 2)
        self.assertIn("lacks context key(s) compiler", proc.stderr)

    def test_committed_median_row_is_the_baseline(self):
        committed = self.tmp / "committed"
        shutil.copytree(COMMITTED, committed)

        def repeated(doc):
            # Three repetitions of BM_Noc/none plus the aggregate rows
            # --benchmark_repetitions=3 writes; only the median is the
            # baseline (not the first, fastest, slowest or mean window).
            base = leg(doc, "BM_Noc/none")
            rows = []
            for index, rate in enumerate((200000.0, 100000.0, 60000.0)):
                rows.append({**base, "repetitions": 3,
                             "repetition_index": index,
                             "items_per_second": rate})
            for aggregate, rate in (("mean", 120000.0),
                                    ("median", 100000.0),
                                    ("stddev", 70000.0)):
                rows.append({**base, "name": f"BM_Noc/none_{aggregate}",
                             "run_type": "aggregate", "repetitions": 3,
                             "aggregate_name": aggregate,
                             "items_per_second": rate})
            doc["benchmarks"] = rows + [e for e in doc["benchmarks"]
                                        if e["name"] != "BM_Noc/none"]
        doctor(committed / "BENCH_noc.json", repeated)

        def rate(value):
            def edit(doc):
                leg(doc, "BM_Noc/none")["items_per_second"] = value
            return edit

        def gate(fresh):
            return subprocess.run(
                [sys.executable, str(GATE), "--committed-dir",
                 str(committed), "--fresh-dir", str(fresh)],
                capture_output=True, text=True)
        # 90% of the median passes; 80% fails though it beats the slowest
        # repetition.
        self.assertExit(gate(self.fresh("a", rate(90000.0))), 0)
        proc = gate(self.fresh("b", rate(80000.0)))
        self.assertExit(proc, 1)
        self.assertIn("BM_Noc/none: items_per_second regressed",
                      proc.stderr)
        # The median row's exact counters are gated like a single run's.
        def more(doc):
            leg(doc, "BM_Noc/none")["copies_delivered"] += 1
        self.assertExit(gate(self.fresh("c", more)), 2)

    def test_best_of_attempts_merges_per_rate(self):
        def slow_items(doc):
            leg(doc, "BM_Noc/none")["items_per_second"] *= 0.70
        def slow_cycles(doc):
            leg(doc, "BM_Noc/none")["cycles_per_sec"] *= 0.70
        # Each rate has one good attempt: the merge passes.
        self.assertExit(self.gate(self.fresh("a", slow_items),
                                  self.fresh("b", slow_cycles)), 0)
        # items_per_second is slow in both attempts: still a regression.
        proc = self.gate(self.fresh("c", slow_items),
                         self.fresh("d", slow_items))
        self.assertExit(proc, 1)
        self.assertIn("items_per_second regressed", proc.stderr)


if __name__ == "__main__":
    unittest.main()
