#!/usr/bin/env python3
"""Self-tests for scripts/bench_gate.py.

Each case builds stand-in suite binaries that print Google Benchmark JSON
made from the records under scripts/tests/committed/ (plus rate and run
fields), doctors one value, and checks the gate's verdict: exit 0 passes,
exit 1 fails naming suite, leg and counter.

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
SUITES = {"BENCH_noc.json": "noc_sim_benchmarks",
          "BENCH_snn.json": "snn_sim_benchmarks",
          "BENCH_cosim.json": "cosim_benchmarks"}


def benchmark_json(record: dict) -> dict:
    """What a suite run prints: every recorded counter of each leg plus the
    run fields and rates Google Benchmark adds."""
    return {"context": {"num_cpus": 4},
            "benchmarks": [{"name": leg, "run_name": leg,
                            "run_type": "iteration", "repetitions": 1,
                            "repetition_index": 0, "threads": 1,
                            "iterations": 50, "real_time": 1000.0,
                            "cpu_time": 990.0, "time_unit": "ns",
                            "items_per_second": 3.0e5,
                            "cycles_per_sec": 8.0e4, **counters}
                           for leg, counters in record.items()]}


class BenchGateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = pathlib.Path(tempfile.mkdtemp(prefix="bench-gate-test."))

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def suite(self, base: str, edit=None, status: int = 0) -> pathlib.Path:
        """A stand-in binary for the suite recorded in `base`, printing
        its committed record with `edit` applied and exiting `status`."""
        doc = benchmark_json(
            json.loads((COMMITTED / base).read_text(encoding="utf-8")))
        if edit is not None:
            edit(doc["benchmarks"])
        out = self.tmp / "bin"
        out.mkdir(exist_ok=True)
        (out / f"{base}.out").write_text(json.dumps(doc), encoding="utf-8")
        binary = out / SUITES[base]
        binary.write_text(
            f"#!{sys.executable}\nimport sys\n"
            f"sys.stdout.write(open({str(out / (base + '.out'))!r}).read())\n"
            f"sys.exit({status})\n", encoding="utf-8")
        binary.chmod(0o755)
        return binary

    def gate(self, *suites: pathlib.Path, committed=COMMITTED, record=False):
        cmd = [sys.executable, str(GATE), "--committed-dir", str(committed),
               *map(str, suites)]
        if record:
            cmd.append("--record")
        return subprocess.run(cmd, capture_output=True, text=True)

    def assertExit(self, proc, code: int) -> None:
        self.assertEqual(proc.returncode, code, proc.stdout + proc.stderr)

    def test_identical_run_passes(self):
        proc = self.gate(*(self.suite(base) for base in SUITES))
        self.assertExit(proc, 0)
        self.assertIn("bench gate passed (3 suites)", proc.stdout)

    def test_changed_counter_fails(self):
        def more(legs):
            legs[0]["packets_offered"] += 1
        proc = self.gate(self.suite("BENCH_cosim.json", more))
        self.assertExit(proc, 1)
        self.assertIn("cosim_benchmarks: BM_CoSim: packets_offered changed "
                      "1234 -> 1235", proc.stderr)

    def test_missing_leg_fails(self):
        def drop(legs):
            legs[:] = [leg for leg in legs if leg["name"] != "BM_Noc/faults"]
        proc = self.gate(self.suite("BENCH_noc.json", drop))
        self.assertExit(proc, 1)
        self.assertIn("noc_sim_benchmarks: BM_Noc/faults: missing from the "
                      "run", proc.stderr)

    def test_missing_leg_without_counters_fails(self):
        def drop(legs):
            legs[:] = [leg for leg in legs if leg["name"] != "BM_CoSim/sweep"]
        proc = self.gate(self.suite("BENCH_cosim.json", drop))
        self.assertExit(proc, 1)
        self.assertIn("BM_CoSim/sweep: missing from the run", proc.stderr)

    def test_missing_counter_fails(self):
        def drop(legs):
            del legs[0]["spikes"]
        proc = self.gate(self.suite("BENCH_snn.json", drop))
        self.assertExit(proc, 1)
        self.assertIn("snn_sim_benchmarks: BM_Snn: spikes missing from the "
                      "run", proc.stderr)

    def test_new_leg_and_counter_pass(self):
        def grow(legs):
            legs[0]["synaptic_events"] = 99.0
            legs.append({**legs[0], "name": "BM_Snn/new", "spikes": 7.0})
        self.assertExit(self.gate(self.suite("BENCH_snn.json", grow)), 0)

    def test_rates_and_run_fields_are_ignored(self):
        def noisy(legs):
            for leg in legs:
                leg["items_per_second"] *= 0.5
                leg["cycles_per_sec"] *= 2.0
                leg["iterations"] = 7
                leg["real_time"] = leg["cpu_time"] = 1.0e9
        self.assertExit(self.gate(self.suite("BENCH_noc.json", noisy)), 0)

    def test_suite_without_record_fails(self):
        empty = self.tmp / "empty"
        empty.mkdir()
        proc = self.gate(self.suite("BENCH_snn.json"), committed=empty)
        self.assertExit(proc, 1)
        self.assertIn("snn_sim_benchmarks: no record", proc.stderr)

    def test_failing_suite_fails(self):
        proc = self.gate(self.suite("BENCH_snn.json", status=3))
        self.assertExit(proc, 1)
        self.assertIn("snn_sim_benchmarks: the suite failed", proc.stderr)

    def test_record_keeps_counters_only(self):
        recorded = self.tmp / "recorded"
        recorded.mkdir()
        suites = [self.suite(base) for base in SUITES]
        self.assertExit(self.gate(*suites, committed=recorded, record=True),
                        0)
        for base in SUITES:
            self.assertEqual(
                json.loads((recorded / base).read_text(encoding="utf-8")),
                json.loads((COMMITTED / base).read_text(encoding="utf-8")))
        self.assertExit(self.gate(*suites, committed=recorded), 0)


if __name__ == "__main__":
    unittest.main()
