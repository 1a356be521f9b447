#!/usr/bin/env python3
"""Runs `snnmap_cli ... --stats-json OUT` and checks the document's shape.

    check_stats_json.py SNNMAP_CLI OUT [CLI ARGS...]

The CLI is run with the given arguments plus `--stats-json OUT`; the
closed-loop document must hold exactly the noc / fidelity / resilience /
trace blocks, and the blocks must agree where they report the same
quantity.  Exit 0 when every check holds.
"""

import json
import subprocess
import sys


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    cli, out, args = argv[1], argv[2], argv[3:]
    subprocess.run([cli, *args, "--stats-json", out], check=True,
                   stdout=subprocess.DEVNULL)
    with open(out) as f:
        doc = json.load(f)

    failures = []

    def check(ok, what):
        if not ok:
            failures.append(what)

    check(sorted(doc) == ["fidelity", "noc", "resilience", "trace"],
          f"top-level keys {sorted(doc)}")
    if not failures:
        noc, fid, trace = doc["noc"], doc["fidelity"], doc["trace"]
        busy, peak = fid["window_busy_cycles"], fid["window_peak_link_flits"]
        check(noc["copies_delivered"] == fid["copies_arrived"],
              f"noc.copies_delivered {noc['copies_delivered']} != "
              f"fidelity.copies_arrived {fid['copies_arrived']}")
        check(noc["copies_delivered"] > 0, "no global traffic was simulated")
        check(busy["count"] == fid["steps"],
              f"window_busy_cycles.count {busy['count']} != "
              f"steps {fid['steps']}")
        check(peak["count"] == fid["steps"],
              f"window_peak_link_flits.count {peak['count']} != "
              f"steps {fid['steps']}")
        check(peak["max"] <= noc["max_link_flits"],
              f"window_peak_link_flits.max {peak['max']} > "
              f"noc.max_link_flits {noc['max_link_flits']}")
        check(busy["sum"] <= noc["duration_cycles"],
              f"window_busy_cycles.sum {busy['sum']} > "
              f"noc.duration_cycles {noc['duration_cycles']}")
        check(sorted(trace) == ["digest", "recorded", "retained"],
              f"trace keys {sorted(trace)}")
        check(trace.get("retained", 0) <= trace.get("recorded", 0),
              "trace.retained > trace.recorded")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"ok: {out} ({fid['steps']} windows, "
          f"{noc['copies_delivered']} copies delivered)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
