#!/usr/bin/env python3
"""Summarize or compare perfbench results.

    python3 perfbench/compare.py A.log            # medians and spreads
    python3 perfbench/compare.py A.log B.log      # A against B

A log is the concatenated stdout of perfbench/run.py runs.  Each result is
paired with the context line the harness prints before it (compiler, build
type, nproc, PSO threads, seeds, run length).  Results are grouped by
workload and trace mode; within a group, every metric gets its median and
its spread, the distance between the first and third quartile as a share
of the median.  Two logs are compared only when their contexts agree in
everything but the seed and the stimuli it selected, and when each group
ran the same set of seeds on both sides; otherwise the script refuses with
exit code 2.
"""

import json
import statistics
import sys
from collections import defaultdict

SEED_KEYS = ("seed", "stimuli")


def load(path):
    """Returns {(workload, trace): [(context, result), ...]}."""
    groups = defaultdict(list)
    context = None
    with open(path, encoding="utf-8") as log:
        for line in log:
            line = line.strip()
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if "context" in record:
                context = record["context"]
            elif "metrics" in record and context is not None:
                trace = "per_layer" if "e2e_s" not in record["metrics"] \
                    else "end_to_end"
                groups[(context["workload"], trace)].append((context, record))
                context = None
    return groups


def fixed_context(context):
    return {k: v for k, v in context.items() if k not in SEED_KEYS}


def check_contexts(groups, path):
    for key, runs in groups.items():
        first = fixed_context(runs[0][0])
        for context, _ in runs[1:]:
            if fixed_context(context) != first:
                sys.exit(f"{path}: {key} mixes contexts {first} and "
                         f"{fixed_context(context)}; refusing")


def summarize(runs):
    """Returns {metric: (median, spread, unit)} plus failure counts."""
    values = defaultdict(list)
    units = {}
    for _, result in runs:
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
            units[name] = metric["unit"]
    table = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        spread = float("nan")
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med)
        table[name] = (med, spread, units[name])
    attempted = sum(r["attempted"] for _, r in runs)
    failed = sum(r["failed"] for _, r in runs)
    return table, attempted, failed


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    logs = [load(path) for path in sys.argv[1:]]
    for path, groups in zip(sys.argv[1:], logs):
        check_contexts(groups, path)
    if len(logs) == 2:
        a, b = logs
        if set(a) != set(b):
            sys.exit("the logs ran different workloads; refusing")
        for key in a:
            ctx_a, ctx_b = a[key][0][0], b[key][0][0]
            if fixed_context(ctx_a) != fixed_context(ctx_b):
                sys.exit(f"{key}: contexts differ: {fixed_context(ctx_a)} vs "
                         f"{fixed_context(ctx_b)}; refusing")
            seeds_a = sorted((c["seed"], c["stimuli"]) for c, _ in a[key])
            seeds_b = sorted((c["seed"], c["stimuli"]) for c, _ in b[key])
            if seeds_a != seeds_b:
                sys.exit(f"{key}: seeds differ: {seeds_a} vs {seeds_b}; "
                         "refusing")

    for key in sorted(logs[0]):
        print(f"== {key[0]} ({key[1]}), {len(logs[0][key])} runs")
        tables = [summarize(groups[key]) for groups in logs]
        for table, attempted, failed in tables:
            print(f"   attempted {attempted}, failed {failed}")
        for name, (med, spread, unit) in tables[0][0].items():
            line = f"   {name:28s} {med:14.6g} {unit:7s} spread {spread:.4f}"
            if len(tables) == 2:
                med_b, spread_b, _ = tables[1][0][name]
                change = (med_b - med) / abs(med) * 100 if med else 0.0
                line += (f" | {med_b:14.6g} spread {spread_b:.4f}"
                         f" change {change:+.2f}%")
            print(line)


if __name__ == "__main__":
    main()
