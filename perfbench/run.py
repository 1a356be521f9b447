#!/usr/bin/env python3
"""Build and run the snnmap perfbench harness.

Run from the repository root:

    python3 perfbench/run.py --workload paper-flow --seed 42 --seconds 20 --trace 0

The harness and the snnmap library are compiled from source in Release into
$CARGO_TARGET_DIR (default .bench_build), then the harness runs one workload.
Its stdout is passed through; the last line is the JSON result.  Build
output goes to stderr.  The exit code is the harness's, or 1 if the build
fails or the run overruns.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BINARY = "snnmap_perfbench"
RUN_SLACK_S = 100


def build(build_dir: Path) -> Path:
    """Configures (once) and builds the harness; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", BINARY, "-j", jobs],
        stdout=sys.stderr, check=True)
    return build_dir / BINARY


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in [1, 60]")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir.resolve())
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    # The harness overruns --seconds by at most one pass plus set-up.
    limit = args.seconds + RUN_SLACK_S
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=limit)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: run exceeded {limit} s", file=sys.stderr)
            return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
