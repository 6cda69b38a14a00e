#!/usr/bin/env python3
"""Mission-path benchmark: build, set up, run one workload, report.

    python3 perfbench/run.py --workload sshape-inproc --seed 1 \
        --seconds 20 --trace 0

Builds rose_perfbench (the simulator libraries from src/ plus the
program in perfbench/src) under .bench_build/perfbench, measures the
set-up time in SETUP_RUNS fresh processes, then runs the workload for
--seconds host seconds. Prints rose_perfbench's report (every metric with
unit, sample count and the base of each ratio), then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones and writes a Chrome/Perfetto trace to
.bench_build/trace-<workload>-<seed>.json. Exits 1 on any failed
mission or digest mismatch, 2 on a bad flag.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "rose_perfbench"
WORKLOADS = ("sshape-inproc", "tunnel-tcp-sync2m", "serve-short")
# Set-up is a few milliseconds; its median over several fresh
# processes is what later changes are compared on.
SETUP_RUNS = 9
BUILD_TIMEOUT_S = 840
RUN_SLACK_S = 120


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "rose_perfbench",
         "-j", "4"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def setup_seconds(workload, seed):
    """Set-up time of each of SETUP_RUNS fresh processes."""
    samples = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [str(BINARY), "setup", "--workload", workload,
             "--seed", str(seed)],
            check=True, capture_output=True, text=True, timeout=60)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(BINARY), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        trace = ROOT / ".bench_build" / \
            f"trace-{args.workload}-{args.seed}.json"
        cmd += ["--trace-out", str(trace)]
    try:
        setups = setup_seconds(args.workload, args.seed)
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=args.seconds + RUN_SLACK_S)
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if not lines or run.returncode not in (0, 1):
        print(f"perfbench: rose_perfbench exited {run.returncode}",
              file=sys.stderr)
        return 1
    report = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    setups.append(report["setup_s"])
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in report["metrics"].items()}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups),
                              "unit": "s"}
        print(f"# metric setup_s {metrics['setup_s']['value']!r} s "
              f"n={len(setups)} base: median of {len(setups)} "
              "fresh-process set-ups")
    if args.trace:
        print(f"# trace written to {trace.relative_to(ROOT)}")
    # A metric rose_perfbench could not compute (null) fails the run.
    correct = (bool(report["correct"]) and run.returncode == 0 and
               all(m["value"] is not None for m in metrics.values()))
    print(json.dumps({"correct": correct,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
