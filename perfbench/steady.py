#!/usr/bin/env python3
"""Steadiness tool: run one workload k times, print medians and quartiles.

Runs the end-to-end (--trace 0) metrics.

    python3 perfbench/steady.py --workload serve-short --runs 10
    python3 perfbench/steady.py --workload serve-short --runs 10 \
        --seed0 100 --save a.json
    python3 perfbench/steady.py --workload serve-short --runs 10 \
        --seed0 100 --compare a.json

Each run calls perfbench/run.py with seed seed0, seed0+1, ... (or the
same seed every time with --same-seed, which also requires identical
sim_digest values). For every metric it prints the median, the first
and third quartile (statistics.quantiles(n=4)) and the spread
(q3 - q1) / median beside the metric's bound from BENCHMARK.json;
"steady" means spread < bound / 3; a spread above the bound fails.
--compare reads a --save file of an
earlier set and checks that no median got worse by more than its bound.
Exits 1 when a run fails or a check does not hold.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=seconds + 900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run with seed {seed} exited {proc.returncode}")
    digest = next((ln.split()[-1] for ln in lines
                   if ln.startswith("# sim_digest")), None)
    return json.loads(lines[-1]), digest


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--save", help="write the raw values to this file")
    ap.add_argument("--compare", help="--save file of an earlier set")
    args = ap.parse_args()
    if args.runs < 4:
        ap.error("--runs must be at least 4 for quartiles")

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    values, digests = {}, []
    for i in range(args.runs):
        seed = args.seed0 if args.same_seed else args.seed0 + i
        result, digest = run_once(args.workload, seed, args.seconds)
        digests.append((seed, digest))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"# run {i + 1}/{args.runs} seed={seed} digest={digest} "
              f"attempted={result['attempted']}", flush=True)

    ok = True
    if args.same_seed and len({d for _, d in digests}) != 1:
        print("FAIL: sim_digest differs between runs of one seed")
        ok = False

    earlier = {}
    if args.compare:
        earlier = json.loads(Path(args.compare).read_text())["values"]
    print(f"{'metric':28} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else 0.0
        verdict = ""
        b = bounds.get(name)
        if b:
            if name != "setup_s":
                verdict = ("steady" if spread < b["bound"] / 3 else
                           "within bound" if spread <= b["bound"] else
                           "OVER BOUND")
                ok = ok and spread <= b["bound"]
            if name in earlier:
                before = statistics.median(earlier[name])
                worse = ((med - before) / before if b["better"] == "lower"
                         else (before - med) / before)
                agree = worse <= b["bound"]
                verdict += f" vs earlier {worse:+.3f}" + \
                    ("" if agree else " WORSE")
                ok = ok and agree
        print(f"{name:28} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f} {b['bound'] if b else '':>6}  {verdict}")

    if args.save:
        Path(args.save).write_text(json.dumps(
            {"workload": args.workload, "digests": digests,
             "values": values}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
