#!/usr/bin/env python3
"""Check how steady the end-to-end metrics are across seeds.

    python3 perfbench/spread.py --workload serve-open [--runs 10] [--first-seed 1]

Runs the benchmark --runs times on one workload, one seed each, with
the run length from BENCHMARK.json, and prints for each end-to-end
metric the median and the interquartile range as a share of the median
(statistics.quantiles(values, n=4)), next to a third of the metric's
bound.  Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            print(f"seed {seed}: exit {r.returncode}\n{r.stderr[-2000:]}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        for k, m in res["metrics"].items():
            values.setdefault(k, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()),
              flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"\n{'metric':<24} {'median':>12} {'iqr/median':>11} {'bound/3':>8}")
    for k, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        share = (q[2] - q[0]) / med if med else float("nan")
        b3 = bounds.get(k, float("nan")) / 3
        flag = "" if k not in bounds or share <= b3 else "  <-- wide"
        print(f"{k:<24} {med:>12.5g} {share:>11.4f} {b3:>8.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
