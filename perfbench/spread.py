#!/usr/bin/env python3
"""Run perfbench over several seeds and report the spread of each metric.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 \
        [--workloads churn resident smp_cow] [--seconds S] \
        [--save FILE] [--against FILE]

For every workload and end-to-end metric it prints the median, the first
and third quartile (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.  A spread
above the bound (setup_s excepted) is marked "WIDE".  --save writes the
raw values as JSON; --against compares this set's medians with a saved
set's and marks each metric that got worse by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({out.returncode}):\n"
                 f"{out.stdout}{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two seeds")

    values = {}
    for w in args.workloads:
        runs = [run(w, s, args.seconds) for s in args.seeds]
        values[w] = {m: [r[m] for r in runs] for m in runs[0]}
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    before = json.load(open(args.against)) if args.against else {}

    for w in args.workloads:
        print(f"{w} ({len(args.seeds)} seeds, {args.seconds} s each)")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            v = values[w][name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = "WIDE" if spread > bound and name != "setup_s" else ""
            line = (f"  {name:12} median {med:14.6g}  q1 {q1:14.6g}  "
                    f"q3 {q3:14.6g}  spread {spread:6.3f} / {bound} {flag}")
            if w in before:
                old = statistics.median(before[w][name])
                worse = (med - old) / old
                if m["better"] == "higher":
                    worse = -worse
                line += (f"  vs saved {worse:+.3f}"
                         f"{' WORSE' if worse > bound else ''}")
            print(line)


if __name__ == "__main__":
    main()
