#!/usr/bin/env python3
"""Check that the benchmark's end-to-end metrics are steady across seeds.

    python3 perfbench/steadiness.py --seeds 1-10 --save first.json
    python3 perfbench/steadiness.py --seeds 11-20 --against first.json

Runs `perfbench/run.py --trace 0` once per workload and seed, then prints,
for every end-to-end metric in BENCHMARK.json, the median of the runs, the
distance between their first and third quartile as a share of the median
(`statistics.quantiles(values, n=4)`), and the metric's bound. A spread
above a third of its bound is marked. `--save` writes the medians to a
file; `--against` compares this set's medians with a saved set's and marks
a metric that got worse by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--save", help="write this set's medians to this file")
    parser.add_argument("--against", help="compare with the medians saved in this file")
    args = parser.parse_args()
    earlier = json.load(open(args.against)) if args.against else {}

    worst = 0.0
    medians = {}
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        failed = 0
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            failed += result["failed"] + (0 if result["correct"] else 1)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            shown = {k: round(v[-1], 4) for k, v in values.items()}
            print(f"{workload} seed {seed}: {shown}", file=sys.stderr, flush=True)
        print(f"{workload}: {len(args.seeds)} runs, {failed} failed")
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            limit = m["bound"] / 3
            worst = max(worst, spread / m["bound"])
            medians[f"{workload}.{m['name']}"] = med
            mark = "" if spread <= limit else "  <-- above bound/3"
            print(f"  {m['name']:<12} median {med:.6g} {m['unit']:<4} spread {spread:.4f}"
                  f" (bound {m['bound']}, third {limit:.4f}){mark}")
            before = earlier.get(f"{workload}.{m['name']}")
            if before:
                worse = (med - before) / before
                if m["better"] == "higher":
                    worse = -worse
                mark = "" if worse <= m["bound"] else "  <-- worse by more than the bound"
                print(f"  {'':<12} median before {before:.6g}, worse by {worse:+.4f}{mark}")
    print(f"largest spread as a share of its bound: {worst:.3f}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1)


if __name__ == "__main__":
    main()
