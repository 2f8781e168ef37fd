#!/usr/bin/env python3
"""Runs one workload once per seed and reports each metric's run-to-run spread.

    python3 perfbench/steadiness.py --workload cold_batch --seeds 1,2,3,4,5 [--trace 1]

Spread is the interquartile range of the per-run values (statistics.quantiles, n=4) as a
share of their median. For end-to-end metrics it is compared with the bound in
BENCHMARK.json: a steady benchmark keeps every spread below a third of its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds.split(","):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", seed,
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %s: run failed (exit %d)" % (seed, proc.returncode))
            return 1
        for line in lines[:-1]:
            print("seed %s: %s" % (seed, line))
        result = json.loads(lines[-1])
        print("seed %s: correct=%s attempted=%d failed=%d" %
              (seed, result["correct"], result["attempted"], result["failed"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        sys.stdout.flush()

    steady = True
    print("%-32s %14s %8s %8s %s" % ("metric", "median", "spread", "bound", "values"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None and name != "setup_s" and spread >= bound / 3:
            mark = "  <-- above a third of its bound"
            steady = False
        print("%-32s %14.6g %8.4f %8s %s%s" % (name, med, spread,
                                              "" if bound is None else bound,
                                              " ".join("%.4g" % v for v in vals), mark))
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
