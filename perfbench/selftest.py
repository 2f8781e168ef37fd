#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py

For each workload it makes a short untraced and a short traced run and asserts that
every metric named in BENCHMARK.json is printed with its unit and that the run is
correct. It then drops one SmallBank reference pair (--corrupt-reference) and asserts
that the run counts failed answers, which shows the correctness check can fail.
Takes about three minutes after the first build.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(bench, workload, trace, extra=()):
    cmd = bench["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                              "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    if proc.returncode != 0:
        raise AssertionError("%s exited with %d" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = run(bench, workload, trace)
            expected = {m["name"]: m["unit"] for m in specs}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != expected:
                failures.append("%s trace=%d: metrics %s, expected %s" %
                                (workload, trace, sorted(printed.items()),
                                 sorted(expected.items())))
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                failures.append("%s trace=%d: run not correct: %s" %
                                (workload, trace, {k: result[k] for k in
                                                   ("correct", "attempted", "failed")}))
        corrupt = run(bench, workload, 0, ["--corrupt-reference"])
        if corrupt["failed"] == 0 or corrupt["correct"]:
            failures.append("%s: a corrupted reference went unnoticed" % workload)
        print("%s: ok" % workload if not failures else "%s: checked" % workload)
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
