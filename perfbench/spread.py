#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as a regression gate sees it.

    python3 perfbench/spread.py --workload tpch22 --seeds 1-10

Runs the benchmark once per seed (untraced, BENCHMARK.json's run_seconds)
and prints, per end-to-end metric, the median and the distance between the
first and third quartile as a share of the median, next to the metric's
bound. Raw results go to .perfbench_build/spread-<workload>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int,
                        help="run length (default: BENCHMARK.json's)")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    results = []
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds or bench["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not result["correct"]:
            sys.exit("spread: seed %d failed" % seed)
        results.append(result)
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())))
    out = os.path.join(ROOT, ".perfbench_build",
                       "spread-%s.json" % args.workload)
    with open(out, "w") as f:
        json.dump(results, f)
    print("%-20s %12s %8s %8s" % ("metric", "median", "spread", "bound"))
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print("%-20s %12.4f %8.3f %8.2f" % (m["name"], median,
                                            (q3 - q1) / median, m["bound"]))


if __name__ == "__main__":
    main()
