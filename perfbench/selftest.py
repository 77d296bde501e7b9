#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-SF run of every workload, untraced and
traced, asserting that every named metric is printed with its unit and that
the correctness checks ran and passed.

    python3 perfbench/selftest.py

Takes about a minute after the first build. Exits non-zero on the first
failed assertion.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The report lines each workload prints besides the JSON metrics, under the
# names later changes cite.
REPORT_LINES = {
    "tpch22": {"setup_s": "s", "peak_rss_mb": "MB", "failed_share": "fraction",
               "first_estimate_ms": "ms", "final_ms": "ms", "exact_ms": "ms",
               "error_auc_pct": "%", "first_speedup": "x",
               "final_slowdown": "x", "first_estimate_cpu_ms": "ms",
               "exact_cpu_ms": "ms"},
    "served": {"setup_s": "s", "peak_rss_mb": "MB", "failed_share": "fraction",
               "served_latency_ms.p50": "ms", "served_latency_ms.p99": "ms",
               "served_first_ms.p50": "ms", "served_max_qps": "1/s",
               "load.lateness_ms.p99": "ms"},
    "live": {"setup_s": "s", "peak_rss_mb": "MB", "failed_share": "fraction",
             "fresh_lag_ms.p50": "ms", "fresh_lag_ms.p99": "ms",
             "append_ms.p99": "ms", "live_query_first_ms.p50": "ms",
             "load.lateness_ms.p99": "ms"},
}
# Percentiles and medians must name their sample count.
SAMPLED = re.compile(r"(\.p\d+|_ms)$")


def fail(msg):
    sys.exit("selftest: FAIL: " + msg)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "3", "--trace", str(trace),
           "--tiny"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if done.returncode != 0:
        fail("%s trace=%d exited %d" % (workload, trace, done.returncode))
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_json(workload, trace, result, expected):
    where = "%s trace=%d" % (workload, trace)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(where + ": result keys " + str(sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        fail(where + ": results were not all correct")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(where + ": nothing attempted")
    metrics = result["metrics"]
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        fail(where + ": metric names differ from BENCHMARK.json: %s" %
             sorted(set(metrics) ^ set(names)))
    for m in expected:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"]:
            fail(where + ": %s unit %r, want %r" %
                 (m["name"], got["unit"], m["unit"]))
        if not isinstance(got["value"], (int, float)):
            fail(where + ": %s is not a number" % m["name"])
        if trace == 0 and not got["value"] > 0:
            fail(where + ": end-to-end metric %s is not positive" % m["name"])


def check_report(workload, lines):
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith("#"):
            printed[parts[0]] = (parts[2], line)
    for name, unit in REPORT_LINES[workload].items():
        if name not in printed:
            fail("%s: no report line for %s" % (workload, name))
        if printed[name][0] != unit:
            fail("%s: %s printed with unit %r, want %r" %
                 (workload, name, printed[name][0], unit))
        if SAMPLED.search(name) and " n=" not in printed[name][1]:
            fail("%s: %s has no sample count" % (workload, name))
    if not any(l.startswith("# checks") and "ran=yes" in l for l in lines):
        fail("%s: correctness checks did not run" % workload)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        lines, result = run(name, 0)
        check_json(name, 0, result, bench["end_to_end"])
        check_report(name, lines)
        _, traced = run(name, 1)
        check_json(name, 1, traced, bench["per_layer"])
        print("selftest: %s ok (%d checked results)" %
              (name, result["attempted"]))
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
