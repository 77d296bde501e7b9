#!/usr/bin/env python3
"""Builds the Wake benchmark from the checkout's sources and runs it.

    python3 perfbench/run.py --workload tpch22|served|live --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a checkout: the build goes to
<checkout>/.perfbench_build/cmake (configured once, rebuilt incrementally)
and run outputs (packed data, span files) to <checkout>/.perfbench_build/out.
Build output is shown, on stderr, only when the build fails; stdout is the
benchmark's report, whose last line is the JSON result. Exits non-zero, without a result, when the engine
sources are missing or do not build.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".perfbench_build", "cmake")
OUT = os.path.join(ROOT, ".perfbench_build", "out")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "api", "db.h")):
        sys.exit("perfbench: no Wake sources under %s" % ROOT)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))


def main():
    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--out-dir", OUT] + sys.argv[1:]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
