#!/usr/bin/env python3
"""Build the ESL-EV end-to-end benchmark from source and run it once.

    python3 e2ebench/run.py --workload <dock-dedup|tenant-seq|durable-sharded>
                            --seed <n> --seconds <s> --trace <0|1> [--shards <n>]

Run from the repository root. The first call configures and builds the
library and the e2ebench binary in Release mode under .bench_build/
(build output goes to standard error); later calls only rebuild what
changed. The binary's standard output is passed through, so the last
line is its JSON result. Exits non-zero when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "e2ebench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("e2ebench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    cmd = [os.path.join(BUILD_DIR, "e2ebench")] + sys.argv[1:] + [
        "--workdir", os.path.join(BUILD_ROOT, "work")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode or 0
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
