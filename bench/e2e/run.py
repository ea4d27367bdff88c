#!/usr/bin/env python3
"""Build bench_e2e from this source tree, then run it with the given arguments.

    python3 bench/e2e/run.py --workload vgg16_b1 --seed 1 --seconds 20 --trace 0

The build tree is .bench_build/e2e under the repository root.  Build output
goes to stderr, so the last line of stdout is the benchmark's result line.
The exit code is the build's when it fails, else the benchmark's.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = HERE.parent.parent / ".bench_build" / "e2e"


def run(cmd):
    rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
    if rc != 0:
        print(f"run.py: {' '.join(cmd)} failed with exit code {rc}", file=sys.stderr)
        sys.exit(rc)


def main():
    jobs = str(len(os.sched_getaffinity(0)))
    run(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    run(["cmake", "--build", str(BUILD), "-j", jobs])
    exe = str(BUILD / "bench_e2e")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
