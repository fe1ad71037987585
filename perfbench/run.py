#!/usr/bin/env python3
"""Builds the benchmark driver from source, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fit_inmem --seed 1 --seconds 12 \
        --trace 0 --ladder ... --light ... --heavy ... --p99_limit_us ...

BENCHMARK.json holds the full command with the frozen load settings. The
driver is compiled into .bench_build/perfbench (CMake, Release) on every
call; an up-to-date build costs about a second. Build output goes to
stderr, so the driver's JSON result stays the last line of stdout. All
arguments are passed through to the driver; its exit code is returned.
"""

import os
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: library sources not found next to perfbench/\n")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench_driver", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            return False
    return True


def main():
    if not build():
        return 1
    # fit_spill's SpillPool file grows to 128 MiB; a lower limit kills the
    # driver with SIGXFSZ, so say which limit the run had.
    limit, _ = resource.getrlimit(resource.RLIMIT_FSIZE)
    sys.stderr.write("perfbench: file size limit %s\n" % (
        "none" if limit == resource.RLIM_INFINITY else "%d bytes" % limit))
    scratch = os.path.join(ROOT, ".bench_build", "scratch")
    os.makedirs(scratch, exist_ok=True)
    args = [DRIVER, "--scratch_dir", scratch] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
