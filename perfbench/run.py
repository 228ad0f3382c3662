#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload mem_serial --seed 1 --seconds 10 --trace 0

Configures perfbench/ (which compiles the simulator sources of the
parent tree) into .bench_build/perfbench, builds it, then runs the
`perfbench` program with the same arguments. Its last output
line is the JSON result. A failed build exits non-zero without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            return False
    return True


def main():
    if not build():
        return 1
    binary = os.path.join(BUILD, "perfbench")
    reference = os.path.join(os.path.relpath(HERE), "reference.txt")
    # The provenance line asks git for the sha; keep git from searching
    # directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    proc = subprocess.run([binary, "--reference", reference] + sys.argv[1:],
                          env=env)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
