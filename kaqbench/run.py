#!/usr/bin/env python3
"""Builds the kaqbench binary from source and runs one benchmark invocation.

Run from the root of a checkout:

    python3 kaqbench/run.py --workload kde-home-batch --seed 1 \
        --seconds 20 --trace 0

The KARL library and the benchmark binary are compiled (Release) into
.bench_build/kaqbench/ on first use; later runs only re-check the build.
Scratch files of a run go to .bench_build/run/. All arguments are passed
to the binary (see kaqbench/README.md); its last stdout line is the JSON
result. Build output goes to stderr. Exits non-zero, printing no result,
when the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "kaqbench")
BUILD = os.path.join(ROOT, ".bench_build", "kaqbench")
WORKDIR = os.path.join(ROOT, ".bench_build", "run")
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    steps = []
    # The Makefile exists only after a configure step succeeded.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("kaqbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(BUILD, "kaqbench")


def main():
    binary = build()
    if binary is None:
        return 1
    # The binary runs inside its scratch directory and names it ".", so
    # no path it allocates depends on where the checkout lies: the
    # resident set it reports would otherwise move with the path length.
    os.makedirs(WORKDIR, exist_ok=True)
    command = [binary] + sys.argv[1:] + ["--workdir", "."]
    try:
        return subprocess.run(command, cwd=WORKDIR,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("kaqbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
