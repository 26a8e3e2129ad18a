#!/usr/bin/env python3
"""End-to-end round trip through the `karl` command-line tool.

Runs generate -> build -> query -> tune in a scratch directory and
checks the contracts the subcommands promise:

  * `build` writes a snapshot and verifies it (sampled exact aggregates
    of the mapped file are bit-identical to the built engine's);
  * `query` output is byte-identical serially and with --threads 2, for
    both --tau and --eps;
  * `tune` loads the snapshot and recommends a configuration;
  * `query` on a file that is not a snapshot exits 1 and names the file.

Usage:
  karl_cli_roundtrip.py --karl PATH/TO/karl

Exit status: 0 pass, 1 a check failed, 2 usage.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile


def run(karl: str, *args: str, expect: int = 0) -> subprocess.CompletedProcess:
    proc = subprocess.run([karl, *args], capture_output=True, text=True)
    if proc.returncode != expect:
        raise AssertionError(
            f"karl {' '.join(args)} exited {proc.returncode}, expected "
            f"{expect}\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")
    return proc


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def roundtrip(karl: str, work: str) -> None:
    data = os.path.join(work, "data.csv")
    queries = os.path.join(work, "queries.csv")
    model = os.path.join(work, "model.snap")
    run(karl, "generate", "--dataset", "home", "--n", "2000", "--out", data)
    with open(data) as f:
        rows = f.readlines()
    with open(queries, "w") as f:
        f.writelines(rows[::100])  # 20 query rows drawn from the data.

    built = run(karl, "build", "--data", data, "--out", model)
    check("verify: " in built.stdout and "bit-identical" in built.stdout,
          f"build did not verify the snapshot:\n{built.stdout}")
    with open(model, "rb") as f:
        check(f.read(4) == b"KSNP", "build did not write a KSNP snapshot")
    leftovers = [n for n in os.listdir(work) if ".tmp" in n]
    check(not leftovers, f"build left temporary files: {leftovers}")

    # --eps first: its values pick a τ that splits the query set.
    approx = run(karl, "query", "--model", model, "--queries", queries,
                 "--eps", "0.1").stdout
    approx_threads = run(karl, "query", "--model", model, "--queries",
                         queries, "--eps", "0.1", "--threads", "2").stdout
    check(approx == approx_threads,
          "query --eps differs between serial and --threads 2")
    values = sorted(float(line.split("\t")[1])
                    for line in approx.splitlines())
    check(len(values) == 20, f"expected 20 answers, got {len(values)}")
    tau = repr(values[len(values) // 2])
    above = run(karl, "query", "--model", model, "--queries", queries,
                "--tau", tau).stdout
    above_threads = run(karl, "query", "--model", model, "--queries",
                        queries, "--tau", tau, "--threads", "2").stdout
    check(above == above_threads,
          "query --tau differs between serial and --threads 2")
    check("above" in above and "below" in above,
          f"τ={tau} should split the queries:\n{above}")

    tuned = run(karl, "tune", "--model", model, "--queries", queries,
                "--eps", "0.2").stdout
    check("recommended: " in tuned, f"tune gave no recommendation:\n{tuned}")

    # A file that is not a snapshot fails closed, naming the path.
    failed = run(karl, "query", "--model", data, "--queries", queries,
                 "--eps", "0.1", expect=1)
    check(data in failed.stderr,
          f"error does not name {data}:\n{failed.stderr}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--karl", required=True, help="path to karl binary")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="karl_cli_roundtrip_") as work:
        try:
            roundtrip(args.karl, work)
        except AssertionError as err:
            print(f"karl_cli_roundtrip: FAIL: {err}", file=sys.stderr)
            return 1
    print("karl_cli_roundtrip: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
