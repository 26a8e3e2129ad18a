#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 -m unittest kaqbench/test_kaqbench.py      (about two minutes)

Builds the benchmark binary through run.py if needed, then checks:
  * the binary's own unit checks (kaqbench --self-test);
  * every metric BENCHMARK.json names is emitted, with its unit, by every
    workload in the matching mode, with a correct result;
  * the exact counts of the traced run repeat at a fixed seed and move
    with the seed;
  * bad arguments fail with no result line.
"""

import json
import os
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = ["python3", os.path.join(ROOT, "kaqbench", "run.py")]
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
# kde-home-churn is runnable by name but not one of BENCHMARK.json's
# workloads (see README.md, "Measured spread"); it is tested all the same.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["kde-home-churn"]

# Counts that must repeat exactly at a fixed seed (EvalStats and the
# dynamic engine's rebuild bookkeeping over fixed work).
EXACT_COUNTS = ["core.iterations_per_query", "core.nodes_expanded_per_query",
                "core.kernel_evals_per_query", "dynamic.rebuilds",
                "dynamic.delta_rows_mean", "loadgen.sent"]


def run(workload, seed, trace, seconds=1):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("run failed: %s\n%s" % (proc.returncode,
                                                     proc.stderr[-3000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class KaqbenchTest(unittest.TestCase):

    def test_self_test(self):
        proc = subprocess.run(RUN + ["--self-test"], cwd=ROOT,
                              capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def check_metrics(self, result, metrics):
        self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                          "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in metrics))
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                result = run(workload, 1, 0)
                self.check_metrics(result, SPEC["end_to_end"])
                self.assertEqual(result["metrics"]["ok_ratio"]["value"], 1.0)
            with self.subTest(workload=workload, trace=1):
                self.check_metrics(run(workload, 1, 1), SPEC["per_layer"])

    def test_exact_counts_repeat_at_a_fixed_seed(self):
        for workload in ["kde-home-churn", "svm-a9a-serve"]:
            first = run(workload, 5, 1)["metrics"]
            again = run(workload, 5, 1)["metrics"]
            other = run(workload, 6, 1)["metrics"]
            for name in EXACT_COUNTS:
                with self.subTest(workload=workload, metric=name):
                    self.assertEqual(first[name]["value"], again[name]["value"])
            self.assertNotEqual(first["core.kernel_evals_per_query"]["value"],
                                other["core.kernel_evals_per_query"]["value"])

    def test_bad_arguments_fail_without_a_result(self):
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1",
                      "--trace", "0"],
                     ["--workload", "kde-home-batch", "--seed", "1"],
                     ["--workload", "kde-home-batch", "--seed", "x",
                      "--seconds", "1", "--trace", "0"],
                     ["--workload", "kde-home-batch", "--seed", "1",
                      "--seconds", "1", "--trace", "2"]):
            proc = subprocess.run(RUN + args, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            self.assertNotEqual(proc.returncode, 0, args)
            self.assertNotIn('"correct"', proc.stdout, args)


if __name__ == "__main__":
    unittest.main()
