#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds perfbench like run.py does, then checks: the percentile helper and
the seed digests (perfbench --self-test); that the binary's metric and
workload tables match BENCHMARK.json name for name and unit for unit; that
a short real run prints every metric of BENCHMARK.json with its unit, traced
and untraced; that --setup-only prints one set-up time; and that bad
arguments exit nonzero without a result.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
BINARY = run.build()


def perfbench(*args):
    return subprocess.run([BINARY, *args], cwd=run.ROOT, capture_output=True,
                          text=True, timeout=170)


class PerfbenchTest(unittest.TestCase):
    def test_self_test(self):
        done = perfbench("--self-test")
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)

    def test_tables_match_benchmark_json(self):
        listed = {"workload": {}, "end_to_end": {}, "per_layer": {}}
        for line in perfbench("--list-metrics").stdout.splitlines():
            kind, name, *unit = line.split()
            listed[kind][name] = unit[0] if unit else None
        # serve_churn runs by hand but is not in BENCHMARK.json (README).
        self.assertEqual(set(listed["workload"]),
                         {w["name"] for w in BENCH["workloads"]} |
                         {"serve_churn"})
        self.assertEqual(set(run.WORKLOADS), set(listed["workload"]))
        for kind in ("end_to_end", "per_layer"):
            self.assertEqual(listed[kind],
                             {m["name"]: m["unit"] for m in BENCH[kind]})
        names = [w["name"] for w in BENCH["workloads"]] + [
            m["name"] for kind in ("end_to_end", "per_layer")
            for m in BENCH[kind]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_run_prints_every_metric_with_its_unit(self):
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            done = perfbench("--workload", "serve_churn", "--seed", "3",
                             "--seconds", "0.5", "--trace", trace,
                             "--work-dir",
                             os.path.join(run.build_dir(), "test-work"))
            self.assertEqual(done.returncode, 0, done.stderr)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            self.assertEqual(
                {k: v["unit"] for k, v in result["metrics"].items()},
                {m["name"]: m["unit"] for m in BENCH[kind]})
            for line in done.stdout.splitlines():
                if line.startswith("metric ") and "failed_frac" not in line:
                    name, unit = line.split()[1], line.split()[-1]
                    self.assertEqual(unit, result["metrics"][name]["unit"])

    def test_setup_only_prints_one_time(self):
        done = perfbench("--setup-only", "--workload", "serve_churn",
                         "--seed", "3", "--work-dir",
                         os.path.join(run.build_dir(), "test-work"))
        self.assertEqual(done.returncode, 0, done.stderr)
        name, value = done.stdout.split()
        self.assertEqual(name, "setup_s")
        self.assertGreater(float(value), 0)

    def test_bad_arguments_fail_without_result(self):
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1",
                      "--trace", "0"],
                     ["--workload", "bulk2d", "--seed", "1", "--seconds",
                      "0", "--trace", "0"],
                     ["--workload", "bulk2d", "--trace", "2"]):
            done = perfbench(*args)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn("\"metrics\"", done.stdout)


if __name__ == "__main__":
    unittest.main()
