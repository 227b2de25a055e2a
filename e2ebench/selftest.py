#!/usr/bin/env python3
"""Self-tests of the benchmark.

Runs the command named in BENCHMARK.json, as the benchmark is run, on a
tiny size of every workload, untraced and traced, and checks that

* each run exits 0 and its last line is the JSON result with exactly the
  keys `correct`, `attempted`, `failed` and `metrics`;
* every correctness check passed (`correct`, no failed operations);
* the metric names and units printed equal those in BENCHMARK.json;
* a bad command line exits non-zero without printing a result.

Run from anywhere: python3 e2ebench/selftest.py
"""

import json
import pathlib
import subprocess
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args):
    return subprocess.run(
        SPEC["command"] + list(args),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )


class TinyWorkloads(unittest.TestCase):
    def check(self, workload, trace):
        p = run("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--tiny")
        self.assertEqual(p.returncode, 0, p.stderr)
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(list(result), ["correct", "attempted", "failed", "metrics"])
        self.assertTrue(result["correct"], p.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, {m["name"]: m["unit"] for m in declared})
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload_untraced_and_traced(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)

    def test_bad_command_line_prints_no_result(self):
        p = run("--workload", "no_such_workload", "--seed", "1",
                "--seconds", "1", "--trace", "0")
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
