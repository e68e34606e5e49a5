#!/usr/bin/env python3
"""Tests of the benchmark itself: the C++ helper self-test, BENCHMARK.json
against the benchmark contract, the result-line parser, and a smoke run of
every workload in both modes.

    python3 perfbench/test_perfbench.py

Builds under .bench_build/perfbench like run.py; takes about a minute
once built.
"""

import json
import os
import re
import subprocess
import sys
import unittest

import run

SPEC_PATH = os.path.join(run.ROOT, "BENCHMARK.json")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# End-to-end metrics that must repeat exactly at a fixed seed.
EXACT_END_TO_END = ("fit_purity", "fit_cost", "route_agreement",
                    "model_bytes")
# Counts that depend on thread scheduling rather than on the inputs.
TIMING_DEPENDENT_COUNTS = {"serving.swaps_observed"}


def load_spec():
    with open(SPEC_PATH) as spec:
        return json.load(spec)


def smoke(workload, trace, seed=3):
    """The parsed result line of a smoke run."""
    out = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=run.ROOT, timeout=300)
    if out.returncode != 0:
        raise AssertionError("smoke run failed:\n" + out.stderr[-4000:])
    result = run.parse_result(out.stdout.splitlines()[-1])
    if result is None:
        raise AssertionError("bad result line: " + out.stdout[-2000:])
    return result


class SelfTest(unittest.TestCase):
    def test_helpers(self):
        run.build(["perfbench_selftest"])
        out = subprocess.run([os.path.join(run.BUILD, "perfbench_selftest")],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
        self.assertEqual(out.returncode, 0, out.stderr)


class ResultLineTest(unittest.TestCase):
    def test_accepts_the_contract_example(self):
        line = ('{"correct": true, "attempted": 1000, "failed": 0, '
                '"metrics": {"latency_ms": {"value": 1.2034, "unit": "ms"}}}')
        self.assertIsNotNone(run.parse_result(line))

    def test_rejects_malformed_lines(self):
        for line in (
                "not json",
                '{"correct": true, "attempted": 1, "failed": 0}',
                '{"correct": 1, "attempted": 1, "failed": 0, "metrics": {}}',
                '{"correct": true, "attempted": 0, "failed": 0, '
                '"metrics": {}}',
                '{"correct": true, "attempted": 1.5, "failed": 0, '
                '"metrics": {}}',
                '{"correct": true, "attempted": 1, "failed": 0, '
                '"metrics": {"x": {"value": "1", "unit": "s"}}}',
                '{"correct": true, "attempted": 1, "failed": 0, '
                '"metrics": {"x": {"value": 1}}}',
                '{"correct": true, "attempted": 1, "failed": 0, '
                '"metrics": {}, "extra": 1}'):
            self.assertIsNone(run.parse_result(line), line)


class CombineTest(unittest.TestCase):
    def result(self, fit_s, cost, failed=0):
        return {"correct": failed == 0, "attempted": 10, "failed": failed,
                "metrics": {"fit_s": {"value": fit_s, "unit": "s"},
                            "fit_cost": {"value": cost, "unit": "cost"}}}

    def test_medians_and_sums(self):
        combined = run.combine([self.result(3.0, 7), self.result(1.0, 7),
                                self.result(2.0, 7, failed=1)])
        self.assertEqual(combined["metrics"]["fit_s"],
                         {"value": 2.0, "unit": "s"})
        self.assertEqual(combined["attempted"], 30)
        self.assertEqual(combined["failed"], 1)
        self.assertFalse(combined["correct"])

    def test_parts_may_differ(self):
        # Each process measures its own dataset, so values may differ.
        combined = run.combine([self.result(1.0, 7), self.result(1.0, 8),
                                self.result(1.0, 9)])
        self.assertTrue(combined["correct"])
        self.assertEqual(combined["metrics"]["fit_cost"]["value"], 8)


class SpecTest(unittest.TestCase):
    def test_contract_limits(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertIn(spec["run_seconds"], range(1, 61))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for workload in spec["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
        for metric in spec["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertLessEqual(metric["bound"], 0.25)
            self.assertGreater(metric["bound"], 0)
        for metric in spec["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class SmokeTest(unittest.TestCase):
    """Every workload, both modes: schema, correctness, repeatable counts."""

    def check(self, workload, trace, metrics):
        result = smoke(workload, trace)
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(
            {name: value["unit"] for name, value in result["metrics"].items()},
            {metric["name"]: metric["unit"] for metric in metrics})
        return result["metrics"]

    def test_end_to_end(self):
        spec = load_spec()
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check(workload, 0, spec["end_to_end"])
                for metric in spec["end_to_end"]:
                    self.assertGreater(metrics[metric["name"]]["value"], 0,
                                       metric["name"])
                again = self.check(workload, 0, spec["end_to_end"])
                for name in EXACT_END_TO_END:
                    self.assertEqual(metrics[name]["value"],
                                     again[name]["value"], name)

    def test_traced_counts_repeat(self):
        spec = load_spec()
        counts = [m["name"] for m in spec["per_layer"]
                  if m["unit"] in ("count", "bytes")
                  and m["name"] not in TIMING_DEPENDENT_COUNTS]
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.check(workload, 1, spec["per_layer"])
                again = self.check(workload, 1, spec["per_layer"])
                for name in counts:
                    self.assertEqual(first[name]["value"],
                                     again[name]["value"], name)


if __name__ == "__main__":
    unittest.main()
