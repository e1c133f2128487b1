#!/usr/bin/env python3
"""Tests of the end-to-end benchmark runner.

Unit tests of the best-of-K reducer and the nearest-rank percentile on fixed
arrays, then a --smoke run (warm-up plus two passes) of every workload,
untraced and traced, checked against BENCHMARK.json. Builds bench_e2e into
.bench_build on first use.

    python3 bench/e2e/test_e2e.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the runner under test)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


class ReducerTest(unittest.TestCase):
    def test_best_of_k_keeps_each_items_minimum(self):
        passes = [[3.0, 1.0, 4.0], [1.0, 5.0, 9.0], [2.0, 6.0, 5.0]]
        self.assertEqual(run.best_of_k(passes), [1.0, 1.0, 4.0])

    def test_best_of_one_pass_is_that_pass(self):
        self.assertEqual(run.best_of_k([[0.5, 0.25]]), [0.5, 0.25])

    def test_best_of_k_rejects_passes_of_different_length(self):
        with self.assertRaises(run.BenchError):
            run.best_of_k([[1.0, 2.0], [1.0]])
        with self.assertRaises(run.BenchError):
            run.best_of_k([])

    def test_nearest_rank_textbook_values(self):
        values = [15, 20, 35, 40, 50]
        self.assertEqual(run.nearest_rank(values, 0.05), 15)
        self.assertEqual(run.nearest_rank(values, 0.30), 20)
        self.assertEqual(run.nearest_rank(values, 0.40), 20)
        self.assertEqual(run.nearest_rank(values, 0.50), 35)
        self.assertEqual(run.nearest_rank(values, 1.00), 50)

    def test_nearest_rank_ignores_input_order(self):
        self.assertEqual(run.nearest_rank([9, 1, 5, 3, 7], 0.5), 5)

    def test_p99_of_the_live_items_leaves_23_beyond(self):
        values = list(range(2392))
        p99 = run.nearest_rank(values, 0.99)
        self.assertEqual(sum(v > p99 for v in values), 23)


class SmokeTest(unittest.TestCase):
    """One --smoke run per workload and trace mode."""

    @classmethod
    def setUpClass(cls):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
            cls.contract = json.load(f)
        cls.outputs = {}
        for trace in (0, 1):
            for workload in run.WORKLOADS:
                done = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload",
                     workload, "--seed", "11", "--trace", str(trace),
                     "--smoke"],
                    capture_output=True, text=True, timeout=900, check=False)
                cls.outputs[(workload, trace)] = done

    def printed(self, workload, trace):
        """metric -> (value, unit) from the `workload/metric value unit`
        lines, plus the result line."""
        done = self.outputs[(workload, trace)]
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.strip().splitlines()
        metrics = {}
        for line in lines[:-1]:
            name, value, unit = line.split(" ", 2)
            if name.startswith(workload + "/") and not name.endswith("FAILED"):
                metrics[name.split("/", 1)[1]] = (float(value), unit)
        return metrics, json.loads(lines[-1])

    def test_every_listed_metric_is_printed_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                metrics, result = self.printed(workload, trace)
                for entry in self.contract[group]:
                    name = entry["name"]
                    self.assertIn(name, metrics, (workload, trace))
                    self.assertEqual(metrics[name][1], entry["unit"])
                    self.assertEqual(result["metrics"][name]["unit"],
                                     entry["unit"])
                self.assertEqual(set(result["metrics"]),
                                 {e["name"] for e in self.contract[group]})

    def test_names_are_plain(self):
        for (workload, trace) in self.outputs:
            metrics, _ = self.printed(workload, trace)
            for name in metrics:
                self.assertRegex(name, NAME)

    def test_no_frame_failed(self):
        for (workload, trace) in self.outputs:
            metrics, result = self.printed(workload, trace)
            self.assertEqual(metrics["fail_pct"][0], 0.0, (workload, trace))
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreater(result["attempted"], 0)

    def test_replayed_me_positions_equal_the_encoders(self):
        for workload in run.WORKLOADS:
            metrics, _ = self.printed(workload, 1)
            self.assertEqual(metrics["me.positions_per_mb"][0],
                             metrics["positions_per_mb"][0], workload)

    def test_smoke_runs_two_passes(self):
        for workload in run.WORKLOADS:
            metrics, _ = self.printed(workload, 0)
            self.assertEqual(metrics["passes"][0], 2.0, workload)


if __name__ == "__main__":
    unittest.main()
