#!/usr/bin/env python3
"""Tests for the end-to-end benchmark itself.

    python3 e2ebench/test_e2ebench.py

Builds the benchmark like run.py does, then checks that the answer checker
rejects injected wrong answers, that spans nest and have non-negative self
time, and that the metric names the command prints are exactly those in
BENCHMARK.json. The last two run the cheapest workload for a few seconds.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def span(id_, parent, start, end, layer="x", request=0):
    return {"id": id_, "parent": parent, "request": request, "layer": layer,
            "attr": "-", "start": start, "end": end}


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children_once(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 30, 60),
                 span(4, 2, 12, 20)]
        own = run.self_times(spans)
        self.assertEqual(own, {1: 50, 2: 22, 3: 30, 4: 8})

    def test_child_outside_parent_is_rejected(self):
        with self.assertRaises(ValueError):
            run.check_spans([span(1, 0, 0, 100), span(2, 1, 50, 120)])
        with self.assertRaises(ValueError):
            run.check_spans([span(1, 0, 10, 5)])
        with self.assertRaises(ValueError):
            run.check_spans([span(1, 0, 0, 100), span(2, 1, 10, 20, request=3)])
        with self.assertRaises(ValueError):
            run.check_spans([span(2, 7, 10, 20)])


@unittest.skipUnless(os.path.isfile(os.path.join(run.ROOT, "BENCHMARK.json")),
                     "needs BENCHMARK.json")
class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("benchmark build failed")
        cls.benchmark = run.load_benchmark()

    def run_workload(self, trace):
        done = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
             "xkg_window_bundle8", "--seed", "3", "--seconds", "2", "--trace",
             str(trace)], capture_output=True, text=True, timeout=300)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        return json.loads(done.stdout.splitlines()[-1])

    def test_checker_rejects_injected_errors(self):
        done = subprocess.run([run.BINARY, "--self-test"], capture_output=True,
                              text=True, timeout=300)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        self.assertIn("a wrong binding fails", done.stderr)
        self.assertIn("a 1e-6 relative score change fails", done.stderr)

    def test_end_to_end_names_match_benchmark_json(self):
        result = self.run_workload(0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        declared = {m["name"]: m["unit"] for m in self.benchmark["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         declared)
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    def test_traced_run_spans_nest_and_names_match(self):
        workdir = os.path.join(os.path.dirname(run.BUILD_DIR), "test-spans")
        os.makedirs(workdir, exist_ok=True)
        spans_path = os.path.join(workdir, "spans.txt")
        done = subprocess.run(
            [run.BINARY, "--workload", "xkg_window_bundle8", "--seed", "3",
             "--seconds", "2", "--trace", "1", "--workdir", workdir, "--spans",
             spans_path], capture_output=True, text=True, timeout=300)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        spans = run.load_spans(spans_path)
        run.check_spans(spans)
        self.assertTrue(all(t >= 0 for t in run.self_times(spans).values()))
        layers = {s["layer"] for s in spans}
        for layer in ("parse", "explain", "build", "pulltopk", "batch",
                      "explain_cold", "warm", "open", "block_scan", "flat_scan"):
            self.assertIn(layer, layers)

        result = self.run_workload(1)
        declared = {m["name"]: m["unit"] for m in self.benchmark["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         declared)


if __name__ == "__main__":
    unittest.main()
