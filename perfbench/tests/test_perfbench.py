#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark: a MAERI-16-scale smoke run.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark binary through run.py, runs every workload of BENCHMARK.json at
smoke scale with --trace 0 and --trace 1, and checks that:
  * the last stdout line is the result object, every metric BENCHMARK.json
    names is in it with its unit, and each is also printed as a
    "metric <name> <value> <unit>" line;
  * no operation failed and no library span fell outside the layer map;
  * every per-layer metric maps to an end-to-end metric and workload of
    BENCHMARK.json, and catalog units/directions agree with BENCHMARK.json.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)
import run  # noqa: E402  (perfbench/run.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
END_TO_END = {m["name"]: m for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCH["per_layer"]}


def smoke(workload, trace):
    cmd = [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", workload, "--seed",
           "1", "--seconds", "0.5", "--trace", str(trace), "--scale", "smoke"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{cmd} exited {out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")

    def check_run(self, workload, trace, expected):
        text, result = smoke(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], text)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0, text)
        self.assertEqual(set(result["metrics"]), set(expected))
        printed = {}
        for line in text:
            if line.startswith("metric "):
                name, value, unit = line.split()[1:4]
                printed[name] = (float(value), unit)
            self.assertFalse(line.startswith("trace unmapped"), line)
        for name, m in expected.items():
            self.assertEqual(result["metrics"][name]["unit"], m["unit"], name)
            self.assertIsInstance(result["metrics"][name]["value"], (int, float), name)
            self.assertIn(name, printed, f"{workload}: no metric line for {name}")
            self.assertEqual(printed[name][1], m["unit"], name)
        return text, result

    def test_end_to_end_metrics_every_workload(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, result = self.check_run(w, 0, END_TO_END)
                for name in END_TO_END:
                    self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_per_layer_metrics_every_workload(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, result = self.check_run(w, 1, PER_LAYER)
                accounted = result["metrics"]["trace.accounted_pct"]["value"]
                self.assertGreater(accounted, 90.0)
                self.assertLess(accounted, 100.5)

    def test_catalog_maps_every_per_layer_metric(self):
        out = subprocess.run([run.BINARY, "--list-metrics"], capture_output=True, text=True,
                             check=True)
        catalog = {m["name"]: m for m in json.loads(out.stdout)}
        for name, m in END_TO_END.items():
            self.assertEqual(catalog[name]["kind"], "end_to_end", name)
            self.assertEqual(catalog[name]["unit"], m["unit"], name)
            self.assertEqual(catalog[name]["better"], m["better"], name)
        for name, m in PER_LAYER.items():
            with self.subTest(metric=name):
                c = catalog[name]
                self.assertEqual(c["kind"], "per_layer")
                self.assertEqual(c["unit"], m["unit"])
                self.assertEqual(c["better"], m["better"])
                moves = c["moves"].split()
                self.assertTrue(moves, "maps to no end-to-end metric")
                for word in moves:
                    workload, metric = word.split(":")
                    self.assertIn(workload, WORKLOADS)
                    self.assertIn(metric, END_TO_END)
        ledger = {n for n, c in catalog.items() if c["kind"] == "per_layer"}
        self.assertEqual(ledger, set(PER_LAYER), "catalog and BENCHMARK.json per_layer differ")


if __name__ == "__main__":
    unittest.main()
