"""Consistency tests for the benchmark definition.

    python3 perfbench/test_run.py

Every per-layer metric must be mapped to the end-to-end metrics and
workloads it should move, and every metric BENCHMARK.json names must be one
the workload binary (or run.py) emits.
"""

import json
import os
import re
import unittest

import run

HERE = os.path.dirname(os.path.abspath(__file__))


def load(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


class Definition(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()
        self.layers = load("layers.json")
        self.workloads = [w["name"] for w in self.spec["workloads"]]
        self.end_to_end = [m["name"] for m in self.spec["end_to_end"]]

    def test_workloads_agree(self):
        self.assertEqual(sorted(self.layers["workloads"]), sorted(self.workloads))
        with open(os.path.join(HERE, "src", "workloads.rs")) as f:
            source = f.read()
        for name in self.workloads:
            self.assertIn(f'"{name}"', source, "the workload binary knows every workload")

    def test_every_per_layer_metric_has_a_mapping(self):
        names = [m["name"] for m in self.spec["per_layer"]]
        self.assertEqual(sorted(self.layers["per_layer"]), sorted(names))
        for name, entry in self.layers["per_layer"].items():
            for metric, workload in entry["moves"]:
                self.assertIn(metric, self.end_to_end, name)
                self.assertIn(workload, self.workloads + ["*"], name)
            for workload in entry["bypass"]:
                self.assertIn(workload, self.workloads, name)
            if not entry["moves"]:
                self.assertTrue(entry.get("note"), f"{name} moves nothing and says why not")

    def test_every_metric_is_emitted(self):
        with open(os.path.join(HERE, "src", "workloads.rs")) as f:
            emitted = set(re.findall(r'report\.metric\(\s*"([^"]+)"', f.read()))
        emitted.add("trace.overhead_share")  # computed by run.py from two runs
        wanted = set(self.end_to_end) | {m["name"] for m in self.spec["per_layer"]}
        self.assertEqual(wanted - emitted, set())

    def test_bounds_respect_the_contract(self):
        for m in self.spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25, m["name"])
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in self.spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
