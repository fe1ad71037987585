#!/usr/bin/env python3
"""Smoke test of the repository benchmark at toy size.

Runs every workload named in BENCHMARK.json, untraced and traced, with
the command BENCHMARK.json gives plus --toy (small tables, short run).
Checks that each run passes its output checks, that every metric
BENCHMARK.json names is emitted with its unit, that the spill layer reads
nothing on fit_inmem and faults data back on fit_spill, and that the
traced funnel counts repeat exactly.

    python3 perfbench/test_smoke.py      # from the repository root
"""

import json
import os
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

FUNNEL = ["core.paths", "core.combinations", "core.generated",
          "stats.after_iv", "stats.after_redundancy", "core.selected"]


def run(workload, trace, seed=1):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", "1", "--trace", str(trace), "--toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        for workload in BENCH["workloads"]:
            for trace in (0, 1):
                cls.results[(workload["name"], trace)] = run(workload["name"], trace)

    def test_checks_pass(self):
        for key, result in self.results.items():
            with self.subTest(run=key):
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)

    def test_every_metric_emitted_with_unit(self):
        for (workload, trace), result in self.results.items():
            expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
                for m in expected:
                    self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_spill_layer_counters(self):
        inmem = self.results[("fit_inmem", 1)]["metrics"]
        spill = self.results[("fit_spill", 1)]["metrics"]
        read_mb = [name for name in inmem if name.startswith("dataframe.read_mb.")]
        self.assertTrue(read_mb)
        for name in read_mb:
            self.assertEqual(inmem[name]["value"], 0, name)
        self.assertEqual(inmem["dataframe.faults"]["value"], 0)
        self.assertGreater(sum(spill[name]["value"] for name in read_mb), 0)
        self.assertGreater(spill["dataframe.faults"]["value"], 0)

    def test_funnel_counts_repeat(self):
        again = run("fit_inmem", 1)["metrics"]
        first = self.results[("fit_inmem", 1)]["metrics"]
        for name in FUNNEL:
            self.assertEqual(first[name]["value"], again[name]["value"], name)


if __name__ == "__main__":
    unittest.main()
