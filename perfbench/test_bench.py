#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_bench.py

1. A smallest-size (--smoke) run of every workload, timed and traced, must
   print every metric BENCHMARK.json declares, with its declared unit, and
   pass its own output checks.
2. A deliberately corrupted expected digest must make the run count failed
   operations (failed_share > 0): the output check can fail.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra, stderr=None):
    """Runs the benchmark at smoke size; returns (result JSON, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke",
         *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=stderr, text=True, timeout=900,
        check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


class SmokeRuns(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_workload_prints_every_metric_with_its_unit(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                result, _ = run(w["name"], 0)
                self.check_metrics(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    value = result["metrics"][m["name"]]["value"]
                    self.assertGreater(value, 0, m["name"])
            with self.subTest(workload=w["name"], trace=1):
                result, _ = run(w["name"], 1)
                self.check_metrics(result, SPEC["per_layer"])


class CorruptedDigest(unittest.TestCase):
    def test_wrong_expected_digest_counts_as_failure(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result, lines = run(w["name"], 0)
                self.assertEqual(result["failed"], 0)
                digest = next(l.split(" = ")[1] for l in lines
                              if l.startswith(f"{w['name']} info digest = "))
                corrupted = ("0" if digest[0] != "0" else "1") + digest[1:]
                bad, _ = run(w["name"], 0, "--expect-digest", corrupted,
                             stderr=subprocess.DEVNULL)
                self.assertFalse(bad["correct"])
                self.assertGreater(bad["failed"] / bad["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
