#!/usr/bin/env python3
"""The benchmark's own test: work counts repeat exactly for one seed.

Every per-layer metric the traced run marks `[exact count]` (dp plan,
split and set counts, partitions, messages and bytes per query) is a
deterministic function of the workload seed. This test runs the traced
run twice with one seed on `big-query` and `small-stream` and requires
every such metric to be equal to the last digit. `hot-repeat` is left out:
coalescing depends on timing, so its message count varies.

Run from the root of the repository:

    python3 perfbench/test_exact.py
"""

import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SEED = 5


def traced(workload):
    """Runs the traced benchmark; returns its exact counts by name."""
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", "2", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"], result
    exact = [l.split()[0] for l in lines if l.endswith("[exact count]")]
    return {name: result["metrics"][name]["value"] for name in exact}


class ExactCounts(unittest.TestCase):
    def check(self, workload):
        first, second = traced(workload), traced(workload)
        self.assertGreaterEqual(len(first), 9)
        self.assertEqual(first, second)

    def test_big_query(self):
        self.check("big-query")

    def test_small_stream(self):
        self.check("small-stream")


if __name__ == "__main__":
    unittest.main()
