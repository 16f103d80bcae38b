"""Self-test of the benchmark: structural counters are deterministic.

    python3 -m pytest perfbench/test_determinism.py     (or: python3 perfbench/test_determinism.py)

For one seed, the traced run's structural counters (items, full-span items,
per-rule attempts and successes, derivations, readings, orders, survivors
and the call counts behind them) must repeat exactly across two runs with
different PYTHONHASHSEED values.  A different seed must change the inputs.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from ccgscope.lexicon import default_lexicon  # noqa: E402

SEED = 7


def traced_run(workload: str, hashseed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"], proc.stderr
    return doc["metrics"]


def structural(metrics: dict) -> dict:
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] in ("count", "ratio") and not name.startswith("trace.")}


class Determinism(unittest.TestCase):
    def test_counters_repeat_across_runs_and_hash_seeds(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first = structural(traced_run(workload, "0"))
                second = structural(traced_run(workload, "1"))
                self.assertGreater(first["chart.items"], 0)
                self.assertEqual(first, second)

    def test_seed_changes_inputs(self):
        lex = default_lexicon()
        for name, make in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                same = [op.text for op in make(lex, SEED)]
                self.assertEqual(same, [op.text for op in make(lex, SEED)])
                self.assertNotEqual(same, [op.text for op in make(lex, SEED + 1)])


if __name__ == "__main__":
    unittest.main()
