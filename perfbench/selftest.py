"""Self-test of the benchmark harness at tiny sizes (n <= 4).

    python3 perfbench/selftest.py

Runs each workload's tiny command list untraced and traced, and checks that
every metric declared in BENCHMARK.json is printed with its unit, that a
wrong pinned hash counts as a failed command instead of crashing the
harness, and that the harness refuses to run without the catborel sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

import run

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def measure(workload: str, trace: bool, pins: dict = run.PINS) -> tuple[dict, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run.measure(workload, seed=1, seconds=1, trace=trace, size="tiny", pins=pins)
    return result, buf.getvalue()


class HarnessSelfTest(unittest.TestCase):
    def test_every_metric_printed_with_unit(self):
        layer_values = {}
        for workload in run.WORKLOADS:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, text = measure(workload, trace)
                    if trace:
                        for name, m in result["metrics"].items():
                            layer_values.setdefault(name, []).append(m["value"])
                    self.assertTrue(result["correct"], text)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], len(run.WORKLOADS[workload]["tiny"]))
                    self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in DECLARED[key]))
                    for m in DECLARED[key]:
                        self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                        line = rf"(?m)^{re.escape(m['name'])} \S+ {re.escape(m['unit'])}$"
                        self.assertRegex(text, line)
                    self.assertRegex(text, r"(?m)^error_rate 0 ratio ")
        # a misspelt or unmeasured layer metric would read 0 on every workload
        never = sorted(name for name, values in layer_values.items() if not any(values))
        self.assertEqual(never, [])

    def test_wrong_pin_counts_as_error(self):
        command = run.WORKLOADS["enumerate"]["tiny"][0]
        pins = dict(run.PINS, **{command: "0" * 64})
        result, text = measure("enumerate", False, pins)
        self.assertFalse(result["correct"])
        # only the command with the wrong pin fails, every time it runs
        failed, attempted = result["failed"], result["attempted"]
        self.assertTrue(0 < failed < attempted)
        self.assertEqual(text.count("stdout differs from the pinned sha256"), failed)
        self.assertIn(f"\nerror_rate {failed / attempted:.6g} ratio ", text)

    def test_workloads_never_set_threads(self):
        for workload in run.WORKLOADS.values():
            for commands in workload.values():
                self.assertFalse([c for c in commands if "--threads" in c])
        os.environ["CATBOREL_THREADS"] = "2"
        try:
            self.assertNotIn("CATBOREL_THREADS", run.child_env())
        finally:
            del os.environ["CATBOREL_THREADS"]

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory(dir=run.BENCH) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH, os.path.join(tmp, run.BENCH.name),
                            ignore=shutil.ignore_patterns("tmp*", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, os.path.join(run.BENCH.name, "run.py"), "--workload", "counts",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
