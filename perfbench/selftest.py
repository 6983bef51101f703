#!/usr/bin/env python3
"""Self-test of the advwave benchmark; takes a minute or two.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Each workload is run for a single
pass, untraced and traced.
"""

import run  # first: pins BLAS threads before numpy loads

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

if not run.use_source(run.ROOT):
    sys.exit(f"no solver source under {run.ROOT / 'src'}")

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SCRATCH = run.ROOT / ".perfbench"


def setUpModule():
    SCRATCH.mkdir(exist_ok=True)


class MetricsTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = run.measure(workload, seed=0, seconds=0, trace=trace)
                    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, metric in result["metrics"].items():
                        self.assertTrue(math.isfinite(metric["value"]), name)
                    self.assertEqual(result["failed"], 0, result["misses"])
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    if not trace:
                        metric = result["metrics"]
                        self.assertLess(0, metric["setup_s"]["value"])
                        self.assertLess(metric["setup_s"]["value"], metric["wall_s"]["value"])


class GateTest(unittest.TestCase):
    def test_unstable_run_is_counted_as_failed(self):
        # dt far beyond the RK4 stability limit: the state overflows, exit 3
        bad = (workloads.Step("run", "run", dict(workloads.PERIODIC_1D, n=40, T=10.0, dt=0.1)),)
        result = run.measure("unstable", seed=0, seconds=0, trace=False, steps=bad)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertTrue(any("exit code 3" in m for m in result["misses"]), result["misses"])
        self.assertLess(result["metrics"]["ok_ops_share"]["value"], 1.0)

    def test_non_finite_output_fails_despite_exit_0(self):
        step = workloads.WORKLOADS["physical-2d"][0]
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            (Path(tmp) / "run.csv").write_text(
                "step,t,energy,err_u,err_v\n0,0,1.0,0,0\n1,0.1,inf,0.1,0.1\n")
            gate = workloads.Gate()
            workloads.check_step(step, Path(tmp), 0, "", gate)
        self.assertEqual(gate.misses, ["run: run.csv missing or non-finite"])

    def test_csv_that_changes_between_passes_fails(self):
        step = workloads.WORKLOADS["physical-2d"][0]
        gate = workloads.Gate()
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            path = Path(tmp) / "run.csv"
            for text in ("a\n1\n", "a\n1\n", "a\n2\n"):
                path.write_text(text)
                gate.same_bytes(step, Path(tmp))
        self.assertEqual((gate.attempted, gate.failed), (3, 1))


class RecorderTest(unittest.TestCase):
    def test_wrapped_attributes_are_restored(self):
        before = {(id(owner), attr): getattr(owner, attr)
                  for _, _, bindings in spans._layer_functions() for owner, attr in bindings}
        with spans.Recorder().installed(), run.SpeedProbe().installed():
            pass
        after = {(id(owner), attr): getattr(owner, attr)
                 for _, _, bindings in spans._layer_functions() for owner, attr in bindings}
        self.assertEqual(before, after)

    def test_layers_named_by_metrics_are_wrapped(self):
        names = {name for name, _, _ in spans._layer_functions()} | {"problems.forcing"}
        wanted = {n for ns in spans.TIME_METRICS.values() for n in ns}
        self.assertLessEqual(wanted, names)


class BareCheckoutTest(unittest.TestCase):
    def test_fails_without_solver_source(self):
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep-1d",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
