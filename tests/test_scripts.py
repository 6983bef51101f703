import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, *args, timeout=120):
    """Run scripts/<script> in a new interpreter on this checkout's package."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("script,args", [
    ("energy_trace.py", ["--n", "6", "--T", "0.02"]),
    ("spectral_scan.py", ["--ns", "4", "6"]),
])
def test_script_runs(script, args):
    # the scripts call the package API and the CLI, so a changed signature
    # or output breaks them without failing any other test
    proc = run_script(script, *args)
    assert proc.returncode == 0, proc.stderr
    if script == "energy_trace.py":
        # both runs print; the upwind one decays and the central one conserves
        # up to round-off (its largest relative rise is ~1e-16)
        assert "upwind flux" in proc.stdout and "central flux" in proc.stdout
        rises = re.findall(r"max per-step increase: \S+ \(relative (\S+)\)", proc.stdout)
        assert len(rises) == 2, proc.stdout
        assert float(rises[0]) < 0 and float(rises[1]) <= 1e-13, proc.stdout


def test_reproduce_rates_writes_every_case(tmp_path):
    # twelve converge sweeps on the quick grids, each case in a directory of its own
    proc = run_script("reproduce_rates.py", "--quick", "--output", str(tmp_path), timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"case{i}" for i in range(12)] + ["reproduced.csv"])
    for case in tmp_path.glob("case*"):
        assert sorted(p.name for p in case.iterdir()) == ["config.json", "errors.csv",
                                                         "rates.csv"]
    # every case reports the slope over all its grids and over the finest 3
    assert len(re.findall(r"convergence: rate_u=\S+ rate_v=\S+ .*; "
                          r"finest 3: rate_u=\S+ rate_v=\S+", proc.stdout)) == 12, proc.stdout
    # every error of every case against the pinned file, to 1e-6 relative:
    # BLAS kernels move them by a few 1e-9 at most
    with open(tmp_path / "reproduced.csv", newline="") as fh:
        got = list(csv.reader(fh))
    with open(ROOT / "tests" / "data" / "reproduced.csv", newline="") as fh:
        pinned = list(csv.reader(fh))
    assert got[0] == pinned[0] == ["case", "n", "h", "err_u", "err_v"]
    assert [row[:3] for row in got] == [row[:3] for row in pinned]
    for row, expect in zip(got[1:], pinned[1:]):
        for value, reference in zip(row[3:], expect[3:]):
            assert float(value) == pytest.approx(float(reference), rel=1e-6, abs=0.0), row
