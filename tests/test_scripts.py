import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [
    ("energy_trace.py", ["--n", "6", "--T", "0.02"]),
    ("spectral_scan.py", ["--ns", "4", "6"]),
])
def test_script_runs(script, args):
    # the scripts call the package API and the CLI, so a changed signature
    # or output breaks them without failing any other test
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if script == "energy_trace.py":
        # both runs print; the upwind one decays and the central one conserves
        # up to round-off (its largest relative rise is ~1e-16)
        assert "upwind flux" in proc.stdout and "central flux" in proc.stdout
        rises = re.findall(r"max per-step increase: \S+ \(relative (\S+)\)", proc.stdout)
        assert len(rises) == 2, proc.stdout
        assert float(rises[0]) < 0 and float(rises[1]) <= 1e-13, proc.stdout
