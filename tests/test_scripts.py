import os
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
    # the scripts call the package API directly, so a changed signature
    # breaks them without failing any other test
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
