"""The solver names that the benchmark's traced split depends on, and the
benchmark's own self-test.

``perfbench/spans.py`` wraps the solver's public functions by name and
unpacks the arguments of ``Discretization.rhs``.  Deleting or renaming a
traced function, or reordering those arguments, would otherwise fail only
the benchmark's own self-test; so would a change to what its workloads run
(a config field, a CLI option or an output file).
"""

import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from advwave.operators import Discretization

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_traced_spans_exist(spans):
    # problems.forcing is synthetic: the recorder wraps each Discretization's
    # forcing under that name when the Discretization is built
    names = {name for name, _, _ in spans._layer_functions()} | {"problems.forcing"}
    wanted = {n for ns in spans.TIME_METRICS.values() for n in ns}
    wanted |= {spans.SOLVE_START} | spans.SETUP
    assert wanted <= names, sorted(wanted - names)


def test_rhs_arguments_match_the_recorder(spans):
    # spans._count_rhs unpacks (self, u, v) from the first three arguments
    params = list(inspect.signature(Discretization.rhs).parameters)
    assert params[:4] == ["self", "u", "v", "t"]


def test_benchmark_selftest_passes():
    # runs each workload once, untraced and traced; writes under .perfbench/
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=PERFBENCH.parent,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
