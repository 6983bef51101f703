"""Workloads of the advwave benchmark and the gate on their outputs.

A workload is a fixed list of CLI steps.  Each pass of a workload runs the
steps in order through ``advwave.cli.main`` with ``--workers 1`` and then
checks every output.  Every check is one operation: the gate counts the
operations attempted and the ones that failed, across all passes of a run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import shutil
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from advwave import cli

# Rate bands of the acceptance gate for q = 3.
CRITERION_1_Q3 = ((3.75, 4.35), (2.65, 3.75))   # u: q+0.75..q+1.35, v: q-0.35..q+0.75
CRITERION_5_Q3 = ((3.64, 4.44), (2.68, 3.48))   # u: 4.04 +- 0.4, v: 3.08 +- 0.4
ENERGY_TOL = 1e-9

CSV_FILES = {"run": ("run.csv",), "converge": ("errors.csv", "rates.csv"),
             "energy": ("energy.csv",), "spectrum": ("spectrum.csv",)}


@dataclass(frozen=True)
class Step:
    """One CLI call: ``advwave <command> --config <config>``."""

    name: str
    command: str
    config: dict
    rate_band: tuple | None = None   # ((lo_u, hi_u), (lo_v, hi_v)) for converge


PERIODIC_1D = dict(problem="periodic1d", q=3, flux="sommerfeld", w=0.5, c=1.0)
PERIODIC_2D = dict(problem="periodic2d", q=3, flux="central", w=[0.5, 0.5], c=1.0)
MIXED_2D = dict(problem="mixed2d", q=2, flux="sommerfeld", w=[0.5, 0.5], c=1.0)

# T and the spectrum grid list are shortened from the acceptance cases so a
# pass takes a few seconds; the grids, degrees and fluxes are the same.
WORKLOADS = {
    "sweep-1d": (
        Step("converge", "converge", dict(
            PERIODIC_1D, T=0.05, n_list=[10, 14, 20, 28, 40, 56, 80, 112, 160]),
            rate_band=CRITERION_1_Q3),
    ),
    "sweep-2d": (
        Step("converge", "converge", dict(
            PERIODIC_2D, T=0.05, n_list=[5, 7, 10, 14, 20, 28]),
            rate_band=CRITERION_5_Q3),
    ),
    "physical-2d": (
        Step("run", "run", dict(MIXED_2D, n=14, T=0.25)),
        Step("energy", "energy", dict(MIXED_2D, n=10, n_states=20, energy_tol=ENERGY_TOL)),
        Step("spectrum", "spectrum", dict(MIXED_2D, n_list=[5, 7, 10])),
    ),
}


def write_configs(steps, directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for step in steps:
        paths[step.name] = directory / f"{step.name}.json"
        paths[step.name].write_text(json.dumps(step.config, sort_keys=True) + "\n")
    return paths


class Gate:
    """Counts operations and failed operations over the passes of a run.

    The first pass's CSV bytes are the reference; later passes must
    reproduce them exactly.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []
        self._reference: dict[tuple[str, str], bytes | None] = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.misses.append(what)

    def same_bytes(self, step: Step, outdir: Path) -> None:
        for name in CSV_FILES[step.command]:
            path = outdir / name
            data = path.read_bytes() if path.is_file() else None
            key = (step.name, name)
            ref = self._reference.setdefault(key, data)
            self.check(data is not None and data == ref,
                       f"{step.name}/{name}: missing or not byte-identical")


def call_cli(step: Step, config_path: Path, outdir: Path, seed: int) -> tuple[int, str]:
    """Run one step through ``cli.main``; returns (exit code, stdout).

    An exception or SystemExit is reported as a nonzero exit, so a broken
    solve is counted as failed instead of ending the benchmark.
    """
    argv = [step.command, "--config", str(config_path), "--output", str(outdir),
            "--seed", str(seed), "--workers", "1"]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    except Exception:  # the benchmark keeps running and counts the miss
        code = 1
        err.write(traceback.format_exc())
    if code != 0:
        print(f"{step.name}: exit {code}\n{err.getvalue()}", file=sys.stderr)
    return code, out.getvalue()


def _num(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def _rows(path: Path) -> list[dict[str, float]]:
    """CSV rows as floats; a missing file gives no rows, a bad cell NaN."""
    if not path.is_file():
        return []
    with open(path, newline="") as fh:
        return [{k: _num(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _finite(row: dict, keys) -> bool:
    return all(math.isfinite(row.get(k, math.nan)) for k in keys)


_PROBE = re.compile(r"spectrum: q=\d+ n=(\d+) radius=(\S+) converged=(True|False)")


def check_step(step: Step, outdir: Path, code: int, stdout: str, gate: Gate):
    """Gate one step's outputs; returns (err_u, err_v) of the step's
    reported solution (finest grid, or final time) or None."""
    gate.check(code == 0, f"{step.name}: exit code {code}")
    errors = None
    if step.command == "converge":
        by_n = {int(r["n"]): r for r in _rows(outdir / "errors.csv")
                if math.isfinite(r.get("n", math.nan))}
        for n in step.config["n_list"]:
            row = by_n.get(n)
            gate.check(row is not None and _finite(row, ("err_u", "err_v"))
                       and row["err_u"] > 0 and row["err_v"] > 0,
                       f"{step.name}: solve n={n} missing or non-finite")
        rates = _rows(outdir / "rates.csv")
        (lo_u, hi_u), (lo_v, hi_v) = step.rate_band
        gate.check(len(rates) == 1 and lo_u <= rates[0].get("rate_u", math.nan) <= hi_u
                   and lo_v <= rates[0].get("rate_v", math.nan) <= hi_v,
                   f"{step.name}: rates {rates} outside the acceptance band")
        finest = by_n.get(max(step.config["n_list"]))
        if finest is not None:
            errors = (finest["err_u"], finest["err_v"])
    elif step.command == "run":
        rows = _rows(outdir / "run.csv")
        gate.check(len(rows) >= 2 and all(_finite(r, ("t", "energy", "err_u", "err_v"))
                                          for r in rows),
                   f"{step.name}: run.csv missing or non-finite")
        if rows:
            errors = (rows[-1].get("err_u", math.nan), rows[-1].get("err_v", math.nan))
    elif step.command == "energy":
        rows = _rows(outdir / "energy.csv")
        for i in range(step.config["n_states"]):
            row = rows[i] if i < len(rows) else {}
            gate.check(_finite(row, ("operator_rate", "face_rate", "residual"))
                       and row["residual"] <= ENERGY_TOL,
                       f"{step.name}: audit state {i} missing or residual above {ENERGY_TOL}")
    elif step.command == "spectrum":
        probes = {int(m[1]): m for m in _PROBE.finditer(stdout)}
        for n in step.config["n_list"]:
            m = probes.get(n)
            gate.check(m is not None and m[3] == "True" and math.isfinite(_num(m[2])),
                       f"{step.name}: probe n={n} missing, non-finite or not converged")
    gate.same_bytes(step, outdir)
    return errors


def run_pass(steps, config_paths, out_root: Path, seed: int, gate: Gate):
    """One pass over the steps; returns (seconds from the first CLI call to
    checked outputs, (err_u, err_v) of the first step that reports them)."""
    shutil.rmtree(out_root, ignore_errors=True)
    errors = None
    t0 = perf_counter()
    for step in steps:
        outdir = out_root / step.name
        code, stdout = call_cli(step, config_paths[step.name], outdir, seed)
        step_errors = check_step(step, outdir, code, stdout, gate)
        errors = errors or step_errors
    return perf_counter() - t0, errors
