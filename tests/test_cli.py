import concurrent.futures
import contextlib
import csv
import dataclasses
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advwave import cli, operators
from advwave.cli import (ConfigError, RunConfig, build_discretization, default_cfl,
                         flux_params, load_config, main, time_step, validate_config)
from advwave.basis import build_reference
from advwave.diagnostics import fit_rate
from advwave.fluxes import FluxParams
from advwave.mesh import build_mesh
from advwave.operators import Discretization, element_scale


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {"problem": "periodic1d", "q": 2, "flux": "sommerfeld",
           "w": 0.5, "c": 1.0, "n": 8, "T": 0.1}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# --- config ---------------------------------------------------------------------

def test_load_valid_config(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.problem == "periodic1d"
    assert cfg.dim == 1
    assert flux_params(cfg).dissipative


def test_unknown_field_rejected(tmp_path):
    with pytest.raises(ConfigError, match="bogus"):
        load_config(write_config(tmp_path, bogus=1))


@pytest.mark.parametrize("overrides,field", [
    ({"problem": "nope"}, "problem"),
    ({"q": 0}, "q"),
    ({"s": 5}, "s"),
    ({"flux": "roe"}, "flux"),
    ({"c": -1.0}, "c"),
    ({"w": [0.5, 0.5]}, "w"),
    ({"n": 1}, "n"),
    ({"T": -0.1}, "T"),
    ({"cfl": 0.0}, "cfl"),
    ({"n_list": [4]}, "n_list"),
    ({"flux": {"preset": "sommerfeld", "xi": -1.0}}, "xi"),
    ({"dim": 2}, "dim"),
    ({"q": True}, "q"),
    ({"T": "1"}, "T"),
    ({"T": float("inf")}, "T"),
    ({"c": float("nan")}, "c"),
    ({"w": "a"}, "w"),
    ({"n_quad": 4}, "n_quad"),
    ({"w": [float("nan")]}, "w"),
    ({"flux": {"preset": "custom", "sigma": "0.5"}}, "sigma"),
    ({"dt": True}, "dt"),
    ({"record_stride": 1}, "record_stride"),
    ({"seed": 7}, "seed"),
    ({"lift": True}, "lift"),
    ({"output_dir": "."}, "output_dir"),
    ({"sigma": 0.8}, "sigma"),
    ({"flux": {"preset": "custom", "sigmaa": 0.8}}, "sigmaa"),
    ({"flux": {"preset": "custom", "sigma": 1.5}}, "sigma"),
    ({"problem": "periodic2d"}, "w"),
    ({"n_list": [10, 10]}, "n_list"),
    ({"dim": 1}, "dim"),
    # c^2 overflows to an infinite element system or underflows to a singular one
    ({"c": 1e200}, "c"),
    ({"c": 1e-200}, "c"),
    ({"dt": 0}, "dt"),
    ({"n_states": 0}, "n_states"),
    ({"energy_tol": 0}, "energy_tol"),
    # the audit keeps a row per state: at most MAX_STATES of them
    ({"n_states": 100001}, "n_states"),
])
def test_invalid_configs(tmp_path, overrides, field):
    with pytest.raises(ConfigError, match=field):
        load_config(write_config(tmp_path, **overrides))


@pytest.mark.parametrize("problem,w", [("periodic1d", 0.5), ("mixed2d", [0.5, 0.5])])
def test_config_rejects_c_exactly_when_the_operator_does(tmp_path, problem, w):
    # c's element scale c^2 (h/2)^dim (2/h)^2 underflows near c = 1.5e-154
    # in 2D (3.7e-155 in 1D at n = 8) and overflows near 1.3e154 (3.4e153
    # in 1D); each range straddles both dimensions' limit
    n = 8
    dim = 1 if problem == "periodic1d" else 2
    mode = "periodic" if problem == "periodic1d" else "physical"
    for cs in (np.geomspace(1e-155, 1e-153, 7), np.geomspace(1e153, 1e155, 7)):
        accepted = []
        for c in map(float, cs):
            path = write_config(tmp_path, problem=problem, w=w, c=c, n=n)
            try:
                element_scale(dim, 1.0 / n, c)
            except ValueError as e:
                message = str(e)
            else:
                load_config(path)
                accepted.append(c)
                continue
            with pytest.raises(ConfigError) as err:
                load_config(path)
            assert str(err.value) == f"c: {message} (n = {n})"
            with pytest.raises(ValueError) as err:
                Discretization(build_mesh(dim, n, mode), build_reference(2, 2, dim=dim),
                               FluxParams.sommerfeld(c), np.atleast_1d(w), c)
            assert str(err.value) == message
        assert 0 < len(accepted) < len(cs)


def test_config_check_of_c_builds_nothing(tmp_path, monkeypatch):
    # the c rule is one scalar test: validating a sweep builds no reference
    # element and solves no element system
    def refuse(*args, **kwargs):
        raise AssertionError("config validation built an element")

    monkeypatch.setattr(cli, "build_reference", refuse)
    monkeypatch.setattr(operators, "lu_solve", refuse)
    for problem, w in (("periodic1d", 0.5), ("mixed2d", [0.5, 0.5])):
        load_config(write_config(tmp_path, problem=problem, w=w, n_list=[4, 6, 8, 12]))


def test_config_root_must_be_an_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[]")
    with pytest.raises(ConfigError, match="config root must be a JSON object"):
        load_config(str(path))


def test_workers_must_be_positive(tmp_path, capsys):
    path = write_config(tmp_path, n_list=[4, 6], T=0.01)
    assert main(["converge", "--config", path, "--output", str(tmp_path),
                 "--workers", "0"]) == 2
    assert capsys.readouterr().err == "config error: --workers must be >= 1\n"


def test_main_calls_share_one_parser_and_no_values(tmp_path, monkeypatch, capsys):
    # the parser is built once per process; each call starts from its defaults
    seen = []
    monkeypatch.setattr(cli, "cmd_spectrum",
                        lambda cfg, outdir, seed: seen.append((seed, outdir)) or 0)
    monkeypatch.setattr(cli, "cmd_converge",
                        lambda cfg, outdir, seed, workers: seen.append((seed, workers)) or 0)
    path, out = write_config(tmp_path), tmp_path / "out"
    assert main(["spectrum", "--config", path, "--seed", "7", "--output", str(out)]) == 0
    assert main(["spectrum", "--config", path]) == 0
    assert main(["converge", "--config", path, "--seed", "2", "--workers", "3"]) == 0
    assert main(["converge", "--config", path]) == 0
    assert seen == [(7, out), (0, Path(".")), (2, 3), (0, 1)]
    assert cli._parser() is cli._parser()
    # help and usage errors exit as argparse does, the same on every call
    outputs = []
    for argv, code in [(["--help"], 0), (["run", "--help"], 0), (["run"], 2),
                       (["run", "--config", path, "--seed", "x"], 2), ([], 2)] * 2:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == code
        outputs.append(capsys.readouterr())
    assert outputs[:5] == outputs[5:]
    assert "usage: advwave run" in outputs[2].err


@pytest.mark.parametrize("problem,w", [("periodic1d", 0.5), ("mixed2d", [0.5, 0.5])])
def test_wave_speed_that_overflows_the_operator(tmp_path, problem, w):
    # c = 1e152 leaves the element system finite but overflows the assembly
    path = write_config(tmp_path, problem=problem, w=w, c=1e152, n=4, n_list=[4, 5])
    load_config(path)
    for command in ("run", "converge", "energy", "spectrum"):
        assert main([command, "--config", path, "--output", str(tmp_path)]) == 2


@pytest.mark.parametrize("problem,w", [("periodic1d", 0.5), ("periodic2d", [0.5, 0.5]),
                                       ("mixed2d", [0.5, 0.5])])
def test_flux_that_overflows_the_operator(tmp_path, capsys, problem, w):
    # a tiny xi leaves the element solve finite but overflows the products
    # of trace maps and lifts
    path = write_config(tmp_path, problem=problem, q=3, w=w, n=3, T=0.01, n_list=[3, 4],
                        flux={"preset": "sommerfeld", "xi": 1e-307})
    for command in ("run", "converge", "energy", "spectrum"):
        assert main([command, "--config", path, "--output", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: c, w, flux: ") and err.count("\n") == 1


@pytest.mark.parametrize("overrides", [
    {"q": 3, "n": 3, "T": 0.01, "flux": {"preset": "sommerfeld", "xi": 1e-307}},
    {"c": 1e152}], ids=["xi", "c"])
def test_overflowing_operator_exits_without_warnings(tmp_path, capsys, overrides):
    # the assembly overflows quietly: the config error line is all stderr says
    path = write_config(tmp_path, n_list=[3, 4], **overrides)
    for command in ("run", "converge", "energy", "spectrum"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", path, "--output", str(tmp_path)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("config error: c, w, flux: ") and err.count("\n") == 1


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("problem,w,xi", [("periodic1d", 0.5, 3e-307),
                                          ("periodic2d", [0.5, 0.5], 5e-307)])
def test_spectrum_of_overflowing_bloch_symbols(tmp_path, problem, w, xi):
    # finite blocks whose Bloch symbols or their eigenvalues overflow have
    # no radius
    path = write_config(tmp_path, problem=problem, q=3, w=w, n_list=[3, 4],
                        flux={"preset": "sommerfeld", "xi": xi})
    assert main(["spectrum", "--config", path, "--output", str(tmp_path)]) == 0
    rows = (tmp_path / "spectrum.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3:] for row in rows] == [["nan", "False"]] * 2


def test_readme_lists_every_config_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    fields_list = readme.split("Config fields", 1)[1].split("\nNumber fields", 1)[0]
    named = set(re.findall(r"`(\w+)`", fields_list))
    assert {f.name for f in dataclasses.fields(RunConfig)} <= named
    # fields of earlier versions, now rejected as unknown
    assert not {"dim", "lift", "n_quad", "record_stride", "seed", "output_dir"} & named


def test_nested_flux_object(tmp_path):
    cfg = load_config(write_config(
        tmp_path, flux={"preset": "custom", "sigma": 0.6, "eta": 0.1}))
    p = flux_params(cfg)
    assert p.sigma == 0.6
    assert p.eta == 0.1
    assert p.xi == 1.0  # defaults to c


def test_flux_object_overrides_preset(tmp_path):
    cfg = load_config(write_config(tmp_path, flux={"preset": "sommerfeld", "sigma": 0.8}))
    assert flux_params(cfg) == FluxParams(sigma=0.8, beta=0.5, eta=0.5)
    # sommerfeld is built with the given xi before the other keys apply
    cfg = load_config(write_config(tmp_path, flux={"preset": "upwind", "xi": 2.0, "eta": 0.1}))
    assert flux_params(cfg) == FluxParams(sigma=0.5, beta=0.25, eta=0.1, xi=2.0)


def test_not_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json {")
    with pytest.raises(ConfigError):
        load_config(str(path))


# bytes that are not UTF-8, and an array nested past the decoder's recursion limit
@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf8", "nested-100000"])
def test_undecodable_config(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match="config is not valid JSON"):
        load_config(str(path))
    assert main(["run", "--config", str(path), "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config is not valid JSON") and err.count("\n") == 1


def test_default_cfl_table():
    two_pi = 2 * np.pi
    cases = [
        (dict(problem="periodic1d", q=3, flux="central"), 0.075 / two_pi),
        (dict(problem="periodic1d", q=3, flux="sommerfeld"), 0.1125 / two_pi),
        (dict(problem="periodic1d", q=3, flux="sommerfeld", w=2.0), 0.075 / two_pi),
        (dict(problem="periodic1d", q=6, flux="central"), 0.00375 / two_pi),
        (dict(problem="periodic1d", q=6, flux="sommerfeld"), 0.01125 / two_pi),
        (dict(problem="periodic2d", q=2, flux="central", w=[0.5, 0.5]), 0.075 / two_pi),
        (dict(problem="periodic2d", q=2, flux="sommerfeld", w=[0.5, 0.5]), 0.0375 / two_pi),
        (dict(problem="mixed2d", q=2, flux="sommerfeld", w=[0.5, 0.5]), 0.075 / two_pi),
    ]
    for overrides, expect in cases:
        cfg = RunConfig(**overrides)
        validate_config(cfg)
        assert default_cfl(cfg, flux_params(cfg)) == pytest.approx(expect)


def test_cfl_margin_warning(tmp_path, monkeypatch):
    # a large cfl warns: dt (c + |w|) q^2 / h = 1.5 * 16 = 24 > 2.8
    cfg = load_config(write_config(tmp_path, q=4, n=100, cfl=1.0))
    disc, _ = build_discretization(cfg)
    with pytest.warns(UserWarning, match="likely unstable"):
        time_step(cfg, disc)
    # the default steps of the benchmark's configs do not
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    steps = [s for ss in workloads.WORKLOADS.values() for s in ss if s.command != "spectrum"]
    assert {s.command for s in steps} == {"run", "converge", "energy"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for step in steps:
            cfg = RunConfig(**step.config)
            validate_config(cfg)
            for n in cfg.n_list or [cfg.n]:
                disc, _ = build_discretization(cfg, n=n, with_forcing=False)
                time_step(cfg, disc, steps=50 if step.command == "energy" else None)


def test_time_step_snapping(tmp_path, capsys):
    # the step count is the fewest steps no longer than dt_max = cfl h
    # that reach T, and dt is T over that count
    cfl = 0.075 / (2 * np.pi)
    disc, _ = build_discretization(RunConfig(q=1, n=10))
    dt_max = cfl * disc.mesh.h
    _, T, dt, n_steps = time_step(RunConfig(q=1, n=10, T=0.2, cfl=cfl), disc)
    assert T == 0.2 and dt == 0.2 / n_steps and dt <= dt_max
    # one step fewer would be longer than dt_max
    assert 0.2 / (n_steps - 1) > dt_max
    # dt_max = cfg.dt, on a mesh where none of these steps warns
    coarse, _ = build_discretization(RunConfig(q=1, n=2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for T, dt_max, expect in [(1.0, 0.25, (0.25, 4)),   # a whole ratio passes through
                                  (1.0, 0.3, (0.25, 4)),    # shrunk to land on T
                                  (0.1, 0.5, (0.1, 1)),     # a step longer than T is cut to T
                                  (0.0, 0.3, (0.0, 0))]:    # T = 0 takes no step
            assert time_step(RunConfig(q=1, n=2, T=T, dt=dt_max), coarse)[2:] == expect
        # a given number of steps is that many steps of dt_max
        assert time_step(RunConfig(q=1, n=2, dt=0.3), coarse, steps=50)[1:] == (15.0, 0.3, 50)
    # a ratio T / dt_max that overflows is a config error naming the step's fields
    for overrides, fields in [(dict(T=1e308, dt=0.05 * 0.01), "T, dt"),
                              (dict(T=0.1, dt=1e-320), "T, dt"),
                              (dict(T=0.1, cfl=1e-320), "T, cfl")]:
        assert main(["run", "--config", write_config(tmp_path, **overrides),
                     "--output", str(tmp_path)]) == 2
        assert fields in capsys.readouterr().err

# --- subcommands ----------------------------------------------------------------

def test_run_smoke(tmp_path):
    path = write_config(tmp_path, n=10, T=0.05)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--output", str(out)]) == 0
    assert (out / "run.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert np.isfinite(summary["err_u"])
    assert summary["n_steps"] * summary["dt"] == pytest.approx(0.05, abs=1e-12)
    header = (out / "run.csv").read_text().splitlines()[0]
    assert header == "step,t,energy,err_u,err_v"


def test_run_summary_records_resolved_flux(tmp_path):
    path = write_config(tmp_path, n=6, T=0.02, flux={"preset": "sommerfeld", "sigma": 0.8})
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--output", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert FluxParams(**summary["flux_params"]) == flux_params(load_config(path))
    assert not {"sigma", "beta", "eta", "xi"} & set(summary)


def test_run_t_zero_projection_error(tmp_path):
    path = write_config(tmp_path, T=0.0, n=16)
    out = tmp_path / "t0"
    assert main(["run", "--config", path, "--output", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    # lifted u starts from 0; lifted v0 = -w u0' is not zero, so err_v is
    # pure projection error
    assert summary["err_u"] == 0.0
    assert 0 < summary["err_v"] < 1e-2


def test_run_summary_is_the_last_row(tmp_path):
    # the steps of this run accumulate to just under 0.3; the last row is
    # recorded at t = T, and the summary reports that row
    path = write_config(tmp_path, n=20, q=3, T=0.3)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--output", str(out)]) == 0
    last = dict(zip(["step", "t", "energy", "err_u", "err_v"],
                    map(float, (out / "run.csv").read_text().splitlines()[-1].split(","))))
    summary = json.loads((out / "summary.json").read_text())
    assert last["t"] == 0.3 and last["step"] == summary["n_steps"]
    assert sum([summary["dt"]] * summary["n_steps"]) != 0.3
    assert (last["err_u"], last["err_v"], last["energy"]) == (
        summary["err_u"], summary["err_v"], summary["energy_final"])


@pytest.mark.parametrize("overrides,field", [
    ({"n": 10 ** 9}, "n"),
    ({"n_list": [4, 10 ** 6]}, "n_list"),
    ({"q": 1000}, "q, s"),
    ({"problem": "periodic2d", "w": [0.5, 0.5], "n": 300}, "n"),
    ({"problem": "mixed2d", "w": [0.5, 0.5], "q": 30, "n": 2}, "q, s"),
])
def test_memory_guard(overrides, field):
    # validate_config rejects the sizes before anything is allocated
    cfg = dataclasses.replace(RunConfig(T=0.0), **overrides)
    with pytest.raises(ConfigError, match=f"^{re.escape(field)}:"):
        validate_config(cfg)


def test_memory_guard_admits_the_acceptance_solves():
    # periodic2d q=3 n=40 has 51,200 unknowns
    validate_config(RunConfig(problem="periodic2d", w=[0.5, 0.5], n=40,
                              n_list=[5, 40]))


def test_converge_checks_its_default_grids(tmp_path, capsys):
    # q = 25 passes the block bound, but the default n = 40 grid does not
    path = write_config(tmp_path, problem="periodic2d", w=[0.5, 0.5], q=25, T=0.0)
    assert main(["converge", "--config", path, "--output", str(tmp_path)]) == 2
    assert "n_list: a solve with n = 40" in capsys.readouterr().err


# an existing file, a path under a file, and an output directory whose
# run.csv is a directory
@pytest.mark.parametrize("output,blocked", [("file", "file"), ("file/sub", "file/sub"),
                                            ("out", "out/run.csv")],
                         ids=["is-a-file", "under-a-file", "csv-is-a-dir"])
def test_unusable_output_exits_2(tmp_path, capsys, output, blocked):
    path = write_config(tmp_path, n=4, T=0.01)
    (tmp_path / "file").write_text("")
    (tmp_path / "out" / "run.csv").mkdir(parents=True)
    assert main(["run", "--config", path, "--output", str(tmp_path / output)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --output: ") and err.count("\n") == 1
    assert str(tmp_path / blocked) in err


def test_run_determinism(tmp_path):
    path = write_config(tmp_path, n=10, T=0.05)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", path, "--output", str(out1), "--seed", "3"])
    main(["run", "--config", path, "--output", str(out2), "--seed", "3"])
    assert (out1 / "run.csv").read_bytes() == (out2 / "run.csv").read_bytes()


def test_config_error_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, q=0)
    assert main(["run", "--config", path, "--output", str(tmp_path)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json"),
                 "--output", str(tmp_path)]) == 2
    assert main(["energy", "--config", write_config(tmp_path), "--seed", "-1",
                 "--output", str(tmp_path)]) == 2
    capsys.readouterr()
    # more than MAX_STEPS steps, up to a T / dt that overflows to infinity
    # or a cfl h that underflows to 0: a config error naming the step's
    # fields, not an endless run or a traceback
    for command, overrides, fields in [
            ("run", dict(n=6, T=1e308), "T, cfl"), ("run", dict(n=6, T=1e300), "T, cfl"),
            ("run", dict(n=4, cfl=1e-300), "T, cfl"), ("run", dict(n=4, cfl=5e-324), "T, cfl"),
            ("converge", dict(cfl=1e-320, n_list=[4, 6]), "T, cfl"),
            ("converge", dict(dt=1e-320, n_list=[4, 6]), "T, dt"),
            ("energy", dict(n=4, cfl=1e308), "T, cfl"),
            # the trace's 50 steps of a step that underflows to 0 take T = 0
            ("energy", dict(n=4, q=2, cfl=5e-324), "T, cfl")]:
        assert main([command, "--config", write_config(tmp_path, **overrides),
                     "--output", str(tmp_path)]) == 2
        assert fields in capsys.readouterr().err
    # energy resolves its trace's step before the audit writes anything
    assert not (tmp_path / "energy.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_instability_exit_code(tmp_path):
    # a step far beyond the RK4 stability limit
    path = write_config(tmp_path, q=4, n=40, T=30.0, cfl=20.0)
    with pytest.warns(UserWarning):
        code = main(["run", "--config", path, "--output", str(tmp_path / "u")])
    assert code == 3


def test_unstable_run_reports_no_overflow_warnings(tmp_path):
    # the arithmetic of the last steps before the state stops being finite
    # overflows; those warnings are dropped with the solve, so stderr holds
    # the step's stability warning and the one instability line
    path = write_config(tmp_path, q=4, n=40, T=30.0, cfl=20.0)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONWARNINGS": "default",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "advwave.cli", "run", "--config", path,
                           "--output", str(tmp_path / "u")],
                          capture_output=True, env=env, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "UserWarning: dt = 5.000e-01 likely unstable" in proc.stderr
    assert re.search(r"^instability: non-finite state detected at step \d+$", proc.stderr,
                     re.M), proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_solve_warnings_are_shown_once_the_solve_completes(monkeypatch):
    # a solve's warnings are held back: shown after it completes, dropped
    # when it raises InstabilityError
    def solve(state, disc, T, n_steps, observers=()):
        warnings.warn("from the solve", RuntimeWarning)
        if T > 1.0:
            raise cli.InstabilityError(3)
        return state

    monkeypatch.setattr(cli, "evolve", solve)
    with pytest.warns(RuntimeWarning, match="from the solve"):
        assert cli._evolve("state", None, 1.0, 1) == "state"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(cli.InstabilityError):
            cli._evolve("state", None, 2.0, 1)
    assert caught == []


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("workers", ["1", "2"])
def test_converge_instability_exit_code(tmp_path, capsys, workers):
    # at c = 30 the default Courant number blows up on n = 40; the message
    # survives the trip back from a worker process
    path = write_config(tmp_path, q=3, T=1.0, c=30.0, n_list=[40, 56])
    assert main(["converge", "--config", path, "--output", str(tmp_path / "c"),
                 "--workers", workers]) == 3
    err = capsys.readouterr().err
    assert re.search(r"^instability: non-finite state detected at step \d+$", err, re.M), err
    assert not (tmp_path / "c" / "errors.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_converge_warns_on_unstable_dt(tmp_path):
    path = write_config(tmp_path, T=1.0, cfl=2.0, n_list=[4, 6])
    with pytest.warns(UserWarning, match="likely unstable"):
        main(["converge", "--config", path, "--output", str(tmp_path / "c")])


@pytest.mark.parametrize("problem", ["periodic2d", "mixed2d"])
def test_converge_t_zero_has_no_rate(tmp_path, capsys, problem):
    # every problem starts from u = 0, so at T = 0 the u error is zero
    path = write_config(tmp_path, problem=problem, w=[0.5, 0.5], T=0.0, n_list=[2, 3])
    assert main(["converge", "--config", path, "--output", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert "T: no rate to fit" in err and "periodic1d" not in err


def test_converge_smoke_and_worker_determinism(tmp_path):
    path = write_config(tmp_path, T=0.05, n_list=[4, 6, 8])
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["converge", "--config", path, "--output", str(out1)]) == 0
    assert main(["converge", "--config", path, "--output", str(out2),
                 "--workers", "2"]) == 0
    assert (out1 / "errors.csv").read_bytes() == (out2 / "errors.csv").read_bytes()
    assert (out1 / "rates.csv").read_bytes() == (out2 / "rates.csv").read_bytes()
    header = (out1 / "rates.csv").read_text().splitlines()[0]
    assert header == "q,s,flux,w,c,rate_u,rate_v,rate_u_fine,rate_v_fine"


@pytest.mark.parametrize("grids", [[4, 6], [4, 6, 8, 10]])
def test_rates_csv_reports_the_finest_three_grids_slope(tmp_path, grids):
    # rate_u_fine and rate_v_fine are the slopes over the finest 3 grids of
    # errors.csv (all of them when there are fewer), from no further solve
    path = write_config(tmp_path, T=0.05, n_list=grids)
    out = tmp_path / "c"
    assert main(["converge", "--config", path, "--output", str(out)]) == 0
    with open(out / "errors.csv") as fh:
        errors = list(csv.DictReader(fh))
    with open(out / "rates.csv") as fh:
        (rates,) = csv.DictReader(fh)
    fine = errors[-3:]
    hs = [float(row["h"]) for row in fine]
    for field in ("u", "v"):
        expect = fit_rate(hs, [float(row[f"err_{field}"]) for row in fine])
        assert float(rates[f"rate_{field}_fine"]) == expect
        if len(grids) <= 3:
            assert rates[f"rate_{field}_fine"] == rates[f"rate_{field}"]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_converge_exits_3_when_errors_grow_under_refinement(tmp_path, capsys):
    # both grids take two steps of 0.5, far beyond RK4's interval on n = 6:
    # the errors grow as h shrinks; the sweep's files are still written
    path = write_config(tmp_path, T=1.0, cfl=3.0, n_list=[4, 6])
    out = tmp_path / "c"
    assert main(["converge", "--config", path, "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert re.search(r"^instability: errors grow under refinement "
                     r"\(rate_u=-\d\.\d{4}, rate_v=-\d\.\d{4}\)$", err, re.M), err
    assert len((out / "errors.csv").read_text().splitlines()) == 3
    with open(out / "rates.csv") as fh:
        (rates,) = csv.DictReader(fh)
    assert float(rates["rate_u"]) < 0 and float(rates["rate_v"]) < 0


# --- outputs do not depend on what the process ran before -----------------------

def test_energy_bytes_do_not_depend_on_history(tmp_path):
    # the energy audit of a family writes the same bytes in a fresh
    # interpreter as after a run of another grid of the family, whose
    # reference it then reuses
    family = dict(problem="mixed2d", q=2, w=[0.5, 0.5], flux="sommerfeld")
    energy = write_config(tmp_path, "energy.json", n=10, **family)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "advwave.cli", "energy", "--config", energy,
                           "--output", str(tmp_path / "fresh")],
                          capture_output=True, env=env, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    operators._family_reference.cache_clear()
    run = write_config(tmp_path, "run.json", n=14, T=0.05, **family)
    assert main(["run", "--config", run, "--output", str(tmp_path / "run")]) == 0
    assert main(["energy", "--config", energy, "--output", str(tmp_path / "after")]) == 0
    assert operators._family_reference.cache_info().misses == 1
    assert ((tmp_path / "fresh" / "energy.csv").read_bytes()
            == (tmp_path / "after" / "energy.csv").read_bytes())


# --- what a command imports ------------------------------------------------------

# runs each argv list through main in this interpreter, then prints the
# scipy and process-pool modules it has loaded
LOADED_AFTER = """
import json, sys
from advwave.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy" or m == "concurrent.futures.process")))
"""


def _loaded_after(tmp_path, commands):
    """The modules LOADED_AFTER reports for commands, (command, config
    overrides) pairs, run in a fresh interpreter: pytest has scipy loaded."""
    argvs = [[command, "--config", write_config(tmp_path, f"cfg{i}.json", **overrides),
              "--output", str(tmp_path / f"out{i}")]
             for i, (command, overrides) in enumerate(commands)]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", LOADED_AFTER, json.dumps(argvs)],
                          capture_output=True, env=env, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_serial_commands_load_no_scipy(tmp_path):
    # time stepping, errors, the energy audit and the spectra of both kinds
    # of mesh need numpy alone, and a serial sweep no process pool
    mixed = dict(problem="mixed2d", w=[0.5, 0.5], n=4, T=0.02)
    assert _loaded_after(tmp_path, [
        ("converge", dict(T=0.02, n_list=[4, 6])),
        ("converge", dict(problem="periodic2d", w=[0.5, 0.5], T=0.02, n_list=[3, 4])),
        ("run", mixed), ("energy", mixed), ("spectrum", dict(n_list=[4, 6])),
        ("spectrum", dict(problem="mixed2d", w=[0.5, 0.5], n_list=[3, 4]))]) == []


def test_converge_bytes_do_not_depend_on_grid_order(tmp_path):
    outputs = []
    for n_list in ([4, 6, 9, 12], [12, 9, 6, 4]):
        operators._family_reference.cache_clear()
        out = tmp_path / "-".join(map(str, n_list))
        path = write_config(tmp_path, T=0.05, n_list=n_list)
        assert main(["converge", "--config", path, "--output", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in ("errors.csv", "rates.csv")])
    assert outputs[0] == outputs[1]


def test_converge_assembles_one_reference(tmp_path):
    # a sweep's grids, and forced and unforced operators of its family,
    # share one reference assembly
    operators._family_reference.cache_clear()
    cfg = load_config(write_config(tmp_path, q=3, T=0.01))
    rows, *_ = cli.run_convergence(cfg)
    assert len(rows) == 9
    build_discretization(cfg, n=7, with_forcing=False)
    info = operators._family_reference.cache_info()
    assert (info.misses, info.hits) == (1, 9)


def test_converge_pool_capped_at_grid_count(tmp_path, monkeypatch):
    sizes = []

    class InProcessPool:
        """Records the requested pool size and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # run_convergence imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    path = write_config(tmp_path, T=0.05, n_list=[4, 6, 8])
    assert main(["converge", "--config", path, "--output", str(tmp_path / "c"),
                 "--workers", "5000"]) == 0
    assert sizes == [3]


def test_energy_audit_pass_and_fail(tmp_path):
    path = write_config(tmp_path, n=6)
    assert main(["energy", "--config", path,
                 "--output", str(tmp_path / "e")]) == 0
    # an unreachable tolerance forces the audit-failure exit code
    path = write_config(tmp_path, name="tight.json", n=6, energy_tol=1e-22)
    assert main(["energy", "--config", path,
                 "--output", str(tmp_path / "e2")]) == 4


@pytest.mark.parametrize("q,n", [(3, 80), (4, 40)])
def test_energy_audit_passes_conservative_runs(tmp_path, q, n):
    # a central flux's operator rate is ~0, so the residual is taken
    # relative to the sizes of its two terms: over max(1, |rate|) these
    # audits read 3.8e-9 and 6.8e-9 and failed the default tolerance
    path = write_config(tmp_path, q=q, n=n, flux="central", T=0.01)
    out = tmp_path / "e"
    assert main(["energy", "--config", path, "--output", str(out)]) == 0
    rows = (out / "energy.csv").read_text().splitlines()[1:]
    assert max(float(row.split(",")[3]) for row in rows) <= 1e-11


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_energy_trace_that_blows_up_exits_3(tmp_path, capsys):
    # the audit still writes its CSV and reports; the trace's state overflows
    path = write_config(tmp_path, w=1e300, n=4, T=0.01)
    out = tmp_path / "e"
    with pytest.warns(UserWarning, match="likely unstable"):
        assert main(["energy", "--config", path, "--output", str(out)]) == 3
    captured = capsys.readouterr()
    assert "energy audit: 20 states" in captured.out
    assert "instability: non-finite state detected at step 1" in captured.err
    assert len((out / "energy.csv").read_text().splitlines()) == 21


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_audit_wins_over_a_trace_that_blows_up(tmp_path, capsys):
    # the audit fails its unreachable tolerance and the flux's huge xi
    # makes the trace overflow: the exit code is the audit's
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": "periodic1d",
                                "flux": {"preset": "sommerfeld", "xi": 1e300},
                                "n": 4, "T": 0.01, "energy_tol": 1e-30}))
    assert main(["energy", "--config", str(path), "--output", str(tmp_path / "e")]) == 4
    captured = capsys.readouterr()
    assert "(FAIL at 1.0e-30)" in captured.out
    assert "instability: non-finite state detected at step 1" in captured.err


def test_energy_audit_states_are_successive_random_state_draws(tmp_path, monkeypatch):
    # each batch is one draw whose rows hold a state's u, then its v: the
    # audited states, over three batches, and then the trace's state are
    # the successive random_state draws of the seed's generator
    path = write_config(tmp_path, problem="mixed2d", w=[0.5, 0.5], n=3, n_states=5)
    disc, _ = build_discretization(load_config(path), with_forcing=False)
    monkeypatch.setattr(cli, "AUDIT_UNKNOWNS",
                        2 * disc.mesh.n_elements * (disc.ref.n_u + disc.ref.n_v))
    audited, traced = [], []
    residual, evolve = cli.energy_identity_residual, cli._evolve

    def audit(state, disc):
        audited.append(state)
        return residual(state, disc)

    def trace(state, *args, **kwargs):
        traced.append(state.copy())
        return evolve(state, *args, **kwargs)

    monkeypatch.setattr(cli, "energy_identity_residual", audit)
    monkeypatch.setattr(cli, "_evolve", trace)
    assert main(["energy", "--config", path, "--output", str(tmp_path / "e"),
                 "--seed", "3"]) == 0
    assert [len(state.u) for state in audited] == [2, 2, 1]
    rng = np.random.default_rng(3)
    expect = [cli.random_state(disc, rng) for _ in range(6)]
    got = [(u, v) for state in audited for u, v in zip(state.u, state.v)]
    got.append((traced[0].u, traced[0].v))
    for (u, v), state in zip(got, expect, strict=True):
        assert np.array_equal(u, state.u) and np.array_equal(v, state.v)


def test_energy_csv_shape(tmp_path):
    path = write_config(tmp_path, n=6, n_states=5)
    out = tmp_path / "ecsv"
    main(["energy", "--config", path, "--output", str(out)])
    lines = (out / "energy.csv").read_text().splitlines()
    assert lines[0] == "state,operator_rate,face_rate,residual"
    assert len(lines) == 6


def test_energy_trace_takes_its_step_from_the_config(tmp_path, capsys):
    # at c = 30 the default Courant number is unstable for upwind q=3 n=40:
    # the trace warns; with a small cfl its energy decays at every step
    trace = re.compile(r"energy trace over 50 steps: E\(0\)=(\S+) E\(T\)=(\S+) "
                       r"max per-step increase (\S+)")
    path = write_config(tmp_path, q=3, n=40, c=30.0, n_states=1)
    with pytest.warns(UserWarning, match="likely unstable"):
        assert main(["energy", "--config", path, "--output", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    path = write_config(tmp_path, q=3, n=40, c=30.0, n_states=1, cfl=4e-4)
    assert main(["energy", "--config", path, "--output", str(tmp_path / "b")]) == 0
    e0, e_final, rise = map(float, trace.search(capsys.readouterr().out).groups())
    assert e_final < e0 and rise < 0


def test_spectrum_smoke(tmp_path):
    path = write_config(tmp_path, n_list=[4, 8])
    out = tmp_path / "s"
    assert main(["spectrum", "--config", path, "--output", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "q,n,h,radius,converged"
    assert [line.split(",")[4] for line in lines[1:]] == ["True", "True"]
    r4 = float(lines[1].split(",")[3])
    r8 = float(lines[2].split(",")[3])
    assert r8 / r4 == pytest.approx(2.0, rel=0.2)


def test_spectrum_csv_repeats_in_one_process(tmp_path):
    # each probe draws its start vector from a generator seeded by --seed
    # alone, so a run with another seed in between leaves the CSV unchanged
    path = write_config(tmp_path, problem="mixed2d", w=[0.5, 0.5], n_list=[4, 5])
    assert main(["spectrum", "--config", path, "--output", str(tmp_path / "a")]) == 0
    assert main(["spectrum", "--config", path, "--output", str(tmp_path / "b"),
                 "--seed", "5"]) == 0
    assert main(["spectrum", "--config", path, "--output", str(tmp_path / "c")]) == 0
    first = (tmp_path / "a" / "spectrum.csv").read_bytes()
    assert (tmp_path / "c" / "spectrum.csv").read_bytes() == first


def test_spectrum_reports_no_convergence(tmp_path, monkeypatch, capsys):
    from advwave import diagnostics

    monkeypatch.setattr(diagnostics, "_dominant_ritz", lambda *args, **kwargs: (2.0 + 0j, False))
    # grids above the dense fallback's size limit
    path = write_config(tmp_path, problem="mixed2d", w=[0.5, 0.5], n_list=[11, 12])
    out = tmp_path / "s"
    assert main(["spectrum", "--config", path, "--output", str(out)]) == 0
    assert "spectrum: q=2 n=11 radius=2.000000e+00 converged=False" in capsys.readouterr().out
    rows = (out / "spectrum.csv").read_text().splitlines()[1:]
    assert [row.split(",")[4] for row in rows] == ["False", "False"]


def test_spectrum_of_an_overflowing_operator(tmp_path):
    # w near overflow on mixed2d: the supersonic axis sends the probe
    # straight to the dense eigenvalues, which give a radius, not an error
    path = write_config(tmp_path, problem="mixed2d", w=[1e300, 0.5], n_list=[4, 5])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["spectrum", "--config", path, "--output", str(tmp_path)]) == 0
    assert len((tmp_path / "spectrum.csv").read_text().splitlines()) == 3


# --- exit-code contract -----------------------------------------------------------

# Per-field pools of valid and invalid values.  Grids, degrees and times are
# small enough to keep an example to milliseconds, and always present where
# their defaults are not (n, n_list, T, n_states).  T = 1e300 and cfl = 1e-300
# ask for more than MAX_STEPS steps, T = 1e308 for an infinite number.
REQUIRED_POOLS = {
    "problem": ["periodic1d", "periodic2d", "mixed2d", "nope"],
    "n": [2, 3, 4, 1, 2.5],
    "n_list": [[2, 3], [2, 3, 4], [4], "a", [1, 2]],
    "T": [0.0, 0.01, 0.02, 1e300, 1e308, -0.1, float("inf"), "1"],
    "n_states": [1, 3, 0],
}
OPTIONAL_POOLS = {
    "q": [1, 2, 3, 0, True, "2"],
    "s": [None, 0, 1, 5],
    "flux": ["sommerfeld", "central", "upwind", "roe", 5, ["central"], {"preset": ["a"]},
             {"preset": "sommerfeld", "sigma": 0.8}, {"sigma": 0.7, "eta": 0.1},
             {"preset": "central", "xi": 0.5}, {"preset": "custom", "sigmaa": 0.8},
             {"sigma": 1.5}, {"preset": "upwind", "xi": -1.0}, {"beta": "a"}],
    "w": [0.5, 2.0, -0.3, [0.5, 0.5], [0.3, -0.2], [2.0, 0.5], "a", [float("nan")]],
    "c": [1.0, 0.5, 0.0, float("nan"), 1e200, 1e-200],
    "cfl": [None, 0.05, 0.5, 1e-300, 5e-324, 0.0, -1.0],
    "dt": [None, 0.005, 1e-320, 0.0, True],
    "energy_tol": [1e-9, 1e-30, -1.0],
    "sigma": [0.5],
}
configs = st.fixed_dictionaries(
    {name: st.sampled_from(pool) for name, pool in REQUIRED_POOLS.items()},
    optional={name: st.sampled_from(pool) for name, pool in OPTIONAL_POOLS.items()})


@pytest.mark.filterwarnings("ignore")
@given(command=st.sampled_from(["run", "converge", "energy", "spectrum"]), cfg=configs)
@settings(max_examples=150, deadline=None)
def test_main_returns_only_contract_exit_codes(command, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", str(path), "--output", tmp])
    assert code in (0, 2, 3, 4)


@pytest.mark.parametrize("command,overrides", [
    ("run", {}), ("converge", {"n_list": [4, 6]}), ("energy", {}),
    ("spectrum", {"n_list": [4, 6]})])
def test_closed_stdout_exits_2(tmp_path, command, overrides):
    # stdout is a pipe whose reader has already gone: one stderr line and
    # exit 2, as for an unusable --output, and no traceback at exit
    path = write_config(tmp_path, n=4, T=0.01, **overrides)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "advwave.cli", command, "--config", path,
                               "--output", str(tmp_path / "out")],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == ["config error: stdout: Broken pipe"]
