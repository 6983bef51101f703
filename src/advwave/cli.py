"""Command-line front end: single runs, convergence sweeps, energy audits,
and spectral-radius scans, all driven by a JSON config file.

Exit codes: 0 success, 2 bad configuration (an unusable --output or a
closed stdout among them), 3 instability (during time stepping, or errors
that grow under refinement), 4 energy-audit failure.  All CSV output is
byte-deterministic ('.' decimal separator, '\\n' line endings, repr-style
float formatting).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .basis import build_reference
from .diagnostics import (FIT_WINDOW, discrete_energy, energy_identity_residual,
                          fit_rate, l2_error, spectral_radius_probe)
from .fluxes import FluxParams
from .mesh import build_mesh
from .operators import Discretization, ModalState, element_scale
from .problems import ProblemSpec, mixed_2d, periodic_1d, periodic_2d, project_initial
from .timeint import InstabilityError, evolve

TWO_PI = 2.0 * np.pi

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INSTABILITY = 3
EXIT_ENERGY = 4

DEFAULT_GRIDS = {1: [10, 14, 20, 28, 40, 56, 80, 112, 160],
                 2: [5, 7, 10, 14, 20, 28, 40]}
# the finest grids of a sweep whose slope rates.csv reports next to the fit
# over every grid (``fine_rates``)
FINE_GRIDS = 3

# the most steps one solve may take: about 1,900 times the longest
# acceptance solve (the sonic sweep's n = 160 grid, about 5,400 steps)
MAX_STEPS = 10 ** 7
# the most unknowns one solve may have, n^dim (Nu+Nv), and the most entries
# one element block may have, (Nu+Nv)^2: 40 times the largest acceptance
# solve (periodic2d q=3 n=40, 51,200 unknowns), so that a config too large
# for the memory exits 2 instead of being killed
MAX_UNKNOWNS = 2 * 10 ** 6
# the most random states one energy audit may take, each kept as a row:
# 5,000 times the default
MAX_STATES = 10 ** 5
# the most unknowns of the random states the energy audit stacks into one
# pass of its face side (its traces take a few times as many numbers)
AUDIT_UNKNOWNS = 2 ** 17


class ConfigError(ValueError):
    """Configuration problem; the message names the offending field."""


@dataclass
class RunConfig:
    problem: str = "periodic1d"   # periodic1d | periodic2d | mixed2d
    q: int = 3
    s: int | None = None          # defaults to q
    flux: object = "sommerfeld"   # preset name or {"preset", "sigma", "beta", "eta", "xi"}
    w: object = 0.5               # scalar (1D) or [wx, wy] (2D)
    c: float = 1.0
    n: int = 20
    n_list: list | None = None    # grid sizes for converge / spectrum
    T: float = 1.0
    cfl: float | None = None      # defaults from the problem/flux table
    dt: float | None = None
    n_states: int = 20            # energy-audit sample count
    energy_tol: float = 1e-9

    @property
    def dim(self) -> int:
        return 1 if self.problem == "periodic1d" else 2

    @property
    def flux_preset(self) -> str:
        f = self.flux
        return f.get("preset", "custom") if isinstance(f, dict) else f

    @property
    def flux_keys(self) -> dict:
        """The flux object's keys; empty when flux is a preset name."""
        return self.flux if isinstance(self.flux, dict) else {}


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}")
    # JSON text is UTF-8 (RFC 8259); json raises RecursionError on deep nesting
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = RunConfig()
    known = set(cfg.__dataclass_fields__)
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(f"unknown config field {key!r}")
        setattr(cfg, key, value)
    validate_config(cfg)
    return cfg


def _is_int(x) -> bool:
    """True for JSON integers; JSON booleans load as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """True for finite JSON numbers (booleans excluded)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


# number fields; None selects the default of the optional ones
REAL_FIELDS = ("c", "T", "cfl", "dt", "energy_tol")
OPTIONAL_REAL_FIELDS = frozenset({"cfl", "dt"})

# flux presets, each built from the splitting speed xi
FLUX_PRESETS = {"central": FluxParams.central, "sommerfeld": FluxParams.sommerfeld,
                "upwind": FluxParams.sommerfeld, "custom": lambda xi: FluxParams(xi=xi)}
FLUX_KEYS = ("sigma", "beta", "eta", "xi")


def validate_config(cfg: RunConfig) -> None:
    if cfg.problem not in ("periodic1d", "periodic2d", "mixed2d"):
        raise ConfigError(f"problem: unknown problem {cfg.problem!r}")
    if not _is_int(cfg.q) or cfg.q < 1:
        raise ConfigError("q: polynomial degree must be an integer >= 1")
    if cfg.s is not None and (not _is_int(cfg.s) or not 0 <= cfg.s <= cfg.q):
        raise ConfigError("s: must be an integer with 0 <= s <= q")
    if not isinstance(cfg.flux_preset, str) or cfg.flux_preset not in FLUX_PRESETS:
        raise ConfigError(f"flux: unknown preset {cfg.flux_preset!r} "
                          "(central|sommerfeld|upwind|custom)")
    for key, value in cfg.flux_keys.items():
        if key != "preset" and key not in FLUX_KEYS:
            raise ConfigError(f"flux: unknown key {key!r} (preset|sigma|beta|eta|xi)")
        if key in FLUX_KEYS and not _is_real(value):
            raise ConfigError(f"flux.{key}: must be a finite number, got {value!r}")
    for name in REAL_FIELDS:
        value = getattr(cfg, name)
        if not (_is_real(value) or (value is None and name in OPTIONAL_REAL_FIELDS)):
            raise ConfigError(f"{name}: must be a finite number, got {value!r}")
    if cfg.c <= 0:
        raise ConfigError("c: wave speed must be positive")
    if cfg.flux_keys.get("xi", 1.0) <= 0:
        raise ConfigError("flux.xi: splitting speed must be positive")
    w = cfg.w if isinstance(cfg.w, (list, tuple)) else [cfg.w]
    if not all(_is_real(x) for x in w):
        raise ConfigError(f"w: components must be finite numbers, got {cfg.w!r}")
    if len(w) != cfg.dim:
        raise ConfigError(f"w: expected {cfg.dim} component(s) for {cfg.problem}")
    if not _is_int(cfg.n) or cfg.n < 2:
        raise ConfigError("n: need an integer number of elements >= 2")
    if cfg.T < 0:
        raise ConfigError("T: final time must be nonnegative")
    if cfg.cfl is not None and cfg.cfl <= 0:
        raise ConfigError("cfl: must be positive")
    if cfg.dt is not None and cfg.dt <= 0:
        raise ConfigError("dt: must be positive")
    if cfg.n_list is not None:
        if (not isinstance(cfg.n_list, list) or len(cfg.n_list) < 2
                or any(not _is_int(g) or g < 2 for g in cfg.n_list)):
            raise ConfigError("n_list: need a list of at least 2 integers >= 2")
        if len(set(cfg.n_list)) < len(cfg.n_list):
            raise ConfigError("n_list: grid sizes must be distinct")
    if not _is_int(cfg.n_states) or not 1 <= cfg.n_states <= MAX_STATES:
        raise ConfigError(f"n_states: must be an integer from 1 to {MAX_STATES}")
    if cfg.energy_tol <= 0:
        raise ConfigError("energy_tol: must be positive")
    if _block_size(cfg) ** 2 > MAX_UNKNOWNS:
        raise ConfigError(f"q, s: an element block of (Nu+Nv)^2 = {_block_size(cfg) ** 2} "
                          f"entries is more than {MAX_UNKNOWNS}")
    _check_grid(cfg, cfg.n, "n")
    for n in cfg.n_list or ():
        _check_grid(cfg, n, "n_list")
    flux_params(cfg)


def _block_size(cfg: RunConfig) -> int:
    """Nu+Nv, the coefficients of one element."""
    s = cfg.s if cfg.s is not None else cfg.q
    return (cfg.q + 1) ** cfg.dim + (s + 1) ** cfg.dim


def _check_grid(cfg: RunConfig, n: int, field: str) -> None:
    """Raise ConfigError for a solve on n elements per direction: naming
    field when it has more than MAX_UNKNOWNS unknowns, naming c when the
    wave speed makes its element system infinite or singular."""
    unknowns = n ** cfg.dim * _block_size(cfg)
    if unknowns > MAX_UNKNOWNS:
        raise ConfigError(f"{field}: a solve with n = {n} has n^dim (Nu+Nv) = {unknowns} "
                          f"unknowns, more than {MAX_UNKNOWNS}")
    try:
        # the mesh's element size is 1/n
        element_scale(cfg.dim, 1.0 / n, cfg.c)
    except ValueError as e:
        raise ConfigError(f"c: {e} (n = {n})")


def _sweep_grids(cfg: RunConfig, count: int | None = None) -> list:
    """The grids of a sweep: cfg.n_list, or the first count (all, for None)
    default grids of cfg's dimension.  validate_config checked the grids a
    config names; the default ones are checked here."""
    if cfg.n_list is not None:
        return cfg.n_list
    grids = DEFAULT_GRIDS[cfg.dim][:count]
    for n in grids:
        _check_grid(cfg, n, "n_list")
    return grids


def flux_params(cfg: RunConfig) -> FluxParams:
    """The flux of cfg.flux: its preset built with xi (default c), then the
    object's other keys applied over the preset's values."""
    keys = {k: v for k, v in cfg.flux_keys.items() if k != "preset"}
    xi = keys.pop("xi", cfg.c)
    try:
        return dataclasses.replace(FLUX_PRESETS[cfg.flux_preset](xi), **keys)
    except ValueError as e:
        raise ConfigError(f"flux: {e}")


def default_cfl(cfg: RunConfig, params: FluxParams) -> float:
    """Stable Courant numbers found experimentally for RK4 at degrees <= 5;
    q >= 6 takes them 10 times smaller (20 times for the 1D central flux)."""
    w = np.atleast_1d(np.asarray(cfg.w, dtype=float))
    supersonic = np.any(np.abs(w) > cfg.c)
    if cfg.dim == 1:
        if not params.dissipative:
            base = 0.075 if cfg.q < 6 else 0.00375
        elif supersonic:
            base = 0.075 if cfg.q < 6 else 0.0075
        else:
            base = 0.1125 if cfg.q < 6 else 0.01125
    else:
        if cfg.problem == "mixed2d":
            base = 0.075
        elif params.dissipative:
            base = 0.0375
        else:
            base = 0.075
        if cfg.q >= 6:
            base /= 10.0
    return base / TWO_PI


def time_step(cfg: RunConfig, disc: Discretization, steps: int | None = None):
    """(cfl, T, dt, n_steps) of a time-stepped solve on disc.

    cfl is cfg.cfl, or default_cfl's when unset; the longest step dt_max
    is cfg.dt if given, otherwise cfl * h.  The solve takes the given number
    of steps of dt_max, or the fewest steps no longer than dt_max to cfg.T
    (none when T = 0), of dt = T / n_steps.  More than MAX_STEPS steps, or
    a dt_max that underflows to 0 (whatever T is), is a config error.
    Warns when the step is likely unstable: when its product with the
    estimated spectral radius (c + |w|) q^2 / h exceeds 2.8, just inside
    RK4's stability interval on the imaginary axis (2 sqrt 2).
    """
    h = disc.mesh.h
    cfl = cfg.cfl if cfg.cfl is not None else default_cfl(cfg, disc.params)
    dt_max = cfg.dt if cfg.dt is not None else cfl * h
    T = cfg.T if steps is None else steps * dt_max
    # a step that underflows to 0 is no step, whatever T is (the energy
    # trace's T is 50 of them); the comparison is False for an infinite ratio
    knob = "dt" if cfg.dt is not None else "cfl"
    if not dt_max > 0:
        raise ConfigError(f"T, {knob}: the step underflows to dt = {dt_max!r}")
    if not T / dt_max <= MAX_STEPS:
        raise ConfigError(f"T, {knob}: T / dt = {T!r} / {dt_max!r} is more "
                          f"than {MAX_STEPS} steps")
    if T == 0:
        n_steps, dt = 0, 0.0
    else:
        n_steps = steps if steps is not None else max(1, math.ceil(T / dt_max - 1e-12))
        dt = T / n_steps
    radius = (disc.c + float(np.linalg.norm(disc.w))) * cfg.q * cfg.q / h
    if dt * radius > 2.8:
        warnings.warn(f"dt = {dt:.3e} likely unstable: estimated spectral radius "
                      f"{radius:.3e} exceeds the RK4 stability interval", stacklevel=2)
    return cfl, T, dt, n_steps


def build_problem(cfg: RunConfig) -> ProblemSpec:
    w = np.atleast_1d(np.asarray(cfg.w, dtype=float))
    if cfg.problem == "periodic1d":
        return periodic_1d(float(w[0]), cfg.c)
    if cfg.problem == "periodic2d":
        return periodic_2d(w, cfg.c)
    return mixed_2d(w, cfg.c)


def build_discretization(cfg: RunConfig, n: int | None = None,
                         with_forcing: bool = True) -> tuple[Discretization, ProblemSpec]:
    spec = build_problem(cfg)
    s = cfg.s if cfg.s is not None else cfg.q
    ref = build_reference(cfg.q, s, dim=cfg.dim)
    mesh = build_mesh(cfg.dim, n if n is not None else cfg.n, spec.boundary_mode)
    params = flux_params(cfg)
    forcing = spec.forcing if with_forcing else None
    try:
        disc = Discretization(mesh, ref, params, spec.w, spec.c, forcing=forcing)
    except ValueError as e:
        # validate_config checked each field; a large c, w or flux
        # coefficient can still overflow the operator's assembly
        raise ConfigError(f"c, w, flux: the operator on n = {mesh.n} is not finite ({e})")
    return disc, spec


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) if isinstance(c, (int, str)) else fmt(c)
                              for c in row) + "\n")


def _evolve(state: ModalState, disc: Discretization, T: float, n_steps: int,
            observers=()) -> ModalState:
    """``evolve``, with the warnings raised during the solve held back and
    shown once it completes.  A solve that blows up raises InstabilityError
    alone: the overflow warnings of its last steps' arithmetic are dropped."""
    with warnings.catch_warnings(record=True) as caught:
        final = evolve(state, disc, T, n_steps, observers=observers)
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    return final


# --- subcommands -------------------------------------------------------------

def cmd_run(cfg: RunConfig, outdir, seed: int) -> int:
    disc, spec = build_discretization(cfg)
    cfl, T, dt, n_steps = time_step(cfg, disc)
    state = project_initial(spec, disc)

    # the steps i * n_steps // 100 for i = 0..100: min(n_steps, 100) + 1
    # rows, from t = 0 to t = T
    kept = {i * n_steps // 100 for i in range(101)}
    rows = []

    def record(step: int, st: ModalState):
        if step not in kept:
            return
        e = discrete_energy(st, disc)
        eu, ev = l2_error(st, spec, st.t, disc)
        rows.append((step, st.t, e, eu, ev))

    _evolve(state, disc, T, n_steps, observers=[record])
    write_csv(outdir / "run.csv", ["step", "t", "energy", "err_u", "err_v"], rows)
    # the last row is the final state, at t = T
    _, _, energy, eu, ev = rows[-1]
    summary = asdict(cfg) | {
        "flux_params": asdict(disc.params),
        "cfl_resolved": cfl, "dt": dt, "n_steps": n_steps,
        "err_u": eu, "err_v": ev, "energy_final": energy,
        "seed": seed,
    }
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    print(f"run complete: n={cfg.n} T={cfg.T} err_u={eu:.6e} err_v={ev:.6e}")
    return EXIT_OK


def _converge_one(cfg: RunConfig, n: int):
    """Worker body for one grid of a convergence sweep (picklable)."""
    disc, spec = build_discretization(cfg, n=n)
    _, T, _, n_steps = time_step(cfg, disc)
    state = project_initial(spec, disc)
    final = _evolve(state, disc, T, n_steps)
    eu, ev = l2_error(final, spec, final.t, disc)
    return n, disc.mesh.h, eu, ev


def run_convergence(cfg: RunConfig, workers: int = 1):
    """Errors and fitted rates over cfg's grid sequence; returns
    (rows, rate_u, rate_v, window) with rows ordered coarse to fine."""
    grids = _sweep_grids(cfg)
    # the pool starts all its processes at once: no more than there are grids
    workers = min(workers, len(grids))
    if workers > 1:
        # imported here: a serial sweep does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_converge_one, [cfg] * len(grids), grids))
    else:
        results = [_converge_one(cfg, n) for n in grids]
    results.sort(key=lambda r: r[0])  # deterministic order regardless of pool
    hs = [r[1] for r in results]
    try:
        rate_u = fit_rate(hs, [r[2] for r in results])
        rate_v = fit_rate(hs, [r[3] for r in results])
    except ValueError as e:
        raise ConfigError(f"T: no rate to fit, {e} (every problem starts "
                          "from u = 0, so T = 0 has zero u error)")
    return results, rate_u, rate_v, min(FIT_WINDOW, len(grids))


def fine_rates(rows):
    """The slopes of the u and v errors over the FINE_GRIDS finest grids of
    a sweep's rows (ordered coarse to fine; all of them when there are
    fewer).  The least-squares slope over every grid takes in the coarse
    grids, whose errors are not yet in the asymptotic regime; over the
    finest 3 the slope is within 0.07 of theory on every rate criterion."""
    fine = rows[-FINE_GRIDS:]
    hs = [r[1] for r in fine]
    return fit_rate(hs, [r[2] for r in fine]), fit_rate(hs, [r[3] for r in fine])


def cmd_converge(cfg: RunConfig, outdir, seed: int, workers: int) -> int:
    rows, rate_u, rate_v, window = run_convergence(cfg, workers=workers)
    # the fit over every grid checked the errors: the finest are positive
    fine_u, fine_v = fine_rates(rows)
    write_csv(outdir / "errors.csv", ["n", "h", "err_u", "err_v"], rows)
    w = np.atleast_1d(np.asarray(cfg.w, dtype=float))
    write_csv(outdir / "rates.csv",
              ["q", "s", "flux", "w", "c", "rate_u", "rate_v", "rate_u_fine", "rate_v_fine"],
              [(cfg.q, cfg.s if cfg.s is not None else cfg.q, cfg.flux_preset,
                ";".join(fmt(x) for x in w), cfg.c, rate_u, rate_v, fine_u, fine_v)])
    print(f"convergence: rate_u={rate_u:.4f} rate_v={rate_v:.4f} "
          f"(window={window}, grids={[r[0] for r in rows]}); "
          f"finest {min(FINE_GRIDS, len(rows))}: rate_u={fine_u:.4f} rate_v={fine_v:.4f}")
    if rate_u < 0 or rate_v < 0:
        print(f"instability: errors grow under refinement (rate_u={rate_u:.4f}, "
              f"rate_v={rate_v:.4f})", file=sys.stderr)
        return EXIT_INSTABILITY
    return EXIT_OK


def random_state(disc: Discretization, rng) -> ModalState:
    return ModalState(
        u=rng.standard_normal((disc.mesh.n_elements, disc.ref.n_u)),
        v=rng.standard_normal((disc.mesh.n_elements, disc.ref.n_v)),
        t=0.0,
    )


def cmd_energy(cfg: RunConfig, outdir, seed: int) -> int:
    disc, spec = build_discretization(cfg, with_forcing=False)
    # the trace's step, resolved first so that a bad one fails before any output
    _, T, _, n_steps = time_step(cfg, disc, steps=50)
    rng = np.random.default_rng(seed)
    # the face side of a batch of states is one pass; a batch holds at
    # most AUDIT_UNKNOWNS unknowns
    n_el, nu = disc.mesh.n_elements, disc.ref.n_u
    width = n_el * (nu + disc.ref.n_v)
    batch = max(1, AUDIT_UNKNOWNS // width)
    rows = []
    for first in range(0, cfg.n_states, batch):
        # one draw: each row holds a state's u, then its v, as successive
        # random_state draws would
        draws = rng.standard_normal((min(batch, cfg.n_states - first), width))
        u, v = np.split(draws, [n_el * nu], axis=1)
        stacked = ModalState(u.reshape(len(draws), n_el, -1), v.reshape(len(draws), n_el, -1))
        rows += zip(range(first, first + len(draws)),
                    *energy_identity_residual(stacked, disc))
    # a NaN residual fails the audit
    worst = float(np.max([row[3] for row in rows]))
    write_csv(outdir / "energy.csv", ["state", "operator_rate", "face_rate", "residual"],
              rows)
    ok = worst <= cfg.energy_tol
    print(f"energy audit: {cfg.n_states} states, worst residual {worst:.3e} "
          f"({'pass' if ok else 'FAIL'} at {cfg.energy_tol:.1e})")

    # short evolution sign check (dissipative fluxes should never see the
    # energy grow); a trace that blows up exits 3, or 4 if the audit failed
    trace = []
    st = random_state(disc, rng)
    try:
        _evolve(st, disc, T, n_steps,
                observers=[lambda k, s: trace.append(discrete_energy(s, disc))])
    except InstabilityError as e:
        print(f"instability: {e}", file=sys.stderr)
        return EXIT_INSTABILITY if ok else EXIT_ENERGY
    worst_rise = max((b - a for a, b in zip(trace, trace[1:])), default=0.0)
    print(f"energy trace over {len(trace) - 1} steps: "
          f"E(0)={trace[0]:.6e} E(T)={trace[-1]:.6e} "
          f"max per-step increase {worst_rise:.3e}")
    return EXIT_OK if ok else EXIT_ENERGY


def cmd_spectrum(cfg: RunConfig, outdir, seed: int) -> int:
    grids = _sweep_grids(cfg, 4)
    rows = []
    for n in grids:
        disc, _ = build_discretization(cfg, n=n, with_forcing=False)
        radius, converged = spectral_radius_probe(disc, seed=seed)
        rows.append((cfg.q, n, disc.mesh.h, radius, bool(converged)))
        print(f"spectrum: q={cfg.q} n={n} radius={radius:.6e} "
              f"converged={bool(converged)}")
    write_csv(outdir / "spectrum.csv", ["q", "n", "h", "radius", "converged"], rows)
    return EXIT_OK


# --- entry point -------------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    ``main`` call in the process: building it takes about ten times as long
    as a parse, and a parse reads it without changing it."""
    parser = argparse.ArgumentParser(
        prog="advwave",
        description="Energy-based DG solver for the advective wave equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("run", "single simulation, writing run.csv and summary.json"),
        ("converge", "grid-refinement sweep, writing errors.csv and rates.csv"),
        ("energy", "energy-identity audit on random states"),
        ("spectrum", "spectral-radius scan over grids"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--output", default=".",
                       help="output directory (default: the current directory)")
        p.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
        p.add_argument("--workers", type=int, default=1)
    return parser


def main(argv=None) -> int:
    from pathlib import Path

    args = _parser().parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    if args.workers < 1:
        print("config error: --workers must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed < 0:
        print("config error: --seed must be >= 0", file=sys.stderr)
        return EXIT_CONFIG

    outdir = Path(args.output)
    dispatch = {"run": cmd_run, "energy": cmd_energy, "spectrum": cmd_spectrum,
                "converge": functools.partial(cmd_converge, workers=args.workers)}
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        code = dispatch[args.command](cfg, outdir, args.seed)
        # a closed stdout shows here, not in the interpreter's last flush
        sys.stdout.flush()
        return code
    except BrokenPipeError as e:
        # stdout's reader is gone: the rest of its buffer goes to the null
        # device, so that the interpreter's last flush is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"config error: stdout: {e.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except InstabilityError as e:
        print(f"instability: {e}", file=sys.stderr)
        return EXIT_INSTABILITY
    except OSError as e:
        # the config was read above, so a file error here is one of --output's
        if e.filename is None:
            raise
        print(f"config error: --output: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
