"""Span recorder for the traced benchmark run.

``Recorder.installed()`` wraps, from outside, every public function of the
solver's layers (and the public methods of their classes), records one span
per call and restores every wrapped attribute on exit, so untraced passes
run unpatched code.  A span has a name, start, end, parent (the index of
the enclosing span, -1 at the top) and solve (the number of
``cli.build_discretization`` calls made so far).  Spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import functools
import importlib
import inspect
import statistics
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("basis", "mesh", "problems", "operators", "fluxes", "timeint", "diagnostics", "cli")
SOLVE_START = "cli.build_discretization"
RHS = "operators.Discretization.rhs"
FACE_FLUX_STATES = "operators.Discretization.face_flux_states"
RK4_STEP = "timeint.rk4_step"
# A solve's set-up: problem, reference, mesh and Discretization, then the
# initial projection of a time-stepped solve.
SETUP = frozenset({SOLVE_START, "problems.project_initial"})


def _count_rhs(rec, args, result):
    _, u, v = args[:3]
    du, dv = result
    rec.counters["rhs_dofs"] += u.size + v.size
    rec.counters["rhs_bytes"] += u.nbytes + v.nbytes + du.nbytes + dv.nbytes


def _count_face_bytes(rec, args, result):
    rec.counters["rhs_bytes"] += sum(a.nbytes for a in result)


def _wrap_forcing(rec, args, result):
    disc = args[0]
    if disc.forcing is not None:
        disc.forcing = rec.wrap("problems.forcing", disc.forcing)


# Work counted at a span's boundary after the call returns.
ON_RETURN = {
    RHS: _count_rhs,
    FACE_FLUX_STATES: _count_face_bytes,
    "operators.Discretization.__init__": _wrap_forcing,
}


def _layer_functions():
    """(span name, function, bindings) for each public function of the layers.

    A module-level function is rebound wherever a package module imported
    it by name; a method only on its class.  scipy's ``lu_solve``, as bound
    in ``operators``, is the element solve.
    """
    import advwave
    modules = [advwave] + [importlib.import_module(f"advwave.{layer}") for layer in LAYERS]
    for layer, mod in zip(LAYERS, modules[1:]):
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{layer}.{attr}", obj, [(m, a) for m in modules
                                               for a, o in vars(m).items() if o is obj]
            elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                for name, method in vars(obj).items():
                    public = not name.startswith("_") or (
                        name == "__init__" and not dataclasses.is_dataclass(obj))
                    if inspect.isfunction(method) and public:
                        yield f"{layer}.{obj.__name__}.{name}", method, [(obj, name)]
    operators = modules[1 + LAYERS.index("operators")]
    yield "operators.lu_solve", operators.lu_solve, [(operators, "lu_solve")]


class Recorder:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self, only=None):
        self.only = only            # span names to record; None records all
        # one entry per span, in order of entry; arrays keep the spans out
        # of the garbage collector's way
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.solves = array("q")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._solve = 0

    def wrap(self, name, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, solves, stack = self.parents, self.solves, self._stack
        on_return = ON_RETURN.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == SOLVE_START:
                self._solve += 1
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            solves.append(self._solve)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(self, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        patched = []
        try:
            for name, fn, bindings in list(_layer_functions()):
                if self.only is not None and name not in self.only:
                    continue
                wrapper = self.wrap(name, fn)
                for owner, attr in bindings:
                    patched.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, fn in reversed(patched):
                setattr(owner, attr, fn)

    def top_level_s(self) -> float:
        """Summed duration of the spans that have no recorded parent."""
        return sum(end - start for start, end, parent
                   in zip(self.starts, self.ends, self.parents) if parent < 0)

    def write_csv(self, path) -> None:
        """Write the spans, times relative to the first span's start."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start_s", "end_s", "parent", "solve"])
            for i, name in enumerate(self.names):
                out.writerow([i, name, repr(self.starts[i] - t0), repr(self.ends[i] - t0),
                              self.parents[i], self.solves[i]])


# Per-layer metric -> spans whose summed duration it reports.
TIME_METRICS = {
    "operators.rhs_s": (RHS,),
    "operators.side_traces_s": ("operators.Discretization.side_traces",),
    "operators.face_flux_states_s": (FACE_FLUX_STATES,),
    "fluxes.compute_flux_s": ("fluxes.compute_flux",),
    "operators.element_solve_s": ("operators.lu_solve",),
    "problems.forcing_s": ("problems.forcing",),
    "timeint.rk4_step_s": (RK4_STEP,),
    "diagnostics.l2_error_s": ("diagnostics.l2_error",),
    "diagnostics.discrete_energy_s": ("diagnostics.discrete_energy",),
    "diagnostics.spectral_radius_probe_s": ("diagnostics.spectral_radius_probe",),
    "diagnostics.energy_identity_residual_s": ("diagnostics.energy_identity_residual",),
    "operators.boundary_energy_rate_s": ("operators.Discretization.boundary_energy_rate",),
    "basis.build_reference_s": ("basis.build_reference",),
    "mesh.build_mesh_s": ("mesh.build_mesh",),
    "mesh.classify_mesh_s": ("mesh.classify_mesh",),
    "problems.build_s": ("problems.periodic_1d", "problems.periodic_2d", "problems.mixed_2d"),
    "problems.project_initial_s": ("problems.project_initial",),
    "operators.discretization_init_s": ("operators.Discretization.__init__",),
    "cli.write_csv_s": ("cli.write_csv",),
}
# Span duration minus the durations of its direct children.
SELF_METRICS = {
    "operators.rhs_self_s": RHS,
    "operators.face_flux_states_self_s": FACE_FLUX_STATES,
    "timeint.rk4_self_s": RK4_STEP,
}
COUNT_METRICS = {
    "operators.rhs_calls": RHS,
    "fluxes.compute_flux_calls": "fluxes.compute_flux",
    "problems.forcing_calls": "problems.forcing",
    "timeint.steps": RK4_STEP,
}
# Percentiles of single-call durations, pooled over the traced passes.
PERCENTILE_METRICS = {
    "operators.rhs_us_p50": (RHS, 50), "operators.rhs_us_p99": (RHS, 99),
    "timeint.step_us_p50": (RK4_STEP, 50), "timeint.step_us_p99": (RK4_STEP, 99),
}


def pass_metrics(rec: Recorder, wall: float) -> tuple[dict, dict]:
    """Per-layer totals of one traced pass, and its single-call durations
    by span name for the percentile metrics."""
    dur = [end - start for start, end in zip(rec.starts, rec.ends)]
    child = [0.0] * len(dur)
    by_name = defaultdict(list)
    in_layer = [False] * len(dur)   # inside a span of a layer other than cli
    covered = 0.0
    for i, (name, parent) in enumerate(zip(rec.names, rec.parents)):
        by_name[name].append(i)
        if parent >= 0:
            child[parent] += dur[i]
        outer = parent >= 0 and in_layer[parent]
        in_layer[i] = outer or not name.startswith("cli.")
        if in_layer[i] and not outer:
            covered += dur[i]

    out = {}
    for metric, names in TIME_METRICS.items():
        out[metric] = sum(dur[i] for n in names for i in by_name[n])
    for metric, name in SELF_METRICS.items():
        out[metric] = sum(dur[i] - child[i] for i in by_name[name])
    for metric, name in COUNT_METRICS.items():
        out[metric] = len(by_name[name])
    calls = out["operators.rhs_calls"]
    out["operators.rhs_ns_per_dof"] = (out["operators.rhs_s"] * 1e9 / rec.counters["rhs_dofs"]
                                       if calls else 0.0)
    out["operators.rhs_bytes_computed"] = rec.counters["rhs_bytes"] / calls if calls else 0.0
    out["trace.coverage"] = covered / wall
    samples = {name: [dur[i] for i in by_name[name]]
               for name, _ in PERCENTILE_METRICS.values()}
    return out, samples


def layer_metrics(passes) -> dict[str, float]:
    """Median of each per-pass total over the traced passes, and pooled
    percentiles; ``passes`` holds (totals, samples) pairs."""
    out = {m: statistics.median(p[0][m] for p in passes) for m in passes[0][0]}
    for metric, (name, q) in PERCENTILE_METRICS.items():
        pooled = [d for _, samples in passes for d in samples[name]]
        out[metric] = float(np.percentile(pooled, q)) * 1e6 if pooled else 0.0
    return out
