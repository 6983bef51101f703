#!/usr/bin/env python3
"""advwave benchmark.

    python3 perfbench/run.py --workload sweep-1d --seed 0 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) from the root of a source checkout,
in this single process, with BLAS and OpenMP pinned to one thread.  The
solver is imported from ``src/`` of the checkout.  A run makes one counting
pass, then repeats timed passes until ``--seconds`` have passed; the set-up
spans of each timed pass give ``setup_s``.  A speed probe samples the host
during each timed pass, and times are reported at the speed of a host on
which its kernel takes ``PROBE_REF_S`` (see ``SpeedProbe``).  With
``--trace 1`` it alternates timed and traced passes instead and reports the
per-layer split.  Every pass's outputs are gated; the last line of stdout is
the JSON result.  Exits 2 without a result when the checkout has no solver
source.
"""

import os

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_PINS:   # must precede the first numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# Seconds the speed probe's kernel takes on the reference host: a 2-vCPU
# "Intel(R) Xeon(R) Processor" virtual machine in its fast mode, numpy 2
# with OpenBLAS on one thread.
PROBE_REF_S = 0.001
PROBE_INTERVAL_S = 0.05


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "thread_pins": {v: os.environ[v] for v in THREAD_PINS},
            "commit": _git_commit(root)}


def use_source(root: Path) -> bool:
    """Import the solver from ``src/`` of the checkout; False if it is not there."""
    src = root / "src"
    if not (src / "advwave" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import advwave
    return Path(advwave.__file__).resolve().parent == (src / "advwave").resolve()


class SpeedProbe:
    """Samples the host's speed during a pass.

    A shared virtual machine can run the same code up to ~2x slower for
    seconds to minutes at a time (seen on the reference host), so raw pass
    times of runs made apart cannot be compared.  While installed, the probe
    runs a fixed ~1 ms kernel of interpreter work and small-array numpy
    operations, the two kinds of work the solver's RHS does, at the first
    RHS call after every ``PROBE_INTERVAL_S``.  ``spent`` is the time it
    took, to be taken off the pass; ``scale`` converts the pass's times to
    the reference host's speed.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.matrix = np.linalg.qr(rng.standard_normal((16, 16)))[0]
        self.vector = rng.standard_normal(16)
        self.samples: list[float] = []
        self.spent = 0.0

    def kernel(self) -> float:
        """Seconds the kernel takes now."""
        t0 = perf_counter()
        acc = 0
        for i in range(6_000):
            acc += i * i
        y = self.vector
        for _ in range(300):
            y = self.matrix @ y * 0.5 + self.vector
        return perf_counter() - t0

    @property
    def scale(self) -> float:
        return PROBE_REF_S / statistics.mean(self.samples)

    @contextmanager
    def installed(self):
        from advwave.operators import Discretization
        rhs = Discretization.rhs
        due = 0.0

        def sampled_rhs(*args, **kwargs):
            nonlocal due
            now = perf_counter()
            if now >= due:
                self.samples.append(self.kernel())
                due = perf_counter()
                self.spent += due - now
                due += PROBE_INTERVAL_S
            return rhs(*args, **kwargs)

        Discretization.rhs = sampled_rhs
        try:
            yield self
        finally:
            Discretization.rhs = rhs


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def measure(workload: str, seed: int, seconds: float, trace: bool, steps=None) -> dict:
    """Run one workload and return the result object (see the module
    docstring); ``steps`` replaces the workload's steps when given."""
    import spans
    import workloads

    steps = steps if steps is not None else workloads.WORKLOADS[workload]
    state_dir = ROOT / ".perfbench"
    work = state_dir / f"work-{workload}-{os.getpid()}"
    gate = workloads.Gate()
    try:
        configs = workloads.write_configs(steps, work / "config")
        out = work / "out"

        def one_pass():
            return workloads.run_pass(steps, configs, out, seed, gate)

        counter = spans.Recorder(only={spans.RHS})
        with counter.installed():
            _, errors = one_pass()
        dof_applications = counter.counters["rhs_dofs"]
        rhs_calls = len(counter.names)
        del counter

        def timed_pass():
            setup, probe = spans.Recorder(only=spans.SETUP), SpeedProbe()
            with setup.installed(), probe.installed():
                wall, _ = one_pass()
            if not probe.samples:   # a pass that made no RHS call
                probe.samples.append(probe.kernel())
            return wall - probe.spent, setup.top_level_s(), probe

        walls, setups, probes, traced, last = [], [], [], [], None
        start = perf_counter()
        while True:
            wall, setup, probe = timed_pass()
            walls.append(wall)
            setups.append(setup)
            probes.append(probe)
            if trace:
                rec = spans.Recorder()
                with rec.installed():
                    wall, _ = one_pass()
                traced.append((wall, spans.pass_metrics(rec, wall)))
                last = rec
            if perf_counter() - start >= seconds:
                break
        output_bytes = _tree_bytes(out)
        if last is not None:
            last.write_csv(state_dir / f"spans-{workload}.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    scale = [p.scale for p in probes]
    if trace:
        values = spans.layer_metrics([m for _, m in traced])
        values["trace.overhead_s"] = (statistics.median(w for w, _ in traced)
                                      - statistics.median(walls))
        values["cli.output_bytes"] = output_bytes
        values["host.probe_us"] = statistics.median(
            statistics.mean(p.samples) for p in probes) * 1e6
        values["host.raw_wall_s"] = statistics.median(walls)
    else:
        wall_s = statistics.median(w * k for w, k in zip(walls, scale))
        setup_s = statistics.median(t * k for t, k in zip(setups, scale))
        err_u, err_v = errors if errors else (float("nan"), float("nan"))
        values = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "mdof_rhs_per_s": dof_applications / (wall_s - setup_s) / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "err_u": err_u,
            "err_v": err_v,
            "ok_ops_share": (gate.attempted - gate.failed) / gate.attempted,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    return {"correct": gate.failed == 0 and errors is not None,
            "attempted": gate.attempted, "failed": gate.failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            "passes": [(w, t, statistics.mean(p.samples), len(p.samples))
                       for w, t, p in zip(walls, setups, probes)], "misses": gate.misses[:20],
            "rhs_per_pass": (rhs_calls, dof_applications)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_source(ROOT):
        print(f"no solver source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    print("environment: " + json.dumps(environment(ROOT), sort_keys=True), flush=True)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    passes = result.pop("passes")
    rhs_calls, dof_applications = result.pop("rhs_per_pass")
    print(f"{args.workload}: {rhs_calls} RHS calls, {dof_applications} dof applications "
          f"per pass", flush=True)
    print(f"{args.workload}: {len(passes)} timed passes, raw wall s / raw setup ms / "
          f"probe us x samples: "
          f"{' '.join(f'{w:.3f}/{t * 1e3:.2f}/{c * 1e6:.0f}x{n}' for w, t, c, n in passes)}; "
          f"{result['failed']}/{result['attempted']} operations failed", flush=True)
    for miss in result.pop("misses"):
        print(f"  miss: {miss}", flush=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
