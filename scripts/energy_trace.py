#!/usr/bin/env python3
"""Trace the discrete energy of dissipative and conservative runs.

Evolves a random state with the upwind (Sommerfeld) flux and a projected
smooth state with the central flux, printing the energy at regular strides
and the worst per-step increase.
"""

import argparse

import numpy as np

from advwave import (Discretization, FluxParams, ModalState, build_mesh,
                     build_reference, compute_dt, discrete_energy, evolve,
                     periodic_1d, project_initial)


def trace_run(disc, state, T, cfl, label, stride=50):
    """Evolve state to T in steps of at most cfl * h and print its energy."""
    energies = []
    evolve(state, disc, T, compute_dt(T, cfl * disc.mesh.h),
           observers=[lambda k, s: energies.append(discrete_energy(s, disc))])
    e = np.asarray(energies)
    print(f"\n{label}: {len(e) - 1} steps, E(0) = {e[0]:.8e}")
    for k in range(0, len(e), stride):
        print(f"  step {k:5d}  E = {e[k]:.10e}")
    rises = np.diff(e)
    print(f"  max per-step increase: {rises.max():.3e} "
          f"(relative {rises.max() / e[0]:.3e})")
    print(f"  total drift: {(e[-1] - e[0]) / e[0]:+.3e} relative")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=20)
    parser.add_argument("--q", type=int, default=3)
    parser.add_argument("--T", type=float, default=0.4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    ref = build_reference(args.q, args.q, dim=1)
    mesh = build_mesh(1, args.n, "periodic")

    disc = Discretization(mesh, ref, FluxParams.sommerfeld(), [0.5], 1.0)
    state = ModalState(rng.standard_normal((mesh.n_elements, ref.n_u)),
                       rng.standard_normal((mesh.n_elements, ref.n_v)))
    trace_run(disc, state, args.T, 0.1125 / (2 * np.pi),
              "upwind flux, random data (should decay monotonically)")

    spec = periodic_1d(0.5, 1.0, lift=False)
    disc = Discretization(mesh, ref, FluxParams.central(), spec.w, spec.c)
    state = project_initial(spec, disc)
    trace_run(disc, state, args.T, 0.075 / (2 * np.pi),
              "central flux, traveling wave (should conserve)")


if __name__ == "__main__":
    main()
