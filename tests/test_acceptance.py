"""Acceptance gate: end-to-end checks of convergence rates, energy behavior,
flux contracts, and spectral scaling at pinned tolerances.

Each rate criterion checks the slope fitted over all its grids against its
band, and the slope over its finest 3 grids against theory to within
FINE_BAND: the all-grid fit takes in the coarse grids, so its bands are
wide, and a method off by 0.2 in order can pass them.

Each test prints a single pass/fail line for its criterion (run with
pytest -s to see the lines for passing criteria too).
"""

import numpy as np
import pytest

from advwave.basis import build_reference
from advwave.cli import RunConfig, fine_rates, run_convergence
from advwave.diagnostics import discrete_energy, energy_identity_residual, spectral_radius_probe
from advwave.fluxes import (FluxParams, Trace, inflow_flux, outflow_flux,
                            supersonic_boundary_flux, supersonic_interior_flux)
from advwave.mesh import FaceKind, build_mesh
from advwave.operators import Discretization, ModalState
from advwave.problems import periodic_1d, project_initial
from advwave.timeint import evolve


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# the largest distance from theory of a slope over the finest 3 grids
FINE_BAND = 0.1


def rates(problem, q, flux, w, c, T, s=None, grids=None):
    """The rates of u and v fitted over every grid, then the slopes of u
    and v over the finest 3."""
    cfg = RunConfig(problem=problem, q=q, s=s, flux=flux, w=w, c=c, T=T,
                    n_list=grids)
    rows, rate_u, rate_v, _ = run_convergence(cfg)
    return (rate_u, rate_v) + fine_rates(rows)


def near(rate, theory):
    return abs(rate - theory) <= FINE_BAND


def test_criterion_1_upwind_1d_rates():
    # Sommerfeld xi=c, s=q, T=0.4, w=0.5, c=1; u converges at q+1, v at q
    lines, ok = [], True
    for q in (2, 3, 4):
        ru, rv, fu, fv = rates("periodic1d", q, "sommerfeld", 0.5, 1.0, 0.4)
        ok_q = (q + 0.75 <= ru <= q + 1.35) and (q - 0.35 <= rv <= q + 0.75)
        ok = ok and ok_q and near(fu, q + 1) and near(fv, q)
        lines.append(f"q={q}: rate_u={ru:.3f} rate_v={rv:.3f} (finest 3: {fu:.3f}/{fv:.3f})")
    report(1, ok, "1D upwind " + "; ".join(lines))


def test_criterion_2_central_1d_rates():
    # central flux: odd q superconvergent (q+1), even q suboptimal (q)
    ru2, rv2, fu2, fv2 = rates("periodic1d", 2, "central", 0.5, 1.0, 0.4)
    ru3, rv3, fu3, fv3 = rates("periodic1d", 3, "central", 0.5, 1.0, 0.4)
    ok = (abs(ru2 - 2.00) <= 0.35 and abs(ru3 - 4.03) <= 0.35
          and abs(rv2 - (ru2 - 1)) <= 0.35 and abs(rv3 - (ru3 - 1)) <= 0.35
          and near(fu2, 2) and near(fv2, 1) and near(fu3, 4) and near(fv3, 3))
    report(2, ok, f"1D central q=2: {ru2:.3f}/{rv2:.3f} (finest 3: {fu2:.3f}/{fv2:.3f}); "
                  f"q=3: {ru3:.3f}/{rv3:.3f} (finest 3: {fu3:.3f}/{fv3:.3f})")


def test_criterion_3_sonic_1d_rates():
    # sonic boundaries w = c = 0.5: full order q+1 for every q
    lines, ok = [], True
    for q in (1, 2, 3):
        ru, _, fu, _ = rates("periodic1d", q, "central", 0.5, 0.5, 0.4)
        ok = ok and abs(ru - (q + 1)) <= 0.35 and near(fu, q + 1)
        lines.append(f"q={q}: rate_u={ru:.3f} (finest 3: {fu:.3f})")
    report(3, ok, "1D sonic central " + "; ".join(lines))


def test_criterion_4_supersonic_reduced_degree():
    # supersonic w=1, c=0.5 with s = q-1, central, q=3
    ru, rv, fu, fv = rates("periodic1d", 3, "central", 1.0, 0.5, 0.4, s=2)
    ok = abs(ru - 4.13) <= 0.4 and abs(rv - 3.01) <= 0.4 and near(fu, 4) and near(fv, 3)
    report(4, ok, f"1D supersonic central q=3 s=2: rate_u={ru:.3f} rate_v={rv:.3f} "
                  f"(finest 3: {fu:.3f}/{fv:.3f})")


def test_criterion_5_2d_central_rates():
    ru2, rv2, fu2, fv2 = rates("periodic2d", 2, "central", [0.5, 0.5], 1.0, 0.2)
    ru3, rv3, fu3, fv3 = rates("periodic2d", 3, "central", [0.5, 0.5], 1.0, 0.2,
                               grids=[5, 7, 10, 14, 20, 28])
    ok = (abs(ru2 - 2.04) <= 0.4 and abs(rv2 - 0.99) <= 0.4
          and abs(ru3 - 4.04) <= 0.4 and abs(rv3 - 3.08) <= 0.4
          and near(fu2, 2) and near(fv2, 1) and near(fu3, 4) and near(fv3, 3))
    report(5, ok, f"2D central q=2: {ru2:.3f}/{rv2:.3f} (finest 3: {fu2:.3f}/{fv2:.3f}); "
                  f"q=3: {ru3:.3f}/{rv3:.3f} (finest 3: {fu3:.3f}/{fv3:.3f})")


def test_criterion_6_mixed_bc_rates():
    ru, rv, fu, fv = rates("mixed2d", 2, "sommerfeld", [0.5, 0.5], 1.0, 1.0,
                           grids=[5, 7, 10, 14, 20])
    ok = abs(ru - 2.94) <= 0.4 and abs(rv - 1.87) <= 0.4 and near(fu, 3) and near(fv, 2)
    report(6, ok, f"2D mixed BC upwind q=2: rate_u={ru:.3f} rate_v={rv:.3f} "
                  f"(finest 3: {fu:.3f}/{fv:.3f})")


def test_criterion_7_energy_identity():
    # 20 randomized states spanning dimension x flux x boundary regimes
    combos = [
        (1, "periodic", [0.5], FluxParams.central(xi=1.0)),
        (1, "periodic", [0.5], FluxParams.sommerfeld(xi=1.0)),
        (1, "periodic", [2.0], FluxParams.sommerfeld(xi=1.0)),  # supersonic
        (1, "physical", [0.5], FluxParams.sommerfeld(xi=1.0)),
        (1, "physical", [-2.0], FluxParams.sommerfeld(xi=1.0)),
        (2, "periodic", [0.5, 0.25], FluxParams.central(xi=1.0)),
        (2, "periodic", [0.5, 0.25], FluxParams.sommerfeld(xi=1.0)),
        (2, "physical", [0.5, 0.5], FluxParams.sommerfeld(xi=1.0)),
        (2, "physical", [1.5, -0.3], FluxParams.sommerfeld(xi=1.0)),
        (2, "periodic", [2.0, 0.5], FluxParams.sommerfeld(xi=1.0)),
    ]
    rng = np.random.default_rng(123)
    worst = 0.0
    count = 0
    while count < 20:
        dim, mode, w, params = combos[count % len(combos)]
        n = 6 if dim == 1 else 3
        ref = build_reference(3, 3, dim=dim)
        mesh = build_mesh(dim, n, mode)
        disc = Discretization(mesh, ref, params, w, 1.0)
        st = ModalState(rng.standard_normal((mesh.n_elements, ref.n_u)),
                        rng.standard_normal((mesh.n_elements, ref.n_v)))
        _, _, res = energy_identity_residual(st, disc)
        worst = max(worst, res)
        count += 1
    report(7, worst <= 1e-9, f"energy identity, 20 states, worst residual {worst:.3e}")


def test_criterion_8_energy_sign():
    # upwind runs: per-step energy increase bounded by 1e-12 E(0);
    # central periodic: conservation to 1e-7 relative over T
    details = []
    ok = True
    rng = np.random.default_rng(7)

    # each run's step count is the fewest steps of at most 0.1125 h / (2 pi)
    # to T = 0.05
    for dim, mode, w, n_steps in [(1, "periodic", [0.5], 56), (1, "physical", [0.5], 56),
                                  (2, "physical", [0.5, 0.5], 17)]:
        n = 20 if dim == 1 else 6
        ref = build_reference(3, 3, dim=dim)
        mesh = build_mesh(dim, n, mode)
        disc = Discretization(mesh, ref, FluxParams.sommerfeld(), w, 1.0)
        st = ModalState(rng.standard_normal((mesh.n_elements, ref.n_u)),
                        rng.standard_normal((mesh.n_elements, ref.n_v)))
        energies = []
        evolve(st, disc, 0.05, n_steps,
               observers=[lambda k, s: energies.append(discrete_energy(s, disc))])
        e0 = energies[0]
        rise = max(b - a for a, b in zip(energies, energies[1:]))
        ok = ok and rise <= 1e-12 * e0
        details.append(f"upwind {dim}D {mode} max rise {rise / e0:.2e}*E0")

    spec = periodic_1d(0.5, 1.0, lift=False)
    ref = build_reference(3, 3, dim=1)
    mesh = build_mesh(1, 20, "periodic")
    disc = Discretization(mesh, ref, FluxParams.central(), spec.w, spec.c)
    st = project_initial(spec, disc)
    e0 = discrete_energy(st, disc)
    final = evolve(st, disc, 0.4, 671)   # the fewest steps of at most 0.075 h / (2 pi)
    drift = abs(discrete_energy(final, disc) - e0) / e0
    ok = ok and drift <= 1e-7
    details.append(f"central drift {drift:.2e}")
    report(8, ok, "; ".join(details))


def test_criterion_9_flux_contracts():
    rng = np.random.default_rng(99)
    m = 10_000
    n = np.array([0.6, 0.8])
    v = rng.standard_normal(m) * 5
    grad = rng.standard_normal((m, 2)) * 5
    t = Trace(v=v, grad_u=grad, n=n)
    scale = np.maximum(1.0, np.maximum(np.abs(v), np.abs(grad).max(axis=1)))
    worst = 0.0

    xi = 0.9
    wn = -0.4
    w = wn * n  # w.n = wn (subsonic inflow)
    out = inflow_flux(t, w, xi)
    gn_s = np.sum(out.grad_u_star * n, axis=-1)
    gn = np.sum(grad * n, axis=-1)
    worst = max(worst, np.max(np.abs(out.v_star - wn * gn_s) / scale))
    worst = max(worst, np.max(np.abs((out.v_star - xi * gn_s) - (v - xi * gn)) / scale))
    worst = max(worst, np.max(np.abs(out.grad_u_star - gn_s[:, None] * n) / scale[:, None]))

    out = outflow_flux(t, xi)
    gn_s = np.sum(out.grad_u_star * n, axis=-1)
    worst = max(worst, np.max(np.abs(out.v_star + xi * gn_s) / scale))
    worst = max(worst, np.max(np.abs((out.v_star - xi * gn_s) - (v - xi * gn)) / scale))
    tang_in = grad - gn[:, None] * n
    tang_out = out.grad_u_star - gn_s[:, None] * n
    worst = max(worst, np.max(np.abs(tang_in - tang_out) / scale[:, None]))

    # supersonic: bit-identical to the upwind trace
    t2 = Trace(v=rng.standard_normal(m), grad_u=rng.standard_normal((m, 2)), n=-n)
    up = supersonic_interior_flux(t, t2, w=2.0 * n, c=1.0)
    bit_ok = (np.array_equal(up.v_star, t.v)
              and np.array_equal(up.grad_u_star, t.grad_u))
    down = supersonic_interior_flux(t, t2, w=-2.0 * n, c=1.0)
    bit_ok = bit_ok and (np.array_equal(down.v_star, t2.v)
                         and np.array_equal(down.grad_u_star, t2.grad_u))
    bnd = supersonic_boundary_flux(t, FaceKind.BOUNDARY_OUTFLOW_SUPERSONIC)
    bit_ok = bit_ok and (np.array_equal(bnd.v_star, t.v)
                         and np.array_equal(bnd.grad_u_star, t.grad_u))

    ok = worst <= 1e-13 and bit_ok
    report(9, ok, f"closure residual {worst:.2e} on {m} traces; "
                  f"supersonic bit-identity {'ok' if bit_ok else 'BROKEN'}")


def test_criterion_10_spectral_doubling():
    details = []
    ok = True
    for q in (2, 4):
        rads = []
        for n in (10, 20, 40):
            ref = build_reference(q, q, dim=1)
            mesh = build_mesh(1, n, "periodic")
            disc = Discretization(mesh, ref, FluxParams.sommerfeld(), [0.5], 1.0)
            rads.append(spectral_radius_probe(disc)[0])
        r1, r2 = rads[1] / rads[0], rads[2] / rads[1]
        ok = ok and abs(r1 - 2.0) <= 0.4 and abs(r2 - 2.0) <= 0.4
        details.append(f"q={q}: ratios {r1:.3f}, {r2:.3f}")
    report(10, ok, "spectral doubling " + "; ".join(details))


def test_criterion_11_2d_upwind_rates():
    # the paper's 2D periodic upwind table: u at q+1, v at q
    ru2, rv2, fu2, fv2 = rates("periodic2d", 2, "sommerfeld", [0.5, 0.5], 1.0, 0.2)
    ru3, rv3, fu3, fv3 = rates("periodic2d", 3, "sommerfeld", [0.5, 0.5], 1.0, 0.2,
                               grids=[5, 7, 10, 14, 20, 28])
    ok = (abs(ru2 - 3) <= 0.4 and abs(rv2 - 2) <= 0.4
          and abs(ru3 - 4) <= 0.4 and abs(rv3 - 3) <= 0.4
          and near(fu2, 3) and near(fv2, 2) and near(fu3, 4) and near(fv3, 3))
    report(11, ok, f"2D upwind q=2: {ru2:.3f}/{rv2:.3f} (finest 3: {fu2:.3f}/{fv2:.3f}); "
                   f"q=3: {ru3:.3f}/{rv3:.3f} (finest 3: {fu3:.3f}/{fv3:.3f})")


def test_criterion_12_2d_supersonic_inflow_reduced_degree():
    # criterion 4 in 2D: a supersonic inflow side (w_x = 1.5 > c) with s = q-1
    ru, rv, fu, fv = rates("mixed2d", 3, "sommerfeld", [1.5, 0.3], 1.0, 1.0, s=2,
                           grids=[5, 7, 10, 14, 20])
    ok = abs(ru - 4) <= 0.4 and abs(rv - 3) <= 0.4 and near(fu, 4) and near(fv, 3)
    report(12, ok, f"2D mixed BC supersonic q=3 s=2: rate_u={ru:.3f} rate_v={rv:.3f} "
                   f"(finest 3: {fu:.3f}/{fv:.3f})")
