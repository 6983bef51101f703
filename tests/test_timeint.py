import math

import numpy as np
import pytest
from scipy.linalg import expm

from advwave.fluxes import FluxParams
from advwave.basis import build_reference
from advwave.mesh import build_mesh
from advwave.operators import Discretization, ModalState
from advwave.timeint import (InstabilityError, TimeControls, check_cfl_margin,
                             compute_dt, evolve, rk4_step)


def test_controls_validation():
    with pytest.raises(ValueError):
        TimeControls(cfl=0.0, T=1.0)
    with pytest.raises(ValueError):
        TimeControls(cfl=0.1, T=-1.0)


def test_compute_dt_snapping():
    controls = TimeControls(cfl=0.075 / (2 * np.pi), T=0.2)
    dt = compute_dt(0.1, controls)
    base = 0.075 / (2 * np.pi) * 0.1
    assert dt <= base * (1 + 1e-12)
    steps = controls.T / dt
    assert steps == pytest.approx(round(steps), abs=1e-12)
    # already-integer ratio passes through unchanged
    controls = TimeControls(cfl=1.0, T=1.0, dt_override=0.25)
    assert compute_dt(0.1, controls) == pytest.approx(0.25)
    # override snapped to land on T
    controls = TimeControls(cfl=1.0, T=1.0, dt_override=0.3)
    dt = compute_dt(0.1, controls)
    assert dt == pytest.approx(0.25)
    assert compute_dt(0.1, TimeControls(cfl=1.0, T=0.0)) == 0.0
    with pytest.raises(ValueError):
        compute_dt(0.0, controls)
    # T / dt overflowing to infinity is a ValueError, not an OverflowError
    for T, dt in ((1e308, None), (0.1, 1e-320)):
        with pytest.raises(ValueError, match="finite"):
            compute_dt(0.01, TimeControls(cfl=0.05, T=T, dt_override=dt))


def test_rk4_scalar_stability_polynomial():
    # du/dt = lambda u: one step multiplies by the degree-4 Taylor
    # polynomial of exp(z)
    lam = -2.0
    dt = 0.05
    z = lam * dt
    expected = 1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24

    def rhs(u, v, t):
        return lam * u, lam * v

    state = ModalState(np.array([[1.0]]), np.array([[1.0]]), 0.0)
    out = rk4_step(state, dt, rhs)
    assert out.u[0, 0] == pytest.approx(expected, rel=1e-15)
    assert out.t == pytest.approx(dt)


def test_rk4_matrix_exponential_oracle():
    # coupled linear system (du, dv) = A (u, v): one RK4 step equals the
    # degree-4 Taylor polynomial of exp(dt A); many steps track expm to
    # O(dt^4) per step
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 3))
    dt = 0.01

    def rhs(u, v, t):
        x = np.concatenate([u.ravel(), v.ravel()])
        y = np.zeros(3)
        y[:3] = A @ x[:3]
        return y[:1].reshape(1, 1), y[1:].reshape(1, 2)

    x0 = rng.standard_normal(3)
    state = ModalState(x0[:1].reshape(1, 1).copy(), x0[1:].reshape(1, 2).copy(), 0.0)
    taylor = np.eye(3)
    for k in range(1, 5):
        taylor += np.linalg.matrix_power(dt * A, k) / math.factorial(k)
    out = rk4_step(state, dt, rhs)
    got = np.concatenate([out.u.ravel(), out.v.ravel()])
    assert np.allclose(got, taylor @ x0, atol=1e-14)

    n = 50
    for _ in range(n):
        state = rk4_step(state, dt, rhs)
    exact = expm(n * dt * A) @ x0
    got = np.concatenate([state.u.ravel(), state.v.ravel()])
    assert np.allclose(got, exact, atol=n * dt ** 5 * 50)


def test_zero_operator_fixed_point():
    def rhs(u, v, t):
        return np.zeros_like(u), np.zeros_like(v)

    state = ModalState(np.ones((2, 2)), np.ones((2, 2)), 0.0)
    out = rk4_step(state, 0.1, rhs)
    assert np.array_equal(out.u, state.u)


class _FakeDisc:
    """Minimal stand-in exposing .mesh.h and .rhs for evolve tests."""

    class mesh:
        h = 0.1

    def __init__(self, rhs):
        self.rhs = rhs


def test_evolve_t_zero_returns_initial():
    disc = _FakeDisc(lambda u, v, t: (np.zeros_like(u), np.zeros_like(v)))
    s0 = ModalState(np.ones((2, 1)), np.ones((2, 1)), 0.0)
    out = evolve(s0, TimeControls(cfl=0.1, T=0.0), disc)
    assert np.array_equal(out.u, s0.u)
    assert out.t == 0.0


def test_evolve_observers_and_exact_landing():
    calls = []
    disc = _FakeDisc(lambda u, v, t: (v, np.zeros_like(v)))
    s0 = ModalState(np.zeros((1, 1)), np.ones((1, 1)), 0.0)
    controls = TimeControls(cfl=1.0, T=0.7, dt_override=0.1)
    out = evolve(s0, controls, disc, observers=[lambda k, s: calls.append(k)])
    assert calls == list(range(8))  # step 0 plus 7 steps
    assert out.t == 0.7
    assert out.u[0, 0] == pytest.approx(0.7, rel=1e-12)  # du/dt = v = 1


def test_instability_detection():
    def blowup(u, v, t):
        return u * np.inf, v

    disc = _FakeDisc(blowup)
    s0 = ModalState(np.ones((1, 1)), np.ones((1, 1)), 0.0)
    with pytest.raises(InstabilityError) as err:
        evolve(s0, TimeControls(cfl=1.0, T=1.0, dt_override=0.5), disc)
    assert err.value.step == 1


def test_cfl_margin_warning():
    with pytest.warns(UserWarning):
        check_cfl_margin(dt=1.0, h=0.01, q=4, w=[0.5], c=1.0)


def test_dt_refinement_reduces_time_error():
    # halving dt on a fixed mesh cuts the time-integration error (measured
    # against a small-dt reference run, isolating it from spatial error)
    # by about 16x
    from advwave.problems import periodic_1d, project_initial

    spec = periodic_1d(0.5, 1.0, lift=False)
    ref = build_reference(4, 4, dim=1)
    mesh = build_mesh(1, 6, "periodic")
    disc = Discretization(mesh, ref, FluxParams.sommerfeld(), spec.w, spec.c)

    def solve(dt):
        st = project_initial(spec, disc)
        return evolve(st, TimeControls(cfl=1.0, T=0.2, dt_override=dt), disc)

    reference = solve(2.5e-4)
    errs = []
    for dt in (8e-3, 4e-3, 2e-3):
        final = solve(dt)
        errs.append(np.sqrt(np.sum((final.u - reference.u) ** 2)
                            + np.sum((final.v - reference.v) ** 2)))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.3)
