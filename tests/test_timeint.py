import math
import pickle

import numpy as np
import pytest
from scipy.linalg import expm

from advwave.fluxes import FluxParams
from advwave.basis import build_reference
from advwave.mesh import build_mesh
from advwave.operators import Discretization, ModalState, Separable
from advwave.timeint import InstabilityError, RK4Buffers, compute_dt, evolve, rk4_step


def test_compute_dt_snapping():
    dt_max = 0.075 / (2 * np.pi) * 0.1
    dt = compute_dt(0.2, dt_max)
    assert dt <= dt_max * (1 + 1e-12)
    steps = 0.2 / dt
    assert steps == pytest.approx(round(steps), abs=1e-12)
    # one step fewer would be longer than dt_max
    assert 0.2 / (round(steps) - 1) > dt_max
    # already-integer ratio passes through unchanged
    assert compute_dt(1.0, 0.25) == 0.25
    # shrunk to land on T
    assert compute_dt(1.0, 0.3) == 0.25
    # a step longer than T is cut to T
    assert compute_dt(0.1, 0.5) == 0.1
    assert compute_dt(0.0, 0.3) == 0.0
    # T / dt_max overflowing to infinity is a ValueError, not an OverflowError
    for T, dt_max in ((1e308, 0.05 * 0.01), (0.1, 1e-320)):
        with pytest.raises(ValueError, match="finite"):
            compute_dt(T, dt_max)


def _writing(rhs):
    """rhs(u, v, t) -> (du, dv) as the form rk4_step calls, which writes
    the stacked [du dv] into out."""
    def write(u, v, t, out):
        nu = u.shape[1]
        out[:, :nu], out[:, nu:] = rhs(u, v, t)
        return out[:, :nu], out[:, nu:]
    return write


def _stage_views(n_el, nu, nv):
    """u and v column views of a new stage array."""
    stage = np.empty((n_el, nu + nv))
    return stage[:, :nu], stage[:, nu:]


def _step(state, dt, rhs):
    """One rk4_step from state, as a new state."""
    buf = RK4Buffers(state, _stage_views(*state.u.shape, state.v.shape[1]))
    t = rk4_step(buf, state.t, dt, _writing(rhs))
    return ModalState(*buf.x_uv, t)


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
    out = _step(state, dt, rhs)
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
    out = _step(state, dt, rhs)
    got = np.concatenate([out.u.ravel(), out.v.ravel()])
    assert np.allclose(got, taylor @ x0, atol=1e-14)

    n = 50
    for _ in range(n):
        state = _step(state, dt, rhs)
    exact = expm(n * dt * A) @ x0
    got = np.concatenate([state.u.ravel(), state.v.ravel()])
    assert np.allclose(got, exact, atol=n * dt ** 5 * 50)


def test_zero_operator_fixed_point():
    def rhs(u, v, t):
        return np.zeros_like(u), np.zeros_like(v)

    state = ModalState(np.ones((2, 2)), np.ones((2, 2)), 0.0)
    out = _step(state, 0.1, rhs)
    assert np.array_equal(out.u, state.u)


class _FakeDisc:
    """Minimal stand-in exposing .rhs and .input_uv for evolve tests on
    one u and one v coefficient per element; rhs(u, v, t) -> (du, dv) is
    given out of place."""

    def __init__(self, rhs, n_el=1):
        self.rhs = _writing(rhs)
        self.input_uv = _stage_views(n_el, 1, 1)


def test_evolve_t_zero_returns_initial():
    disc = _FakeDisc(lambda u, v, t: (np.zeros_like(u), np.zeros_like(v)), n_el=2)
    s0 = ModalState(np.ones((2, 1)), np.ones((2, 1)), 0.0)
    out = evolve(s0, disc, 0.0, 0.0)
    assert np.array_equal(out.u, s0.u)
    assert out.t == 0.0


def test_evolve_observers_and_exact_landing():
    calls = []
    disc = _FakeDisc(lambda u, v, t: (v, np.zeros_like(v)))
    s0 = ModalState(np.zeros((1, 1)), np.ones((1, 1)), 0.0)
    out = evolve(s0, disc, 0.7, compute_dt(0.7, 0.1),
                 observers=[lambda k, s: calls.append(k)])
    assert calls == list(range(8))  # step 0 plus 7 steps
    assert out.t == 0.7
    assert out.u[0, 0] == pytest.approx(0.7, rel=1e-12)  # du/dt = v = 1


def test_last_observer_sees_final_time():
    # ten steps of 0.1 accumulate to 1 - 1 ulp; the observers of the
    # earlier steps see the accumulated times, the last one T itself
    times = []
    disc = _FakeDisc(lambda u, v, t: (v, np.zeros_like(v)))
    s0 = ModalState(np.zeros((1, 1)), np.ones((1, 1)), 0.0)
    dt = compute_dt(1.0, 0.1)
    accumulated = [0.0]
    for _ in range(10):
        accumulated.append(accumulated[-1] + dt)
    assert accumulated[-1] != 1.0
    out = evolve(s0, disc, 1.0, dt, observers=[lambda k, s: times.append(s.t)])
    assert times == accumulated[:-1] + [1.0]
    assert out.t == 1.0


def test_instability_detection():
    def blowup(u, v, t):
        return u * np.inf, v

    disc = _FakeDisc(blowup)
    s0 = ModalState(np.ones((1, 1)), np.ones((1, 1)), 0.0)
    with pytest.raises(InstabilityError) as err:
        evolve(s0, disc, 1.0, 0.5)
    assert err.value.step == 1


def test_instability_error_pickles():
    # converge's worker processes send it back pickled
    err = pickle.loads(pickle.dumps(InstabilityError(124)))
    assert str(err) == "non-finite state detected at step 124"
    assert err.step == 124


def test_instability_detected_in_v_alone():
    # u stays finite; v turns NaN once a stage passes t = 0.33, in step 4
    def v_blowup(u, v, t):
        return np.zeros_like(u), np.full_like(v, np.nan if t > 0.33 else 0.0)

    calls = []
    s0 = ModalState(np.ones((2, 1)), np.ones((2, 1)), 0.0)
    with pytest.raises(InstabilityError) as err:
        evolve(s0, _FakeDisc(v_blowup, n_el=2), 1.0, 0.1,
               observers=[lambda k, s: calls.append(k)])
    assert err.value.step == 4
    assert calls == [0, 1, 2, 3]


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
        return evolve(st, disc, 0.2, dt)

    reference = solve(2.5e-4)
    errs = []
    for dt in (8e-3, 4e-3, 2e-3):
        final = solve(dt)
        errs.append(np.sqrt(np.sum((final.u - reference.u) ** 2)
                            + np.sum((final.v - reference.v) ** 2)))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.3)


def _reference_rk4(u, v, t, dt, rhs):
    """One RK4 step on separate arrays, the formulas evolve applies in place."""
    k1u, k1v = rhs(u, v, t)
    k2u, k2v = rhs(u + 0.5 * dt * k1u, v + 0.5 * dt * k1v, t + 0.5 * dt)
    k3u, k3v = rhs(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v, t + 0.5 * dt)
    k4u, k4v = rhs(u + dt * k3u, v + dt * k3v, t + dt)
    un = u + dt / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    vn = v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return un, vn, t + dt


@pytest.mark.parametrize("problem", ["periodic1d", "periodic2d", "mixed2d"])
def test_evolve_matches_out_of_place_rk4_bitwise(problem):
    from advwave import problems

    spec = {"periodic1d": lambda: problems.periodic_1d(0.5, 1.0, lift=True),
            "periodic2d": lambda: problems.periodic_2d([0.5, 0.25], 1.0),
            "mixed2d": lambda: problems.mixed_2d([0.5, 0.5], 1.0)}[problem]()
    ref = build_reference(3, 3, dim=spec.dim)
    mesh = build_mesh(spec.dim, 6 if spec.dim == 1 else 3, spec.boundary_mode)
    disc = Discretization(mesh, ref, FluxParams.sommerfeld(), spec.w, spec.c,
                          forcing=spec.forcing)
    state0 = problems.project_initial(spec, disc)
    seen = []
    final = evolve(state0, disc, 0.08, 0.01,
                   observers=[lambda k, s: seen.append((k, s.t, s.u.copy(), s.v.copy()))])

    def rebuilt_rhs(u, v, t):
        # a new instance per stage builds the forcing at every stage
        return Discretization(mesh, ref, FluxParams.sommerfeld(), spec.w, spec.c,
                              forcing=spec.forcing).rhs(u, v, t)

    u, v, t = state0.u, state0.v, state0.t
    assert [k for k, *_ in seen] == list(range(9))
    for k, tk, uk, vk in seen:
        if k:
            u, v, t = _reference_rk4(u, v, t, 0.01, rebuilt_rhs)
        assert tk == t
        assert np.array_equal(uk, u) and np.array_equal(vk, v)
    assert final.t == 0.08
    assert np.array_equal(final.u, u) and np.array_equal(final.v, v)

    # the returned state owns its arrays: a second solve on the same
    # discretization leaves it, and the initial state, as they were
    kept = final.u.copy(), final.v.copy()
    evolve(ModalState(2.0 * state0.u, -state0.v, 0.0), disc, 0.08, 0.01)
    assert np.array_equal(final.u, kept[0]) and np.array_equal(final.v, kept[1])
    again = problems.project_initial(spec, disc)
    assert np.array_equal(state0.u, again.u) and np.array_equal(state0.v, again.v)


def test_observer_copy_does_not_alias_the_stepped_state():
    ref = build_reference(2, 2, dim=1)
    disc = Discretization(build_mesh(1, 4, "periodic"), ref, FluxParams.sommerfeld(),
                          [0.5], 1.0)
    rng = np.random.default_rng(0)
    state0 = ModalState(rng.standard_normal((4, ref.n_u)), rng.standard_normal((4, ref.n_v)))
    kept = []
    final = evolve(state0, disc, 0.03, 0.01,
                   observers=[lambda k, s: kept.append((s.copy(), s.u.copy(), s.v.copy()))])
    for copy, u, v in kept:
        assert not np.shares_memory(copy.u, final.u) and not np.shares_memory(copy.v, final.v)
        assert np.array_equal(copy.u, u) and np.array_equal(copy.v, v)
    assert [copy.t for copy, *_ in kept] == [0.0, 0.01, 0.02, 0.03]
    assert not np.array_equal(kept[0][0].u, kept[-1][0].u)


def test_forced_evolve_builds_forcing_once_per_stage_time():
    # k2 and k3 share t + dt/2 and a step's t + dt is the next step's t,
    # so N steps build the forcing at the 2N + 1 distinct stage times
    from advwave import problems

    spec = problems.periodic_1d(0.5, 1.0)
    times = []

    def time(t):
        times.append(t)
        return spec.forcing.time(t)

    disc = Discretization(build_mesh(1, 6, "periodic"), build_reference(3, 3),
                          FluxParams.sommerfeld(), spec.w, spec.c,
                          forcing=Separable(spec.forcing.space, time))
    n_steps = 8
    evolve(problems.project_initial(spec, disc), disc, 0.08, 0.01)
    assert len(times) == 2 * n_steps + 1
    assert len(set(times)) == len(times)
