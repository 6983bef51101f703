import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

from advwave.fluxes import FluxParams
from advwave.basis import build_reference
from advwave.mesh import build_mesh
from advwave.operators import Discretization, ModalState, Separable
from advwave.timeint import InstabilityError, RK4Buffers, evolve, rk4_step


def _writing(rhs):
    """rhs(u, v, t) -> (du, dv) as the form rk4_step calls, which writes
    the stacked [du dv] into out."""
    def write(u, v, t, out):
        nu = u.shape[1]
        out[:, :nu], out[:, nu:] = rhs(u, v, t)
        return out[:, :nu], out[:, nu:]
    return write


def _stage(n_el, nu, nv):
    """A stand-in for a discretization's stage array: a new input array,
    coefficient-major like a discretization's, and its u and v column
    views."""
    stage = np.empty((nu + nv, n_el)).T
    return SimpleNamespace(input=stage, input_uv=(stage[:, :nu], stage[:, nu:]))


def _step(state, dt, rhs):
    """One rk4_step from state, as a new state."""
    buf = RK4Buffers(state, _stage(*state.u.shape, state.v.shape[1]))
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
    """Minimal stand-in exposing .rhs, .input and .input_uv for evolve
    tests on one u and one v coefficient per element; rhs(u, v, t) ->
    (du, dv) is given out of place."""

    def __init__(self, rhs, n_el=1):
        self.rhs = _writing(rhs)
        stage = _stage(n_el, 1, 1)
        self.input, self.input_uv = stage.input, stage.input_uv


def test_evolve_t_zero_returns_initial():
    disc = _FakeDisc(lambda u, v, t: (np.zeros_like(u), np.zeros_like(v)), n_el=2)
    s0 = ModalState(np.ones((2, 1)), np.ones((2, 1)), 0.0)
    out = evolve(s0, disc, 0.0, 0)
    assert np.array_equal(out.u, s0.u)
    assert out.t == 0.0


@pytest.mark.parametrize("T,n_steps", [(0.1, 0), (1.0, -3), (0.0, 2), (-1.0, 1),
                                       (math.nan, 1)])
def test_evolve_rejects_a_time_grid_that_does_not_reach_T(T, n_steps):
    # each grid would end at a time other than T, or label its result T
    # after integrating to another time: evolve raises before any stage
    # or observer runs
    calls = []

    def rhs(u, v, t):
        calls.append(t)
        return v, np.zeros_like(v)

    s0 = ModalState(np.zeros((1, 1)), np.ones((1, 1)), 0.0)
    with pytest.raises(ValueError, match="do not reach"):
        evolve(s0, _FakeDisc(rhs), T, n_steps, observers=[lambda k, s: calls.append(k)])
    assert calls == []


def test_evolve_observers_and_exact_landing():
    calls = []
    disc = _FakeDisc(lambda u, v, t: (v, np.zeros_like(v)))
    s0 = ModalState(np.zeros((1, 1)), np.ones((1, 1)), 0.0)
    out = evolve(s0, disc, 0.7, 7,
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
    dt = 1.0 / 10
    accumulated = [0.0]
    for _ in range(10):
        accumulated.append(accumulated[-1] + dt)
    assert accumulated[-1] != 1.0
    out = evolve(s0, disc, 1.0, 10, observers=[lambda k, s: times.append(s.t)])
    assert times == accumulated[:-1] + [1.0]
    assert out.t == 1.0


def test_instability_detection():
    def blowup(u, v, t):
        return u * np.inf, v

    disc = _FakeDisc(blowup)
    s0 = ModalState(np.ones((1, 1)), np.ones((1, 1)), 0.0)
    with pytest.raises(InstabilityError) as err:
        evolve(s0, disc, 1.0, 2)
    assert err.value.step == 1


def _with_rhs(dim, rhs):
    """A stand-in for a periodic discretization in dim dimensions at q = 3:
    its input array and views, stepped with rhs(u, v, t, out)."""
    n = 6 if dim == 1 else 3
    disc = Discretization(build_mesh(dim, n, "periodic"), build_reference(3, 3, dim=dim),
                          FluxParams.sommerfeld(), [0.5, 0.25][:dim], 1.0)
    return SimpleNamespace(input=disc.input, input_uv=disc.input_uv, rhs=rhs)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_one_non_finite_entry_raises_at_its_step(dim, bad):
    # the fourth stage derivative of step 3 has one non-finite entry, the
    # first or the last of u or of v (the first and the last in memory
    # among them), the others zero: the update makes it the state's only
    # non-finite entry, and the check after that step raises
    for field in (0, 1):
        for index in (0, -1):
            calls, seen = [], []

            def rhs(u, v, t, out):
                calls.append(t)
                out[...] = 0.0
                du, dv = out[:, :u.shape[1]], out[:, u.shape[1]:]
                if len(calls) == 12:
                    (du, dv)[field][index, index] = bad
                return du, dv

            disc = _with_rhs(dim, rhs)
            rng = np.random.default_rng(1)
            n_el, nu = disc.input_uv[0].shape
            state0 = ModalState(rng.standard_normal((n_el, nu)),
                                rng.standard_normal((n_el, disc.input.shape[1] - nu)))
            with pytest.raises(InstabilityError) as err:
                evolve(state0, disc, 0.05, 5, observers=[lambda k, s: seen.append(k)])
            assert err.value.step == 3 and seen == [0, 1, 2]


@pytest.mark.parametrize("dim", [1, 2])
def test_finite_extremes_do_not_raise(dim):
    # 0 x is 0 for the largest finite x, so a state of +-1e308 passes
    # the check
    def rhs(u, v, t, out):
        out[...] = 0.0
        return out[:, :u.shape[1]], out[:, u.shape[1]:]

    disc = _with_rhs(dim, rhs)
    nu = disc.input_uv[0].shape[1]
    signs = np.random.default_rng(2).choice([-1.0, 1.0], size=disc.input.shape)
    state0 = ModalState(1e308 * signs[:, :nu], 1e308 * signs[:, nu:])
    final = evolve(state0, disc, 0.05, 5)
    assert np.array_equal(final.u, state0.u) and np.array_equal(final.v, state0.v)


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
        evolve(s0, _FakeDisc(v_blowup, n_el=2), 1.0, 10,
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

    def solve(n_steps):
        st = project_initial(spec, disc)
        return evolve(st, disc, 0.2, n_steps)

    reference = solve(800)
    errs = []
    for n_steps in (25, 50, 100):
        final = solve(n_steps)
        errs.append(np.sqrt(np.sum((final.u - reference.u) ** 2)
                            + np.sum((final.v - reference.v) ** 2)))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.3)


def _reference_rk4(u, v, t, dt, rhs):
    """One RK4 step on separate arrays, the formulas evolve applies in place.

    The update is the same BLAS product as rk4_step's, over [x k1 k2 k3 k4]
    stacked in its coefficient-major order: a BLAS kernel's rounding may
    depend on an entry's position."""
    k1u, k1v = rhs(u, v, t)
    k2u, k2v = rhs(u + 0.5 * dt * k1u, v + 0.5 * dt * k1v, t + 0.5 * dt)
    k3u, k3v = rhs(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v, t + 0.5 * dt)
    k4u, k4v = rhs(u + dt * k3u, v + dt * k3v, t + dt)
    rows = np.stack([np.hstack(pair).T for pair in
                     ((u, v), (k1u, k1v), (k2u, k2v), (k3u, k3v), (k4u, k4v))])
    weights = np.array([1.0, dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0])
    x = np.dot(weights, rows.reshape(5, -1)).reshape(rows.shape[1:]).T
    nu = u.shape[1]
    return x[:, :nu], x[:, nu:], t + dt


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
    final = evolve(state0, disc, 0.08, 8,
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
    evolve(ModalState(2.0 * state0.u, -state0.v, 0.0), disc, 0.08, 8)
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
    final = evolve(state0, disc, 0.03, 3,
                   observers=[lambda k, s: kept.append((s.copy(), s.u.copy(), s.v.copy()))])
    for copy, u, v in kept:
        assert not np.shares_memory(copy.u, final.u) and not np.shares_memory(copy.v, final.v)
        assert np.array_equal(copy.u, u) and np.array_equal(copy.v, v)
    assert [copy.t for copy, *_ in kept] == [0.0, 0.01, 0.02, 0.03]
    assert not np.array_equal(kept[0][0].u, kept[-1][0].u)


@pytest.mark.parametrize("dim", [1, 2])
def test_evolve_buffers_follow_the_operator(dim):
    # the stages are written into the operator's input (coefficient-major)
    # and the state and stage derivatives, the rows of one array, share its
    # strides, so no stage operation, rhs input or rhs output transposes
    n = 6 if dim == 1 else 3
    disc = Discretization(build_mesh(dim, n, "periodic"), build_reference(3, 3, dim=dim),
                          FluxParams.sommerfeld(), [0.5, 0.25][:dim], 1.0)
    assert disc.input.flags["F_CONTIGUOUS"]
    rng = np.random.default_rng(0)
    state0 = ModalState(rng.standard_normal((n ** dim, disc.ref.n_u)),
                        rng.standard_normal((n ** dim, disc.ref.n_v)))
    buf = RK4Buffers(state0, disc)
    assert buf.stage is disc.input
    assert all(a is b for a, b in zip(buf.stage_uv, disc.input_uv))
    strides = disc.input.strides
    assert buf.rows.shape == (5,) + disc.input.T.shape and buf.rows.flags["C_CONTIGUOUS"]
    assert all(row.T.strides == strides for row in buf.rows)
    assert buf.x.strides == strides and all(k.strides == strides for k in buf.k)
    assert all(np.shares_memory(a, row) for a, row in zip((buf.x,) + buf.k, buf.rows))
    with pytest.raises(ValueError, match="coefficient-major"):
        RK4Buffers(state0, SimpleNamespace(input=np.empty(disc.input.shape), input_uv=None))

    calls, rhs = [], disc.rhs

    def recorded(u, v, t, out=None):
        calls.append((u, v, out))
        return rhs(u, v, t, out=out)

    disc.rhs = recorded
    states = []
    evolve(state0, disc, 0.02, 2, observers=[lambda k, s: states.append(s)])
    assert len(calls) == 8 and len({id(out) for *_, out in calls}) == 4
    for u, v, out in calls:
        assert u is disc.input_uv[0] and v is disc.input_uv[1] and out.strides == strides
    assert states[-1].u.strides == disc.input_uv[0].strides


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
    evolve(problems.project_initial(spec, disc), disc, 0.08, n_steps)
    assert len(times) == 2 * n_steps + 1
    assert len(set(times)) == len(times)


@pytest.mark.parametrize("params", [FluxParams.sommerfeld(), FluxParams.central()],
                         ids=["sommerfeld", "central"])
def test_rk4_is_fourth_order_against_the_exact_semidiscrete_solution(params):
    from advwave.diagnostics import _dense_operator, fit_rate
    from advwave.problems import periodic_1d, project_initial

    spec = periodic_1d(0.5, 1.0, lift=False)
    disc = Discretization(build_mesh(1, 8, "periodic"), build_reference(2, 2, dim=1),
                          params, spec.w, spec.c)
    state = project_initial(spec, disc)
    T = 0.25
    # exp(T A) of the stacked [u v], A = rhs as a matrix on its raveled layout
    x0 = np.hstack([state.u, state.v])
    exact = (expm(T * _dense_operator(disc).T) @ x0.ravel()).reshape(x0.shape)
    steps = (20, 40, 80)
    errs = []
    for k in steps:
        end = evolve(state, disc, T, k)
        errs.append(np.max(np.abs(np.hstack([end.u, end.v]) - exact)))
    assert 3.8 <= fit_rate([T / k for k in steps], errs) <= 4.3


def _forced(problem):
    """A forced problem and a builder of its discretization on a small mesh."""
    from advwave import problems

    spec = {"periodic1d": lambda: problems.periodic_1d(0.5, 1.0),
            "mixed2d": lambda: problems.mixed_2d([0.5, 0.5], 1.0)}[problem]()
    ref = build_reference(3, 3, dim=spec.dim)
    mesh = build_mesh(spec.dim, 6 if spec.dim == 1 else 3, spec.boundary_mode)
    return spec, lambda: Discretization(mesh, ref, FluxParams.sommerfeld(), spec.w, spec.c,
                                        forcing=spec.forcing)


def test_rk4_buffers_take_a_new_dt():
    # one RK4Buffers stepped at two step sizes, back and forth: the step
    # factors it caches follow dt, and every step equals the out-of-place
    # step bitwise
    from advwave.problems import project_initial

    spec, make = _forced("periodic1d")
    disc = make()
    state0 = project_initial(spec, disc)
    buf = RK4Buffers(state0, disc)
    u, v, t = state0.u, state0.v, state0.t
    for dt in (0.01, 0.004, 0.004, 0.01):
        t_buf = rk4_step(buf, t, dt, disc.rhs)
        u, v, t = _reference_rk4(u, v, t, dt, lambda *args: make().rhs(*args))
        assert t_buf == t
        assert np.array_equal(buf.x_uv[0], u) and np.array_equal(buf.x_uv[1], v)


@pytest.mark.parametrize("problem", ["periodic1d", "mixed2d"])
def test_evolve_allocates_nothing_per_step(problem):
    # a solve's memory is its buffers and the state it returns: a step that
    # kept anything would raise the traced peak with the number of steps
    import tracemalloc

    from advwave.problems import project_initial

    spec, make = _forced(problem)
    disc = make()
    state0 = project_initial(spec, disc)
    evolve(state0, disc, 0.002, 2)   # the first solve's one-time work
    peaks = []
    tracemalloc.start()
    try:
        for steps in (20, 200):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            evolve(state0, disc, steps * 0.001, steps)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 512, peaks
