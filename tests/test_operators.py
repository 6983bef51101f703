import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advwave.basis import build_reference
from advwave.fluxes import FluxParams
from advwave.mesh import build_mesh
from advwave import operators
from advwave.operators import (Discretization, ModalState, Separable, _face_trace_maps,
                               build_element_solvers)


def make_disc(dim=1, n=8, q=3, s=None, w=(0.5,), c=1.0, mode="periodic",
              params=None, forcing=None):
    s = q if s is None else s
    ref = build_reference(q, s, dim=dim)
    mesh = build_mesh(dim, n, mode)
    params = params or FluxParams.sommerfeld()
    return Discretization(mesh, ref, params, list(w), c, forcing=forcing)


def random_state(disc, seed=0):
    rng = np.random.default_rng(seed)
    return ModalState(rng.standard_normal((disc.mesh.n_elements, disc.ref.n_u)),
                      rng.standard_normal((disc.mesh.n_elements, disc.ref.n_v)))


# --- element solvers ----------------------------------------------------------

def test_u_system_nonsingular():
    for dim, q in [(1, 1), (1, 4), (2, 2), (2, 3)]:
        ref = build_reference(q, q, dim=dim)
        sol = build_element_solvers(ref, h=0.1, c=1.0)
        assert np.linalg.cond(sol.u_system) < 1e8


def test_u_system_constant_vector():
    # u_system applied to the constant's coefficients: mean-row value in
    # the constant slot, zeros elsewhere (stiffness annihilates constants)
    ref = build_reference(3, 3, dim=2)
    h = 0.25
    sol = build_element_solvers(ref, h=h, c=2.0)
    const = np.zeros(ref.n_u)
    const[0] = 1.0
    out = sol.u_system @ const
    assert out[0] == pytest.approx((h / 2.0) ** 2 * 4.0)
    assert np.allclose(out[1:], 0.0, atol=1e-14)


def test_v_mass_inverse():
    ref = build_reference(2, 2, dim=2)
    sol = build_element_solvers(ref, h=0.2, c=1.0)
    jac = (0.2 / 2.0) ** 2
    assert np.allclose(sol.v_mass_diag * sol.v_mass_inv, 1.0, atol=1e-13)
    assert np.allclose(sol.v_mass_diag, jac * np.diag(ref.mass_v), atol=1e-14)


# --- operator properties -------------------------------------------------------

def test_zero_state_zero_derivative():
    disc = make_disc()
    du, dv = disc.rhs(np.zeros((8, 4)), np.zeros((8, 4)), 0.0)
    assert np.allclose(du, 0.0, atol=1e-14)
    assert np.allclose(dv, 0.0, atol=1e-14)


def test_constant_state():
    # constant u, constant v, periodic: du/dt = v, dv/dt = 0
    disc = make_disc(q=2, n=6)
    u = np.zeros((6, 3))
    v = np.zeros((6, 3))
    u[:, 0] = 2.0
    v[:, 0] = 0.7
    du, dv = disc.rhs(u, v, 0.0)
    expect = np.zeros_like(u)
    expect[:, 0] = 0.7
    assert np.allclose(du, expect, atol=1e-13)
    assert np.allclose(dv, 0.0, atol=1e-13)


@pytest.mark.parametrize("dim,n,mode", [(1, 8, "periodic"), (1, 8, "physical"),
                                        (2, 3, "periodic"), (2, 3, "physical")])
def test_linearity(dim, n, mode):
    w = [0.5] if dim == 1 else [0.5, -0.3]
    disc = make_disc(dim=dim, n=n, q=2, w=w, mode=mode)
    s1, s2 = random_state(disc, 1), random_state(disc, 2)
    a, b = 1.7, -0.4
    du1, dv1 = disc.rhs(s1.u, s1.v, 0.0)
    du2, dv2 = disc.rhs(s2.u, s2.v, 0.0)
    du, dv = disc.rhs(a * s1.u + b * s2.u, a * s1.v + b * s2.v, 0.0)
    scale = max(np.abs(du).max(), np.abs(dv).max(), 1.0)
    assert np.allclose(du, a * du1 + b * du2, atol=1e-12 * scale)
    assert np.allclose(dv, a * dv1 + b * dv2, atol=1e-12 * scale)


@pytest.mark.parametrize("dim,n,mode,w", [
    (1, 8, "periodic", [0.5]), (1, 8, "physical", [0.5]),
    (1, 8, "periodic", [2.0]), (2, 3, "physical", [0.5, 0.5]),
])
def test_mean_constraint(dim, n, mode, w):
    # per element: int(du/dt + w.grad u - v) = 0
    disc = make_disc(dim=dim, n=n, q=3, w=w, mode=mode)
    st = random_state(disc, 3)
    du, dv = disc.rhs(st.u, st.v, 0.0)
    ref = disc.ref
    p = st.u @ disc.adv_modal_u.T - st.v @ ref.embed_v.T
    means = disc.jac_vol * 2.0 ** dim * (du[:, 0] + p[:, 0])
    assert np.allclose(means, 0.0, atol=1e-12)


def test_galerkin_consistency_polynomial():
    # global polynomial solution u = (1-x)^2 (1+t) on a physical 1D mesh
    # with supersonic advection w = -2 (outflow at x=0, inflow at x=1,
    # where the solution and its advective derivative vanish); the
    # operator applied to the projected state must reproduce the exact
    # time derivative since everything is in the polynomial space.
    w, c = -2.0, 1.0

    # f = -4 w (1-x) + (2 w^2 - 2 c^2)(1+t), split as 1 * F_0(x) + t * F_1(x)
    def space(x):
        xx = x[..., 0]
        k = 2.0 * w * w - 2.0 * c * c
        return np.stack([-4.0 * w * (1.0 - xx) + k, np.full_like(xx, k)])

    forcing = Separable(space=space, time=lambda t: np.array([1.0, t]))
    disc = make_disc(dim=1, n=5, q=3, w=[w], c=c, mode="physical",
                     params=FluxParams.sommerfeld(), forcing=forcing)
    ref = disc.ref
    pts = disc.quad_points
    t = 0.3
    xx = pts[..., 0]
    u_exact = (1.0 - xx) ** 2 * (1.0 + t)
    v_exact = (1.0 - xx) ** 2 - 2.0 * w * (1.0 - xx) * (1.0 + t)
    ut_exact = (1.0 - xx) ** 2
    vt_exact = -2.0 * w * (1.0 - xx)

    def project(vals, vals_basis, mass):
        return ((vals * ref.vol_weights) @ vals_basis) / np.diag(mass)

    u = project(u_exact, ref.vol_vals_u, ref.mass_u)
    v = project(v_exact, ref.vol_vals_v, ref.mass_v)
    du, dv = disc.rhs(u, v, t)
    ut = project(ut_exact, ref.vol_vals_u, ref.mass_u)
    vt = project(vt_exact, ref.vol_vals_v, ref.mass_v)
    assert np.allclose(du, ut, atol=1e-11)
    assert np.allclose(dv, vt, atol=1e-11)


# --- assembled operator ---------------------------------------------------------

REGIMES = {"subsonic": [0.5, -0.3], "sonic": [1.0, -1.0], "supersonic": [2.0, -1.5]}
FLUXES = {"central": FluxParams.central(), "sommerfeld": FluxParams.sommerfeld(),
          "sigma": FluxParams(sigma=0.7),
          "sigma-dissipative": FluxParams(sigma=0.2, beta=0.3, eta=0.1, xi=0.8)}


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("flux", sorted(FLUXES))
@pytest.mark.parametrize("dim,mode", [(1, "periodic"), (1, "physical"),
                                      (2, "periodic"), (2, "physical")])
def test_assembled_rhs_matches_matrix_free(dim, mode, flux, regime):
    # the block stencil reproduces the face-by-face evaluation, including
    # n = 2 (both neighbours are the same element) and s < q
    for n in (2, 3, 5):
        for q, s in ((2, 2), (3, 1)):
            disc = make_disc(dim=dim, n=n, q=q, s=s, w=REGIMES[regime][:dim],
                             mode=mode, params=FLUXES[flux])
            state = random_state(disc, n)
            du, dv = disc.rhs(state.u, state.v, 0.0)
            ru, rv = disc.matrix_free_rhs(state.u, state.v, 0.0)
            scale = max(np.abs(ru).max(), np.abs(rv).max())
            assert np.abs(du - ru).max() <= 1e-13 * scale
            assert np.abs(dv - rv).max() <= 1e-13 * scale


# ids: q-s in 2D, q-s-1d in 1D
@pytest.mark.parametrize("dim,q,s", [
    pytest.param(dim, q, s, id=f"{q}-{s}" + ("-1d" if dim == 1 else ""))
    for dim in (2, 1) for q, s in ((1, 1), (2, 2), (3, 1), (4, 3))])
def test_face_trace_maps_reproduce_side_traces(dim, q, s):
    # an element's traces through the Legendre coefficients along each face;
    # a 1D face is a point, where the traces are the values of v and du/dx
    disc = make_disc(dim=dim, n=3, q=q, s=s, w=[0.5, -0.3][:dim])
    maps, unit_v, unit_g = _face_trace_maps(q, s, dim)
    assert maps.shape[2] == ((s + 1) + (q + 1) + q if dim == 2 else 2)
    state = random_state(disc, 4)
    vtr, gtr = disc.side_traces(state.u, state.v)
    x = np.concatenate([state.u, state.v], axis=1)
    for side in range(2 * dim):
        coeffs = x @ maps[side]
        assert np.allclose(coeffs @ unit_v[side], vtr[side], rtol=0, atol=1e-12)
        grads = disc.dscale * np.einsum("er,rfd->efd", coeffs, unit_g[side])
        assert np.allclose(grads, gtr[side], rtol=0, atol=1e-12 * disc.dscale)


@pytest.mark.parametrize("mode", ["periodic", "physical"])
def test_rhs_in_row_blocks_matches_matrix_free(monkeypatch, mode):
    # products above SMALL_PRODUCT multiply-adds run in row blocks
    monkeypatch.setattr(operators, "SMALL_PRODUCT", 2000)
    disc = make_disc(dim=2, n=5, q=2, w=[0.5, -0.3], mode=mode)
    assert len(disc._trace_products) > 1 and len(disc._lift_products) > 1
    state = random_state(disc, 7)
    du, dv = disc.rhs(state.u, state.v, 0.0)
    ru, rv = disc.matrix_free_rhs(state.u, state.v, 0.0)
    scale = max(np.abs(ru).max(), np.abs(rv).max())
    assert np.abs(du - ru).max() <= 1e-13 * scale
    assert np.abs(dv - rv).max() <= 1e-13 * scale


def test_matrix_free_rhs_is_homogeneous_only():
    # the forcing projection has its reference in
    # test_projected_forcing_matches_quadrature
    forcing = Separable(lambda x: np.sin(2 * np.pi * x[..., 0])[None], lambda t: np.array([t]))
    disc = make_disc(forcing=forcing)
    state = random_state(disc)
    with pytest.raises(ValueError, match="homogeneous"):
        disc.matrix_free_rhs(state.u, state.v, 0.0)


@settings(max_examples=25, deadline=None)
@given(sigma=st.floats(0.0, 1.0))
def test_periodic_operator_commutes_with_shift(sigma):
    # the periodic wrap face is oriented like every other face of its axis,
    # so shifting the state by one element shifts the derivative
    for dim, n, w in ((1, 8, [0.4]), (2, 4, [0.4, -0.7])):
        disc = make_disc(dim=dim, n=n, q=3, w=w, params=FluxParams(sigma=sigma))
        state = random_state(disc, 6)
        for axis in range(dim):
            def shift(a):
                grid = a.reshape((n,) * dim + a.shape[1:])
                return np.roll(grid, 1, axis=axis).reshape(a.shape)

            for apply in (disc.rhs, disc.matrix_free_rhs):
                du, dv = apply(state.u, state.v, 0.0)
                su, sv = apply(shift(state.u), shift(state.v), 0.0)
                scale = max(np.abs(du).max(), np.abs(dv).max())
                assert np.abs(su - shift(du)).max() <= 1e-12 * scale
                assert np.abs(sv - shift(dv)).max() <= 1e-12 * scale


def _work_arrays(disc):
    """Every array the discretization holds, directly or in tuples and lists."""
    def walk(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (tuple, list)):
            for item in value:
                yield from walk(item)

    for value in vars(disc).values():
        yield from walk(value)


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("dim,mode", [(1, "periodic"), (1, "physical"),
                                      (2, "periodic"), (2, "physical")])
def test_rhs_out_matches_rhs(dim, mode, forced):
    def space(x):
        return np.stack([np.sin(2 * np.pi * x.sum(axis=-1)), x[..., 0] ** 2])

    forcing = Separable(space, lambda t: np.array([np.cos(t), 1.0 + t])) if forced else None
    disc = make_disc(dim=dim, n=4 if dim == 1 else 3, w=[0.5, -0.3][:dim], mode=mode,
                     forcing=forcing)
    nu, nb = disc.ref.n_u, disc.ref.n_u + disc.ref.n_v
    a, b = random_state(disc, 1), random_state(disc, 2)
    t = 0.37
    du, dv = disc.rhs(a.u, a.v, t)

    out = np.full((disc.mesh.n_elements, nb), np.nan)
    ou, ov = disc.rhs(a.u, a.v, t, out=out)
    assert np.shares_memory(ou, out) and np.shares_memory(ov, out)
    assert np.array_equal(out[:, :nu], du) and np.array_equal(out[:, nu:], dv)
    assert np.array_equal(ou, du) and np.array_equal(ov, dv)
    # a strided out, and the input given as the discretization's own views
    strided = np.full((disc.mesh.n_elements, 2 * nb), np.nan)[:, ::2]
    disc.input_uv[0][...], disc.input_uv[1][...] = a.u, a.v
    disc.rhs(*disc.input_uv, t, out=strided)
    assert np.array_equal(strided, out)
    # only u given as the own view: v is still read from the argument
    disc.input_uv[1][...] = b.v
    disc.rhs(disc.input_uv[0], a.v, t, out=strided)
    assert np.array_equal(strided, out)

    # out-less calls own their results
    du2, dv2 = disc.rhs(b.u, b.v, t)
    kept = du.copy(), dv.copy()
    assert not np.shares_memory(du, dv) and not np.shares_memory(du2, dv2)
    for first in (du, dv):
        for second in (du2, dv2):
            assert not np.shares_memory(first, second)
    for result in (du, dv, du2, dv2):
        for work in _work_arrays(disc):
            assert not np.shares_memory(result, work)
    assert np.array_equal(du, kept[0]) and np.array_equal(dv, kept[1])
    assert not np.array_equal(du2, du)


@pytest.mark.parametrize("problem", ["periodic1d", "mixed2d"])
def test_rhs_reused_forcing_matches_fresh_instance(problem):
    # rhs builds the forcing once per distinct t; every call must still
    # equal, bit for bit, the same call on an instance that never ran
    from advwave import problems
    spec = (problems.periodic_1d(0.5, 1.0) if problem == "periodic1d"
            else problems.mixed_2d([0.5, 0.5], 1.0))

    def fresh():
        mesh = build_mesh(spec.dim, 6 if spec.dim == 1 else 3, spec.boundary_mode)
        return Discretization(mesh, build_reference(3, 3, dim=spec.dim),
                              FluxParams.sommerfeld(), spec.w, spec.c, forcing=spec.forcing)

    disc = fresh()
    a, b = random_state(disc, 1), random_state(disc, 2)
    t1, t2 = 0.3, 0.7
    results = []
    for st, t in ((a, t1), (a, t2), (a, t2), (a, t1), (b, t1)):
        du, dv = disc.rhs(st.u, st.v, t)
        eu, ev = fresh().rhs(st.u, st.v, t)
        assert np.array_equal(du, eu) and np.array_equal(dv, ev)
        results.append(dv)
    # the two times give different forcings, so a stale one would show
    assert not np.array_equal(results[0], results[1])


def test_nonpositive_wave_speed_rejected_before_factorizing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (0.0, -1.0):
            with pytest.raises(ValueError, match="wave speed c must be positive"):
                make_disc(c=c)


def test_plain_callable_forcing_rejected():
    with pytest.raises(TypeError):
        make_disc(forcing=lambda x, t: np.zeros(x.shape[:-1]))


def test_worker_independent_determinism():
    # two discretizations built independently give bitwise-equal output
    a = make_disc(dim=2, n=3, q=2, w=[0.5, 0.25], mode="physical")
    b = make_disc(dim=2, n=3, q=2, w=[0.5, 0.25], mode="physical")
    st = random_state(a, 9)
    dua, dva = a.rhs(st.u, st.v, 0.0)
    dub, dvb = b.rhs(st.u, st.v, 0.0)
    assert np.array_equal(dua, dub)
    assert np.array_equal(dva, dvb)


# --- side traces ------------------------------------------------------------------

def test_side_traces_constant():
    disc = make_disc(q=2, n=4)
    u, v = np.zeros((4, 3)), np.zeros((4, 3))
    u[:, 0] = 5.0
    v[:, 0] = 2.0
    vtr, gtr = disc.side_traces(u, v)
    assert np.allclose(gtr, 0.0, atol=1e-14)
    assert np.allclose(vtr, 2.0, atol=1e-14)


def test_side_traces_linear_and_quadratic():
    # side 0 is an element's low face, side 1 its high face
    h = 0.25
    disc = make_disc(q=2, n=4)
    u, v = np.zeros((4, 3)), np.zeros((4, 3))
    u[2, 1] = 1.0  # P1 mode: physical slope 2/h
    _, gtr = disc.side_traces(u, v)
    assert gtr[0, 2, 0, 0] == pytest.approx(2.0 / h)
    assert np.all(gtr[:, [0, 1, 3]] == 0.0)
    u[:] = 0.0
    u[2, 2] = 1.0  # P2 mode: P2'(1) = 3
    _, gtr = disc.side_traces(u, v)
    assert gtr[1, 2, 0, 0] == pytest.approx(3.0 * 2.0 / h)


def test_dimension_mismatch_rejected():
    ref = build_reference(2, 2, dim=1)
    mesh = build_mesh(2, 3, "periodic")
    with pytest.raises(ValueError):
        Discretization(mesh, ref, FluxParams.central(), [0.5, 0.5], 1.0)
