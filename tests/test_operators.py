import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advwave.basis import build_reference
from advwave.fluxes import FluxParams
from advwave.mesh import build_mesh
from advwave import operators
from advwave.operators import Discretization, ModalState, Separable
from test_problems import proj_v, quad_points


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


# --- element energy form and system -----------------------------------------

def test_u_system_nonsingular():
    # h = 1/n = 0.1
    for dim, q in [(1, 1), (1, 4), (2, 2), (2, 3)]:
        disc = make_disc(dim=dim, n=10, q=q, w=(0.5,) * dim)
        assert np.linalg.cond(disc.u_system) < 1e8


def test_u_system_constant_vector():
    # u_system applied to the constant's coefficients: mean-row value in
    # the constant slot, zeros elsewhere (stiffness annihilates constants)
    h = 0.25
    disc = make_disc(dim=2, n=4, q=3, w=(0.5, 0.5), c=2.0)
    const = np.zeros(disc.ref.n_u)
    const[0] = 1.0
    out = disc.u_system @ const
    assert out[0] == pytest.approx((h / 2.0) ** 2 * 4.0)
    assert np.allclose(out[1:], 0.0, atol=1e-14)


def test_v_mass_inverse():
    disc = make_disc(dim=2, n=5, q=2, w=(0.5, 0.5))
    jac = (0.2 / 2.0) ** 2
    assert np.allclose(disc.v_mass_diag * disc._element.v_mass_inv, 1.0, atol=1e-13)
    assert np.allclose(disc.v_mass_diag, jac * np.diag(disc.ref.mass_v), atol=1e-14)


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
    p = st.u @ disc._element.adv_modal_u.T - st.v @ ref.embed_v.T
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
        k = 2.0 * w * w - 2.0 * c * c
        return [-4.0 * w * (1.0 - x) + k, k]

    forcing = Separable(space=space, time=lambda t: np.array([1.0, t]))
    disc = make_disc(dim=1, n=5, q=3, w=[w], c=c, mode="physical",
                     params=FluxParams.sommerfeld(), forcing=forcing)
    ref = disc.ref
    pts = quad_points(disc)
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


def full_lift_rows(disc):
    """The self block and the slot lifts (neighbour blocks and boundary
    corrections in 1D, the trace lifts in 2D), assembled at the grid's own
    size, with no row dropped."""
    element = operators._Element(disc.ref, disc.w, disc.c, disc.mesh.h)
    blocks, lifts = element.assemble(disc.params, tuple(disc.face_kinds))
    return blocks[0], blocks[1:] if disc.mesh.dim == 1 else lifts


# criterion 12's family: mixed2d, q = 3, s = 2, a supersonic inflow side
CRITERION_12 = dict(dim=2, n=4, q=3, s=2, w=[1.5, 0.3], mode="physical")


@pytest.mark.parametrize("case", [
    pytest.param((dim, mode, flux, regime), id=f"{dim}-{mode}-{flux}-{regime}")
    for dim, mode in ((1, "periodic"), (1, "physical"), (2, "periodic"), (2, "physical"))
    for flux in sorted(FLUXES) for regime in sorted(REGIMES)] + ["criterion-12"])
def test_dropped_lift_rows_are_zero(case):
    # the lift factor keeps, of the self block, its rows from the first that
    # is not zero, and of each slot lift the smallest run of rows that holds
    # every row that is not; every row it drops is exactly zero.  A
    # dissipative flux takes a supersonic face's states from upwind alone,
    # so its slot lift from the downwind neighbour is zero, and on a
    # physical mesh so are the boundary corrections of a supersonic axis
    if case == "criterion-12":
        discs = [make_disc(**CRITERION_12)]
        dissipative, w, mode = True, CRITERION_12["w"], "physical"
    else:
        dim, mode, flux, regime = case
        w, params = REGIMES[regime][:dim], FLUXES[flux]
        discs = [make_disc(dim=dim, n=3, q=q, s=s, w=w, mode=mode, params=params)
                 for q, s in ((2, 2), (3, 1))]
        dissipative = params.dissipative and regime == "supersonic"
    for disc in discs:
        self_block, lifts = full_lift_rows(disc)
        first = disc.family.first
        assert first == 1 and not np.any(self_block[:first]) and np.any(self_block[first])
        kept = np.zeros(lifts.shape[:2], dtype=bool)
        for slot, start, stop in disc.family.runs:
            kept[slot, start:stop] = True
            assert np.any(lifts[slot, start]) and np.any(lifts[slot, stop - 1])
        assert not np.any(lifts[~kept])
        assert disc._lift_factor.shape == (self_block.shape[0],
                                           self_block.shape[0] - first + kept.sum())
        if dissipative:
            sides = 2 * disc.mesh.dim
            downwind = {2 * axis + (wa > 0) for axis, wa in enumerate(w) if abs(wa) > disc.c}
            if mode == "physical":
                downwind |= {sides + side for side in range(sides) if abs(w[side // 2]) > disc.c}
            assert {slot for slot, _, _ in disc.family.runs} == set(range(len(lifts))) - downwind


# (make_disc arguments, the sides some kept slot reads, trace-product
# multiply-adds per element): every side is read on the benchmark's
# periodic2d central and mixed2d Sommerfeld grids; criterion 12's family
# reads no side 0, and a periodic Sommerfeld family supersonic on both axes
# only sides 1 and 2 (it keeps the slots of its upwind neighbours, across
# sides 0 and 3)
TRACE_FAMILIES = {
    "periodic2d-central": (dict(dim=2, n=5, q=3, w=[0.5, 0.5], params=FluxParams.central()),
                           (0, 1, 2, 3), 676),
    "mixed2d-sommerfeld": (dict(dim=2, n=5, q=2, w=[0.5, 0.5], mode="physical"),
                           (0, 1, 2, 3), 268),
    "criterion-12": (dict(CRITERION_12, n=5), (1, 2, 3), 396),
    "periodic2d-supersonic": (dict(dim=2, n=5, q=3, w=[2.0, -1.5]), (1, 2), 338),
}


def sine_of_sum(*x):
    """sin 2 pi (x_0 + ... + x_{dim-1}) as a Separable factor: in 2D the
    terms sin 2 pi x cos 2 pi y + cos 2 pi x sin 2 pi y."""
    sin, cos = ([f(2 * np.pi * xd) for xd in x] for f in (np.sin, np.cos))
    return sin[0] if len(x) == 1 else [(sin[0], cos[1]), (cos[0], sin[1])]


@pytest.mark.parametrize("split", [False, True], ids=["one-block", "split"])
@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize("family", sorted(TRACE_FAMILIES))
def test_trace_products_give_the_traces_of_the_read_sides(monkeypatch, family, forced, split):
    # 2D rhs takes the traces of the sides its kept slots read from two
    # products, the v coordinates from the v coefficients and the
    # derivatives from the u coefficients but the constant: they are the
    # trace maps times [u v], in one column block and in several
    kw, read, madds = TRACE_FAMILIES[family]
    if split:
        monkeypatch.setattr(operators, "SMALL_PRODUCT", 200)
    forcing = (Separable(lambda *x: [np.sin(2 * np.pi * x[0])], lambda t: np.array([1.0 + t]))
               if forced else None)
    disc = make_disc(forcing=forcing, **kw)
    products = disc._trace_products
    assert disc.family.trace_factors[0] == read
    if split:
        assert len(products) > 2
    else:
        assert len(products) == 2 and sum(p.args[0].size for p in products) == madds
    state = random_state(disc, 11)
    du, dv = disc.rhs(state.u, state.v, 0.3)
    x = np.concatenate([state.u, state.v], axis=1)
    r = disc.ref.trace_maps.shape[-1]
    for i, side in enumerate(read):
        expect = x @ disc.ref.trace_maps[side]
        got = disc._traces[:, i].reshape(r, -1).T
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()
    if not forced:
        ru, rv = disc.matrix_free_rhs(state.u, state.v, 0.3)
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
    maps, unit_v, unit_g = disc.ref.trace_maps, disc.ref.unit_v, disc.ref.unit_g
    assert maps.shape[2] == ((s + 1) + (q + 1) + q if dim == 2 else 2)
    state = random_state(disc, 4)
    vtr, gtr = disc.side_traces(state.u, state.v)
    x = np.concatenate([state.u, state.v], axis=1)
    for side in range(2 * dim):
        coeffs = x @ maps[side]
        assert np.allclose(coeffs @ unit_v[side], vtr[side], rtol=0, atol=1e-12)
        grads = disc.dscale * np.einsum("er,rfd->efd", coeffs, unit_g[side])
        assert np.allclose(grads, gtr[side], rtol=0, atol=1e-12 * disc.dscale)


# ids: mode in 2D, mode-1d in 1D
@pytest.mark.parametrize("dim,mode", [
    pytest.param(dim, mode, id=mode + ("-1d" if dim == 1 else ""))
    for dim in (2, 1) for mode in ("periodic", "physical")])
def test_rhs_in_column_blocks_matches_matrix_free(monkeypatch, dim, mode):
    # products above SMALL_PRODUCT multiply-adds run in column blocks, one
    # element per column; 1D makes no trace product, 2D one per field, each
    # in blocks
    monkeypatch.setattr(operators, "SMALL_PRODUCT", 200)
    disc = make_disc(dim=dim, n=7 if dim == 1 else 5, q=2, w=[0.5, -0.3][:dim], mode=mode)
    assert len(disc._lift_products) > 1
    assert (len(disc._trace_products) > 2) == (dim == 2)
    state = random_state(disc, 7)
    du, dv = disc.rhs(state.u, state.v, 0.0)
    ru, rv = disc.matrix_free_rhs(state.u, state.v, 0.0)
    scale = max(np.abs(ru).max(), np.abs(rv).max())
    assert np.abs(du - ru).max() <= 1e-13 * scale
    assert np.abs(dv - rv).max() <= 1e-13 * scale


@pytest.mark.parametrize("split", [False, True], ids=["one-block", "split"])
@pytest.mark.parametrize("dim,mode", [(1, "periodic"), (1, "physical"),
                                      (2, "periodic"), (2, "physical")])
def test_forced_rhs_adds_the_projected_forcing(monkeypatch, dim, mode, split):
    # the forcing's projections are operand rows (K * Nv of them, below
    # [u v] and the rows of each kept slot, see
    # test_dropped_lift_rows_are_zero) and its time factors lift-factor
    # entries, so the one lift product adds it: a forced rhs minus the
    # unforced one is the forcing's L2 projection at t, in every column
    # block, with the time factors rewritten when t changes
    if split:
        monkeypatch.setattr(operators, "SMALL_PRODUCT", 200)

    def space(*x):
        return [sine_of_sum(*x), x[0] ** 2, np.cos(2 * np.pi * x[-1])]

    forcing = Separable(space, lambda t: np.array([np.cos(3.0 * t), 1.0 + t, t * t]))
    kw = dict(dim=dim, n=5 if dim == 1 else 3, q=2, w=[0.5, -0.3][:dim], mode=mode)
    forced, free = make_disc(forcing=forcing, **kw), make_disc(**kw)
    ref, n_el = free.ref, free.mesh.n_elements
    nb = ref.n_u + ref.n_v
    # the lift product reads the operand from the self block's first row
    # that is not zero (the u constant is not read)
    assert free.family is forced.family and free.family.first == 1
    rows = nb + sum(stop - start for _, start, stop in free.family.runs)
    assert free._operand.shape == (rows, n_el) and free._lift_factor.shape == (nb, rows - 1)
    assert forced._operand.shape == (rows + 3 * ref.n_v, n_el)
    assert forced._lift_factor.shape == (nb, rows - 1 + 3 * ref.n_v)
    assert (len(forced._lift_products) > 1) == split
    state = random_state(free, 3)
    for t in (0.2, 0.9, 0.2):
        du, dv = forced.rhs(state.u, state.v, t)
        fu, fv = free.rhs(state.u, state.v, t)
        expect = forcing(quad_points(forced), t) @ proj_v(forced.ref)
        scale = max(np.abs(fu).max(), np.abs(fv).max(), np.abs(expect).max())
        assert np.abs(du - fu).max() <= 1e-12 * scale
        assert np.abs(dv - fv - expect).max() <= 1e-12 * scale


def test_matrix_free_rhs_is_homogeneous_only():
    # the forcing projection has its reference in
    # test_projected_forcing_matches_quadrature
    forcing = Separable(lambda *x: [np.sin(2 * np.pi * x[0])], lambda t: np.array([t]))
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
    def space(*x):
        return [sine_of_sum(*x), x[0] ** 2]

    forcing = Separable(space, lambda t: np.array([np.cos(t), 1.0 + t])) if forced else None
    disc = make_disc(dim=dim, n=4 if dim == 1 else 3, w=[0.5, -0.3][:dim], mode=mode,
                     forcing=forcing)
    nu, nb = disc.ref.n_u, disc.ref.n_u + disc.ref.n_v
    a, b = random_state(disc, 1), random_state(disc, 2)
    t = 0.37
    du, dv = disc.rhs(a.u, a.v, t)

    # an out laid out like input (coefficient-major) gets the same bits; a
    # row-major or a strided one raises and is left untouched
    n_el = disc.mesh.n_elements
    out = np.full((n_el, nb), np.nan, order="F")
    for other in (np.full((n_el, nb), np.nan), np.full((n_el, 2 * nb), np.nan)[:, ::2]):
        with pytest.raises(ValueError):
            disc.rhs(a.u, a.v, t, out=other)
        assert np.all(np.isnan(other))
    ou, ov = disc.rhs(a.u, a.v, t, out=out)
    assert np.shares_memory(ou, out) and np.shares_memory(ov, out)
    assert np.array_equal(out[:, :nu], du) and np.array_equal(out[:, nu:], dv)
    assert np.array_equal(ou, du) and np.array_equal(ov, dv)
    expect = out.copy()
    # the input given as the discretization's own views
    out[...] = np.nan
    disc.input_uv[0][...], disc.input_uv[1][...] = a.u, a.v
    disc.rhs(*disc.input_uv, t, out=out)
    assert np.array_equal(out, expect)
    # only u given as the own view: v is still read from the argument
    disc.input_uv[1][...] = b.v
    disc.rhs(disc.input_uv[0], a.v, t, out=out)
    assert np.array_equal(out, expect)

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


# --- the family reference and its rescale -----------------------------------------

def direct_blocks(disc):
    """The blocks assembled at the grid's own element size, without the
    family reference."""
    element = operators._Element(disc.ref, disc.w, disc.c, disc.mesh.h)
    return element.assemble(disc.params, tuple(disc.face_kinds))[0]


def quadrant_error(blocks, expect, nu):
    """The largest error of blocks against expect, relative in each of the
    u->du, u->dv, v->du and v->dv quadrants, whose scales differ by powers
    of 2/h."""
    worst = 0.0
    for rows in (slice(None, nu), slice(nu, None)):
        for cols in (slice(None, nu), slice(nu, None)):
            a, b = blocks[:, rows, cols], expect[:, rows, cols]
            worst = max(worst, np.abs(a - b).max() / np.abs(b).max())
    return worst


def smallest_c(dim, n):
    """About the smallest c validate_config accepts on a grid of n: the
    stiffness scale c^2 (h/2)^dim (2/h)^2 (2n c^2 in 1D, c^2 in 2D) just
    above the normal range."""
    c = 1.01 * np.sqrt(np.finfo(float).tiny / (2 * n if dim == 1 else 1))
    operators.element_scale(dim, 1.0 / n, c)
    with pytest.raises(ValueError):
        operators.element_scale(dim, 1.0 / n, 0.99 * c / 1.01)
    return c


# (dim, mode, n, q, s, w, c, flux); c = None is smallest_c's, and 1e151 is
# about the largest c whose operator is finite (validate_config accepts up to
# about 1e153; between, the blocks overflow and the config exits 2)
FAMILIES = {
    "1d-n37": (1, "periodic", 37, 3, 3, [0.5], 1.0, FluxParams.sommerfeld()),
    "1d-q4-s3": (1, "physical", 9, 4, 3, [0.5], 1.0, FluxParams.sommerfeld()),
    "2d-q4-s3": (2, "physical", 4, 4, 3, [0.5, -0.3], 1.0, FluxParams.sommerfeld()),
    "mixed2d-supersonic": (2, "physical", 6, 3, 3, [1.5, 0.3], 1.0, FluxParams.sommerfeld()),
    "2d-n37": (2, "periodic", 37, 2, 2, [0.5, -0.3], 1.0, FluxParams.central()),
    "1d-c-small": (1, "physical", 37, 3, 3, [0.5], None, FluxParams.sommerfeld(0.5)),
    "2d-c-small": (2, "physical", 5, 3, 3, [0.5, 0.25], None, FluxParams.sommerfeld(0.5)),
    "1d-c-large": (1, "periodic", 37, 3, 3, [0.5], 1e151, FluxParams.central()),
    "2d-c-large": (2, "periodic", 5, 3, 3, [0.5, 0.25], 1e151, FluxParams.central()),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_rescaled_blocks_match_direct_assembly_and_matrix_free(family):
    # the grid's blocks come from its family's reference by the rescale;
    # assembled at the grid's own size they agree to roundoff, and rhs
    # agrees with the face-by-face evaluation
    dim, mode, n, q, s, w, c, params = FAMILIES[family]
    c = smallest_c(dim, n) if c is None else c
    disc = make_disc(dim=dim, n=n, q=q, s=s, w=w, c=c, mode=mode, params=params)
    assert quadrant_error(disc.blocks, direct_blocks(disc), disc.ref.n_u) <= 1e-13
    state = random_state(disc, n)
    du, dv = disc.rhs(state.u, state.v, 0.0)
    ru, rv = disc.matrix_free_rhs(state.u, state.v, 0.0)
    assert np.abs(du - ru).max() <= 1e-13 * np.abs(ru).max()
    assert np.abs(dv - rv).max() <= 1e-13 * np.abs(rv).max()


def test_rescale_is_exact_for_power_of_two_grids():
    # h = 1/n and the reference size are powers of two, so every factor of
    # the rescale is: the blocks are those of the direct assembly, bit for bit
    for dim, n in ((1, 16), (2, 4)):
        disc = make_disc(dim=dim, n=n, q=2, w=[0.5, -0.3][:dim], mode="physical")
        assert np.array_equal(disc.blocks, direct_blocks(disc))


@pytest.mark.parametrize("n", [3, 5, 7, 8])
@pytest.mark.parametrize("dim,mode", [(1, "periodic"), (1, "physical"),
                                      (2, "periodic"), (2, "physical")])
def test_grid_scales_each_family_entry_by_its_power_of_k(dim, mode, n):
    # with k = h_ref / h, the derivative [du dv] of a u coefficient or a
    # grad-u trace takes [k, k^2] and of a v coefficient or v trace [1, k]:
    # a grid's blocks and lift factor, forced or not, are the family's
    # entries times [1, k, k*k][power], bit for bit
    forcing = Separable(lambda *x: [np.sin(2 * np.pi * x[0])], lambda t: np.array([1.0 + t]))
    kw = dict(dim=dim, n=n, q=2, s=1, w=[0.5, -0.3][:dim], mode=mode)
    disc, forced = make_disc(**kw), make_disc(forcing=forcing, **kw)
    family, nu, nb = disc.family, disc.ref.n_u, disc.blocks.shape[-1]
    is_v = (np.arange(nb) >= nu).astype(int)
    assert forced.family is family
    assert np.array_equal(family.block_powers, np.add.outer(1 - is_v, is_v))
    assert all(np.array_equal(col, is_v) or np.array_equal(col, is_v + 1)
               for col in family.factor_powers.T)
    k = family.h / disc.mesh.h
    scale = np.array([1.0, k, k * k])
    assert np.array_equal(disc.blocks, family.blocks * scale[family.block_powers])
    lift_factor = family.lift_factor * scale[family.factor_powers]
    for grid in (disc, forced):
        assert np.array_equal(grid._lift_factor[:, :lift_factor.shape[1]], lift_factor)


def test_reference_size_keeps_the_stiffness_scale_normal():
    # in 1D the scale is 2 c^2 / h: a c that passes the grid's check can make
    # it subnormal at h = 2, so the reference is halved until it is normal
    tiny = np.finfo(float).tiny
    assert operators._reference_size(1, 1.0) == operators._reference_size(2, 1e-150) == 2.0
    for c in (smallest_c(1, 37), smallest_c(1, 1000), 1e-155):
        h = operators._reference_size(1, c)
        assert h < 2.0 and np.log2(h) == int(np.log2(h))
        assert tiny <= operators.element_scale(1, h, c) < 2 * tiny
    # 1e-155 passes the check at n = 1000 only, and its grid matches the
    # face-by-face evaluation
    disc = make_disc(dim=1, n=1000, q=3, c=1e-155, params=FluxParams.sommerfeld(0.5))
    state = random_state(disc, 5)
    du, dv = disc.rhs(state.u, state.v, 0.0)
    ru, rv = disc.matrix_free_rhs(state.u, state.v, 0.0)
    assert np.abs(du - ru).max() <= 1e-13 * np.abs(ru).max()
    assert np.abs(dv - rv).max() <= 1e-13 * np.abs(rv).max()


def test_family_reference_is_shared_and_history_free():
    # one reference assembly per family, shared by its grids, forced or not;
    # two families built in either order, and a family's grids in either
    # order, give the same blocks bit for bit
    reference = operators._family_reference
    forcing = Separable(lambda *x: [np.sin(2 * np.pi * x[0])], lambda t: np.array([t]))
    a = dict(dim=2, q=2, w=[0.5, -0.3], mode="physical")
    b = dict(dim=2, q=2, w=[1.5, 0.3], mode="physical", params=FluxParams.central())

    def build(order):
        reference.cache_clear()
        return [make_disc(n=n, **kw).blocks for kw, n in order]

    first = build([(a, 3), (a, 5), (b, 3)])
    assert reference.cache_info().misses == 2 and reference.cache_info().hits == 1
    make_disc(n=3, forcing=forcing, **a)
    assert reference.cache_info().misses == 2
    second = build([(b, 3), (a, 5), (a, 3)])
    for x, y in zip(first, second[::-1]):
        assert np.array_equal(x, y)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("dim", [1, 2])
def test_family_peaks_tell_an_overflow_as_the_scaled_arrays_do(dim):
    # a grid raises before any product exactly when its blocks, lift factor
    # or S du, scaled from the family's, would not be all finite: c from a
    # finite operator across the overflow to an infinite element system
    ref, mesh, w = build_reference(3, 3, dim), build_mesh(dim, 5, "periodic"), [0.5, 0.25][:dim]
    params = FluxParams.central()
    raised = []
    for c in np.geomspace(1e150, 1e154, 25).tolist():
        try:
            stiffness = operators.element_scale(dim, mesh.h, c) * ref.stiff_u
            kinds = tuple(operators.classify_mesh(mesh, w, c))
            family = operators._family_reference(3, 3, dim, tuple(vars(params).values()),
                                                 tuple(w), c, kinds)
            k = family.h / mesh.h
            scale = np.array([1.0, k, k * k])
            with np.errstate(over="ignore", invalid="ignore"):
                blocks = family.blocks * scale[family.block_powers]
                arrays = (blocks, family.lift_factor * scale[family.factor_powers],
                          blocks[..., :ref.n_u] @ stiffness.T)
            finite = all(np.all(np.isfinite(a)) for a in arrays)
        except ValueError:
            finite = False
        try:
            Discretization(mesh, ref, params, w, c)
            raised.append(False)
        except ValueError:
            raised.append(True)
        assert raised[-1] == (not finite), c
    assert raised[0] is False and raised[-1] is True


def test_rhs_work_arrays_come_before_the_set_up_temporaries(monkeypatch):
    # rhs's work arrays (the operand, the lift factor, the 2D traces) are
    # allocated first, before the forcing's projection and the blocks, so
    # that no temporary of a grid's set-up decides where they land
    seen = []
    project = operators.FieldTable.projection

    def spy(table, space, degree):
        frame = sys._getframe(1)
        while not isinstance(frame.f_locals.get("self"), Discretization):
            frame = frame.f_back
        made = vars(frame.f_locals["self"])
        seen.append({name for name in ("_operand", "_lift_factor", "_traces", "blocks")
                     if name in made})
        return project(table, space, degree)

    monkeypatch.setattr(operators.FieldTable, "projection", spy)
    forcing = Separable(lambda *x: [np.sin(2 * np.pi * x[0])], lambda t: np.array([1.0]))
    for dim in (1, 2):
        seen.clear()
        make_disc(dim=dim, n=5, q=2, w=(0.5,) * dim, forcing=forcing)
        assert seen == [{"_operand", "_lift_factor"} | ({"_traces"} if dim == 2 else set())]


def test_blocks_overflowing_the_energy_form_are_rejected():
    # w = 1e306 leaves du finite but overflows S du, the u equation's right
    # side before its solve, through which the energy rates take it
    with pytest.raises(ValueError, match="overflow"):
        make_disc(dim=1, n=4, q=3, w=[1e306])
