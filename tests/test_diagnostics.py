import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from advwave import diagnostics, fluxes, operators
from advwave.basis import build_reference, gauss_points, legendre_tables, tensor_eval
from advwave.diagnostics import (bloch_symbols, discrete_energy, energy_identity_residual,
                                 fit_rate, l2_error, spectral_radius_probe)
from advwave.fluxes import FluxParams
from advwave.mesh import FaceKind, build_mesh
from advwave.operators import Discretization, ModalState, Separable
from advwave.problems import mixed_2d, periodic_1d, periodic_2d
from advwave.timeint import evolve
from test_problems import (assert_matches_dense, exact_mixed_2d, exact_periodic_1d,
                           exact_periodic_2d, proj_v)


def make_disc(dim=1, n=8, q=2, w=(0.5,), c=1.0, mode="periodic", params=None):
    ref = build_reference(q, q, dim=dim)
    mesh = build_mesh(dim, n, mode)
    return Discretization(mesh, ref, params or FluxParams.sommerfeld(),
                          list(w), c)


def random_state(disc, seed=0):
    rng = np.random.default_rng(seed)
    return ModalState(rng.standard_normal((disc.mesh.n_elements, disc.ref.n_u)),
                      rng.standard_normal((disc.mesh.n_elements, disc.ref.n_v)))


# --- discrete energy -----------------------------------------------------------

def test_energy_zero_state():
    disc = make_disc()
    st = ModalState(np.zeros((8, 3)), np.zeros((8, 3)))
    assert discrete_energy(st, disc) == 0.0


def test_energy_constant_v():
    # v = 1 on (0,1), u = 0: E = 1/2
    disc = make_disc(n=4, q=2)
    st = ModalState(np.zeros((4, 3)), np.zeros((4, 3)))
    st.v[:, 0] = 1.0
    assert discrete_energy(st, disc) == pytest.approx(0.5, abs=1e-14)


def test_energy_linear_u():
    # u = x on (0,1) with c = 2: E = c^2/2 = 2; per element u = center
    # + (h/2) P1(z)
    disc = make_disc(n=4, q=2, c=2.0)
    h = disc.mesh.h
    st = ModalState(np.zeros((4, 3)), np.zeros((4, 3)))
    st.u[:, 0] = disc.mesh.element_centers[:, 0]
    st.u[:, 1] = h / 2.0
    assert discrete_energy(st, disc) == pytest.approx(2.0, abs=1e-13)


def test_energy_matches_fine_quadrature():
    # independent evaluation with a finer rule and explicit basis values
    disc = make_disc(dim=2, n=3, q=3, w=[0.5, 0.25])
    st = random_state(disc, 1)
    nodes, weights = np.polynomial.legendre.leggauss(8)
    gx, gy = np.meshgrid(nodes, nodes, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    wx, wy = np.meshgrid(weights, weights, indexing="ij")
    wq = (wx * wy).ravel()
    vals_u, grads_u = tensor_eval(3, 2, pts)
    vals_v, _ = tensor_eval(3, 2, pts)
    h = disc.mesh.h
    jac = (h / 2.0) ** 2
    vh = st.v @ vals_v.T
    total = 0.5 * jac * np.sum((vh ** 2) * wq)
    for d in range(2):
        gh = (2.0 / h) * (st.u @ grads_u[d].T)
        total += 0.5 * disc.c ** 2 * jac * np.sum((gh ** 2) * wq)
    assert discrete_energy(st, disc) == pytest.approx(total, rel=1e-12)


# --- energy identity -----------------------------------------------------------

@pytest.mark.parametrize("dim,n,w,mode,params", [
    (1, 8, [0.5], "periodic", FluxParams.central()),
    (1, 8, [0.5], "periodic", FluxParams.sommerfeld()),
    (1, 8, [2.0], "periodic", FluxParams.sommerfeld()),
    (1, 8, [0.5], "physical", FluxParams.sommerfeld()),
    (2, 3, [0.5, 0.5], "physical", FluxParams.sommerfeld()),
    (2, 3, [0.5, 0.25], "periodic", FluxParams.central()),
    (1, 8, [0.4], "periodic", FluxParams(sigma=0.7)),
    # supersonic interior faces of the central flux
    (1, 8, [-2.0], "physical", FluxParams.central()),
    (2, 3, [1.5, -0.3], "physical", FluxParams.central()),
])
def test_energy_identity(dim, n, w, mode, params):
    disc = make_disc(dim=dim, n=n, q=3, w=w, mode=mode, params=params)
    st = random_state(disc, 5)
    lhs, rhs, res = energy_identity_residual(st, disc)
    assert res <= 1e-11
    if params.dissipative and mode == "periodic" and max(abs(x) for x in w) < disc.c:
        assert rhs <= 0.0
    if not params.dissipative and params.sigma == 0.5 and mode == "periodic":
        assert rhs == 0.0


@pytest.mark.parametrize("q,mode,params", [(3, "periodic", FluxParams.central()),
                                            (2, "physical", FluxParams.sommerfeld())])
def test_energy_identity_on_fine_2d_grids(q, mode, params):
    # n = 28: the face traces carry the neighbour coupling, and the
    # residual stays far below the CLI's default tolerance of 1e-9
    disc = make_disc(dim=2, n=28, q=q, w=[0.5, 0.5], mode=mode, params=params)
    states = [random_state(disc, seed) for seed in range(4)]
    stacked = ModalState(np.stack([st.u for st in states]), np.stack([st.v for st in states]))
    lhs, rhs, res = energy_identity_residual(stacked, disc)
    assert lhs.shape == rhs.shape == res.shape == (4,)
    assert np.max(res) <= 1e-9
    # one state at a time: the same operator side, the face side to roundoff
    for i, st in enumerate(states):
        one = energy_identity_residual(st, disc)
        assert one[0] == lhs[i]
        assert abs(one[1] - rhs[i]) <= 1e-13 * max(1.0, abs(rhs[i]))


def test_energy_identity_of_a_stack_matches_one_state_at_a_time():
    disc = make_disc(dim=2, n=3, q=2, w=[0.5, 0.5], mode="physical")
    states = [[random_state(disc, 3 * i + j) for j in range(3)] for i in range(2)]
    stacked = ModalState(np.array([[st.u for st in row] for row in states]),
                         np.array([[st.v for st in row] for row in states]))
    lhs, rhs, res = energy_identity_residual(stacked, disc)
    assert lhs.shape == rhs.shape == res.shape == (2, 3)
    for (i, j), st in np.ndenumerate(np.array(states, dtype=object)):
        one = energy_identity_residual(st, disc)
        assert all(np.ndim(x) == 0 and isinstance(x, np.floating) for x in one)
        assert one[0] == lhs[i, j]
        assert abs(one[1] - rhs[i, j]) <= 1e-13 * max(1.0, abs(rhs[i, j]))


def face_by_face_energy_rate(disc, u, v):
    """``boundary_energy_rate`` as the face walk sums it: the closed-form
    density of every face set's kind on its ``Trace`` objects
    (``Discretization._face_traces``), integrated with the face weights.
    Returns the rates and the sum of the magnitudes of the face sets'
    rates, the scale of their roundoff."""
    vtr, gtr = disc.side_traces(u, v)
    total = scale = 0.0
    for kind, _, t1, t2 in disc._face_traces(vtr, gtr):
        density = fluxes.energy_rate_density(kind, t1, t2, disc.params, disc.w, disc.c)
        rate = disc.jac_face * np.sum(density @ disc.ref.face_weights, axis=-1)
        total, scale = total + rate, scale + np.abs(rate)
    return total, scale


# (dim, mode, q, s, w, flux): every face kind, each flux branch of the
# supersonic interior face, and fluxes whose sigma is not 1/2
FACE_FORM_CASES = {
    "1d-sommerfeld": (1, "periodic", 3, 3, [0.5], FluxParams.sommerfeld()),
    "1d-supersonic": (1, "periodic", 3, 2, [2.0], FluxParams.sommerfeld(2.0)),
    "1d-physical-central": (1, "physical", 2, 2, [-2.0], FluxParams.central()),
    "periodic2d-central": (2, "periodic", 3, 3, [0.5, 0.25], FluxParams.central()),
    "mixed2d-sommerfeld": (2, "physical", 2, 2, [0.5, 0.5], FluxParams.sommerfeld()),
    "mixed2d-supersonic": (2, "physical", 3, 2, [1.5, 0.3], FluxParams.sommerfeld()),
    "mixed2d-supersonic-out": (2, "physical", 2, 1, [-1.5, -1.3], FluxParams.sommerfeld(0.7)),
    "mixed2d-central": (2, "physical", 2, 2, [-0.7, 1.2], FluxParams.central()),
    "mixed2d-custom": (2, "physical", 2, 2, [0.4, -0.3],
                       FluxParams(sigma=0.8, beta=0.3, eta=0.2, xi=0.7)),
    "mixed2d-custom-supersonic": (2, "physical", 2, 2, [1.4, 0.0],
                                  FluxParams(sigma=0.3, beta=0.0, eta=0.0, xi=1.3)),
}


def test_face_form_cases_cover_every_face_kind():
    kinds = set()
    for dim, mode, q, s, w, params in FACE_FORM_CASES.values():
        disc = make_disc(dim=dim, n=3, q=q, w=w, mode=mode, params=params)
        kinds |= {kind for axis in disc.face_kinds for kind in axis if kind is not None}
    assert kinds == set(FaceKind)


# three grid sizes, so that the grid's scale, which the audit puts on the
# trace coordinates and the sum, is checked at more than one h
@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("case", sorted(FACE_FORM_CASES))
def test_face_forms_match_the_face_walk(case, n):
    dim, mode, q, s, w, params = FACE_FORM_CASES[case]
    disc = Discretization(build_mesh(dim, n, mode), build_reference(q, s, dim=dim),
                          params, w, 1.0)
    rng = np.random.default_rng(7)
    n_el, nu, nv = disc.mesh.n_elements, disc.ref.n_u, disc.ref.n_v
    for lead in [(), (4,), (2, 3)]:
        u = rng.standard_normal(lead + (n_el, nu))
        v = rng.standard_normal(lead + (n_el, nv))
        got = disc.boundary_energy_rate(u, v)
        expect, scale = face_by_face_energy_rate(disc, u, v)
        assert np.shape(got) == lead
        assert np.all(np.abs(got - expect) <= 1e-12 * np.maximum(scale, 1e-300))
    # one state comes back as a numpy scalar
    assert isinstance(disc.boundary_energy_rate(u[0, 0], v[0, 0]), np.floating)


def test_face_forms_are_built_on_first_use_once_per_family():
    # a family holds no form until a grid's face rates are asked for; every
    # grid of a family reads the family's forms as built, which are
    # read-only and symmetric
    operators._family_reference.cache_clear()
    grids = [make_disc(dim=2, n=n, q=2, w=[0.5, 0.5], mode="physical") for n in (3, 4, 5)]
    family = grids[0].family
    assert all(disc.family is family for disc in grids)
    assert "face_forms" not in vars(family)
    seen = []
    for disc in grids:
        st = random_state(disc)
        disc.boundary_energy_rate(st.u, st.v)
        seen.append([form for axis in disc.family.face_forms for form in axis])
    assert "face_forms" in vars(family)
    assert all(a is b for forms in seen[1:] for a, b in zip(seen[0], forms))
    for form in (f for f in seen[0] if f is not None):
        assert not form.flags.writeable and np.array_equal(form, form.T)


@st.composite
def sigma_half_interior_faces(draw):
    """(dim, q, s, w, c, params) with sigma = 1/2 and w.n on axis 0's
    interior faces subsonic; beta and eta are 0 or at least 0.05 and the
    rule's two sides 4 c^4 beta eta and ((c^2 beta + eta) w.n)^2 are zero
    or differ by a factor of at least 1.5, so that no draw sits on the
    rule's boundary, where the form's largest eigenvalue is 0."""
    dim = draw(st.sampled_from([1, 2]))
    q = draw(st.integers(1, 3))
    c = draw(st.floats(0.5, 2.0))
    coefficient = st.one_of(st.just(0.0), st.floats(0.05, 5.0))
    beta, eta = draw(coefficient), draw(coefficient)
    wn = c * draw(st.floats(0.05, 0.95)) * draw(st.sampled_from([-1.0, 1.0]))
    lhs, rhs = 4 * c ** 4 * beta * eta, ((c * c * beta + eta) * wn) ** 2
    assume(lhs == rhs == 0.0 or not rhs / 1.5 < lhs < 1.5 * rhs)
    w = [wn, draw(st.floats(-2.0, 2.0))][:dim]
    return dim, q, draw(st.integers(0, q)), w, c, FluxParams(sigma=0.5, beta=beta, eta=eta)


@given(sigma_half_interior_faces())
@settings(max_examples=60, deadline=None)
def test_interior_form_adds_no_energy_exactly_when_the_flux_is_admissible(case):
    # with sigma = 1/2 the interior density is -(c^2 eta [[g]]^2 + c^2 beta
    # [[v]]^2 - (c^2 beta + eta) [[g]] [[v]] w.n), a form in the two jumps
    # that is at most 0 for every trace exactly when 4 c^4 beta eta >=
    # ((c^2 beta + eta) w.n)^2; the family's interior form, on the trace
    # coordinates, has the same sign
    dim, q, s, w, c, params = case
    disc = Discretization(build_mesh(dim, 3, "periodic"), build_reference(q, s, dim=dim),
                          params, w, c)
    assert disc.face_kinds[0][0] == FaceKind.INTERIOR_SUBSONIC
    form = disc.family.face_forms[0][0]
    admissible = 4 * c ** 4 * params.beta * params.eta >= ((c * c * params.beta + params.eta)
                                                           * w[0]) ** 2
    largest = np.linalg.eigvalsh(form)[-1]
    assert (largest <= 1e-12 * np.abs(form).max(initial=0.0)) == admissible


# E = 1/2 x.G x, with G the block-diagonal energy Gram of
# ``Discretization.stiffness`` and ``v_mass_diag``, so the operator side of
# the identity is the form x.GLx and the face side a form x.Fx.  Both couple
# only face neighbours, through blocks fixed by h, and a 3^dim grid holds
# every kind of neighbourhood: if sym(GL) = F there, the identity holds for
# every state on every grid with that h.  Inadmissible fluxes (the custom
# ones) obey it too; only the sign of F depends on admissibility
@pytest.mark.parametrize("dim,mode,q,s,w,params", [
    (1, "periodic", 3, 3, [0.5], FluxParams.sommerfeld()),
    (1, "periodic", 3, 3, [0.5], FluxParams.central()),
    (1, "periodic", 3, 2, [2.0], FluxParams.sommerfeld(2.0)),
    (1, "periodic", 3, 3, [0.5], FluxParams(sigma=0.5, beta=0.1, eta=5.0)),
    (1, "periodic", 3, 3, [0.5], FluxParams(sigma=0.8)),
    (2, "periodic", 2, 2, [0.5, 0.25], FluxParams.sommerfeld()),
    (2, "physical", 2, 2, [0.5, 0.5], FluxParams.sommerfeld()),
    (2, "physical", 2, 1, [1.5, 0.3], FluxParams.sommerfeld()),
    (2, "physical", 2, 2, [-0.7, 1.2], FluxParams.central()),
], ids=["1d-sommerfeld", "1d-central", "1d-supersonic", "1d-custom", "1d-sigma0.8",
        "periodic2d-sommerfeld", "mixed2d-sommerfeld", "mixed2d-supersonic",
        "mixed2d-central"])
def test_energy_identity_as_a_matrix_identity(dim, mode, q, s, w, params):
    _assert_matrix_energy_identity(dim, mode, q, s, w, 1.0, params)


@st.composite
def energy_identity_cases(draw):
    dim = draw(st.sampled_from([1, 2]))
    q = draw(st.integers(1, 3 if dim == 1 else 2))
    return (dim, draw(st.sampled_from(["periodic", "physical"])), q, draw(st.integers(0, q)),
            draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)),
            draw(st.floats(0.5, 2.0)),
            FluxParams(sigma=draw(st.floats(0.0, 1.0)), beta=draw(st.floats(0.0, 5.0)),
                       eta=draw(st.floats(0.0, 5.0)), xi=draw(st.floats(0.2, 5.0))))


@given(energy_identity_cases())
@settings(max_examples=50, deadline=None)
def test_energy_identity_as_a_matrix_identity_over_drawn_fluxes(case):
    _assert_matrix_energy_identity(*case)


def _assert_matrix_energy_identity(dim, mode, q, s, w, c, params):
    """sym(GL) = F on a 3^dim grid, to 1e-13 of GL's largest entry."""
    from scipy.linalg import block_diag

    disc = Discretization(build_mesh(dim, 3, mode), build_reference(q, s, dim=dim),
                          params, w, c)
    n_el, nu = disc.mesh.n_elements, disc.ref.n_u
    gl = np.kron(np.eye(n_el), block_diag(disc.stiffness, np.diag(disc.v_mass_diag))) @ (
        diagnostics._dense_operator(disc).T)
    # F by polarization, from the face rates of one stack of the unit
    # states e_i and e_i + e_j (i < j)
    size = len(gl)
    eye = np.eye(size)
    i, j = np.triu_indices(size, 1)
    states = np.concatenate([eye, eye[i] + eye[j]]).reshape(-1, n_el, len(eye) // n_el)
    rates = disc.boundary_energy_rate(states[..., :nu], states[..., nu:])
    face = np.diag(rates[:size])
    face[i, j] = face[j, i] = (rates[size:] - rates[i] - rates[j]) / 2.0
    assert np.max(np.abs((gl + gl.T) / 2.0 - face)) <= 1e-13 * np.max(np.abs(gl))


def test_energy_identity_rejects_forcing():
    ref = build_reference(2, 2, dim=1)
    mesh = build_mesh(1, 4, "periodic")
    zero = Separable(space=lambda *x: [0.0], time=lambda t: np.ones(1))
    disc = Discretization(mesh, ref, FluxParams.central(), [0.5], 1.0, forcing=zero)
    with pytest.raises(ValueError):
        energy_identity_residual(random_state(disc), disc)


# --- errors and rates -----------------------------------------------------------

ZERO_FIELD = Separable(space=lambda *x: [0.0], time=lambda t: np.ones(1))


def test_l2_error_zero():
    from dataclasses import replace
    from advwave.problems import periodic_1d
    spec = periodic_1d(0.5, 1.0, lift=False)
    zero = replace(spec, exact_u=ZERO_FIELD, exact_v=ZERO_FIELD)
    disc = make_disc()
    st = ModalState(np.zeros((8, 3)), np.zeros((8, 3)))
    assert l2_error(st, zero, 0.0, disc) == (0.0, 0.0)


def test_l2_error_known_perturbation():
    # adding a to the P1 coefficient of one element changes the squared
    # error by a^2 * jac * ||P1||^2
    from dataclasses import replace
    from advwave.problems import periodic_1d
    spec = periodic_1d(0.5, 1.0, lift=False)
    zero = replace(spec, exact_u=ZERO_FIELD, exact_v=ZERO_FIELD)
    disc = make_disc(n=4)
    st = ModalState(np.zeros((4, 3)), np.zeros((4, 3)))
    a = 0.3
    st.u[2, 1] = a
    expect = np.sqrt(a ** 2 * (disc.mesh.h / 2.0) * (2.0 / 3.0))
    assert l2_error(st, zero, 0.0, disc)[0] == pytest.approx(expect, rel=1e-12)


def reference_l2_error(state, kind, spec, t, disc, n_extra=2):
    """l2_error from scratch: fresh quadrature and basis tables, and the
    closed-form solutions (minus the lifting's u0 e^{-t^2} terms)."""
    ref, mesh = disc.ref, disc.mesh
    dim = mesh.dim
    nodes, weights = np.polynomial.legendre.leggauss(ref.n_quad + n_extra)
    pts_ref = np.stack([g.ravel() for g in np.meshgrid(*[nodes] * dim, indexing="ij")],
                       axis=1)
    wq = np.prod(np.stack([g.ravel() for g in
                           np.meshgrid(*[weights] * dim, indexing="ij")]), axis=0)
    vals_u, _ = tensor_eval(ref.q, dim, pts_ref)
    vals_v, _ = tensor_eval(ref.s, dim, pts_ref)
    x = mesh.element_centers[:, None, :] + (mesh.h / 2.0) * pts_ref
    w, c = spec.w, spec.c
    if kind == "periodic1d":
        u, v = exact_periodic_1d(x[..., 0], t, w[0], c)
        if spec.forcing is not None:   # lifted
            g = np.exp(-t * t)
            u0 = np.sin(2 * np.pi * x[..., 0])
            adv = w[0] * 2 * np.pi * np.cos(2 * np.pi * x[..., 0])
            u = u - u0 * g
            v = v - (u0 * (-2.0 * t * g) + adv * g)
    elif kind == "periodic2d":
        u, v = exact_periodic_2d(x[..., 0], x[..., 1], t, w, c)
    else:
        u, v = exact_mixed_2d(x[..., 0], x[..., 1], t, w)
    jac = (mesh.h / 2.0) ** dim
    du = state.u @ vals_u.T - u
    dv = state.v @ vals_v.T - v
    return np.sqrt(jac * np.sum(du * du * wq)), np.sqrt(jac * np.sum(dv * dv * wq))


PROBLEMS = {
    "periodic1d": (periodic_1d, (0.5, 1.0), "periodic"),
    "periodic2d": (periodic_2d, ([0.5, 0.25], 1.3), "periodic"),
    "mixed2d": (mixed_2d, ([0.5, 0.5], 1.0), "physical"),
}


@pytest.mark.parametrize("kind,lift", [("mixed2d", False), ("periodic1d", False),
                                       ("periodic1d", True), ("periodic2d", False)])
def test_l2_error_matches_reference(kind, lift):
    factory, args, mode = PROBLEMS[kind]
    spec = factory(*args, lift=lift) if kind == "periodic1d" else factory(*args)
    disc = Discretization(build_mesh(spec.dim, 4, mode), build_reference(3, 2, dim=spec.dim),
                          FluxParams.sommerfeld(), spec.w, spec.c)
    st = random_state(disc, 3)
    for _ in range(2):   # the second round reads the cache
        for t in (0.0, 0.3, 1.1, 2.7):
            got = l2_error(st, spec, t, disc)
            expect = reference_l2_error(st, kind, spec, t, disc)
            assert np.allclose(got, expect, rtol=1e-13, atol=0.0)


def test_l2_error_builds_tables_once(monkeypatch):
    import advwave.basis as basis
    err_nodes = gauss_points(3 + 4)[0]   # one axis of the q + 4 error rule at q = 3
    calls = []

    def counting(degree, x):
        if np.array_equal(x, err_nodes):
            calls.append(degree)
        return legendre_tables(degree, x)

    monkeypatch.setattr(basis, "legendre_tables", counting)
    # the table is built with the reference element, once per process
    basis._build_reference.cache_clear()
    spec = periodic_2d([0.5, 0.25], 1.0)
    disc = make_disc(dim=2, n=3, q=3, w=spec.w)
    st = random_state(disc)
    for k in range(10):
        l2_error(st, spec, 0.1 * k, disc)
    assert calls == [3]   # one table of degree q; the v space reads its first s + 1 columns
    # a second grid of the same reference element reuses it
    other = make_disc(dim=2, n=4, q=3, w=spec.w)
    expect = reference_l2_error(random_state(other), "periodic2d", spec, 0.3, other)
    got = l2_error(random_state(other), spec, 0.3, other)
    assert np.allclose(got, expect, rtol=1e-13, atol=0.0)
    assert calls == [3]


def test_l2_error_cache_not_stale_across_specs():
    # specs with different space factors, interleaved on one discretization
    disc = Discretization(build_mesh(2, 4, "physical"), build_reference(2, 2, dim=2),
                          FluxParams.sommerfeld(), [0.5, 0.5], 1.0)
    st = random_state(disc, 4)
    specs = [("periodic2d", periodic_2d([0.5, 0.5], 1.0)),
             ("mixed2d", mixed_2d([0.5, 0.5], 1.0)),
             ("periodic2d", periodic_2d([0.5, 0.5], 2.0))]
    for t in (0.2, 0.9):
        for kind, spec in specs + specs[::-1]:
            expect = reference_l2_error(st, kind, spec, t, disc)
            assert np.allclose(l2_error(st, spec, t, disc), expect, rtol=1e-13, atol=0.0)


def test_l2_error_rejects_plain_callable_fields():
    from dataclasses import replace
    spec = periodic_1d(0.5, 1.0, lift=False)
    plain = replace(spec, exact_u=lambda x, t: np.zeros(x.shape[:-1]))
    disc = make_disc()
    with pytest.raises(TypeError):
        l2_error(random_state(disc), plain, 0.0, disc)
    # refused before the rule's table is built or read
    assert "error_quadrature" not in vars(disc)


@pytest.mark.parametrize("q,s,dim", [(q, s, dim) for dim in (1, 2) for q in range(1, 7)
                                     for s in sorted({0, q - 1, q})])
def test_error_rule_integrates_every_basis_product(q, s, dim):
    # the rule's mass of each basis is the diagonal Legendre mass, so the
    # remainders of its projections are orthogonal to the basis; a tensor
    # basis's is the product of its axes'
    ref = build_reference(q, s, dim=dim)
    rule = ref.err_axis
    axis_mass = rule.legendre.T @ (rule.weights[:, None] * rule.legendre)
    for degree, mass in ((q, ref.mass_u), (s, ref.mass_v)):
        rule_mass = axis_mass[:degree + 1, :degree + 1]
        if dim == 2:
            rule_mass = np.kron(rule_mass, rule_mass)
        assert np.max(np.abs(rule_mass - mass)) <= 1e-14


@pytest.mark.parametrize("kind,q,n", [("periodic1d", 3, 160), ("periodic2d", 3, 28),
                                      ("mixed2d", 2, 14)])
def test_l2_error_of_a_near_exact_state_matches_reference(kind, q, n):
    # the projected exact solution plus perturbations of L2 norm 1e-12 to
    # 1e-6: the regime of the finest grids, where the projection term and
    # the remainders' Gram term are both small
    factory, args, mode = PROBLEMS[kind]
    spec = factory(*args)   # periodic1d lifted, K = 2; periodic2d K = 4
    disc = Discretization(build_mesh(spec.dim, n, mode), build_reference(q, q, dim=spec.dim),
                          FluxParams.sommerfeld(), spec.w, spec.c)
    ref, rng = disc.ref, np.random.default_rng(5)
    mass = disc.jac_vol * np.diag(ref.mass_u)
    t = 0.3
    points = disc.mesh.element_centers[:, None, :] + (disc.mesh.h / 2.0) * ref.vol_nodes
    exact = ModalState(spec.exact_u(points, t) @ ref.proj_u,
                       spec.exact_v(points, t) @ proj_v(ref), t)
    for size in (1e-12, 1e-10, 1e-8, 1e-6):
        du, dv = rng.standard_normal(exact.u.shape), rng.standard_normal(exact.v.shape)
        du *= size / np.sqrt(np.sum(du * du * mass))
        dv *= size / np.sqrt(np.sum(dv * dv * mass))
        st = ModalState(exact.u + du, exact.v + dv, t)
        got = l2_error(st, spec, t, disc)
        expect = reference_l2_error(st, kind, spec, t, disc)
        assert np.allclose(got, expect, rtol=1e-5, atol=0.0)


@pytest.mark.parametrize("kind,q,s,n", [("periodic2d", 3, 3, 40), ("periodic1d", 4, 4, 160),
                                        ("mixed2d", 3, 2, 20)])
def test_per_axis_projection_matches_the_dense_one_on_fine_grids(kind, q, s, n):
    # where a Gram matrix taken as a difference of full products would
    # cancel (its entries 1e-25 to 1e-13 against O(1) products), with
    # mixed2d's sums of products and q != s: the coefficients and the Gram
    # matrix against the dense projection at every point
    # (test_problems.assert_matches_dense), and the errors of near-exact
    # states, mostly the remainder term, against the dense tables' errors
    factory, args, mode = PROBLEMS[kind]
    spec = factory(*args)   # periodic1d lifted, K = 2; periodic2d K = 4
    ref = build_reference(q, s, dim=spec.dim)
    disc = Discretization(build_mesh(spec.dim, n, mode), ref, FluxParams.sommerfeld(),
                          spec.w, spec.c)
    rng, t = np.random.default_rng(7), 0.3
    coeffs, expect, tols = [], [], []
    for field, degree in ((spec.exact_u, q), (spec.exact_v, s)):
        c0, gram0, root_mass0, bound = assert_matches_dense(
            disc.error_quadrature, field.space, degree, disc.mesh, ref.n_quad + 2)
        tau = field.time(t)
        remainder = tau @ gram0 @ tau
        # the projection plus a perturbation of a tenth of the remainder's norm
        delta = rng.standard_normal(c0.shape[1:])
        delta *= 0.1 * np.sqrt(remainder) / np.linalg.norm(delta * root_mass0[:, None])
        coeffs.append((np.tensordot(tau, c0, 1) + delta).T)
        err = np.sqrt(np.sum((delta * root_mass0[:, None]) ** 2) + remainder)
        expect.append(err)
        # rtol, and the bound on G carried to the error
        tols.append(1e-10 * err + np.abs(tau) @ bound @ np.abs(tau) / (2.0 * err))
    got = l2_error(ModalState(*coeffs, t), spec, t, disc)
    assert np.all(np.abs(np.array(got) - expect) <= tols)


@pytest.mark.parametrize("kind", ["periodic1d", "periodic2d", "mixed2d"])
def test_l2_error_evaluates_each_space_once_per_discretization(kind):
    factory, args, mode = PROBLEMS[kind]
    spec = factory(*args)
    calls = []

    def counted(space):
        return lambda *coords: calls.append(space) or space(*coords)

    spies = {}
    fields = {name: Separable(spies.setdefault(field.space, counted(field.space)), field.time)
              for name, field in (("exact_u", spec.exact_u), ("exact_v", spec.exact_v))}
    spec = dataclasses.replace(spec, **fields)
    disc = Discretization(build_mesh(spec.dim, 5, mode), build_reference(2, 2, dim=spec.dim),
                          FluxParams.sommerfeld(), spec.w, spec.c)
    st = random_state(disc, 2)
    first = l2_error(st, spec, 0.4, disc)
    # u and v share one callable on the periodic problems (and q = s)
    assert len(calls) == len(spies) == (2 if kind == "mixed2d" else 1)
    for t in (0.4, 0.7, 1.3):
        got = l2_error(st, spec, t, disc)
        assert np.allclose(got, reference_l2_error(st, kind, spec, t, disc), rtol=1e-13, atol=0.0)
    assert got != first
    assert len(calls) == len(spies)


@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_diagnostics_agree_between_layouts(kind):
    # evolve's observers see the state coefficient-major, F-ordered views of
    # one stepped array; C-ordered copies of the same state give the same
    # energy, errors and energy-identity sides
    factory, args, mode = PROBLEMS[kind]
    spec = factory(*args)
    disc = Discretization(build_mesh(spec.dim, 6, mode), build_reference(3, 2, dim=spec.dim),
                          FluxParams.sommerfeld(), spec.w, spec.c)
    seen = []

    def observe(step, st):
        if step == 3:
            assert st.u.flags.f_contiguous and not st.u.flags.c_contiguous
            copy = ModalState(np.ascontiguousarray(st.u), np.ascontiguousarray(st.v), st.t)
            for state in (st, copy):
                lhs, rhs, _ = energy_identity_residual(state, disc)
                seen.append((discrete_energy(state, disc), *l2_error(state, spec, st.t, disc),
                             lhs, rhs))

    evolve(random_state(disc, 4), disc, 0.01, 5, observers=[observe])
    view, copy = np.array(seen)
    assert np.all(np.abs(view - copy) <= 1e-14 * np.abs(copy))


def test_fit_rate_needs_two_distinct_h():
    # repeated grids make the least-squares fit rank-deficient
    with pytest.raises(ValueError, match="distinct"):
        fit_rate([0.1, 0.1], [1e-3, 2e-3])
    # two distinct h among 12 grids, but the ten finest share one
    with pytest.raises(ValueError, match="distinct"):
        fit_rate([0.4, 0.2] + [0.1] * 10, [1e-1, 1e-2] + [1e-3] * 10)


def test_fit_rate_exact_power():
    hs = np.array([0.1, 0.05, 0.025, 0.0125])
    errs = 3.0 * hs ** 2
    assert fit_rate(hs, errs) == pytest.approx(2.0, abs=1e-12)


def test_fit_rate_noisy_power():
    rng = np.random.default_rng(0)
    hs = 0.5 ** np.arange(3, 12)
    errs = 2.0 * hs ** 3.5 * (1.0 + 0.01 * rng.standard_normal(len(hs)))
    assert fit_rate(hs, errs) == pytest.approx(3.5, abs=0.1)


def test_fit_rate_window_selects_finest():
    # 12 grids: rate 2 on the ten finest, the two coarsest off the line
    hs = 0.5 ** np.arange(1, 13)
    errs = 3.0 * hs ** 2
    errs[:2] = 1.0
    assert fit_rate(hs, errs) == pytest.approx(2.0, abs=1e-12)
    # the grids' order does not matter
    assert fit_rate(hs[::-1], errs[::-1]) == pytest.approx(2.0, abs=1e-12)


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        fit_rate([0.1], [1.0])
    with pytest.raises(ValueError):
        fit_rate([0.1, 0.05], [1.0, 0.0])
    # a zero error outside the ten finest grids is not fitted
    hs = 0.5 ** np.arange(1, 13)
    errs = hs ** 2
    errs[0] = 0.0
    assert fit_rate(hs, errs) == pytest.approx(2.0, abs=1e-12)
    errs[2] = 0.0
    with pytest.raises(ValueError, match="nonpositive"):
        fit_rate(hs, errs)


# --- spectral probe --------------------------------------------------------------

def dense_operator(disc):
    """The operator as a dense matrix on the stacked per-element [u v]
    layout, assembled column by column."""
    n_el, nu = disc.mesh.n_elements, disc.ref.n_u
    size = n_el * (nu + disc.ref.n_v)
    A = np.zeros((size, size))
    for j in range(size):
        x = np.zeros((n_el, size // n_el))
        x.flat[j] = 1.0
        du, dv = disc.rhs(x[:, :nu], x[:, nu:], 0.0)
        A[:, j] = np.hstack([du, dv]).ravel()
    return A


def count_rhs(disc):
    """Wrap disc.rhs to count its calls; returns the list it appends to."""
    calls = []
    rhs = disc.rhs
    disc.rhs = lambda *args, **kwargs: calls.append(1) or rhs(*args, **kwargs)
    return calls


@pytest.mark.parametrize("dim,n,mode,q,s,w,c", [
    (1, 2, "periodic", 3, 3, [0.5], 1.0),      # both neighbours are one element
    (1, 7, "physical", 3, 3, [0.5], 1.0),
    (1, 6, "periodic", 2, 2, [-0.3], 2.5),
    (2, 4, "periodic", 3, 2, [0.5, 0.2], 1.0),
    (2, 2, "periodic", 2, 2, [0.5, 0.5], 1.0),
    (2, 5, "physical", 2, 2, [0.5, 0.5], 1.0),
    (2, 5, "physical", 2, 1, [1.5, 0.3], 1.0),  # supersonic inflow in x
    (2, 3, "physical", 3, 3, [0.5, -0.5], 0.4),
])
def test_dense_operator_matches_rhs(dim, n, mode, q, s, w, c):
    disc = Discretization(build_mesh(dim, n, mode), build_reference(q, s, dim=dim),
                          FluxParams.sommerfeld(), w, c)
    x = np.random.default_rng(1).standard_normal(
        (disc.mesh.n_elements, disc.ref.n_u + disc.ref.n_v))
    du, dv = disc.rhs(x[:, :disc.ref.n_u], x[:, disc.ref.n_u:], 0.0)
    expected = np.hstack([du, dv]).ravel()
    got = x.ravel() @ diagnostics._dense_operator(disc)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("dim,n,q,params", [
    (1, 2, 3, FluxParams.sommerfeld()),
    (1, 9, 2, FluxParams.central()),
    (2, 2, 2, FluxParams.sommerfeld()),
    (2, 4, 2, FluxParams.central()),
])
def test_bloch_symbols_hold_the_spectrum(dim, n, q, params):
    from scipy.optimize import linear_sum_assignment

    disc = make_disc(dim=dim, n=n, q=q, w=(0.5,) * dim, params=params)
    dense = np.linalg.eigvals(dense_operator(disc))
    symbols = bloch_symbols(disc)
    # the half spectrum: the other half is its complex conjugate
    assert symbols.shape == (n,) * (dim - 1) + (n // 2 + 1,) + (len(dense) // n ** dim,) * 2
    full = np.fft.fftn(np.fft.irfftn(symbols, s=(n,) * dim, axes=range(dim)),
                       axes=range(dim))
    eig = np.linalg.eigvals(full).ravel()
    # equal as multisets: pair them up at the least total distance (a sort
    # would order eigenvalues whose real parts differ by roundoff at random)
    dist = np.abs(eig[:, None] - dense[None, :])
    rows, cols = linear_sum_assignment(dist)
    assert len(eig) == len(dense)
    assert np.max(dist[rows, cols]) <= 1e-12 * np.max(np.abs(dense))
    # the symbol of each mode m of the half spectrum acts as rhs does on the
    # mode a·ω^(m·j) (a reflected grid would give the conjugate symbols, with
    # the same eigenvalues)
    a = np.array([1, 1j]) @ np.random.default_rng(2).standard_normal((2, symbols.shape[-1]))
    j, nu = np.indices((n,) * dim).reshape(dim, -1).T, disc.ref.n_u
    for m in np.ndindex(symbols.shape[:dim]):
        phase = np.exp(2j * np.pi * (j @ m) / n)
        x = phase[:, None] * a
        got = sum(unit * np.hstack(disc.rhs(part[:, :nu], part[:, nu:], 0.0))
                  for unit, part in ((1, x.real), (1j, x.imag)))
        expected = phase[:, None] * (a @ symbols[m])
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected)), m


@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize("flux", ["sommerfeld", "central"])
def test_dispersion_order_of_the_bloch_symbols(q, flux):
    # the discrete eigenvalues of the resolved wavenumber kappa = 2 pi
    # approach the exact -i kappa (w +- c) at the rates of the DG dispersion
    # and dissipation analysis (Ainsworth, JCP 198, 2004): 2q - 1 upwind, and
    # for the central flux 2q at odd q and 2q - 2 at even q.  On periodic2d
    # the diagonal mode kappa = 2 pi (1, 1) approaches -i (w . kappa +-
    # c |kappa|) at the upwind rate too; the central flux's 2D rates
    # (1.15-7.24) are not clean and are left out
    expected = {"sommerfeld": 2 * q - 1, "central": 2 * q if q % 2 else 2 * q - 2}[flux]
    c = 1.0
    params = getattr(FluxParams, flux)()
    # (mode, w, grids)
    cases = [((1,), np.array([0.5]), (10, 14, 20, 28, 40))]
    if flux == "sommerfeld" and q <= 3:
        cases.append(((1, 1), np.array([0.5, 0.25]), (8, 10, 14, 20)))
    for mode, w, ns in cases:
        kappa = 2 * np.pi * np.array(mode)
        errs = {sign: [] for sign in (1, -1)}
        for n in ns:
            disc = make_disc(dim=len(mode), n=n, q=q, w=w, c=c, params=params)
            lam = np.linalg.eigvals(bloch_symbols(disc)[mode])
            for sign in errs:
                exact = -1j * (w @ kappa + sign * c * np.linalg.norm(kappa))
                errs[sign].append(np.min(np.abs(lam - exact)))
        for sign in errs:
            rate = fit_rate([1.0 / n for n in ns], errs[sign])
            assert rate == pytest.approx(expected, abs=0.15), (mode, sign)


def test_bloch_symbols_need_a_periodic_mesh():
    with pytest.raises(ValueError, match="periodic"):
        bloch_symbols(make_disc(dim=2, n=3, w=(0.5, 0.5), mode="physical"))


def test_spectral_probe_against_dense_eigenvalues():
    # numpy's eigenvalues of the assembled matrix are the independent oracle;
    # mixed2d includes the boundary strips and corrections, and n=5 and 10
    # are the first and third default 2D spectrum grids
    cases = [make_disc(n=4, q=2),
             make_disc(dim=2, n=4, q=2, w=(0.5, 0.5), params=FluxParams.central())]
    cases += [make_disc(dim=2, n=n, q=2, w=(0.5, 0.5), mode="physical")
              for n in (3, 5, 10)]
    for disc in cases:
        exact = np.max(np.abs(np.linalg.eigvals(dense_operator(disc))))
        radius, converged = spectral_radius_probe(disc)
        assert converged
        assert radius == pytest.approx(exact, rel=1e-7)


@pytest.mark.parametrize("dim,n,q,params", [
    (1, 56, 3, FluxParams.sommerfeld()),   # a tight top cluster
    (1, 40, 4, FluxParams.central()),
    (1, 2, 3, FluxParams.sommerfeld()),    # both neighbours are one element
    (2, 2, 2, FluxParams.sommerfeld()),
    (2, 5, 3, FluxParams.central()),
])
def test_periodic_radius_is_exact(dim, n, q, params):
    disc = make_disc(dim=dim, n=n, q=q, w=(0.5,) * dim, params=params)
    exact = np.max(np.abs(np.linalg.eigvals(dense_operator(disc))))
    calls = count_rhs(disc)
    assert spectral_radius_probe(disc) == (pytest.approx(exact, rel=1e-12), True)
    # the symbols come from the blocks, not from rhs
    assert calls == []


def test_spectral_probe_no_convergence(monkeypatch):
    def stalled(ritz):
        return lambda *args, **kwargs: (ritz, False)

    # small enough for the dense fallback: 162 unknowns
    small = make_disc(dim=2, n=3, q=2, w=(0.5, 0.5), mode="physical")
    monkeypatch.setattr(diagnostics, "_dominant_ritz", stalled(3.0 + 4.0j))
    exact = np.max(np.abs(np.linalg.eigvals(dense_operator(small))))
    assert spectral_radius_probe(small) == (pytest.approx(exact, rel=1e-10), True)
    # too large for it: 2,178 unknowns
    large = make_disc(dim=2, n=11, q=2, w=(0.5, 0.5), mode="physical")
    assert spectral_radius_probe(large) == (5.0, False)
    monkeypatch.setattr(diagnostics, "_dominant_ritz", stalled(complex("nan")))
    radius, converged = spectral_radius_probe(large)
    assert np.isnan(radius) and not converged


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_spectral_probe_never_raises(monkeypatch):
    # w near overflow: the products overflow, which ends the Arnoldi run
    # with no Ritz value; the blocks stay finite, so the dense fallback
    # still gives a radius below its size limit
    small = make_disc(dim=2, n=3, q=2, w=(1e300, 0.5), mode="physical")
    radius, converged = spectral_radius_probe(small)
    assert np.isfinite(radius) and converged
    # too large for it, with no Ritz value
    large = make_disc(dim=2, n=11, q=2, w=(1e300, 0.5), mode="physical")
    radius, converged = spectral_radius_probe(large)
    assert np.isnan(radius) and not converged
    # blocks that overflow have no finite radius, dense or from Arnoldi
    small.blocks = np.full_like(small.blocks, np.inf)
    radius, converged = spectral_radius_probe(small)
    assert np.isnan(radius) and not converged
    monkeypatch.setattr(diagnostics, "_dominant_ritz", lambda *args, **kwargs: (np.inf + 0j, False))
    large = make_disc(dim=2, n=11, q=2, w=(0.5, 0.5), mode="physical")
    radius, converged = spectral_radius_probe(large)
    assert np.isnan(radius) and not converged
    # any failure falls back to the dense eigenvalues
    small = make_disc(dim=2, n=3, q=2, w=(0.5, 0.5), mode="physical")
    exact = np.max(np.abs(np.linalg.eigvals(dense_operator(small))))
    assert spectral_radius_probe(small) == (pytest.approx(exact, rel=1e-10), True)
    # on a periodic mesh too, with no Arnoldi run and no warning
    periodic = make_disc(dim=2, n=3, q=2, w=(0.5, 0.5))
    periodic.blocks = np.full_like(periodic.blocks, np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        radius, converged = spectral_radius_probe(periodic)
    assert np.isnan(radius) and not converged


def test_spectral_probe_supersonic_inflow():
    # supersonic in x with s = q - 1: the top eigenvalues are ill-conditioned,
    # so the probe goes straight to the dense eigenvalues, which give a radius
    disc = Discretization(build_mesh(2, 5, "physical"), build_reference(2, 1, dim=2),
                          FluxParams.sommerfeld(), [1.5, 0.3], 1.0)
    exact = np.max(np.abs(np.linalg.eigvals(dense_operator(disc))))
    calls = count_rhs(disc)
    radius, converged = spectral_radius_probe(disc)
    assert converged
    # ill-conditioned: LAPACK on the operator and on its transpose differ
    assert radius == pytest.approx(exact, rel=1e-3)
    # no Krylov run: the dense eigenvalues read the blocks, not rhs products
    assert len(calls) <= 2000


def test_spectral_probe_scaling():
    base, _ = spectral_radius_probe(make_disc(n=10, q=2))
    doubled, _ = spectral_radius_probe(make_disc(n=20, q=2))
    assert doubled / base == pytest.approx(2.0, rel=0.2)
    q4, _ = spectral_radius_probe(make_disc(n=10, q=4))
    assert q4 / base == pytest.approx(4.0, rel=0.5)


def test_dense_operator_matches_rhs_column_by_column():
    # the dense fallback's matrix, built from the blocks, in rhs's row
    # convention: its transpose is rhs applied to each unit state
    for disc in (make_disc(dim=2, n=4, q=2, w=(1.5, 0.3), mode="physical"),
                 make_disc(dim=1, n=2, q=3),
                 make_disc(dim=2, n=2, q=2, w=(0.5, 0.5))):
        dense, probed = diagnostics._dense_operator(disc), dense_operator(disc)
        assert np.max(np.abs(dense.T - probed)) <= 1e-13 * np.max(np.abs(probed))


def test_dominant_ritz_on_explicit_matrices():
    rng = np.random.default_rng(3)
    # non-normal Hessenberg matrices: on 300 unknowns the run restarts; on
    # 120 the dominant eigenvalue is one of a complex pair
    restarted = np.triu(rng.standard_normal((300, 300)), -1) + np.diag(np.linspace(0, 3, 300))
    pair = np.triu(rng.standard_normal((120, 120)), -1) + np.diag(np.linspace(0, 3, 120))
    pair[0, 1] += 7.0
    pair[1, 0] -= 7.0
    for a in (restarted, pair):
        calls = []
        theta, certified = diagnostics._dominant_ritz(lambda x: calls.append(1) or a @ x,
                                                      rng.standard_normal(len(a)), 40, 1e-10, 50)
        assert certified
        assert abs(theta) == pytest.approx(np.max(np.abs(np.linalg.eigvals(a))), rel=1e-4)
        assert len(calls) > 60 if a is restarted else theta.imag != 0
    # ncv = N: one cycle spans the whole space
    b = rng.standard_normal((12, 12))
    theta, certified = diagnostics._dominant_ritz(lambda x: b @ x, rng.standard_normal(12),
                                                  12, 1e-10, 50)
    assert certified
    assert abs(theta) == pytest.approx(np.max(np.abs(np.linalg.eigvals(b))), rel=1e-10)
    # a start vector in an invariant subspace exhausts the Krylov space
    # before it sees the dominant eigenvalue
    d = np.diag(np.arange(1.0, 61.0))
    theta, certified = diagnostics._dominant_ritz(lambda x: d @ x, np.eye(60)[0], 40, 1e-10, 50)
    assert theta == pytest.approx(1.0) and not certified
    # products that are not finite: no Ritz value, no exception
    theta, certified = diagnostics._dominant_ritz(lambda x: np.full_like(x, np.inf),
                                                  rng.standard_normal(50), 40, 1e-10, 50)
    assert np.isnan(theta) and not certified


def test_spectral_probe_supersonic_inflow_above_the_dense_limit():
    # the supersonic case of test_spectral_probe_supersonic_inflow on a grid
    # of 2,197 unknowns: no certificate with a supersonic axis, and no dense
    # fallback, so the radius is the dominant Ritz value
    disc = Discretization(build_mesh(2, 13, "physical"), build_reference(2, 1, dim=2),
                          FluxParams.sommerfeld(), [1.5, 0.3], 1.0)
    assert disc.input.size > diagnostics._DENSE_LIMIT
    radius, converged = spectral_radius_probe(disc)
    assert np.isfinite(radius) and not converged


def test_spectral_probe_withholds_an_ill_conditioned_radius():
    # mixed2d q=1 n=28, 6,272 unknowns: its top eigenvalues' condition
    # number is ~1e15, and the radii the Arnoldi run settles on differ by
    # 3e-4 between start vectors; the stop certifies none of them
    disc = make_disc(dim=2, n=28, q=1, w=(0.5, 0.5), mode="physical")
    radius, converged = spectral_radius_probe(disc)
    assert radius == pytest.approx(300.6, rel=2e-3) and not converged


@st.composite
def physical_probe_cases(draw):
    """Small physical meshes, at most 500 unknowns: 1D and 2D, q = 1-3,
    s = q or q - 1, subsonic or supersonic w, and the Sommerfeld, central
    and custom fluxes."""
    dim = draw(st.sampled_from([1, 2]))
    q = draw(st.integers(1, 3))
    s = draw(st.sampled_from([q, q - 1]))
    per_element = (q + 1) ** dim + (s + 1) ** dim
    n = draw(st.integers(2, max(2, int((500 / per_element) ** (1 / dim)))))
    w = draw(st.lists(st.floats(-0.6, 0.6), min_size=dim, max_size=dim))
    if draw(st.booleans()):
        w[0] = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.2, 2.0))
    params = draw(st.sampled_from([
        FluxParams.sommerfeld(), FluxParams.central(),
        FluxParams(sigma=draw(st.floats(0.0, 1.0)), beta=draw(st.floats(0.0, 2.0)),
                   eta=draw(st.floats(0.0, 2.0)))]))
    return dim, n, q, s, w, params, draw(st.integers(0, 2 ** 16))


@given(physical_probe_cases())
@settings(max_examples=40, deadline=None)
def test_certified_radius_matches_dense_eigenvalues(case):
    dim, n, q, s, w, params, seed = case
    disc = Discretization(build_mesh(dim, n, "physical"), build_reference(q, s, dim=dim),
                          params, w, 1.0)
    assert disc.input.size <= 500
    radius, converged = spectral_radius_probe(disc, seed=seed)
    if converged:
        exact = np.max(np.abs(np.linalg.eigvals(diagnostics._dense_operator(disc))))
        assert radius == pytest.approx(exact, rel=1e-4)
    again = spectral_radius_probe(disc, seed=seed)
    assert np.array_equal(again, (radius, converged), equal_nan=True)
