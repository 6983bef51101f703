import itertools
from dataclasses import replace

import numpy as np
import pytest

from advwave import cli
from advwave.basis import build_reference
from advwave.diagnostics import l2_error
from advwave.fluxes import FluxParams
from advwave.mesh import build_mesh
from advwave.operators import Discretization, FieldTable, Separable
from advwave.problems import mixed_2d, periodic_1d, periodic_2d, project_initial

RNG = np.random.default_rng(2024)


def quad_points(disc):
    """The volume rule's points on every element, (n_elements, Nq, dim)."""
    mesh = disc.mesh
    return mesh.element_centers[:, None, :] + (mesh.h / 2.0) * disc.ref.vol_nodes


# The manufactured solutions in closed form, written apart from the factored
# fields of advwave.problems so that they check them independently.

def exact_periodic_1d(x, t, w, c):
    """Traveling wave u = cos(2 pi c t) sin 2 pi (x - w t); returns (u, v)."""
    wave = np.sin(2 * np.pi * (np.asarray(x, dtype=float) - w * t))
    omega = 2 * np.pi * c
    return np.cos(omega * t) * wave, -omega * np.sin(omega * t) * wave


def exact_periodic_2d(x, y, t, w, c):
    """u = sin(2 pi c t) (sin 2 pi (x - wx t) + sin 2 pi (y - wy t))."""
    bracket = (np.sin(2 * np.pi * (np.asarray(x, dtype=float) - w[0] * t))
               + np.sin(2 * np.pi * (np.asarray(y, dtype=float) - w[1] * t)))
    omega = 2 * np.pi * c
    return np.sin(omega * t) * bracket, omega * np.cos(omega * t) * bracket


def _bubble(z):
    """X(z) = z^2 (1-z)^2 e^z with X' and X'', each expanded by hand."""
    z = np.asarray(z, dtype=float)
    e = np.exp(z)
    return (z * z * (1 - z) ** 2 * e, z * (z - 1) * (z * z + 3 * z - 2) * e,
            (z ** 4 + 6 * z ** 3 + z * z - 8 * z + 2) * e)


def exact_mixed_2d(x, y, t, w=(0.5, 0.5)):
    """u = X(x) X(y) sin t with v = u_t + w . grad u; returns (u, v)."""
    (X, Xp, _), (Y, Yp, _) = _bubble(x), _bubble(y)
    u = X * Y * np.sin(t)
    return u, X * Y * np.cos(t) + (w[0] * Xp * Y + w[1] * X * Yp) * np.sin(t)


def forcing_mixed_2d(x, y, t, w, c):
    """f = (d/dt + w . grad)^2 u - c^2 Lap u for exact_mixed_2d's u."""
    (X, Xp, Xpp), (Y, Yp, Ypp) = _bubble(x), _bubble(y)
    adv2 = w[0] ** 2 * Xpp * Y + 2 * w[0] * w[1] * Xp * Yp + w[1] ** 2 * X * Ypp
    cross = 2 * (w[0] * Xp * Y + w[1] * X * Yp)
    lap = Xpp * Y + X * Ypp
    return (adv2 - X * Y - c * c * lap) * np.sin(t) + cross * np.cos(t)


def fd_pde_residual(u_of, f_of, x, t, w, c, eps=1e-3):
    """(d/dt + w.grad)^2 u - c^2 Lap u - f at one point.

    Central differences with Richardson extrapolation in eps, so the
    truncation error is O(eps^4) while roundoff stays negligible.
    """
    r1 = _fd_residual_raw(u_of, f_of, x, t, w, c, eps)
    r2 = _fd_residual_raw(u_of, f_of, x, t, w, c, eps / 2)
    return (4.0 * r2 - r1) / 3.0


def _fd_residual_raw(u_of, f_of, x, t, w, c, eps):
    w = np.asarray(w, dtype=float)
    dim = len(w)

    def adv(xp, tp):
        # first advective derivative by central differences
        out = (u_of(xp, tp + eps) - u_of(xp, tp - eps)) / (2 * eps)
        for d in range(dim):
            dx = np.zeros(dim)
            dx[d] = eps
            out += w[d] * (u_of(xp + dx, tp) - u_of(xp - dx, tp)) / (2 * eps)
        return out

    second = (adv(x, t + eps) - adv(x, t - eps)) / (2 * eps)
    for d in range(dim):
        dx = np.zeros(dim)
        dx[d] = eps
        second += w[d] * (adv(x + dx, t) - adv(x - dx, t)) / (2 * eps)
    lap = 0.0
    for d in range(dim):
        dx = np.zeros(dim)
        dx[d] = eps
        lap += (u_of(x + dx, t) - 2 * u_of(x, t) + u_of(x - dx, t)) / eps ** 2
    return second - c * c * lap - f_of(x, t)


def test_periodic_1d_values():
    x = np.array([0.0, 0.25, 0.7])
    u, v = exact_periodic_1d(x, 0.0, 0.5, 1.0)
    assert np.allclose(u, np.sin(2 * np.pi * x), atol=1e-14)
    assert np.allclose(v, 0.0, atol=1e-14)
    # periodicity
    for t in RNG.uniform(0, 2, 5):
        u0, _ = exact_periodic_1d(0.0, t, 0.5, 1.0)
        u1, _ = exact_periodic_1d(1.0, t, 0.5, 1.0)
        assert u0 == pytest.approx(u1, abs=1e-12)


def test_periodic_1d_pde_residual():
    w, c = 0.5, 1.0

    def u_of(x, t):
        return exact_periodic_1d(x[0], t, w, c)[0]

    for _ in range(10):
        x = RNG.uniform(0, 1, 1)
        t = RNG.uniform(0.1, 1.0)
        res = fd_pde_residual(u_of, lambda x, t: 0.0, x, t, [w], c)
        assert abs(res) < 1e-6


def test_periodic_2d_values():
    w, c = np.array([0.5, 0.25]), 1.0
    x, y = 0.3, 0.8
    u, v = exact_periodic_2d(x, y, 0.0, w, c)
    assert u == pytest.approx(0.0)
    assert v == pytest.approx(2 * np.pi * c * (np.sin(2 * np.pi * x)
                                               + np.sin(2 * np.pi * y)))


def test_periodic_2d_pde_residual():
    w, c = np.array([0.5, 0.25]), 1.0

    def u_of(x, t):
        return exact_periodic_2d(x[0], x[1], t, w, c)[0]

    for _ in range(10):
        x = RNG.uniform(0, 1, 2)
        t = RNG.uniform(0.1, 1.0)
        res = fd_pde_residual(u_of, lambda x, t: 0.0, x, t, w, c)
        assert abs(res) < 1e-6


def test_mixed_2d_boundary_values():
    w = np.array([0.5, 0.5])
    for t in (0.3, 1.1):
        for edge in np.linspace(0, 1, 7):
            for x, y in [(0.0, edge), (1.0, edge), (edge, 0.0), (edge, 1.0)]:
                u, v = exact_mixed_2d(x, y, t, w)
                assert abs(u) < 1e-14 and abs(v) < 1e-14
    # the normal derivative vanishes on every edge: on the outflow edges x=1
    # and y=1, and on the inflow edges x=0 and y=0, where a supersonic
    # closure pins grad u
    eps = 1e-6
    for side, edge in itertools.product((0.0, 1.0), np.linspace(0.1, 0.9, 5)):
        ux = (exact_mixed_2d(side + eps, edge, 0.5, w)[0]
              - exact_mixed_2d(side - eps, edge, 0.5, w)[0]) / (2 * eps)
        uy = (exact_mixed_2d(edge, side + eps, 0.5, w)[0]
              - exact_mixed_2d(edge, side - eps, 0.5, w)[0]) / (2 * eps)
        assert abs(ux) < 1e-8
        assert abs(uy) < 1e-8


def test_mixed_2d_forcing_matches_fd():
    w, c = np.array([0.5, 0.5]), 1.0

    def u_of(x, t):
        return exact_mixed_2d(x[0], x[1], t, w)[0]

    def f_of(x, t):
        return forcing_mixed_2d(x[0], x[1], t, w, c)

    separable = mixed_2d(w, c).forcing   # the form the operator projects

    def f_sep(x, t):
        return separable(x[None, :], t)[0]

    for _ in range(20):
        x = RNG.uniform(0.05, 0.95, 2)
        t = RNG.uniform(0.1, 1.5)
        assert abs(fd_pde_residual(u_of, f_of, x, t, w, c)) < 1e-5
        assert abs(fd_pde_residual(u_of, f_sep, x, t, w, c)) < 1e-5


@pytest.mark.parametrize("factory,args", [
    (periodic_1d, (0.5, 1.0, False)),
    (periodic_2d, ([0.5, 0.25], 1.0)),
    (mixed_2d, ([0.5, 0.5], 1.0)),
    (periodic_1d, (0.5, 1.0, True)),       # lifted, as the CLI runs it
    (periodic_1d, (1.5, 1.3, True)),       # lifted and supersonic
    (periodic_2d, ([2.0, 0.5], 0.7)),
    (mixed_2d, ([1.5, 0.3], 1.0)),
])
def test_v_is_advective_derivative(factory, args):
    spec = factory(*args)
    eps = 1e-6
    x = RNG.uniform(0.1, 0.9, (100, spec.dim))
    for t in RNG.uniform(0.1, 1.0, 3):
        ut = (spec.exact_u(x, t + eps) - spec.exact_u(x, t - eps)) / (2 * eps)
        adv = np.zeros(len(x))
        for d in range(spec.dim):
            dx = np.zeros(spec.dim)
            dx[d] = eps
            adv += spec.w[d] * (spec.exact_u(x + dx, t)
                                - spec.exact_u(x - dx, t)) / (2 * eps)
        assert np.max(np.abs(ut + adv - spec.exact_v(x, t))) < 1e-5


@pytest.mark.parametrize("factory,args,closed", [
    (periodic_1d, (0.5, 1.3, False),
     lambda x, t: exact_periodic_1d(x[..., 0], t, 0.5, 1.3)),
    (periodic_2d, ([0.5, 0.25], 1.3),
     lambda x, t: exact_periodic_2d(x[..., 0], x[..., 1], t, [0.5, 0.25], 1.3)),
    (mixed_2d, ([0.5, 0.25], 1.0),
     lambda x, t: exact_mixed_2d(x[..., 0], x[..., 1], t, [0.5, 0.25])),
])
def test_separable_exact_fields_match_closed_forms(factory, args, closed):
    spec = factory(*args)
    x = RNG.uniform(0, 1, (3, 7, spec.dim))
    for t in (0.0, 0.45, 1.7):
        u, v = closed(x, t)
        assert np.max(np.abs(spec.exact_u(x, t) - u)) < 1e-13
        assert np.max(np.abs(spec.exact_v(x, t) - v)) < 1e-13


def test_lifting_identities():
    w, c = 0.5, 1.0
    lifted = periodic_1d(w, c)
    a = 2 * np.pi * w
    x = RNG.uniform(0, 1, (50, 1))
    sin, cos = np.sin(2 * np.pi * x[..., 0]), np.cos(2 * np.pi * x[..., 0])
    # zero initial displacement by construction
    assert np.all(lifted.exact_u(x, 0.0) == 0.0)
    # reconstruction: u = u_lifted + u0 g and v = v_lifted + u0 g' + w u0' g,
    # with u0 = sin 2 pi x and g = e^{-t^2}
    for t in (0.0, 0.4, 1.3):
        g = np.exp(-t * t)
        u, v = exact_periodic_1d(x[..., 0], t, w, c)
        assert np.max(np.abs(lifted.exact_u(x, t) + sin * g - u)) < 1e-13
        lift_v = -2.0 * t * g * sin + a * g * cos
        assert np.max(np.abs(lifted.exact_v(x, t) + lift_v - v)) < 1e-13


@pytest.mark.parametrize("w,c", [(0.5, 1.0), (-0.3, 1.3), (1.5, 1.0)])
def test_lifted_forcing_closes_the_pde(w, c):
    lifted = periodic_1d(w, c, lift=True)

    def u_of(x, t):
        return lifted.exact_u(x[None, :], t)[0]

    def f_of(x, t):
        return lifted.forcing(x[None, :], t)[0]

    for _ in range(10):
        x = RNG.uniform(0, 1, 1)
        t = RNG.uniform(0.1, 1.0)
        assert abs(fd_pde_residual(u_of, f_of, x, t, lifted.w, lifted.c)) < 1e-5


def test_homogeneous_forcing_for_periodic_unlifted():
    assert periodic_1d(0.5, 1.0, lift=False).forcing is None
    assert periodic_2d([0.5, 0.25], 1.0).forcing is None


def make_disc(spec, n, q):
    ref = build_reference(q, q, dim=spec.dim)
    mesh = build_mesh(spec.dim, n, spec.boundary_mode)
    return Discretization(mesh, ref, FluxParams.central(), spec.w, spec.c)


@pytest.mark.parametrize("factory,args,lift", [
    (periodic_1d, (0.5, 1.0), False),
    (periodic_2d, ([0.5, 0.25], 1.0), False),
    (mixed_2d, ([0.5, 0.5], 1.0), False),
    (periodic_1d, (0.5, 1.0), True),
])
def test_projected_forcing_matches_quadrature(factory, args, lift):
    # the projection made at build time equals the quadrature of
    # sum_k g_k(t) F_k(x) at the time of the call, mass-inverted
    spec = factory(*args, lift=lift) if factory is periodic_1d else factory(*args)
    ref = build_reference(3, 2, dim=spec.dim)
    mesh = build_mesh(spec.dim, 4, spec.boundary_mode)
    disc = Discretization(mesh, ref, FluxParams.sommerfeld(), spec.w, spec.c,
                          forcing=spec.forcing)
    u = np.zeros((mesh.n_elements, ref.n_u))
    v = np.zeros((mesh.n_elements, ref.n_v))
    for t in (0.0, 0.37, 1.2):
        du, dv = disc.rhs(u, v, t)
        assert np.all(du == 0.0)
        if spec.forcing is None:
            assert np.all(dv == 0.0)
            continue
        f = spec.forcing(quad_points(disc), t)
        expect = ((f * ref.vol_weights) @ ref.vol_vals_v) / np.diag(ref.mass_v)
        assert np.abs(dv - expect).max() <= 1e-13 * max(1.0, np.abs(expect).max())


def test_projection_exact_for_polynomials():
    spec = periodic_1d(0.5, 1.0, lift=False)
    # replace evaluators with a quadratic: projection must reproduce it
    poly = replace(spec,
                   exact_u=Separable(space=lambda x: (3 * x ** 2 - x)[None],
                                     time=lambda t: np.ones(1)),
                   exact_v=Separable(space=lambda x: [0.0], time=lambda t: np.ones(1)))
    disc = make_disc(poly, 4, 3)
    st = project_initial(poly, disc)
    vals = st.u @ disc.ref.vol_vals_u.T
    exact = poly.exact_u(quad_points(disc), 0.0)
    assert np.max(np.abs(vals - exact)) < 1e-13


def test_projection_convergence_order():
    spec = periodic_1d(0.5, 1.0, lift=False)
    q = 2
    errs, hs = [], []
    for n in (8, 16, 32):
        disc = make_disc(spec, n, q)
        st = project_initial(spec, disc)
        errs.append(l2_error(st, spec, 0.0, disc)[0])
        hs.append(disc.mesh.h)
    rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert rate == pytest.approx(q + 1, abs=0.1)


# --- the per-axis tables --------------------------------------------------------

SPECS = {"periodic1d": lambda: periodic_1d(0.5, 1.0, lift=False),
         "periodic1d-lifted": lambda: periodic_1d(0.5, 1.0),
         "periodic2d": lambda: periodic_2d([0.5, 0.25], 1.3),
         "mixed2d": lambda: mixed_2d([0.5, 0.25], 1.0)}


@pytest.mark.parametrize("problem", SPECS)
@pytest.mark.parametrize("rule", ["vol_nodes", "err_nodes"])
@pytest.mark.parametrize("mode", ["periodic", "physical"])
@pytest.mark.parametrize("n", [3, 7])
def test_axis_tables_equal_the_evaluation_at_every_point(problem, rule, mode, n):
    # a FieldTable evaluates each space factor on the coordinates of one axis
    # and broadcasts it; the values are those of the factor at every point
    spec = SPECS[problem]()
    ref = build_reference(2, 2, dim=spec.dim)
    mesh = build_mesh(spec.dim, n, mode)
    nodes = getattr(ref, rule)
    points = mesh.element_centers[:, None, :] + (mesh.h / 2.0) * nodes
    table = FieldTable(mesh, nodes)
    fields = [f for f in (spec.exact_u, spec.exact_v, spec.forcing) if f is not None]
    assert len(fields) == (3 if problem in ("periodic1d-lifted", "mixed2d") else 2)
    for field in fields:
        factors = field.space(*(points[..., d] for d in range(spec.dim)))
        every = np.stack([np.broadcast_to(f, points.shape[:-1]) for f in factors])
        assert np.array_equal(table.factors(field.space), every)
        for t in (0.0, 0.37):
            assert np.array_equal(table(field, t), field(points, t))


@pytest.mark.parametrize("dim,mode", [(1, "periodic"), (2, "periodic"), (2, "physical")])
@pytest.mark.parametrize("n", [3, 7])
def test_factor_tables_equal_their_direct_broadcast(dim, mode, n):
    # the table stacks each factor, of one axis, of all axes or a scalar, as
    # np.broadcast_to of it onto the rule's shape, bit for bit
    ref = build_reference(3, 3, dim=dim)
    table = FieldTable(build_mesh(dim, n, mode), ref.vol_nodes)
    if dim == 1:
        spaces = [lambda x: (np.sin(x), 2.0, np.exp(x) * x)]
    else:
        mixed = mixed_2d([0.5, 0.25], 1.0)
        spaces = [lambda x, y: (np.sin(x), np.cos(y), 2.0, np.exp(x) * np.sin(y)),
                  lambda x, y: np.stack(np.broadcast_arrays(np.sin(x), np.cos(y))),
                  periodic_2d([0.5, 0.25], 1.3).exact_u.space, mixed.exact_v.space,
                  mixed.forcing.space]
    for space in spaces:
        direct = np.stack([np.broadcast_to(f, table.shape) for f in space(*table.coords)])
        assert np.array_equal(table.factors(space), direct.reshape(len(direct), n ** dim, -1))


def _spy_spaces(spec, calls):
    """spec with each distinct space callable wrapped, shared as before, to
    append the sizes of the coordinate arrays of every call to calls."""
    spies = {}

    def spy(space):
        def recorded(*coords):
            calls.append([np.size(x) for x in coords])
            return space(*coords)
        return spies.setdefault(space, recorded)

    return replace(spec, **{name: Separable(spy(field.space), field.time)
                            for name in ("exact_u", "exact_v", "forcing")
                            if (field := getattr(spec, name)) is not None})


def _spied_build(monkeypatch, calls):
    build = cli.build_problem
    monkeypatch.setattr(cli, "build_problem", lambda cfg: _spy_spaces(build(cfg), calls))


def test_shared_space_is_evaluated_once_per_grid(monkeypatch):
    # lifted periodic1d's forcing and exact fields share one space callable:
    # the forcing's projection and the initial projection read one table
    calls = []
    _spied_build(monkeypatch, calls)
    disc, spec = cli.build_discretization(cli.RunConfig(problem="periodic1d", q=3, n=10))
    assert spec.forcing.space is spec.exact_u.space is spec.exact_v.space
    project_initial(spec, disc)
    assert len(calls) == 1


@pytest.mark.parametrize("problem,q", [("periodic2d", 3), ("mixed2d", 2)])
def test_space_factors_are_evaluated_per_axis(monkeypatch, problem, q):
    # n * p coordinates an axis (p = q + 4 on the L2-error rule), never the
    # (n p)^2 points of the grid
    n, calls = 14, []
    _spied_build(monkeypatch, calls)
    disc, spec = cli.build_discretization(cli.RunConfig(problem=problem, q=q, w=[0.5, 0.5], n=n))
    state = project_initial(spec, disc)
    l2_error(state, spec, 0.0, disc)
    assert len(calls) == (5 if problem == "mixed2d" else 2)
    assert max(max(sizes) for sizes in calls) <= n * (q + 4)
