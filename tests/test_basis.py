import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre as npleg

from advwave.basis import (AxisRule, build_reference, gauss_points, legendre_tables, tensor_eval,
                           tensor_modes)

# closed-form values frozen from the explicit low-degree polynomials:
# P_2 = (3x^2 - 1)/2, P_3 = (5x^3 - 3x)/2, P_4 = (35x^4 - 30x^2 + 3)/8
FROZEN_VALUES = [
    (0, 0.3, 1.0),
    (1, 0.3, 0.3),
    (2, 0.3, -0.365),
    (3, 0.5, -0.4375),
    (4, 0.3, 0.0729375),
    (5, -1.0, -1.0),
    (6, 1.0, 1.0),
]

# P_2' = 3x, P_3' = (15x^2 - 3)/2, P_4' = (140x^3 - 60x)/8
FROZEN_DERIVS = [
    (0, 0.7, 0.0),
    (1, -0.2, 1.0),
    (2, 0.4, 1.2),
    (3, 0.5, 0.375),
    (4, 0.5, -1.5625),
]


def legendre(k, x):
    """P_k and P_k' at the points x, read from the last columns of the tables."""
    vals, ders = legendre_tables(k, x)
    return vals[:, k], ders[:, k]


def numpy_legendre(k, x):
    """P_k and P_k' from numpy's Legendre series (Clenshaw), an independent
    algorithm."""
    unit = np.zeros(k + 1)
    unit[k] = 1.0
    return npleg.legval(x, unit), npleg.legval(x, npleg.legder(unit))


@pytest.mark.parametrize("k,x,expected", FROZEN_VALUES)
def test_legendre_values(k, x, expected):
    assert legendre(k, x)[0][0] == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("k,x,expected", FROZEN_DERIVS)
def test_legendre_derivatives(k, x, expected):
    assert legendre(k, x)[1][0] == pytest.approx(expected, abs=1e-14)


def test_legendre_tables_match_numpy():
    x = np.concatenate([[-1.0, 0.0, 1.0], np.random.default_rng(3).uniform(-1, 1, 40)])
    vals, ders = legendre_tables(12, x)
    for k in range(13):
        expect_vals, expect_ders = numpy_legendre(k, x)
        assert np.max(np.abs(vals[:, k] - expect_vals)) < 1e-13
        assert np.max(np.abs(ders[:, k] - expect_ders)) < 1e-11


@given(st.integers(0, 12))
def test_endpoint_normalization(k):
    vals = legendre(k, np.array([1.0, -1.0]))[0]
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    assert vals[1] == pytest.approx((-1.0) ** k, abs=1e-12)


@given(st.integers(1, 10), st.floats(-1, 1))
@settings(max_examples=60)
def test_derivative_matches_finite_difference(k, x):
    eps = 1e-6
    plus, minus = legendre(k, np.array([x + eps, x - eps]))[0]
    fd = (plus - minus) / (2 * eps)
    assert legendre(k, x)[1][0] == pytest.approx(fd, rel=1e-7, abs=1e-5)


def test_gauss_three_point_rule():
    nodes, weights = gauss_points(3)
    ref = np.sqrt(3.0 / 5.0)
    assert np.allclose(sorted(nodes), [-ref, 0.0, ref], atol=1e-15)
    assert np.allclose(sorted(weights), sorted([5 / 9, 8 / 9, 5 / 9]), atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_gauss_exactness(n):
    # exact for monomials up to degree 2n - 1
    nodes, weights = gauss_points(n)
    for k in range(2 * n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert np.dot(weights, nodes ** k) == pytest.approx(exact, abs=1e-13)


@pytest.mark.parametrize("q,s,dim", [(1, 1, 1), (4, 2, 1), (2, 1, 2), (3, 3, 2)])
def test_projection_of_derivative_values(q, s, dim):
    # a derivative of a degree-q polynomial is one: projecting its values at
    # the volume nodes gives its coefficients, checked at random points
    ref = build_reference(q, s, dim=dim)
    rng = np.random.default_rng(q + 10 * dim)
    a = rng.standard_normal(ref.n_u)
    pts = rng.uniform(-1, 1, (25, dim))
    vals, grads = tensor_eval(q, dim, pts)
    for d in range(dim):
        coeffs = (ref.vol_grads_u[d] @ a) @ ref.proj_u
        assert np.max(np.abs(vals @ coeffs - grads[d] @ a)) < 1e-11
        # the table is an integer matrix, as the operator's rounding of it assumes
        table = ref.proj_u.T @ ref.vol_grads_u[d]
        assert np.max(np.abs(table - np.rint(table))) < 1e-12


def test_tensor_modes_c_order():
    modes = tensor_modes(2, 2)
    assert modes.shape == (9, 2)
    assert tuple(modes[0]) == (0, 0)
    assert tuple(modes[1]) == (0, 1)  # last index varies fastest
    assert tuple(modes[3]) == (1, 0)


def test_tensor_eval_is_product_of_1d():
    pts = np.array([[0.3, -0.6], [0.1, 0.9]])
    vals, grads = tensor_eval(3, 2, pts)
    modes = tensor_modes(3, 2)
    for m, (i, j) in enumerate(modes):
        px, dpx = numpy_legendre(i, pts[:, 0])
        py, dpy = numpy_legendre(j, pts[:, 1])
        assert np.allclose(vals[:, m], px * py, atol=1e-13)
        assert np.allclose(grads[0, :, m], dpx * py, atol=1e-13)
        assert np.allclose(grads[1, :, m], px * dpy, atol=1e-13)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("q,s", [(1, 1), (3, 3), (3, 2), (4, 4)])
def test_reference_mass_matrices(q, s, dim):
    ref = build_reference(q, s, dim=dim)
    # diagonal entries prod_d 2/(2 k_d + 1), verified against quadrature
    expect_u = np.prod(2.0 / (2.0 * ref.modes_u + 1.0), axis=1)
    assert np.allclose(np.diag(ref.mass_u), expect_u, atol=1e-14)
    quad_mass = ref.vol_vals_u.T @ (ref.vol_weights[:, None] * ref.vol_vals_u)
    assert np.allclose(quad_mass, ref.mass_u, atol=1e-12)


def test_reference_stiffness_constant_nullspace():
    ref = build_reference(3, 3, dim=2)
    assert np.allclose(ref.stiff_u[0, :], 0.0, atol=1e-13)
    assert np.allclose(ref.stiff_u[:, 0], 0.0, atol=1e-13)
    eigs = np.linalg.eigvalsh(ref.stiff_u)
    assert eigs.min() > -1e-12


def test_mean_row():
    ref = build_reference(2, 2, dim=2)
    # integral of each basis function over [-1,1]^2: 4 for the constant, 0 else
    assert ref.mean_row[0] == pytest.approx(4.0)
    assert np.allclose(ref.mean_row[1:], 0.0)
    quad = ref.vol_weights @ ref.vol_vals_u
    assert np.allclose(quad, ref.mean_row, atol=1e-13)


def test_embed_v_roundtrip():
    ref = build_reference(3, 2, dim=2)
    rng = np.random.default_rng(0)
    vc = rng.standard_normal(ref.n_v)
    uc = ref.embed_v @ vc
    # embedded polynomial agrees with the original at quadrature points
    assert np.allclose(ref.vol_vals_u @ uc, ref.vol_vals_v @ vc, atol=1e-13)


def test_face_trace_matches_volume_basis():
    ref = build_reference(3, 3, dim=2)
    # side 2*d + hi puts coordinate d at -1 (hi=0) or +1 (hi=1)
    nodes = gauss_points(ref.n_quad)[0]
    pts = np.empty((len(nodes), 2))
    pts[:, 0] = 1.0
    pts[:, 1] = nodes
    vals, grads = tensor_eval(3, 2, pts)
    assert np.allclose(ref.face_vals_v[1], vals, atol=1e-13)  # s = q = 3
    assert np.allclose(ref.face_grads_u[1], grads, atol=1e-13)


def quadrature_trace_maps(ref):
    """The trace maps as a Gauss projection along each face gives them,
    unrounded: coefficient m of a trace is (m + 1/2) times the rule's
    integral of it against P_m, in the order of ``ReferenceElement``'s
    trace coordinates (v, then the derivative along each axis); on a 1D
    point face it is the value."""
    q, s, dim, nu = ref.q, ref.s, ref.dim, ref.n_u
    nodes, weights = npleg.leggauss(ref.n_quad) if dim == 2 else (np.zeros(1), np.full(1, 2.0))
    proj = (np.arange(q + 1)[:, None] + 0.5) * (npleg.legvander(nodes, q) * weights[:, None]).T
    maps = np.zeros_like(ref.trace_maps)
    for side in range(2 * dim):
        parts = [(slice(nu, None), ref.face_vals_v[side], s)]
        parts += [(slice(None, nu), ref.face_grads_u[side, d], q if d == side // 2 else q - 1)
                  for d in range(dim)]
        col = 0
        for rows, table, degree in parts:
            size = degree + 1 if dim == 2 else 1
            maps[side, rows, col:col + size] = (proj[:size] @ table).T
            col += size
    return maps


REFERENCES = [(q, s, dim) for dim in (1, 2) for q in range(1, 7) for s in range(q + 1)]


@pytest.mark.parametrize("q,s,dim", REFERENCES)
def test_trace_maps_are_exact_integers(q, s, dim):
    # every entry is (+-1)^k, P_k'(+-1) = +-k(k+1)/2 or a sum of 2j + 1: the
    # maps hold those integers, which the quadrature gives to roundoff
    ref = build_reference(q, s, dim=dim)
    maps = ref.trace_maps
    assert np.array_equal(maps, np.rint(maps))
    assert np.abs(quadrature_trace_maps(ref) - maps).max() <= 1e-12


@pytest.mark.parametrize("q,s,dim", REFERENCES)
def test_trace_coordinates_read_one_field(q, s, dim):
    # rhs takes its v traces from the v coefficients alone and the
    # derivatives from the u coefficients but the constant, the v
    # coordinates first: a v coordinate reads no u coefficient, and a
    # derivative no v coefficient and never the u constant
    ref = build_reference(q, s, dim=dim)
    maps, nu = ref.trace_maps, ref.n_u
    v_trace = np.any(ref.unit_v, axis=(0, 2))
    n_vt = (s + 1) if dim == 2 else 1
    assert v_trace.tolist() == [True] * n_vt + [False] * (maps.shape[-1] - n_vt)
    assert not np.any(maps[:, :nu, v_trace])
    assert not np.any(maps[:, nu:, ~v_trace]) and not np.any(maps[:, 0, ~v_trace])
    # and each reads something on every side
    assert np.all(np.any(maps, axis=1))


def test_build_reference_validation():
    with pytest.raises(ValueError):
        build_reference(0, 0)
    with pytest.raises(ValueError):
        build_reference(2, 3)
    with pytest.raises(ValueError):
        build_reference(2, 2, dim=3)


def test_build_reference_built_once():
    ref = build_reference(3, 2, dim=2)
    assert build_reference(3, 2, dim=2) is ref
    assert ref.n_quad == 5  # q + 2
    assert build_reference(3, 3, dim=2) is not ref


def test_reference_arrays_read_only():
    ref = build_reference(2, 1, dim=2)
    # the arrays of the element and of its two axis rules, seven each
    values = [value for value in vars(ref).values()]
    values += [a for value in values if isinstance(value, AxisRule) for a in vars(value).values()]
    arrays = [value for value in values if isinstance(value, np.ndarray)]
    assert len(arrays) == 34
    for a in arrays:
        with pytest.raises(ValueError):
            a.flat[0] = 1.0
