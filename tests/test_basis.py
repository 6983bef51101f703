import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advwave.basis import (build_reference, gauss_points, legendre_derivative,
                           legendre_eval, legendre_tables, modal_derivative_matrix,
                           tensor_eval, tensor_modes)

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


@pytest.mark.parametrize("k,x,expected", FROZEN_VALUES)
def test_legendre_values(k, x, expected):
    assert legendre_eval(k, x) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("k,x,expected", FROZEN_DERIVS)
def test_legendre_derivatives(k, x, expected):
    assert legendre_derivative(k, x) == pytest.approx(expected, abs=1e-14)


@given(st.integers(0, 12))
def test_endpoint_normalization(k):
    assert legendre_eval(k, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert legendre_eval(k, -1.0) == pytest.approx((-1.0) ** k, abs=1e-12)


@given(st.integers(1, 10), st.floats(-1, 1))
@settings(max_examples=60)
def test_derivative_matches_finite_difference(k, x):
    eps = 1e-6
    fd = (legendre_eval(k, x + eps) - legendre_eval(k, x - eps)) / (2 * eps)
    assert legendre_derivative(k, x) == pytest.approx(fd, rel=1e-7, abs=1e-5)


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


@given(st.integers(1, 8), st.lists(st.floats(-2, 2), min_size=2, max_size=9))
@settings(max_examples=60)
def test_modal_derivative_matrix(degree, coeffs):
    # if p = V a then p' = V (D a) pointwise
    a = np.zeros(degree + 1)
    a[:min(len(coeffs), degree + 1)] = coeffs[:degree + 1]
    x = np.linspace(-1, 1, 17)
    D = modal_derivative_matrix(degree)
    vals, ders = legendre_tables(degree, x)
    lhs = ders @ a
    rhs = vals @ (D @ a)
    assert np.allclose(lhs, rhs, atol=1e-10)


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
        expect = legendre_eval(i, pts[:, 0]) * legendre_eval(j, pts[:, 1])
        assert np.allclose(vals[:, m], expect, atol=1e-13)
        gx = legendre_derivative(i, pts[:, 0]) * legendre_eval(j, pts[:, 1])
        assert np.allclose(grads[0, :, m], gx, atol=1e-13)


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
    arrays = [value for value in vars(ref).values() if isinstance(value, np.ndarray)]
    assert len(arrays) == 17
    for a in arrays:
        with pytest.raises(ValueError):
            a.flat[0] = 1.0
