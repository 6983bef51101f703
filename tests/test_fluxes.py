import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advwave.fluxes import (FluxParams, Trace, compute_flux, energy_rate_density,
                            inflow_flux, interior_energy_density, interior_flux,
                            outflow_flux, supersonic_boundary_flux,
                            supersonic_interior_flux)
from advwave.mesh import FaceKind

finite = st.floats(-10, 10, allow_nan=False)


def make_trace(v, grad, n):
    return Trace(v=np.asarray(float(v)),
                 grad_u=np.asarray(grad, dtype=float),
                 n=np.asarray(n, dtype=float))


def pair_1d(v1, g1, v2, g2, n1=1.0):
    t1 = make_trace(v1, [g1], [n1])
    t2 = make_trace(v2, [g2], [-n1])
    return t1, t2


# --- interior ----------------------------------------------------------------

@given(finite, st.lists(finite, min_size=2, max_size=2),
       st.floats(0, 1), st.floats(0, 3), st.floats(0, 3))
@settings(max_examples=200)
def test_interior_consistency(v, grad, sigma, beta, eta):
    # continuous traces reproduce the data exactly
    n = np.array([0.6, 0.8])
    t1 = make_trace(v, grad, n)
    t2 = make_trace(v, grad, -n)
    p = FluxParams(sigma=sigma, beta=beta, eta=eta)
    out = interior_flux(t1, t2, p)
    assert abs(out.v_star - v) <= 1e-14 * max(1, abs(v))
    assert np.all(np.abs(out.grad_u_star - np.asarray(grad))
                  <= 1e-14 * np.maximum(1, np.abs(grad)))


def test_interior_sommerfeld_example():
    # xi=1, n1=+1, v1=1, v2=0, grads zero
    t1, t2 = pair_1d(1.0, 0.0, 0.0, 0.0)
    out = interior_flux(t1, t2, FluxParams.sommerfeld(xi=1.0))
    assert out.v_star == pytest.approx(0.5)
    assert out.grad_u_star[0] == pytest.approx(-0.5)


def test_interior_central_example():
    # v* is the plain average; grad u* the shared gradient when continuous
    t1, t2 = pair_1d(1.0, 2.0, 3.0, 2.0)
    out = interior_flux(t1, t2, FluxParams.central())
    assert out.v_star == pytest.approx(2.0)
    assert out.grad_u_star[0] == pytest.approx(2.0)


@given(finite, finite, finite, finite)
@settings(max_examples=200)
def test_central_energy_rate_is_zero(v1, g1, v2, g2):
    t1, t2 = pair_1d(v1, g1, v2, g2)
    rate = np.sum(energy_rate_density(FaceKind.INTERIOR_SUBSONIC, t1, t2,
                                      FluxParams.central(), w=[0.4], c=1.0))
    assert rate == 0.0


def test_sommerfeld_energy_sign_bulk():
    # 1e4 random subsonic trace pairs with |w.n| within the dissipativity
    # bound 2 xi c^2 / (c^2 + xi^2); every face rate must be <= 1e-12
    rng = np.random.default_rng(42)
    c, xi = 1.3, 0.8
    bound = 2 * xi * c * c / (c * c + xi * xi)
    p = FluxParams.sommerfeld(xi=xi)
    n1 = np.array([1.0])
    t1 = Trace(v=rng.standard_normal(10_000) * 5,
               grad_u=rng.standard_normal((10_000, 1)) * 5, n=n1)
    t2 = Trace(v=rng.standard_normal(10_000) * 5,
               grad_u=rng.standard_normal((10_000, 1)) * 5, n=-n1)
    for wn in rng.uniform(-bound, bound, size=8):
        density = interior_energy_density(t1, t2, p, w=[wn], c=c)
        assert np.all(density <= 1e-12)


def test_supersonic_interior_bit_identity():
    rng = np.random.default_rng(7)
    n1 = np.array([1.0])
    t1 = Trace(v=rng.standard_normal(100), grad_u=rng.standard_normal((100, 1)), n=n1)
    t2 = Trace(v=rng.standard_normal(100), grad_u=rng.standard_normal((100, 1)), n=-n1)
    out = supersonic_interior_flux(t1, t2, w=[1.0], c=0.5)
    assert np.array_equal(out.v_star, t1.v)
    assert np.array_equal(out.grad_u_star, t1.grad_u)
    out = supersonic_interior_flux(t1, t2, w=[-1.0], c=0.5)
    assert np.array_equal(out.v_star, t2.v)
    assert np.array_equal(out.grad_u_star, t2.grad_u)


def test_supersonic_interior_rejects_subsonic():
    t1, t2 = pair_1d(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        supersonic_interior_flux(t1, t2, w=[0.3], c=1.0)


def test_supersonic_interior_energy_nonpositive():
    rng = np.random.default_rng(11)
    n1 = np.array([1.0])
    t1 = Trace(v=rng.standard_normal(500), grad_u=rng.standard_normal((500, 1)), n=n1)
    t2 = Trace(v=rng.standard_normal(500), grad_u=rng.standard_normal((500, 1)), n=-n1)
    for w in ([1.0], [-1.0], [2.5], [-0.9]):
        if abs(w[0]) <= 0.5:
            continue
        rate = np.sum(energy_rate_density(FaceKind.INTERIOR_SUPERSONIC, t1, t2,
                                          FluxParams.sommerfeld(), w=w, c=0.5))
        assert rate <= 1e-12


# --- boundary closures -------------------------------------------------------

@given(finite, st.lists(finite, min_size=2, max_size=2),
       st.floats(0.1, 3), st.floats(-0.99, -0.01))
@settings(max_examples=300)
def test_inflow_closure_system(v, grad, xi, wn_frac):
    # defining system: v* = (w.n)(grad u*.n), incoming characteristic
    # preserved, zero tangential gradient
    c = 1.0
    wn = wn_frac * min(c, 10 * xi)  # subsonic inflow range
    n = np.array([0.0, -1.0])
    w = np.array([0.3, wn * n[1]])  # w.n = wn
    t = make_trace(v, grad, n)
    out = inflow_flux(t, w, xi)
    gn_star = float(np.dot(out.grad_u_star, n))
    scale = max(1.0, abs(v), float(np.max(np.abs(grad))))
    assert abs(float(out.v_star) - wn * gn_star) <= 1e-13 * scale
    lhs = float(out.v_star) - xi * gn_star
    rhs = v - xi * float(np.dot(grad, n))
    assert abs(lhs - rhs) <= 1e-13 * scale
    tangential = out.grad_u_star - gn_star * n
    assert np.all(np.abs(tangential) <= 1e-13 * scale)


def test_inflow_example():
    # xi=1, w.n=-0.5, v=0, grad u.n=1, tangential 0.7
    n = np.array([1.0, 0.0])
    t = make_trace(0.0, [1.0, 0.7], n)
    out = inflow_flux(t, w=np.array([-0.5, 0.0]), xi=1.0)
    assert float(np.dot(out.grad_u_star, n)) == pytest.approx(2 / 3)
    assert float(out.v_star) == pytest.approx(-1 / 3)
    assert out.grad_u_star[1] == pytest.approx(0.0, abs=1e-15)


def test_inflow_characteristic_data():
    # v = xi grad u.n makes the numerator vanish
    t = make_trace(0.8, [1.0], [1.0])
    out = inflow_flux(t, w=np.array([-0.5]), xi=0.8)
    assert float(out.v_star) == pytest.approx(0.0, abs=1e-15)
    assert float(out.grad_u_star[0]) == pytest.approx(0.0, abs=1e-15)


@given(finite, st.lists(finite, min_size=2, max_size=2), st.floats(0.1, 3))
@settings(max_examples=300)
def test_outflow_closure_system(v, grad, xi):
    n = np.array([0.8, 0.6])
    t = make_trace(v, grad, n)
    out = outflow_flux(t, xi)
    gn = float(np.dot(grad, n))
    gn_star = float(np.dot(out.grad_u_star, n))
    scale = max(1.0, abs(v), float(np.max(np.abs(grad))))
    # radiation condition and preserved outgoing characteristic
    assert abs(float(out.v_star) + xi * gn_star) <= 1e-13 * scale
    assert abs((float(out.v_star) - xi * gn_star) - (v - xi * gn)) <= 1e-13 * scale
    # tangential gradient untouched
    tang_in = np.asarray(grad) - gn * n
    tang_out = out.grad_u_star - gn_star * n
    assert np.all(np.abs(tang_in - tang_out) <= 1e-13 * scale)


def test_outflow_examples():
    t = make_trace(1.0, [1.0], [1.0])
    out = outflow_flux(t, xi=1.0)
    assert float(out.v_star) == pytest.approx(0.0, abs=1e-15)
    assert float(out.grad_u_star[0]) == pytest.approx(0.0, abs=1e-15)
    # outgoing characteristic data passes through unchanged
    t = make_trace(-2.0, [2.0], [1.0])
    out = outflow_flux(t, xi=1.0)
    assert float(out.v_star) == pytest.approx(-2.0)
    assert float(out.grad_u_star[0]) == pytest.approx(2.0)


def test_supersonic_boundary_states():
    t = make_trace(2.0, [1.0, -0.5], [1.0, 0.0])
    out = supersonic_boundary_flux(t, FaceKind.BOUNDARY_INFLOW_SUPERSONIC)
    assert float(out.v_star) == 0.0
    assert np.all(out.grad_u_star == 0.0)
    out = supersonic_boundary_flux(t, FaceKind.BOUNDARY_OUTFLOW_SUPERSONIC)
    assert np.array_equal(out.v_star, t.v)
    assert np.array_equal(out.grad_u_star, t.grad_u)
    with pytest.raises(ValueError):
        supersonic_boundary_flux(t, FaceKind.BOUNDARY_INFLOW)


def test_compute_flux_dispatch():
    t1, t2 = pair_1d(1.0, 2.0, 3.0, 4.0)
    p = FluxParams.sommerfeld()
    a = compute_flux(FaceKind.INTERIOR_SUPERSONIC, t1, t2, p, w=[2.0], c=1.0)
    b = supersonic_interior_flux(t1, t2, w=[2.0], c=1.0)
    assert np.array_equal(a.v_star, b.v_star)
    # central keeps the parametrized form at supersonic faces
    pc = FluxParams.central()
    a = compute_flux(FaceKind.INTERIOR_SUPERSONIC, t1, t2, pc, w=[2.0], c=1.0)
    b = interior_flux(t1, t2, pc)
    assert np.array_equal(a.v_star, b.v_star)


def test_flux_params_validation():
    with pytest.raises(ValueError):
        FluxParams(sigma=1.2)
    with pytest.raises(ValueError):
        FluxParams(beta=-0.1)
    with pytest.raises(ValueError):
        FluxParams(xi=0.0)
    assert not FluxParams.central().dissipative
    assert FluxParams.sommerfeld().dissipative


def test_continuous_traces_zero_energy_rate():
    t1, t2 = pair_1d(1.5, -0.3, 1.5, -0.3)
    for kind in (FaceKind.INTERIOR_SUBSONIC,):
        for p in (FluxParams.central(), FluxParams.sommerfeld(), FluxParams(sigma=0.8)):
            rate = np.sum(energy_rate_density(kind, t1, t2, p, w=[0.4], c=1.0))
            assert abs(rate) <= 1e-14
