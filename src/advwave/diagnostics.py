"""Discrete energy, energy-identity cross-check, L2 errors, rate fits, and a
spectral-radius probe for the semidiscrete operator."""

from __future__ import annotations

import numpy as np

from .basis import tensor_eval, tensor_gauss
from .operators import Discretization, FieldTable, ModalState


def discrete_energy(state: ModalState, disc: Discretization) -> float:
    """E^h = sum_j int 1/2 v^2 + 1/2 c^2 |grad u|^2, exact via quadrature."""
    kinetic = 0.5 * np.sum(state.v * (state.v * disc.solvers.v_mass_diag))
    potential = 0.5 * np.sum(state.u * (state.u @ disc.solvers.stiffness.T))
    return float(kinetic + potential)


def energy_rate_from_operator(state: ModalState, disc: Discretization) -> float:
    """dE^h/dt evaluated from the operator output (no time differencing)."""
    du, dv = disc.rhs(state.u, state.v, state.t)
    kinetic = np.sum(state.v * (dv * disc.solvers.v_mass_diag))
    potential = np.sum(state.u * (du @ disc.solvers.stiffness.T))
    return float(kinetic + potential)


def energy_identity_residual(state: ModalState, disc: Discretization):
    """Compare operator-side dE/dt against the boundary-sum formula.

    The two sides are independent code paths: the left uses the assembled
    operator, the right the closed-form per-face energy rates.  Requires
    homogeneous forcing.  Returns (lhs, rhs, relative residual).
    """
    if disc.forcing is not None:
        raise ValueError("energy identity requires homogeneous forcing")
    lhs = energy_rate_from_operator(state, disc)
    rhs = disc.boundary_energy_rate(state.u, state.v)
    residual = abs(lhs - rhs) / max(1.0, abs(lhs))
    return lhs, rhs, residual


class _ErrorQuadrature:
    """A Gauss rule n_extra points per direction finer than the operator's,
    on every element of one discretization: the weights with the element
    Jacobian folded in, the u and v basis tables, and the exact fields at
    the physical points."""

    def __init__(self, disc: Discretization, n_extra: int):
        ref, mesh = disc.ref, disc.mesh
        dim = mesh.dim
        pts_ref, weights = tensor_gauss(ref.n_quad + n_extra, dim)
        self.weights = disc.jac_vol * weights
        self.vals_u_t = tensor_eval(ref.q, dim, pts_ref)[0].T.copy()
        self.vals_v_t = tensor_eval(ref.s, dim, pts_ref)[0].T.copy()
        self.exact = FieldTable(mesh.element_centers[:, None, :] + (mesh.h / 2.0) * pts_ref)


def l2_error(state: ModalState, spec, t: float, disc: Discretization,
             n_extra: int = 2):
    """Global L2 errors of u^h and v^h against the exact solutions.

    Uses a quadrature rule n_extra points finer than the operator's to keep
    aliasing below the discretization error.  The rule, its basis tables and
    the space factors of spec's Separable exact fields are built on the
    first call for a discretization and n_extra and kept in
    ``disc.error_quadratures``; later calls combine the cached factors with
    the time factors at t.
    """
    quad = disc.error_quadratures.get(n_extra)
    if quad is None:
        quad = disc.error_quadratures[n_extra] = _ErrorQuadrature(disc, n_extra)

    def error(coeffs, vals_t, field):
        diff = coeffs @ vals_t
        diff -= quad.exact(field, t)
        return float(np.sqrt(np.sum(np.square(diff, out=diff) @ quad.weights)))

    return (error(state.u, quad.vals_u_t, spec.exact_u),
            error(state.v, quad.vals_v_t, spec.exact_v))


def fit_rate(hs, errs, window: int | None = None) -> float:
    """Least-squares slope of log(err) vs log(h) over the finest grids.

    window defaults to min(10, number of grids), following the
    ten-finest-grids convention.
    """
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if window is None:
        window = min(10, len(hs))
    if window < 2:
        raise ValueError("need at least 2 grids in the fit window")
    if window > len(hs):
        raise ValueError("fit window larger than the number of grids")
    order = np.argsort(hs)[::-1]  # coarse to fine
    hs, errs = hs[order], errs[order]
    hs, errs = hs[-window:], errs[-window:]
    if np.any(errs <= 0):
        raise ValueError("nonpositive error values in the fit window")
    slope, _ = np.polyfit(np.log(hs), np.log(errs), 1)
    return float(slope)


def spectral_radius_probe(disc: Discretization, iters: int = 400,
                          seed: int = 0, rtol: float = 0.02):
    """Power-iteration estimate of the semidiscrete operator's spectral radius.

    Uses accumulated log-norm growth averaged over the second half of the
    iteration history (robust to the oscillation a complex dominant pair
    induces in per-step norm ratios).  Returns (radius, converged);
    non-convergence returns the last estimate with converged = False, the
    flag meaning the trailing estimates agreed to within rtol.
    """
    if disc.forcing is not None:
        raise ValueError("spectral probe requires the homogeneous operator")
    rng = np.random.default_rng(seed)
    n_el = disc.mesh.n_elements
    u = rng.standard_normal((n_el, disc.ref.n_u))
    v = rng.standard_normal((n_el, disc.ref.n_v))

    def norm(a, b):
        return np.sqrt(np.sum(a * a) + np.sum(b * b))

    log_acc = [0.0]
    history = []
    for _ in range(iters):
        u, v = disc.rhs(u, v, 0.0)
        nm = norm(u, v)
        if nm == 0.0:
            return 0.0, True
        log_acc.append(log_acc[-1] + np.log(nm))
        u /= nm
        v /= nm
        k = len(log_acc) - 1
        if k >= 4:
            m = k // 2
            history.append(float(np.exp((log_acc[k] - log_acc[m]) / (k - m))))
    if not history:
        return float(np.exp(log_acc[-1] / max(1, len(log_acc) - 1))), False
    tail = history[-max(1, len(history) // 10):]
    estimate = tail[-1]
    converged = (max(tail) - min(tail)) <= rtol * estimate
    return estimate, converged
