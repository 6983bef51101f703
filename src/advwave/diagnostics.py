"""Discrete energy, energy-identity cross-check, L2 errors, rate fits, and
the semidiscrete operator's spectral radius: exact from its Bloch symbols
on periodic meshes, by implicitly restarted Arnoldi (ARPACK) on its
matrix-free product on physical ones."""

from __future__ import annotations

import functools

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
    homogeneous forcing.  Returns (lhs, rhs, relative residual).  The
    state's u and v may stack several states on a leading axis: each
    state's left side is one ``rhs`` call, the right sides of all of them
    come from one pass, and the results are arrays with one entry per state.
    """
    if disc.forcing is not None:
        raise ValueError("energy identity requires homogeneous forcing")
    if state.u.ndim == 2:
        lhs = energy_rate_from_operator(state, disc)
    else:
        lhs = np.array([energy_rate_from_operator(ModalState(u, v, state.t), disc)
                        for u, v in zip(state.u, state.v)])
    rhs = disc.boundary_energy_rate(state.u, state.v)
    residual = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))
    return lhs, rhs, residual


@functools.cache
def _error_rule(q: int, s: int, n_quad: int, dim: int):
    """A Gauss rule two points per direction finer than the operator's
    n_quad on the reference element: its points, its weights and the u and
    v basis tables transposed.  Built once per process for each reference
    element; the arrays are read-only."""
    pts, weights = tensor_gauss(n_quad + 2, dim)
    vals_u_t = tensor_eval(q, dim, pts)[0].T.copy()
    vals_v_t = tensor_eval(s, dim, pts)[0].T.copy()
    for a in (pts, weights, vals_u_t, vals_v_t):
        a.flags.writeable = False
    return pts, weights, vals_u_t, vals_v_t


class _ErrorQuadrature:
    """``_error_rule`` on every element of one discretization: the weights
    with the element Jacobian folded in, the shared u and v basis tables,
    and the exact fields at the physical points."""

    def __init__(self, disc: Discretization):
        ref, mesh = disc.ref, disc.mesh
        pts_ref, weights, self.vals_u_t, self.vals_v_t = _error_rule(
            ref.q, ref.s, ref.n_quad, mesh.dim)
        self.weights = disc.jac_vol * weights
        self.exact = FieldTable(mesh.element_centers[:, None, :] + (mesh.h / 2.0) * pts_ref)


def l2_error(state: ModalState, spec, t: float, disc: Discretization):
    """Global L2 errors of u^h and v^h against the exact solutions.

    Uses a quadrature rule two points finer than the operator's to keep
    aliasing below the discretization error.  The rule, its basis tables and
    the space factors of spec's Separable exact fields are built on the
    first call for a discretization and kept in ``disc.error_quadrature``;
    later calls combine the cached factors with the time factors at t.
    """
    quad = disc.error_quadrature
    if quad is None:
        quad = disc.error_quadrature = _ErrorQuadrature(disc)

    def error(coeffs, vals_t, field):
        diff = coeffs @ vals_t
        diff -= quad.exact(field, t)
        return float(np.sqrt(np.sum(np.square(diff, out=diff) @ quad.weights)))

    return (error(state.u, quad.vals_u_t, spec.exact_u),
            error(state.v, quad.vals_v_t, spec.exact_v))


FIT_WINDOW = 10


def fit_rate(hs, errs) -> float:
    """Least-squares slope of log(err) vs log(h) over the FIT_WINDOW finest
    grids (all of them when there are fewer), following the
    ten-finest-grids convention.
    """
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if len(hs) < 2:
        raise ValueError("need at least 2 grids in the fit window")
    order = np.argsort(hs)[::-1]  # coarse to fine
    hs, errs = hs[order], errs[order]
    hs, errs = hs[-FIT_WINDOW:], errs[-FIT_WINDOW:]
    if np.any(errs <= 0):
        raise ValueError("nonpositive error values in the fit window")
    if len(np.unique(hs)) < 2:
        raise ValueError("need at least 2 distinct h in the fit window")
    slope, _ = np.polyfit(np.log(hs), np.log(errs), 1)
    return float(slope)


# largest operator whose dense eigenvalues stand in for a failed ARPACK run:
# about 3 s for numpy's eigvals on one core at N = 2,000
_DENSE_LIMIT = 2000


def _symbol_radius(disc: Discretization) -> float:
    """Exact spectral radius of the operator on a periodic mesh.

    The operator commutes with shifts of the element grid, so its responses
    R_d on element d to the unit coefficients of element 0 fix it: a mode
    a·ω^(m·j) maps to (a S(m))·ω^(m·j) with the Bloch symbol
    S(m) = Σ_d R_d ω^(-m·d), and the eigenvalues of the n^dim symbols are
    the whole spectrum.  R is real, so S(-m) is the conjugate of S(m) and
    the half spectrum of rfftn covers every modulus.
    """
    n, dim = disc.mesh.n, disc.mesh.dim
    nu, nb = disc.ref.n_u, disc.ref.n_u + disc.ref.n_v
    x = np.zeros((disc.mesh.n_elements, nb))
    resp = np.empty((nb,) + x.shape)
    for k in range(nb):
        x[0, k] = 1.0
        disc.rhs(x[:, :nu], x[:, nu:], 0.0, out=resp[k])
        x[0, k] = 0.0
    # axes: grid..., unit coefficient k, response coefficient
    resp = np.moveaxis(resp.reshape((nb,) + (n,) * dim + (nb,)), 0, -2)
    symbols = np.fft.rfftn(resp, axes=tuple(range(dim)))
    return float(np.max(np.abs(np.linalg.eigvals(symbols))))


def spectral_radius_probe(disc: Discretization, seed: int = 0):
    """Spectral radius of the homogeneous semidiscrete operator.

    Returns (radius, converged).  On a periodic mesh the radius is exact,
    from the Bloch symbols (``_symbol_radius``; Nu+Nv ``rhs`` calls), and
    converged is True.  On a physical mesh it comes from implicitly
    restarted Arnoldi (ARPACK ``eigs``, k=1, which="LM", tol=1e-10, at
    most 50 restarts) on a LinearOperator whose product is one ``rhs``
    call on the stacked per-element [u v] layout, started from a vector
    drawn from ``default_rng(seed)``, so equal seeds give equal radii.
    ARPACK rejects a zero operator, but this one is never zero: a
    Discretization needs c > 0, and then its wave terms act.
    converged is True when ARPACK's residual test accepted the dominant
    Ritz value; the test bounds the residual, not the eigenvalue error,
    which on this non-normal operator can be larger.  If ARPACK does not
    converge, an operator with at most _DENSE_LIMIT unknowns is assembled
    and its dense eigenvalues give the radius (converged True); a larger
    one returns the largest accepted Ritz value (NaN if there is none)
    with converged = False.
    """
    if disc.forcing is not None:
        raise ValueError("spectral probe requires the homogeneous operator")
    if disc.mesh.periodic:
        return _symbol_radius(disc), True
    # imported here: scipy.sparse.linalg adds ~3.6 MB RSS that only this probe needs
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

    n_el, nu = disc.mesh.n_elements, disc.ref.n_u
    buf = np.empty((n_el, nu + disc.ref.n_v))

    def matvec(x):
        x = x.reshape(buf.shape)
        disc.rhs(x[:, :nu], x[:, nu:], 0.0, out=buf)
        return buf.ravel()

    v0 = np.random.default_rng(seed).standard_normal(buf.size)
    op = LinearOperator((buf.size, buf.size), matvec=matvec, dtype=float)
    try:
        # 50 restarts (~2,000 products) cover the subsonic mixed2d grids up
        # to n=20 in ~1,000; with a supersonic inflow the top eigenvalues
        # are badly conditioned and ARPACK stalls at any budget
        ritz = eigs(op, k=1, which="LM", v0=v0, ncv=min(buf.size, 40), tol=1e-10,
                    maxiter=50, return_eigenvectors=False)
    except ArpackNoConvergence as err:
        if buf.size <= _DENSE_LIMIT:
            # the operator's transpose: row j is its product with unit vector j
            dense_t = np.empty((buf.size, buf.size))
            unit = np.zeros(buf.size)
            for j in range(buf.size):
                unit[j] = 1.0
                dense_t[j] = matvec(unit)
                unit[j] = 0.0
            return float(np.max(np.abs(np.linalg.eigvals(dense_t)))), True
        if len(err.eigenvalues) == 0:
            return float("nan"), False
        return float(np.max(np.abs(err.eigenvalues))), False
    return float(np.max(np.abs(ritz))), True
