"""Discrete energy, the energy-identity cross-check (one path for a state or
a stack of states), L2 errors, rate fits, the operator's Bloch symbols and
sparse matrix (both from ``Discretization.blocks``, without ``rhs`` calls),
and its spectral radius: exact from the symbols on periodic meshes, by
implicitly restarted Arnoldi (ARPACK) on ``rhs`` on physical ones."""

from __future__ import annotations

import numpy as np

from .operators import Discretization, ModalState, _grid_couplings


def _energy_terms(disc: Discretization, u, v, du, dv):
    """(sum v . M dv, sum u . S du) in the element energy form of disc."""
    return (np.sum(v * (dv * disc.v_mass_diag)),
            np.sum(u * (du @ disc.stiffness.T)))


def discrete_energy(state: ModalState, disc: Discretization) -> float:
    """E^h = sum_j int 1/2 v^2 + 1/2 c^2 |grad u|^2, exact via quadrature."""
    kinetic, potential = _energy_terms(disc, state.u, state.v, state.u, state.v)
    return float(0.5 * kinetic + 0.5 * potential)


def energy_identity_residual(state: ModalState, disc: Discretization):
    """Compare operator-side dE/dt against the boundary-sum formula.

    The two sides are independent code paths: the left is v.M dv + u.S du
    from one ``rhs`` call per state (no time differencing), the right the
    closed-form per-face energy rates of all states in one pass.  Requires
    homogeneous forcing.  u and v may stack states on leading axes, as in
    ``Discretization.side_traces``.  Returns (lhs, rhs, relative residual)
    as arrays of the leading shape, numpy scalars for one state.

    The residual is |lhs - rhs| over max(1, |v.M dv| + |u.S du|): the two
    terms of lhs, not their sum, set the scale of its roundoff, and with a
    conservative flux they cancel to lhs ~ 0.
    """
    if disc.forcing is not None:
        raise ValueError("energy identity requires homogeneous forcing")
    lhs = np.empty(state.u.shape[:-2])
    scale = np.empty_like(lhs)
    for i in np.ndindex(lhs.shape):
        du, dv = disc.rhs(state.u[i], state.v[i], state.t)
        kinetic, potential = _energy_terms(disc, state.u[i], state.v[i], du, dv)
        lhs[i] = kinetic + potential
        scale[i] = abs(kinetic) + abs(potential)
    rhs = disc.boundary_energy_rate(state.u, state.v)
    residual = np.abs(lhs - rhs) / np.maximum(1.0, scale)
    return lhs[()], rhs, residual


def l2_error(state: ModalState, spec, t: float, disc: Discretization):
    """Global L2 errors of u^h and v^h against the exact solutions.

    Uses the reference element's err_* rule, two points per direction finer
    than the operator's, to keep aliasing below the discretization error.
    The space factors of spec's Separable exact fields at its points on
    every element are evaluated, per axis, on the first call for a
    discretization and kept in ``disc.error_quadrature``, the rule's
    ``FieldTable``; later calls combine them with the time factors at t.
    """
    ref, exact = disc.ref, disc.error_quadrature
    weights = disc.jac_vol * ref.err_weights

    def error(coeffs, vals_t, field):
        diff = coeffs @ vals_t
        diff -= exact(field, t)
        return float(np.sqrt(np.sum(np.square(diff, out=diff) @ weights)))

    return (error(state.u, ref.err_vals_u_t, spec.exact_u),
            error(state.v, ref.err_vals_v_t, spec.exact_v))


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


def bloch_symbols(disc: Discretization) -> np.ndarray:
    """The Bloch symbols of the operator on a periodic mesh, half spectrum.

    The operator commutes with shifts of the element grid, so a mode
    a·ω^(m·j), ω = e^(2πi/n), maps to (a S(m))·ω^(m·j) with S(m) = blocks[0]
    + Σ_a (ω^(m_a) blocks[2a+2] + ω^(-m_a) blocks[2a+1]), as ``rhs`` reads
    the neighbour across high side 2a+1 one step up axis a.  The n^dim
    symbols' eigenvalues are the whole spectrum; the blocks are real, so
    S(-m) = conj S(m) and the half spectrum m_{dim-1} <= n//2 covers every
    modulus.  Returns shape (n, ..., n//2 + 1, N, N), rows as in ``rhs``.
    """
    mesh, n, blocks = disc.mesh, disc.mesh.n, disc.blocks
    if not mesh.periodic:
        raise ValueError("Bloch symbols need a periodic mesh")
    symbols = blocks[0]
    for axis, m in enumerate(np.ix_(*[np.arange(n)] * (mesh.dim - 1), np.arange(n // 2 + 1))):
        phase = np.exp((2j * np.pi / n) * m)[..., None, None]
        symbols = symbols + phase * blocks[2 * axis + 2] + phase.conj() * blocks[2 * axis + 1]
    return symbols


def sparse_operator(disc: Discretization):
    """The homogeneous operator as a CSR matrix A on the flattened stacked
    [u v] layout: A @ x.ravel() is ``rhs`` of x as one raveled [du dv].
    Each coupling (the self block, then each entry of ``_grid_couplings``)
    adds the Kronecker product of its element incidence with its block,
    transposed to act on columns."""
    from scipy import sparse

    mesh, sides = disc.mesh, 2 * disc.mesh.dim
    grid = np.arange(mesh.n_elements).reshape((mesh.n,) * mesh.dim)
    shifts, strips = _grid_couplings(mesh.dim, mesh.periodic)
    couplings = ([(0, grid, grid)] + [(1 + side, grid[dst], grid[src]) for side, dst, src in shifts]
                 + [(1 + sides + side, grid[at], grid[at]) for side, at in strips])
    return sum(sparse.kron(sparse.coo_matrix((np.ones(dst.size), (dst.ravel(), src.ravel())),
                                             shape=(grid.size,) * 2),
                           disc.blocks[block].T, format="csr")
               for block, dst, src in couplings).tocsr()


def spectral_radius_probe(disc: Discretization, seed: int = 0):
    """Spectral radius of the homogeneous semidiscrete operator.

    Returns (radius, converged).  On a periodic mesh the radius is exact,
    from ``bloch_symbols``, and converged is True.  On a physical mesh it
    comes from implicitly restarted Arnoldi (ARPACK ``eigs``, k=1,
    which="LM", tol=1e-10, at most 50 restarts) with one ``rhs`` call as its
    product, from a start vector drawn from ``default_rng(seed)``: equal
    seeds give equal radii.  ARPACK rejects a zero operator; this one, with
    c > 0, never is.  converged is True when ARPACK's residual test accepted
    the dominant Ritz value; the test bounds the residual, not the
    eigenvalue error, which on this non-normal operator can be larger.  If
    ARPACK does not converge or fails, the radius is the largest dense
    eigenvalue of ``sparse_operator`` up to _DENSE_LIMIT unknowns (converged
    True), and the largest accepted Ritz value above it.  It never raises on
    a homogeneous operator: with no finite radius (no Ritz value, or an
    operator, Bloch symbols or eigenvalues that overflow) it returns
    (NaN, False).
    """
    if disc.forcing is not None:
        raise ValueError("spectral probe requires the homogeneous operator")
    if disc.mesh.periodic:
        # blocks near overflow give symbols that are not finite, and numpy's
        # eigvals raises on a non-finite matrix
        with np.errstate(over="ignore", invalid="ignore"):
            symbols = bloch_symbols(disc)
        radius = (float(np.max(np.abs(np.linalg.eigvals(symbols))))
                  if np.all(np.isfinite(symbols)) else float("nan"))
        return (radius, True) if np.isfinite(radius) else (float("nan"), False)
    # imported here: scipy.sparse.linalg adds ~3.6 MB RSS that only this probe needs
    from scipy.sparse.linalg import (ArpackError, ArpackNoConvergence, LinearOperator,
                                      eigs)

    nu = disc.ref.n_u
    # coefficient-major vectors: rhs then reads and writes them without a
    # transpose
    buf = np.empty_like(disc.input)

    def matvec(x):
        x = x.reshape(buf.shape, order="F")
        disc.rhs(x[:, :nu], x[:, nu:], 0.0, out=buf)
        return buf.ravel(order="F")

    v0 = np.random.default_rng(seed).standard_normal(buf.size)
    op = LinearOperator((buf.size, buf.size), matvec=matvec, dtype=float)
    try:
        # 50 restarts (~2,000 products) cover the subsonic mixed2d grids up
        # to n=20 in ~1,000; with a supersonic inflow the top eigenvalues
        # are badly conditioned and ARPACK stalls at any budget
        ritz = eigs(op, k=1, which="LM", v0=v0, ncv=min(buf.size, 40), tol=1e-10,
                    maxiter=50, return_eigenvectors=False)
        converged = True
    except ArpackNoConvergence as err:
        ritz, converged = err.eigenvalues, False
    except ArpackError:
        # e.g. error -9999, no Arnoldi factorization, on products that overflow
        ritz, converged = np.zeros(0), False
    if not converged and buf.size <= _DENSE_LIMIT:
        # in rhs's row convention, the transpose: LAPACK's radius of an
        # ill-conditioned spectrum depends on which of the two it is given
        dense = sparse_operator(disc).T.toarray()
        # numpy's eigvals raises on a non-finite matrix
        if np.all(np.isfinite(dense)):
            ritz, converged = np.linalg.eigvals(dense), True
    radius = float(np.max(np.abs(ritz))) if len(ritz) else float("nan")
    if not np.isfinite(radius):
        return float("nan"), False
    return radius, converged
