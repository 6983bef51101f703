"""Discrete energy, the energy-identity cross-check (one path for a state or
a stack of states), L2 errors, rate fits, the operator's Bloch symbols and
dense matrix (both from ``Discretization.blocks``, without ``rhs`` calls),
and its spectral radius: exact from the symbols on periodic meshes, by
thick-restart Arnoldi on ``rhs`` with a certified stop on physical ones.
Everything here runs on numpy alone."""

from __future__ import annotations

import math

import numpy as np

from .mesh import FaceKind
from .operators import Discretization, ModalState, Separable, _combine, _grid_couplings


def _energy_terms(disc: Discretization, u, v, du, dv):
    """(sum v . M dv, sum u . S du) in the element energy form of disc, each
    one BLAS product and one dot product, on the transposes: those of
    coefficient-major arrays (a stepped state, ``rhs``'s input and output)
    are C-contiguous, so nothing is copied (arrays of other layouts are, by
    the dot).  M is applied as the diagonal matrix ``v_mass``, which BLAS
    takes where scaling by ``v_mass_diag`` would broadcast a column over the
    elements; S is symmetric."""
    return (np.vdot(v.T, np.dot(disc.v_mass, dv.T)),
            np.vdot(u.T, np.dot(disc.stiffness, du.T)))


def discrete_energy(state: ModalState, disc: Discretization) -> float:
    """E^h = sum_j int 1/2 v^2 + 1/2 c^2 |grad u|^2, exact via quadrature."""
    kinetic, potential = _energy_terms(disc, state.u, state.v, state.u, state.v)
    return float(0.5 * kinetic + 0.5 * potential)


def energy_identity_residual(state: ModalState, disc: Discretization):
    """Compare operator-side dE/dt against the boundary-sum formula.

    The two sides are independent code paths: the left is v.M dv + u.S du
    from one ``rhs`` call per state (no time differencing), the right the
    per-face energy rates of all states in one pass, as the face forms
    polarized from the closed-form densities
    (``Discretization.boundary_energy_rate``).  Requires
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
        # rhs leaves the state in its input, laid out like du and dv
        kinetic, potential = _energy_terms(disc, *disc.input_uv, du, dv)
        lhs[i] = kinetic + potential
        scale[i] = abs(kinetic) + abs(potential)
    rhs = disc.boundary_energy_rate(state.u, state.v)
    residual = np.abs(lhs - rhs) / np.maximum(1.0, scale)
    return lhs[()], rhs, residual


def l2_error(state: ModalState, spec, t: float, disc: Discretization):
    """Global L2 errors of u^h and v^h against the exact solutions.

    Uses the reference element's L2-error rule (``err_axis`` on each
    axis), two points per direction finer than the operator's, to keep
    aliasing below the discretization error; it integrates every product
    of basis functions exactly.  For an exact field sum_k tau_k(t) X_k, the
    first call for a discretization projects each space factor X_k onto
    the basis under the rule, one axis at a time, and keeps, in
    ``disc.error_quadrature``, the projections c_k
    (``FieldTable.projection``), the Gram matrix G of the remainders
    X_k - Pi X_k at the rule's points, summed per axis and never a
    difference of full products, and the square roots of the mass diagonal
    m, with the element Jacobian (``FieldTable.remainders``).
    The remainders are orthogonal to the basis under the rule, so the
    squared error of coefficients C is

        sum_e delta_e^T diag(m) delta_e + tau^T G tau,  delta = C - sum_k tau_k c_k,

    two terms that are not negative.  A call takes one combination of the
    K coefficient arrays, one dot product over n_elements * N scaled values
    and a K x K form, and no work at the points.  Raises TypeError unless
    both exact fields are ``Separable``.
    """
    if not (isinstance(spec.exact_u, Separable) and isinstance(spec.exact_v, Separable)):
        raise TypeError("exact fields must be Separable")
    ref, rule = disc.ref, disc.error_quadrature

    def error(coeffs, degree, field):
        tau = field.time(t)
        gram, root_mass = rule.remainders(field.space, degree)
        # coefficient-major, (N, n_elements), as a stepped state's transpose
        diff = _combine(tau, rule.projection(field.space, degree))
        np.subtract(coeffs.T, diff, out=diff)
        diff *= root_mass
        flat = diff.ravel()
        # G's form is not negative but for roundoff, which at a remainder
        # that cancels could take the sum below zero
        return math.sqrt(np.dot(flat, flat) + max(np.dot(tau, np.dot(gram, tau)), 0.0))

    return error(state.u, ref.q, spec.exact_u), error(state.v, ref.s, spec.exact_v)


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


# largest operator whose dense eigenvalues stand in for an uncertified
# Arnoldi run: about 3 s for numpy's eigvals on one core at N = 2,000
_DENSE_LIMIT = 2000

# the physical-mesh probe's certified stop: the Ritz residual relative to
# the Ritz value (ARPACK's test), and the first-order bound on the relative
# eigenvalue error at that residual, kappa(theta) times it
_RESIDUAL_TOL = 1e-10
_ERROR_BOUND = 1e-4


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


def _couplings(disc: Discretization):
    """The operator's couplings as (block, dst, src): the elements dst read
    the elements src, flat indices of equal shape, through
    ``disc.blocks[block]``.  The self block, then each shift and each
    boundary strip of ``_grid_couplings``; no (dst, src) pair repeats within
    one coupling."""
    mesh, sides = disc.mesh, 2 * disc.mesh.dim
    grid = np.arange(mesh.n_elements).reshape((mesh.n,) * mesh.dim)
    shifts, strips = _grid_couplings(mesh.dim, mesh.periodic)
    return ([(0, grid, grid)] + [(1 + side, grid[dst], grid[src]) for side, dst, src in shifts]
            + [(1 + sides + side, grid[at], grid[at]) for side, at in strips])


def _dense_operator(disc: Discretization) -> np.ndarray:
    """The homogeneous operator as a dense matrix M in ``rhs``'s row
    convention on the stacked [u v] layout, x.ravel() @ M is ``rhs`` of x
    raveled: each of ``_couplings`` adds its block at the (src, dst)
    element pairs."""
    n_el, size = disc.mesh.n_elements, disc.blocks.shape[-1]
    dense = np.zeros((n_el, size, n_el, size))
    for block, dst, src in _couplings(disc):
        dense[src.ravel(), :, dst.ravel(), :] += disc.blocks[block]
    return dense.reshape(n_el * size, n_el * size)


def _dominant_ritz(matvec, v0, ncv, tol, maxiter):
    """The largest-modulus eigenvalue of the real operator x -> matvec(x),
    by thick-restart (Krylov–Schur) Arnoldi.  Returns (theta, certified).

    Each cycle extends the Krylov decomposition A V = V B + v b^T to ncv
    vectors by Arnoldi (classical Gram–Schmidt, orthogonalized a second
    time when the first pass cancels more than 1/sqrt(2) of the product,
    as ARPACK does) and takes the eigenpairs (theta, y), |y| = 1, of B.
    The dominant one is certified when its residual is at most
    tol·|theta| and the first-order error bound at that tolerance,
    kappa·tol, at most _ERROR_BOUND, with kappa = |y|·|row of Y^-1| the
    condition number of theta from B's right and left eigenvectors
    (Trefethen & Embree, Spectra and Pseudospectra, 2005).  The residual
    is ARPACK's estimate |b^T y| and then, once that passes,
    |A x - theta x| / |x| of the Ritz vector x = V y itself, from one
    product for each nonzero part of x.  Otherwise the restart keeps an
    orthonormal basis Q of the ncv // 2 largest-modulus Ritz vectors, from
    a QR of their real and imaginary parts (one pair per conjugate pair),
    and the decomposition A (V Q) = (V Q) Q^T B Q + v (b^T Q) (Stewart,
    SIAM J. Matrix Anal. Appl. 23, 2001).  After maxiter restarts, on
    products that are not finite or on a Krylov space that is invariant,
    theta is the dominant Ritz value of the last cycle (NaN before the
    first), uncertified.  It never raises; matvec may return a buffer that
    it reuses, and the routine may overwrite it.

    The bound is taken at the tolerance, not at the achieved residual:
    kappa comes from the Krylov space alone and underestimates the
    operator's (by 1e2-5e5 on the physical meshes measured), and at the
    achieved residual, which falls to roundoff, the bound passed on radii
    1e-3 to 5e-2 from dense eigenvalues (1D grids of 180-400 unknowns,
    kappa 1e8-1e10, the operator's 1e14 and more).  The Ritz vector's own
    residual is checked because, after restarts from nearly dependent
    Ritz vectors, the estimate fell to 1e-25 while it stayed at 2e-8.
    """
    n = v0.size
    # one Krylov vector a row, so that every leading block is contiguous
    basis = np.empty((ncv + 1, n))
    proj = np.zeros((ncv + 1, ncv))
    basis[0] = v0 / np.linalg.norm(v0)
    kept, theta = 0, complex("nan")
    for _ in range(maxiter + 1):
        for j in range(kept, ncv):
            # w may be matvec's own buffer: it is overwritten in place
            w = matvec(basis[j])
            norm2 = w @ w
            # a product that is not finite leaves its squared norm NaN or
            # infinite
            if not np.isfinite(norm2):
                return theta, False
            done = basis[:j + 1]
            h = done @ w
            w -= h @ done
            beta = np.sqrt(w @ w)
            if beta * beta < 0.5 * norm2:
                again = done @ w
                w -= again @ done
                h += again
                beta = np.sqrt(w @ w)
            proj[:j + 1, j] = h
            proj[j + 1, j] = beta
            # all but 1e-8 of the product lies in the Krylov space: it is
            # invariant to roundoff, and w / beta would not be orthogonal to
            # it (on a 1D grid of 42 unknowns 1e-17 was left, and the Ritz
            # values then drifted to 2.7e5 against a radius of 15)
            if beta <= 1e-8 * np.sqrt(h @ h):
                proj[j + 1, j] = beta = 0.0
                break
            np.multiply(w, 1.0 / beta, out=basis[j + 1])
        m = j + 1
        square, residual_row = proj[:m, :m], proj[m, :m]
        try:
            ritz, vecs = np.linalg.eig(square)
        except np.linalg.LinAlgError:
            return theta, False
        top = int(np.argmax(np.abs(ritz)))
        theta = complex(ritz[top])
        if beta == 0.0 and m < n:
            # an invariant subspace: its Ritz values are exact, but the
            # largest need not be the operator's
            return theta, False
        try:
            kappa = np.linalg.norm(np.linalg.solve(vecs.T, np.eye(m)[top]))
        except np.linalg.LinAlgError:
            kappa = np.inf
        if (abs(residual_row @ vecs[:, top]) <= tol * abs(theta)
                and kappa * tol <= _ERROR_BOUND):
            ritz_vec = vecs[:, top] @ basis[:m]
            image = matvec(ritz_vec.real).copy()
            if theta.imag:
                image = image + 1j * matvec(ritz_vec.imag)
            if (np.linalg.norm(image - theta * ritz_vec)
                    <= tol * abs(theta) * np.linalg.norm(ritz_vec)):
                return theta, True
        if m == n:
            return theta, False
        parts = []
        for i in np.argsort(-np.abs(ritz), kind="stable"):
            if len(parts) >= ncv // 2:
                break
            if ritz[i].imag == 0:
                parts.append(vecs[:, i].real)
            elif ritz[i].imag > 0:
                parts += [vecs[:, i].real, vecs[:, i].imag]
        q, _ = np.linalg.qr(np.array(parts).T)
        kept = q.shape[1]
        basis[:kept], basis[kept] = q.T @ basis[:m], basis[m]
        square, residual_row = q.T @ square @ q, residual_row @ q
        proj[:] = 0.0
        proj[:kept, :kept], proj[kept, :kept] = square, residual_row
    return theta, False


def spectral_radius_probe(disc: Discretization, seed: int = 0):
    """Spectral radius of the homogeneous semidiscrete operator.

    Returns (radius, converged).  On a periodic mesh the radius is exact,
    from ``bloch_symbols``, and converged is True.  On a physical mesh it
    is the modulus of ``_dominant_ritz``'s dominant Ritz value (ncv =
    min(N, 40), tolerance _RESIDUAL_TOL, at most 50 restarts), with one
    ``rhs`` call as its product, from a start vector drawn from
    ``default_rng(seed)``: equal seeds give bitwise-equal radii.  converged
    is True when that value is certified, except on a mesh with a
    supersonic axis (|w_a| > c), whose top eigenvalues are too
    ill-conditioned for any certificate from the right Krylov space alone.
    Otherwise an operator of at most _DENSE_LIMIT unknowns gives the
    radius from the eigenvalues of ``_dense_operator`` (converged True;
    with a supersonic axis it goes there directly), and a larger one the
    uncertified Ritz value (converged False).  The probe loads no scipy.
    It never raises on a homogeneous operator: with no finite radius
    (products, Bloch symbols or eigenvalues that overflow) it returns
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
    # coefficient-major vectors: a Krylov vector is the entries of rhs's
    # input in memory order, copied there in one piece (the F-order ravel
    # of the coefficient-major input is a view), and rhs writes its image
    # without a transpose
    buf = np.empty_like(disc.input)
    x_flat, x_uv = disc.input.ravel(order="F"), disc.input_uv

    def matvec(x):
        x_flat[...] = x
        disc.rhs(*x_uv, 0.0, out=buf)
        return buf.ravel(order="F")

    # on mixed2d with w = (1.5, 0.3), q = 2, s = 1, the stop certified radii
    # 1e-2 and 7e-3 from dense eigenvalues at n = 10 and 13, with kappa
    # 1e4-1e5 against the operator's 1e15
    supersonic = any(kinds[0] == FaceKind.INTERIOR_SUPERSONIC for kinds in disc.face_kinds)
    theta, converged = complex("nan"), False
    if not supersonic or buf.size > _DENSE_LIMIT:
        v0 = np.random.default_rng(seed).standard_normal(buf.size)
        theta, certified = _dominant_ritz(matvec, v0, min(buf.size, 40), _RESIDUAL_TOL, 50)
        converged = certified and not supersonic
    radius = abs(theta)
    if not converged and buf.size <= _DENSE_LIMIT:
        # in rhs's row convention, not its transpose: LAPACK's radius of an
        # ill-conditioned spectrum depends on which of the two it is given
        dense = _dense_operator(disc)
        # numpy's eigvals raises on a non-finite matrix
        if np.all(np.isfinite(dense)):
            radius, converged = np.max(np.abs(np.linalg.eigvals(dense))), True
    if not np.isfinite(radius):
        return float("nan"), False
    return float(radius), converged
