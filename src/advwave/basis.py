"""Legendre basis, Gauss-Legendre quadrature, and reference-element data.

Everything here lives on the reference element [-1, 1]^dim with an
unnormalized Legendre basis (P_k(1) = 1).  Geometric scaling by the element
size h is applied during operator assembly, not here.  In 2D the basis is
the tensor product P_i(z0) P_j(z1) with the same degree in each direction;
multi-indices are flattened in C order, so the constant mode is index 0.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields

import numpy as np


def legendre_eval(k: int, x) -> np.ndarray:
    """Evaluate P_k(x) via the three-term recurrence.

    Works for scalar or array x; evaluation outside [-1, 1] is permitted
    but unchecked.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if k == 0:
        return p_prev[()]
    p = x.copy()
    for j in range(1, k):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p[()]


def legendre_derivative(k: int, x) -> np.ndarray:
    """Evaluate P_k'(x) via the derivative recurrence P_k' = P_{k-2}' + (2k-1) P_{k-1}."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    if k == 0:
        return np.zeros_like(x)[()]
    # track (P_{j-1}, P_j) and (P_{j-1}', P_j')
    p_prev, p = np.ones_like(x), x.copy()
    d_prev, d = np.zeros_like(x), np.ones_like(x)
    for j in range(1, k):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
        d_prev, d = d, d_prev + (2 * j + 1) * p_prev
    return d[()]


def gauss_points(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] (exact for degree <= 2n-1)."""
    if n < 1:
        raise ValueError("need at least one quadrature point")
    return np.polynomial.legendre.leggauss(n)


def tensor_points(x: np.ndarray, dim: int) -> np.ndarray:
    """All dim-tuples of the 1D points x in C order, shape (len(x)^dim, dim)."""
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def tensor_gauss(n: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre rule on [-1, 1]^dim with n points per direction:
    the nodes in C order and their weights."""
    nodes, weights = gauss_points(n)
    return tensor_points(nodes, dim), np.prod(tensor_points(weights, dim), axis=1)


def legendre_tables(degree: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matrices V[m, k] = P_k(x_m) and D[m, k] = P_k'(x_m), k = 0..degree.

    One pass of the recurrences of legendre_eval and legendre_derivative,
    with the same arithmetic, so the entries are bitwise equal to theirs.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    vals = np.empty((x.shape[0], degree + 1))
    ders = np.empty_like(vals)
    vals[:, 0], ders[:, 0] = 1.0, 0.0
    if degree >= 1:
        vals[:, 1], ders[:, 1] = x, 1.0
    for j in range(1, degree):
        vals[:, j + 1] = ((2 * j + 1) * x * vals[:, j] - j * vals[:, j - 1]) / (j + 1)
        ders[:, j + 1] = ders[:, j - 1] + (2 * j + 1) * vals[:, j]
    return vals, ders


def modal_derivative_matrix(degree: int) -> np.ndarray:
    """Coefficient matrix of d/dz in the Legendre basis.

    If p = sum_k a_k P_k then p' = sum_j (D a)_j P_j, using
    P_k' = sum over j < k, k-j odd, of (2j+1) P_j.
    """
    D = np.zeros((degree + 1, degree + 1))
    for k in range(degree + 1):
        for j in range(k - 1, -1, -2):
            D[j, k] = 2 * j + 1
    return D


def tensor_modes(degree: int, dim: int) -> np.ndarray:
    """All multi-indices (k_0, ..., k_{dim-1}) with k_d <= degree, C order."""
    return np.array(list(itertools.product(range(degree + 1), repeat=dim)), dtype=int)


def tensor_eval(degree: int, dim: int, pts: np.ndarray):
    """Evaluate the tensor-product Legendre basis and its gradient.

    pts has shape (npts, dim).  Returns (vals, grads) with vals of shape
    (npts, N) and grads of shape (dim, npts, N), N = (degree+1)^dim.
    The gradient is with respect to the reference coordinates.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    modes = tensor_modes(degree, dim)
    per_dim_vals, per_dim_ders = zip(*(legendre_tables(degree, pts[:, d])
                                       for d in range(dim)))
    n = len(modes)
    vals = np.ones((pts.shape[0], n))
    for d in range(dim):
        vals *= per_dim_vals[d][:, modes[:, d]]
    grads = np.empty((dim, pts.shape[0], n))
    for gd in range(dim):
        g = np.ones((pts.shape[0], n))
        for d in range(dim):
            table = per_dim_ders[d] if d == gd else per_dim_vals[d]
            g *= table[:, modes[:, d]]
        grads[gd] = g
    return vals, grads


@dataclass(frozen=True)
class ReferenceElement:
    """Precomputed reference-element quantities shared by all elements.

    Matrix conventions: integrals are over [-1, 1]^dim without geometric
    Jacobians.  mass_v is diagonal with entries prod_d 2/(2 k_d + 1);
    stiff_u is sum_d int dP/dz_d dP/dz_d, symmetric PSD with the constant
    mode in its nullspace; mean_row integrates each u basis function.
    Immutable after construction (every array is read-only); safe to share.
    """

    q: int
    s: int
    dim: int
    n_quad: int
    modes_u: np.ndarray          # (Nu, dim)
    modes_v: np.ndarray          # (Nv, dim)
    mass_u: np.ndarray           # (Nu, Nu) diagonal
    mass_v: np.ndarray           # (Nv, Nv) diagonal
    stiff_u: np.ndarray          # (Nu, Nu)
    mean_row: np.ndarray         # (Nu,)
    vol_nodes: np.ndarray        # (Nq, dim) tensor quadrature points
    vol_weights: np.ndarray      # (Nq,)
    vol_vals_u: np.ndarray       # (Nq, Nu)
    vol_grads_u: np.ndarray      # (dim, Nq, Nu)
    vol_vals_v: np.ndarray       # (Nq, Nv)
    vol_grads_v: np.ndarray      # (dim, Nq, Nv)
    deriv_u: np.ndarray          # (dim, Nu, Nu) modal d/dz_d in u space
    embed_v: np.ndarray          # (Nu, Nv): v coefficients injected into u space
    face_grads_u: np.ndarray     # (2*dim, dim, nfq, Nu); side index = 2*d + (0 low / 1 high)
    face_vals_v: np.ndarray      # (2*dim, nfq, Nv)
    face_weights: np.ndarray     # (nfq,)

    @property
    def n_u(self) -> int:
        return self.modes_u.shape[0]

    @property
    def n_v(self) -> int:
        return self.modes_v.shape[0]


def build_reference(q: int, s: int, dim: int = 1) -> ReferenceElement:
    """Assemble all reference-element matrices for degrees (q, s).

    Quadrature uses q + 2 Gauss points per direction, exact for every
    mass/stiffness entry with margin for flux products.  The element is
    built once per process: equal arguments return the same object.
    """
    if q < 1:
        raise ValueError("u degree q must be >= 1")
    if s < 0 or s > q:
        raise ValueError("v degree s must satisfy 0 <= s <= q")
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    return _build_reference(q, s, dim)


@functools.cache
def _build_reference(q: int, s: int, dim: int) -> ReferenceElement:
    n_quad = q + 2
    nodes, weights = gauss_points(n_quad)
    modes_u = tensor_modes(q, dim)
    modes_v = tensor_modes(s, dim)
    nu, nv = len(modes_u), len(modes_v)

    vol_nodes, vol_weights = tensor_gauss(n_quad, dim)

    vol_vals_u, vol_grads_u = tensor_eval(q, dim, vol_nodes)
    vol_vals_v, vol_grads_v = tensor_eval(s, dim, vol_nodes)

    mass_u = np.diag(np.prod(2.0 / (2.0 * modes_u + 1.0), axis=1))
    mass_v = np.diag(np.prod(2.0 / (2.0 * modes_v + 1.0), axis=1))
    stiff_u = sum(
        vol_grads_u[d].T @ (vol_weights[:, None] * vol_grads_u[d]) for d in range(dim)
    )
    stiff_u = 0.5 * (stiff_u + stiff_u.T)
    mean_row = np.where(np.all(modes_u == 0, axis=1), 2.0 ** dim, 0.0)

    d1 = modal_derivative_matrix(q)
    eye = np.eye(q + 1)
    if dim == 1:
        deriv_u = d1[None, :, :]
    else:
        deriv_u = np.stack([np.kron(d1, eye), np.kron(eye, d1)])

    embed_v = np.zeros((nu, nv))
    index_u = {tuple(m): i for i, m in enumerate(modes_u)}
    for j, m in enumerate(modes_v):
        embed_v[index_u[tuple(m)], j] = 1.0

    # face quadrature: the 1D rule along the tangential direction in 2D
    face_weights = weights.copy() if dim == 2 else np.array([1.0])
    nfq = len(face_weights)
    face_grads_u = np.empty((2 * dim, dim, nfq, nu))
    face_vals_v = np.empty((2 * dim, nfq, nv))
    for side in range(2 * dim):
        d, hi = divmod(side, 2)
        pts = np.empty((nfq, dim))
        pts[:, d] = 1.0 if hi else -1.0
        if dim == 2:
            pts[:, 1 - d] = nodes
        face_grads_u[side] = tensor_eval(q, dim, pts)[1]
        face_vals_v[side] = tensor_eval(s, dim, pts)[0]

    ref = ReferenceElement(
        q=q, s=s, dim=dim, n_quad=n_quad,
        modes_u=modes_u, modes_v=modes_v,
        mass_u=mass_u, mass_v=mass_v, stiff_u=stiff_u, mean_row=mean_row,
        vol_nodes=vol_nodes, vol_weights=vol_weights,
        vol_vals_u=vol_vals_u, vol_grads_u=vol_grads_u,
        vol_vals_v=vol_vals_v, vol_grads_v=vol_grads_v,
        deriv_u=deriv_u, embed_v=embed_v,
        face_grads_u=face_grads_u, face_vals_v=face_vals_v,
        face_weights=face_weights,
    )
    for f in fields(ref):
        value = getattr(ref, f.name)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return ref
