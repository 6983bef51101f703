"""Legendre basis, Gauss-Legendre quadrature, and reference-element data.

Everything here lives on the reference element [-1, 1]^dim with an
unnormalized Legendre basis (P_k(1) = 1).  Geometric scaling by the element
size h is applied during operator assembly, not here.  ``ReferenceElement``
also holds the one L2 projection of each space (values at the volume nodes
to coefficients), the face trace maps and the L2-error rule.  In 2D the
basis is the tensor product P_i(z0) P_j(z1) with the same degree in each
direction; multi-indices are flattened in C order, so the constant mode is
index 0.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields

import numpy as np


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

    One pass of the three-term recurrence
    (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1} and of the derivative
    recurrence P_{j+1}' = P_{j-1}' + (2j + 1) P_j, for all points at once.
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

    proj_u and proj_v are the L2 projections onto the u and v spaces by the
    volume rule: values at vol_nodes (rows) times proj are coefficients.
    They are exact for polynomials of degree <= q per direction, so a
    derivative's coefficients are (vol_grads_u[d] @ a) @ proj_u and a v
    polynomial's u coefficients are embed_v = proj_u^T vol_vals_v.

    trace_maps[side] takes an element's stacked [u v] coefficients to the
    Legendre coefficients of its traces along the face of side (a Gauss
    projection, exact at these degrees, rounded to the integers its entries
    are): v of degree s, then the derivatives of u along each axis, the
    normal one of degree q and the tangential one of degree q-1, so
    r = (s+1)+(q+1)+q in 2D; r = 2 values of v and du/dz on a 1D point face.
    A v coordinate reads only v coefficients, and a derivative only u
    coefficients other than the constant.
    unit_v and unit_g are the face-point traces of the r unit coefficients.
    err_* is the L2-error rule, n_quad + 2 Gauss points per direction.
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
    proj_u: np.ndarray           # (Nq, Nu): volume-node values -> u coefficients
    proj_v: np.ndarray           # (Nq, Nv): volume-node values -> v coefficients
    embed_v: np.ndarray          # (Nu, Nv): v coefficients as u coefficients
    face_grads_u: np.ndarray     # (2*dim, dim, nfq, Nu); side index = 2*d + (0 low / 1 high)
    face_vals_v: np.ndarray      # (2*dim, nfq, Nv)
    face_weights: np.ndarray     # (nfq,)
    trace_maps: np.ndarray       # (2*dim, Nu+Nv, r)
    unit_v: np.ndarray           # (2*dim, r, nfq)
    unit_g: np.ndarray           # (2*dim, r, nfq, dim)
    err_nodes: np.ndarray        # (Ne, dim), Ne = (n_quad+2)^dim
    err_weights: np.ndarray      # (Ne,)
    err_vals_u_t: np.ndarray     # (Nu, Ne)
    err_vals_v_t: np.ndarray     # (Nv, Ne)

    @property
    def n_u(self) -> int:
        return self.modes_u.shape[0]

    @property
    def n_v(self) -> int:
        return self.modes_v.shape[0]


def build_reference(q: int, s: int, dim: int = 1) -> ReferenceElement:
    """Assemble all reference-element matrices for degrees (q, s).

    Quadrature uses q + 2 Gauss points per direction, exact for every
    mass/stiffness entry with margin for flux products, and the L2-error
    rule q + 4.  The element is
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
    err_nodes, err_weights = tensor_gauss(n_quad + 2, dim)   # the L2-error rule

    vol_vals_u, vol_grads_u = tensor_eval(q, dim, vol_nodes)
    vol_vals_v, vol_grads_v = tensor_eval(s, dim, vol_nodes)

    mass_u = np.diag(np.prod(2.0 / (2.0 * modes_u + 1.0), axis=1))
    mass_v = np.diag(np.prod(2.0 / (2.0 * modes_v + 1.0), axis=1))
    stiff_u = sum(
        vol_grads_u[d].T @ (vol_weights[:, None] * vol_grads_u[d]) for d in range(dim)
    )
    stiff_u = 0.5 * (stiff_u + stiff_u.T)
    mean_row = np.where(np.all(modes_u == 0, axis=1), 2.0 ** dim, 0.0)

    # exact on the u space: the rule integrates degree 2q + 3 per direction
    proj_u = vol_vals_u * (vol_weights[:, None] / np.diag(mass_u))
    proj_v = vol_vals_v * (vol_weights[:, None] / np.diag(mass_v))
    embed_v = proj_u.T @ vol_vals_v

    # face quadrature: the 1D rule along the tangential direction in 2D
    face_weights = weights.copy() if dim == 2 else np.array([1.0])
    nfq = len(face_weights)
    # point values to coefficients along a face: (2m + 1)/2 times the integral
    # against P_m, by the one-point rule (weight 2) on a 1D point face
    face_nodes, face_rule = (nodes, weights) if dim == 2 else gauss_points(1)
    face_legendre = legendre_tables(q, face_nodes)[0]          # (nfq, q+1)
    proj = (np.arange(q + 1)[:, None] + 0.5) * (face_legendre * face_rule[:, None]).T
    r = (s + 1) + (q + 1) + q if dim == 2 else 2
    face_grads_u = np.empty((2 * dim, dim, nfq, nu))
    face_vals_v = np.empty((2 * dim, nfq, nv))
    trace_maps = np.zeros((2 * dim, nu + nv, r))
    unit_v = np.zeros((2 * dim, r, nfq))
    unit_g = np.zeros((2 * dim, r, nfq, dim))
    for side in range(2 * dim):
        axis, hi = divmod(side, 2)
        pts = np.empty((nfq, dim))
        pts[:, axis] = 1.0 if hi else -1.0
        if dim == 2:
            pts[:, 1 - axis] = nodes
        face_grads_u[side] = tensor_eval(q, dim, pts)[1]
        face_vals_v[side] = tensor_eval(s, dim, pts)[0]
        # (columns of [u v], point-trace table, degree along the face, unit traces)
        parts = [(slice(nu, nu + nv), face_vals_v[side], s, unit_v[side])]
        parts += [(slice(0, nu), face_grads_u[side, d], q if d == axis else q - 1,
                   unit_g[side, ..., d]) for d in range(dim)]
        col = 0
        for rows, table, degree, unit in parts:
            if dim == 1:
                degree = 0    # a constant on a point face
            coeffs = slice(col, col + degree + 1)
            trace_maps[side, rows, coeffs] = (proj[:degree + 1] @ table).T
            unit[coeffs] = face_legendre[:, :degree + 1].T
            col += degree + 1
    # every entry is an integer: (+-1)^k, P_k'(+-1) = +-k(k+1)/2 and the
    # 2j + 1 of P_k' = sum (2j + 1) P_j; rounding drops the rule's few-ulp
    # error (up to 7e-15 at q = s = 3 in 2D)
    trace_maps = np.rint(trace_maps)

    ref = ReferenceElement(
        q=q, s=s, dim=dim, n_quad=n_quad,
        modes_u=modes_u, modes_v=modes_v,
        mass_u=mass_u, mass_v=mass_v, stiff_u=stiff_u, mean_row=mean_row,
        vol_nodes=vol_nodes, vol_weights=vol_weights,
        vol_vals_u=vol_vals_u, vol_grads_u=vol_grads_u,
        vol_vals_v=vol_vals_v, vol_grads_v=vol_grads_v,
        proj_u=proj_u, proj_v=proj_v, embed_v=embed_v,
        face_grads_u=face_grads_u, face_vals_v=face_vals_v,
        face_weights=face_weights,
        trace_maps=trace_maps, unit_v=unit_v, unit_g=unit_g,
        err_nodes=err_nodes, err_weights=err_weights,
        err_vals_u_t=tensor_eval(q, dim, err_nodes)[0].T.copy(),
        err_vals_v_t=tensor_eval(s, dim, err_nodes)[0].T.copy(),
    )
    for f in fields(ref):
        value = getattr(ref, f.name)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return ref
