"""Semidiscrete DG operator, assembled once into blocks, applied as a stencil.

The evolving unknown is a pair of modal coefficient arrays of shape
(n_elements, N_u) and (n_elements, N_v).  On a uniform Cartesian mesh with
constant w the operator is linear, time-invariant and translation-invariant:
every interior face of an axis has the same flux kind, so the derivative of
an element depends only on its own coefficients and on those of its 2*dim
face neighbours, through the same dense blocks for every element.

The couplings are assembled once per operator family (degrees, flux, w, c and
flux kinds) into one read-only record, ``Family`` (``_family_reference``, the
one bounded LRU cache of families), with the u-system
solve (LAPACK's gesv through numpy, so time stepping loads no scipy) and the
v mass inverse folded in (the LIFT = M^-1 E idiom of nodal DG methods), from
one model: a neighbour acts on an element only through its traces on their
shared face (v, and grad u), held as r coefficients along the face
(r = (s+1)+(q+1)+q in 2D against the N = (q+1)^2+(s+1)^2 of an element,
11 of 32 at q = s = 3; r = 2 on a 1D point face).  A trace map T_s (N x r,
``ReferenceElement.trace_maps``) takes an element's coefficients to its traces
on side s, and the flux and face-lifting code gives, once, the lift (r x N) of
the r unit traces (``unit_v``, ``unit_g``) in three roles: own traces on side
s against a zero neighbour (L_s^own), the neighbour's traces across side s
(L_s), and on physical meshes the change a boundary closure on side s makes to
the own-trace lift (L_{2dim+s}).  The self block is the volume block plus the
sum over sides of T_s L_s^own; the neighbour across side s couples through
T_{s^1} L_s and a boundary side through T_s L_{2dim+s}.  These N x N products
are kept as ``Discretization.blocks``, the operator's one description, from
which ``diagnostics`` builds its Bloch symbols and dense matrix.  The
family's reference is assembled at one element size h_ref (2, unit Jacobians,
unless c is tiny in 1D), and the operator is scale-covariant, so a grid of
size h only scales and allocates: it multiplies each entry of the family's
blocks and lift factor by k = h_ref/h to the entry's power, which the family
records, exactly for a power-of-two ratio and to roundoff otherwise.  Every
grid comes from the same reference, so nothing a grid gets depends on what
the process built before.

``rhs`` works coefficient-major (one column per element) in one operand G,
whose first N rows are [u v] and whose other rows hold a slot per lift:
shifted copies of whole runs of elements move what each element shows
across a face into the slots of the elements that read it (and on physical
meshes an element's own into its boundary slots), and one product of
[self block; lifts]^T with G is the derivative, written straight into the
transpose of out.  In 2D a slot holds the r traces of a face, and the lifts
are the L above; in 1D it holds the element's N coefficients, and the lifts
are the neighbour blocks and boundary corrections.  The 2D traces come from
two products, one per field, of the T_s^T stacked coordinate-major: in the
modal basis a v trace reads only v coefficients and a derivative of u only
the u coefficients past the constant, so each product leaves out the zero
half of T_s (1,408 multiply-adds an element become 676 at q = s = 3).  A
separable forcing sum_k tau_k(t) F_k rides in the lift product: the
projections of the F_k are rows of G, written at build time, and the
tau_k(t) are entries of the lift factor.

G holds only the rows some column of the lift factor reads.  The fluxes make
parts of the operator exactly zero: with a dissipative flux a supersonic
interior face takes every state from upwind, and a supersonic boundary pins
both states or imposes nothing.  So the ``Family`` records, once per
family, the rows of each lift that are not all zero; a slot holds the
smallest run of rows that contains them, a lift that is all zero has no
slot (the downwind neighbour across a supersonic face, a supersonic
boundary side), and the product starts at [u v]'s second row, as no block
reads an element's own u constant.  Of the slot rows, 12 of 64 go in mixed2d
q = 2 with the Sommerfeld flux, and 37 of 80 with q = 3, s = 2 and
w = (1.5, 0.3).  In 2D the trace products compute only the sides that some
kept slot reads: 3 of 4 in that last family, 2 of 4 on a periodic grid
supersonic on both axes.  ``blocks`` keep every row.

``matrix_free_rhs`` keeps the face-by-face evaluation of the homogeneous
operator, built directly at the grid's size, the reference the assembled (and
scaled) one is tested against.  It and the energy audit
(``boundary_energy_rate``) walk the face sets of ``_grid_couplings``, the
grid's one record of adjacency (``Discretization._face_sets``), each with
its flux kind from ``face_kinds``, classified once per discretization.  The
audit evaluates each face's energy rate as a quadratic form z^T Q_k z on
its trace coordinates z, stacked states included: Q_k, one per face kind,
is polarized from the closed-form density ``fluxes.energy_rate_density``
on the unit traces, once per family and on first use
(``Family.face_forms``), and every grid of the family reads it as built:
the audit scales the coordinates to the grid instead, the gradient ones by
2/h, and the sum by the face Jacobian.  The audit so keeps two independent
sides, the assembled blocks and the closed-form densities, and never builds
a ``Trace`` per state.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fluxes
from .basis import ReferenceElement, build_reference
from .fluxes import FluxParams, Trace
from .mesh import MeshTopology, classify_mesh

# the element solve: LAPACK's gesv, a partial-pivoting LU (getrf) and its
# triangular solves (getrs), through numpy, so stepping never loads scipy
lu_solve = np.linalg.solve


@dataclass
class ModalState:
    """Per-element Legendre coefficients of u and v at time t.

    u has shape (n_elements, (q+1)^dim), v has shape (n_elements, (s+1)^dim).
    """

    u: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def copy(self) -> "ModalState":
        return ModalState(self.u.copy(), self.v.copy(), self.t)


@dataclass(frozen=True)
class Separable:
    """A field f(x, t) = sum_k time(t)[k] * space(x_0, ..., x_{dim-1})[k].

    space takes one coordinate array per axis, ``space(*coords)``; the
    arrays broadcast against each other, and it returns K factors (a
    sequence, or a (K, ...) array) that broadcast to their common shape.
    time maps a scalar time to an array (K,).  The v-equation forcing and
    the exact solutions have this form, and each of their space factors
    is a function of one coordinate or a product of such, so on a
    tensor-product rule (``FieldTable``) their sin, cos and exp run on the
    n*p coordinates of an axis, not on all (n*p)^dim points; the factors
    are evaluated once, and each call combines what is kept of them (their
    values, or their projections) with the time factors;
    ``Discretization`` keeps a forcing's projections as operand rows and
    writes its time factors into its lift factor.  time must be a pure
    function of t: ``Discretization.rhs`` reuses the time factors it wrote
    at the time of its previous call.
    Called with positions x of shape (..., dim), the field is evaluated at
    those points, with ``x[..., d]`` as axis d's coordinates.
    """

    space: Callable
    time: Callable

    def __call__(self, x, t):
        x = np.asarray(x, dtype=float)
        factors = self.space(*(x[..., d] for d in range(x.shape[-1])))
        return _combine(self.time(t), _stack(factors, x.shape[:-1]))


def _stack(factors, shape):
    """The K space factors as one (K,) + shape array: factors already of that
    shape as they are, others broadcast into a new array.

    A factor with all of shape's axes is broadcast over the trailing half (a
    tensor rule's points) first, then over the leading half (the elements):
    numpy's assignment loop runs over the last axis alone, p long and of
    stride 0 for a factor of one axis.  A periodic2d factor at q = 3, n = 28
    took 21-37 us written straight into its table and 9-16 us in two steps
    (medians of 300 calls, 2-vCPU Xeon VM).
    """
    if isinstance(factors, np.ndarray) and factors.shape[1:] == shape:
        return factors
    out = np.empty((len(factors),) + shape)
    half = len(shape) // 2
    for row, factor in zip(out, factors):
        if np.ndim(factor) == len(shape) and np.shape(factor)[half:] != shape[half:]:
            inner = np.empty(np.shape(factor)[:half] + shape[half:])
            inner[...] = factor
            factor = inner
        row[...] = factor
    return out


def _combine(g, f):
    """sum_k g[k] * f[k] for time factors g and space factors f.

    np.dot, not the @ operator: with one time factor (K = 1) numpy 2.4's
    matmul leaves BLAS for a slow loop, 11.7 us against np.dot's 3.8 at
    7,056 points."""
    return np.dot(g, f.reshape(len(g), -1)).reshape(f.shape[1:])


# the most values (K factors at every point of its elements) a block of
# ``FieldTable.projection``'s build holds: 125 KB, under glibc's default
# 128 KiB threshold for allocating by mmap, so the blocks reuse heap memory
# instead of faulting in fresh pages.  On periodic2d at q = 3, n = 28 (K = 4)
# the build took 0.86 ms in 14 blocks, 1.11 in 28 (8,192 values) and 1.69
# in 56 (4,096; best of 15 interleaved rounds, one BLAS thread, 2-vCPU
# Xeon VM)
PROJECTION_BLOCK = 16000


def _element_blocks(n: int, dim: int, per: int):
    """Blocks of at most per elements of an n^dim grid, each whole rows of
    it or a run of one row: a run of the elements' C order.  Yields (index,
    first): the slices of the element axes, and the first flat index."""
    steps = (min(n, max(1, per // n)),) * (dim - 1) + (min(n, per),)
    for corner in itertools.product(*(range(0, n, step) for step in steps)):
        first = 0
        for i in corner:
            first = first * n + i
        yield tuple(slice(i, min(i + step, n)) for i, step in zip(corner, steps)), first


class FieldTable:
    """Separable fields at the points of a tensor-product rule on every
    element of a mesh.

    nodes are the rule's points on the reference element, (p^dim, dim) in C
    order.  The coordinates of axis d are the n*p values center + (h/2) node
    of that axis, placed at axes d and dim + d of the broadcast shape
    (n,)*dim + (p,)*dim, which reshapes to (n_elements, p^dim) in the
    mesh's and the rule's C order; so a field's space factors are evaluated
    per axis and broadcast, with the values of an evaluation at every
    point.  Each distinct space callable is evaluated once, on first use,
    and kept in one of two forms.  Keying by the callable itself means a
    field of another problem never reads another's values.

    ``factors`` keeps the (K, n_elements, p^dim) values, so fields that
    share one callable (u and v of the periodic problems, and lifted
    periodic1d's forcing) share one table; a call then only combines it
    with the time factors.  The volume rule's table keeps these.

    ``projection``, on a rule given its weights (those of the L2-error
    rule, with the element Jacobian), keeps instead what a field's L2
    error against a modal state needs.  For a field u = sum_k tau_k X_k
    and a basis V whose products the rule integrates exactly (mass m, a
    diagonal), it is the rule's L2 projection c_k of each X_k and the
    Gram matrix G of the remainders r_k = X_k - V c_k at the points.  The
    r_k are orthogonal to V under the rule, so the error of coefficients C
    is ||C - sum_k tau_k c_k||_m^2 + tau^T G tau, a sum of two terms that
    are not negative: one combination of K coefficient arrays and one dot
    product over n_elements * N values a call, and no work at the points.
    """

    def __init__(self, mesh: MeshTopology, nodes: np.ndarray, weights=None):
        dim, n = mesh.dim, mesh.n
        p = round(len(nodes) ** (1.0 / dim))
        # in a C-order tensor grid the last coordinate of the first rows
        # runs through the 1D values
        axis = mesh.element_centers[:n, -1][:, None] + (mesh.h / 2.0) * nodes[:p, -1]
        self.coords = (axis,) if dim == 1 else (axis[:, None, :, None], axis[None, :, None, :])
        self.shape = (n,) * dim + (p,) * dim
        self._table_shape = (-1, n ** dim, p ** dim)
        self._tables = {}
        self.weights = weights
        self._projections = {}

    def factors(self, space: Callable) -> np.ndarray:
        """The (K, n_elements, p^dim) values of space's K factors."""
        table = self._tables.get(space)
        if table is None:
            table = self._tables[space] = _stack(space(*self.coords),
                                                 self.shape).reshape(self._table_shape)
        return table

    def __call__(self, field: Separable, t: float) -> np.ndarray:
        if not isinstance(field, Separable):
            raise TypeError("expected a Separable field")
        return _combine(field.time(t), self.factors(field.space))

    def projection(self, space: Callable, vals_t: np.ndarray):
        """(c, G, root_mass) of space's K factors on the basis whose values
        at the rule's points are vals_t, (N, p^dim): the (K, N, n_elements)
        projections, coefficient-major like a stepped state, the (K, K) Gram
        matrix of the remainders and the square roots of the mass diagonal
        of each element, (N, n_elements), each with the weights' Jacobian.

        Built on first use for each callable and basis size, without the
        point values: one evaluation of space, then element blocks of at
        most PROJECTION_BLOCK values, so a grid whose K factors fit is one
        block.  A table serves one reference
        element, in which equal sizes are equal degrees, so u and v of one
        callable share an entry when q = s.
        """
        key = (space, len(vals_t))
        entry = self._projections.get(key)
        if entry is None:
            entry = self._projections[key] = self._project(space, vals_t)
        return entry

    def _project(self, space: Callable, vals_t: np.ndarray):
        shape, n_pts = self.shape, vals_t.shape[1]
        dim, n = len(shape) // 2, shape[0]
        # the factors and the basis scaled by the square roots of the
        # weights, so that a remainder's squared norm is its sum of squares.
        # A factor is scaled before it is broadcast over the elements: it
        # then holds every point of an element, and a block's copy runs over
        # p^dim values at a time, not over p values of stride 0
        root_weights = np.sqrt(self.weights)
        scaled = vals_t * root_weights
        mass = np.sum(scaled * scaled, axis=1)
        proj = (scaled / mass[:, None]).T
        root_weights = root_weights.reshape(shape[dim:])
        factors = [np.broadcast_to(f * root_weights, shape) for f in space(*self.coords)]
        k = len(factors)
        coeffs = np.empty((k, len(vals_t), n ** dim))
        gram = np.zeros((k, k))
        # the K factors of a block hold at most PROJECTION_BLOCK values
        per = max(1, PROJECTION_BLOCK // (n_pts * k))
        for index, first in _element_blocks(n, dim, per):
            block = np.empty((k,) + tuple(cut.stop - cut.start for cut in index) + shape[dim:])
            for row, f in zip(block, factors):
                row[...] = f[index]
            values = block.reshape(k, -1, n_pts)
            c = values @ proj
            coeffs[:, :, first:first + values.shape[1]] = c.transpose(0, 2, 1)
            # the scaled remainders at the points
            rest = c @ scaled
            rest -= values
            rest = rest.reshape(k, -1)
            gram += rest @ rest.T
        # the square roots of the mass, broadcast over the elements: a call
        # scales by them in numpy's contiguous loop
        root_mass = np.repeat(np.sqrt(mass)[:, None], n ** dim, axis=1)
        return coeffs, gram, root_mass


def element_scale(dim: int, h: float, c: float) -> float:
    """c^2 (h/2)^dim (2/h)^2, the factor of the element's energy stiffness.

    Raises ValueError unless it is a finite normal number: c^2 can overflow
    to an infinite element system, or underflow to a singular one (or,
    subnormal, to one with a few significant bits).
    """
    # c (c (2/h)^(2 - dim)), the same number: c^2 alone underflows to a
    # subnormal for a c whose scale is normal (in 1D, at a fine grid)
    scale = c * (c * (2.0 / h) ** (2 - dim))
    if not np.finfo(float).tiny <= scale < np.inf:
        raise ValueError(f"wave speed c = {c!r} makes the element system infinite or "
                         f"singular: its scale c^2 (h/2)^dim (2/h)^2 is {scale!r}")
    return scale


@functools.cache
def _grid_couplings(dim: int, periodic: bool):
    """The element couplings of a dim-dimensional grid, as index tuples on
    it; built once per process for each kind of grid.  They are the only
    record of which element meets which across which side: ``rhs`` couples
    through them, and ``Discretization._face_sets`` takes the faces of the
    reference and of the energy audit from them.

    Returns (shifts, strips).  shifts holds (side, dst, src), in side order:
    the elements at dst read their neighbour across side from src, one step
    up the side's axis for a high side and one step down for a low one, and
    on a periodic grid the layer at the far end wraps around (a second
    shift of the side, after the inner layers).  strips holds, on a
    physical grid, (side, layer): the elements whose side is a boundary.
    """
    def at(axis, index):
        grid = [slice(None)] * dim
        grid[axis] = index
        return tuple(grid)

    shifts, strips = [], []
    inner, outer = slice(0, -1), slice(1, None)
    for side in range(2 * dim):
        axis, hi = divmod(side, 2)
        pairs = [(inner, outer) if hi else (outer, inner)]
        if periodic:
            pairs.append((-1, 0) if hi else (0, -1))
        else:
            strips.append((side, at(axis, -1 if hi else 0)))
        shifts += [(side, at(axis, dst), at(axis, src)) for dst, src in pairs]
    return tuple(shifts), tuple(strips)


# OpenBLAS runs a product of at most 10^6 multiply-adds through its
# small-matrix kernels: in column blocks of at most that many, 2D rhs's
# lift product took 6 % less time than in one block on a periodic q = 3
# grid of 784 elements (2 blocks; 95 against 101 us), and its gradient
# trace product 40 % less on one of 3,136 (1.3 million, 2 blocks; 49
# against 81 us), where at 784 both trace products fit in one block (0.20
# and 0.33 million; AVX-512 Xeon, one thread; medians of interleaved
# rounds).  A product that fits in one block (every 1D lift product at the
# grids in use) reads and writes contiguous arrays and runs through np.dot:
# the same BLAS product, bit for bit, for 0.5-0.8 us less a call than
# np.matmul (the 1D q = 3 lift product at n = 10, 40, 160: 1.8, 1.1, 3.5
# against 2.5, 1.6, 4.0 us).  A block writes a strided column slice, which
# np.dot does not take, so blocks run through np.matmul
SMALL_PRODUCT = 10 ** 6


def _column_blocks(a: np.ndarray, n_columns: int):
    """Equal column slices of an n_columns-wide operand b that compute
    a @ b in blocks of at most SMALL_PRODUCT multiply-adds each."""
    per_block = max(1, SMALL_PRODUCT // a.size)
    size = -(-n_columns // -(-n_columns // per_block))
    return [slice(i, i + size) for i in range(0, n_columns, size)]


def _bound_products(a: np.ndarray, b: np.ndarray, out: np.ndarray):
    """The calls that write a @ b into out, bound once: one np.dot for a
    product in one column block, else one np.matmul per block (see
    SMALL_PRODUCT).  b and out are C-contiguous."""
    cols = _column_blocks(a, b.shape[1])
    if len(cols) == 1:
        return [functools.partial(np.dot, a, b, out)]
    return [functools.partial(np.matmul, a, b[:, c], out[:, c]) for c in cols]


class _Element:
    """The element terms of the operator at element size h: the energy form
    (see ``Discretization``), the volume terms, the face lifting and the
    element solve, from which ``assemble`` builds the blocks and lifts.

    The energy form is built with the element, the volume matrices on first
    use, by a family's reference assembly (``_family_reference``) and by
    ``Discretization.matrix_free_rhs``.  The element solve is LAPACK's gesv
    through numpy (``lu_solve``), which factors u_system on each call: a
    reference assembly solves once, for all its right sides together.
    """

    def __init__(self, ref: ReferenceElement, w: np.ndarray, c: float, h: float):
        dim = ref.dim
        self.ref, self.w, self.c = ref, w, c
        self.jac_vol = (h / 2.0) ** dim
        self.jac_face = (h / 2.0) ** (dim - 1)
        self.dscale = 2.0 / h
        self.scale = element_scale(dim, h, c)
        self.stiffness = self.scale * ref.stiff_u
        self.u_system = self.stiffness.copy()
        self.u_system[0, :] = self.jac_vol * ref.mean_row
        self.v_mass_diag = self.jac_vol * np.diag(ref.mass_v)
        for form in (self.stiffness, self.u_system, self.v_mass_diag):
            form.flags.writeable = False

    # volume matrices (applied to coefficient rows from the right)

    @functools.cached_property
    def adv_v(self) -> np.ndarray:
        ref = self.ref
        return self.jac_vol * self.dscale * sum(
            self.w[d] * ref.vol_vals_v.T @ (ref.vol_weights[:, None] * ref.vol_grads_v[d])
            for d in range(ref.dim))

    @functools.cached_property
    def stiff_vu(self) -> np.ndarray:
        ref = self.ref
        return self.scale * sum(
            ref.vol_grads_v[d].T @ (ref.vol_weights[:, None] * ref.vol_grads_u[d])
            for d in range(ref.dim))

    @functools.cached_property
    def adv_modal_u(self) -> np.ndarray:
        """The advective derivative w . grad in the u space: the projection
        of its values at the volume nodes.  Each direction's table is an
        integer matrix (P_k' sums (2j + 1) P_j), so rounding drops the
        rule's few-ulp error: kept, it raised a central flux's energy-audit
        residual 3.5-5x (periodic1d q = 3 n = 40: 6.5e-10 to 2.4e-9)."""
        ref = self.ref
        return self.dscale * sum(
            self.w[d] * np.rint(ref.proj_u.T @ ref.vol_grads_u[d]) for d in range(ref.dim))

    @functools.cached_property
    def v_mass_inv(self) -> np.ndarray:
        return 1.0 / self.v_mass_diag

    def volume_terms(self, u: np.ndarray, v: np.ndarray):
        """Volume parts of the u and v right-hand sides, and w . grad u - v
        as coefficients in the u space (projected by ``proj_u``)."""
        p = u @ self.adv_modal_u.T - v @ self.ref.embed_v.T
        rhs_v = -(v @ self.adv_v.T) - (u @ self.stiff_vu.T)
        rhs_u = -(p @ self.stiffness.T)
        return rhs_u, rhs_v, p

    def lift_faces(self, rhs_u, rhs_v, vstar, gstar, vtr, gtr) -> None:
        """Add the face terms of every side to rhs_u and rhs_v in place."""
        ref, c, scale = self.ref, self.c, self.scale
        wf = ref.face_weights
        for side in range(2 * ref.dim):
            axis, hi = divmod(side, 2)
            sign_out = 1.0 if hi else -1.0
            wn_out = sign_out * self.w[axis]
            dv_star = vstar[side] - vtr[side]
            gn_star_out = sign_out * gstar[side][..., axis]
            # v equation: c^2 phi grad u* . n - (v* - v) phi w . n
            av = wf * (c * (c * gn_star_out) - dv_star * wn_out)
            rhs_v += self.jac_face * (av @ ref.face_vals_v[side])
            # u equation: c^2 (v* - v) dphi/dn - c^2 grad phi . (grad u* - grad u) w . n,
            # whose factor c^2 jac_face dscale is the element scale
            rhs_u += sign_out * scale * ((wf * dv_star) @ ref.face_grads_u[side, axis])
            for d in range(ref.dim):
                diff = gstar[side][..., d] - gtr[side][..., d]
                rhs_u -= scale * wn_out * ((wf * diff) @ ref.face_grads_u[side, d])

    def element_solve(self, rhs_u, rhs_v, p):
        """Impose the mean constraint and apply the element inverses."""
        # the mean constraint replaces the constant-test row: u_system's row
        # 0, whose one nonzero entry is its first, applied to -p
        rhs_u[:, 0] = -self.u_system[0, 0] * p[:, 0]
        du = lu_solve(self.u_system, rhs_u.T).T
        dv = rhs_v * self.v_mass_inv
        return du, dv

    def assemble(self, params: FluxParams, kinds):
        """The blocks of the operator, element solves included, and the lifts
        they are built from, for the flux kinds of each axis (as
        ``Discretization.face_kinds``; the boundary kinds are None on a
        periodic grid).

        maps, unit_v and unit_g are the reference element's, with the
        gradients in physical coordinates.  Returns (blocks, lifts), blocks
        as ``Discretization.blocks`` and lifts (n_lifts, r, N): row j of
        lifts[s] is the derivative [du dv] an element takes from its
        neighbour across side s when the neighbour's traces on their shared
        face (its side s ^ 1) are unit trace j; on a physical mesh, row j of
        lifts[2*dim + s] is the change of the derivative of an element whose
        side s is a boundary and whose own traces there are unit trace j.
        The self block is the volume block plus, for each side s, maps[s]
        times the lift of the element's own unit traces on s against a zero
        neighbour; a neighbour block is maps[s ^ 1] @ lifts[s], a boundary
        correction maps[s] @ lifts[2*dim + s].
        """
        ref, dim = self.ref, self.ref.dim
        periodic = kinds[0][1] is None
        nu, nb = ref.n_u, ref.n_u + ref.n_v
        maps, unit_v, unit_g = ref.trace_maps, ref.unit_v, self.dscale * ref.unit_g
        sides, r = unit_v.shape[:2]
        # the roles in order: neighbour, boundary change (physical meshes),
        # own trace, each on every side
        n_lifts = (2 if periodic else 3) * sides
        own = n_lifts - sides
        vtr = np.zeros((sides, n_lifts) + unit_v.shape[1:])
        gtr = np.zeros((sides, n_lifts) + unit_g.shape[1:])
        vstar, gstar = np.zeros_like(vtr), np.zeros_like(gtr)
        for side in range(sides):
            vtr[side, own + side], gtr[side, own + side] = unit_v[side], unit_g[side]

        def flux(kind, t1, t2=None):
            state = fluxes.compute_flux(kind, t1, t2, params, self.w, self.c)
            return state.v_star, state.grad_u_star

        for axis, (interior, low_kind, high_kind) in enumerate(kinds):
            lo, hi = 2 * axis, 2 * axis + 1
            normal = np.eye(dim)[axis]
            # one batch: the unit traces as the face's low element (trace
            # 1), then as its high element (trace 2)
            zero_v, zero_g = np.zeros_like(unit_v[lo]), np.zeros_like(unit_g[lo])
            t1 = Trace(v=np.concatenate([unit_v[hi], zero_v]),
                       grad_u=np.concatenate([unit_g[hi], zero_g]), n=normal)
            t2 = Trace(v=np.concatenate([zero_v, unit_v[lo]]),
                       grad_u=np.concatenate([zero_g, unit_g[lo]]), n=-normal)
            vs, gs = flux(interior, t1, t2)
            for side, sign, kind, v_own, g_own in ((lo, -1.0, low_kind, vs[r:], gs[r:]),
                                                   (hi, 1.0, high_kind, vs[:r], gs[:r])):
                # an element's own traces on side reach its neighbour
                # across that neighbour's side ^ 1
                vstar[side, own + side], gstar[side, own + side] = v_own, g_own
                vstar[side ^ 1, side ^ 1], gstar[side ^ 1, side ^ 1] = v_own, g_own
                if not periodic:
                    bv, bg = flux(kind, Trace(v=unit_v[side], grad_u=unit_g[side],
                                              n=sign * normal))
                    vstar[side, sides + side] = bv - v_own
                    gstar[side, sides + side] = bg - g_own

        # the N basis functions, with no face terms, give the volume block
        rows = n_lifts * r
        x = np.zeros((nb + rows, nb))
        x[:nb] = np.eye(nb)
        rhs_u, rhs_v, p = self.volume_terms(x[:, :nu], x[:, nu:])
        self.lift_faces(rhs_u[nb:], rhs_v[nb:],
                        *(a.reshape((sides, rows) + a.shape[3:])
                          for a in (vstar, gstar, vtr, gtr)))
        du, dv = self.element_solve(rhs_u, rhs_v, p)
        pieces = np.concatenate([du, dv], axis=1)
        lifts = pieces[nb:].reshape(n_lifts, r, nb)
        blocks = [pieces[:nb] + sum(maps[side] @ lifts[own + side] for side in range(sides))]
        blocks += [maps[side ^ 1] @ lifts[side] for side in range(sides)]
        blocks += [maps[side] @ lifts[sides + side] for side in range(own - sides)]
        return np.stack(blocks), lifts[:own]


# the most operator families whose reference a process keeps: a command
# solves one family, so the bound only caps what a process that builds
# many (a test run, an interactive session) holds
FAMILY_CACHE = 16


def _reference_size(dim: int, c: float) -> float:
    """The element size a family's reference is assembled at: h = 2 (unit
    Jacobians, dscale 1), halved while element_scale's c^2 (2/h) is below
    the normal range in 1D (in 2D the scale is c^2 at every h).  It is at
    least half of every size whose scale is normal, so the rescale to a grid
    that passes element_scale's check never shrinks the blocks by more
    than 2."""
    h = 2.0
    while dim == 1 and 0.0 < c * (c * (2.0 / h)) < np.finfo(float).tiny:
        h /= 2.0
    return h


def _slot_side(slot: int, sides: int) -> int:
    """The side of an element whose traces (2D) or coefficients (1D) a slot
    of its neighbour reads: the neighbour across side s meets the element
    with its side s ^ 1, and boundary slot 2*dim + s holds the element's own
    side s."""
    return slot ^ 1 if slot < sides else slot - sides


def _face_sides(axis: int):
    """The sides that hold the traces of a face of each kind of an axis, in
    the order of ``Discretization.face_kinds``: an interior face's trace 1
    (the high side of the low element, outward normal +e_axis) and trace 2
    (the low side of the high element), then the low and the high
    boundary side."""
    lo, hi = 2 * axis, 2 * axis + 1
    return (hi, lo), (lo,), (hi,)


@dataclass(frozen=True, eq=False)
class Family:
    """The operator of a family at its reference element size h, and all
    that a grid or the energy audit takes from it (``_family_reference``
    builds it).

    A family is what the assembly reads, its key (``_family_reference``'s
    arguments): degrees, dimension, flux, w, c and the flux kinds of each
    axis (which also tell periodic grids from physical ones); its grids
    differ only in n.  The operator is scale-covariant: scaling space and
    time by 1/k keeps u and multiplies v and grad u by k, and the flux
    states are linear in the traces with coefficients that carry no length.
    So on a grid of size h / k, a row of the derivative [du dv] of a u
    coefficient or a grad-u trace is k du and k^2 dv, and of a v
    coefficient or a v trace du and k dv: each entry of blocks and of
    lift_factor takes k to its power in block_powers and factor_powers (0,
    1 or 2), exactly for a power-of-two k and to roundoff otherwise.  Every grid comes from this one reference,
    so nothing a grid gets depends on what the process built before.

    blocks are ``_Element.assemble``'s.  rhs lifts a slot's rows with the
    rows of a slot lift (in 2D the lifts, in 1D the neighbour blocks and
    boundary corrections; see ``Discretization._build_operand``), and the
    element's own [u v] with the self block.  A row that is all zero is
    read by no column of the lift factor: first is the self block's first
    row that is not (its u-constant row is zero), and runs holds (slot,
    start, stop) for each slot lift with a row that is not, rows start to
    stop the smallest run that holds all such rows.  A slot lift that is all
    zero has no run: the downwind neighbour of a supersonic face, or a
    supersonic boundary side.  lift_factor is the transpose of the self
    block's rows from first on and of the runs' rows, in slot order.

    trace_factors is (read, v_factor, g_factor) in 2D, None in 1D.  read
    lists, in order, the sides some kept slot reads (``_slot_side``), and
    the factors give their traces coordinate-major, trace coordinate j of
    the i-th read side in row j*len(read) + i: the v coordinates (the first
    s+1) from the Nv v coefficients, v_factor @ [v], and the derivatives of
    u from the u coefficients but the constant, g_factor @ [u 1:Nu] (see
    ``ReferenceElement.trace_maps``).  audit_v and audit_g give every
    side's trace coordinates side-major, [v] @ audit_v and [u] @ audit_g,
    the derivatives at unit gradient scale.  The factors carry no length, so
    every grid takes them as they are.  The arrays are read-only; an
    overflow leaves blocks and lift_factor not finite, and its rows are
    kept.
    """

    key: tuple
    h: float
    blocks: np.ndarray
    first: int
    runs: tuple
    lift_factor: np.ndarray
    block_powers: np.ndarray
    factor_powers: np.ndarray
    trace_factors: tuple | None
    audit_v: np.ndarray
    audit_g: np.ndarray

    def __post_init__(self):
        for a in (self.blocks, self.lift_factor, self.block_powers, self.factor_powers,
                  self.audit_v, self.audit_g, *(self.trace_factors or ())[1:]):
            a.flags.writeable = False

    @functools.cached_property
    def face_forms(self):
        """The face forms at unit face Jacobian and gradient scale, built on
        first use: per axis, a read-only ``fluxes.energy_rate_form`` for
        each of the key's flux kinds on the unit traces ``unit_v``/``unit_g``
        of its sides (``_face_sides``), None for a kind the grid has no face
        of.  Every density is quadratic in v and grad u, so every grid of
        the family reads these forms as they are: ``boundary_energy_rate``
        scales the gradient coordinates by 2/h and the summed rate by the
        face Jacobian, not the forms."""
        q, s, dim, params, w, c, kinds = self.key
        ref = build_reference(q, s, dim)
        normals = np.eye(dim)
        forms = []
        for axis, axis_kinds in enumerate(kinds):
            row = []
            for kind, sides in zip(axis_kinds, _face_sides(axis)):
                form = None
                if kind is not None:
                    form = fluxes.energy_rate_form(
                        kind, [(ref.unit_v[side], ref.unit_g[side],
                                (1.0 if side % 2 else -1.0) * normals[axis]) for side in sides],
                        params, w, c, ref.face_weights)
                    form.flags.writeable = False
                row.append(form)
            forms.append(tuple(row))
        return tuple(forms)


@functools.lru_cache(maxsize=FAMILY_CACHE)
def _family_reference(q: int, s: int, dim: int, params: FluxParams, w: tuple, c: float,
                      kinds: tuple) -> Family:
    """The ``Family`` of degrees q and s in dim dimensions, with this flux,
    w, c and flux kinds of each axis (``Discretization.face_kinds``)."""
    h = _reference_size(dim, c)
    ref = build_reference(q, s, dim)
    element = _Element(ref, np.array(w), c, h)
    with np.errstate(over="ignore", invalid="ignore"):
        blocks, lifts = element.assemble(params, kinds)
    # NaN != 0: a row that overflowed is read.  The self block has a row
    # that is not zero (du takes v)
    first = int(np.argmax(np.any(blocks[0] != 0, axis=-1)))
    # a 2D slot holds the r traces of a face (11 of the 32 coefficients at
    # q = s = 3), lifted by the lifts; a 1D one holds all N coefficients,
    # lifted by the full blocks: with r = 2 against N = 8 the trace product
    # costs a whole array call and saves few flops.  Per rhs call at q = 3
    # (one thread, medians of interleaved rounds), full blocks took 1.7-1.9x
    # as long in 2D (n = 14, 28) and traces 11-18 % longer in 1D (n = 10-160)
    nu, maps = ref.n_u, ref.trace_maps
    # 1 where a coefficient is a v coefficient, and where a trace coordinate
    # is a v trace (its unit trace has a v part)
    v_coeff = (np.arange(blocks.shape[-1]) >= nu).astype(int)
    v_trace = np.any(ref.unit_v, axis=(0, 2)).astype(int)
    slot_lifts, v_row = (blocks[1:], v_coeff) if dim == 1 else (lifts, v_trace)
    runs = []
    for slot, lift in enumerate(slot_lifts):
        read = np.flatnonzero(np.any(lift != 0, axis=-1))
        if read.size:
            runs.append((slot, int(read[0]), int(read[-1]) + 1))
    rows, is_v = zip((blocks[0, first:], v_coeff[first:]),
                     *((slot_lifts[slot, start:stop], v_row[start:stop])
                       for slot, start, stop in runs))
    lift_factor = np.concatenate(rows).T.copy()
    # the power of k in the derivative [du dv] of a row: [1, 2] for a u
    # coefficient or grad-u trace, [0, 1] for a v one
    factor_powers = np.add.outer(1 - np.concatenate(is_v), v_coeff).T.copy()
    # the v coordinates come first: a v trace reads the v rows of [u v],
    # a derivative its u rows
    n_vt = v_trace.sum()
    audit_v = maps[:, nu:, :n_vt].transpose(1, 0, 2).reshape(ref.n_v, -1)
    audit_g = maps[:, :nu, n_vt:].transpose(1, 0, 2).reshape(nu, -1)
    # in 2D, the sides some kept slot reads; a derivative reads no u constant
    read = sorted({_slot_side(slot, 2 * dim) for slot, _, _ in runs})
    trace_factors = None if dim == 1 else (
        tuple(read), maps[read][:, nu:, :n_vt].transpose(2, 0, 1).reshape(-1, ref.n_v),
        maps[read][:, 1:nu, n_vt:].transpose(2, 0, 1).reshape(-1, nu - 1))
    return Family((q, s, dim, params, w, c, kinds), h, blocks, first, tuple(runs),
                  lift_factor, np.add.outer(1 - v_coeff, v_coeff), factor_powers,
                  trace_factors, audit_v, audit_g)


class Discretization:
    """Everything needed to apply the semidiscrete operator repeatedly.

    forcing, if given, is a Separable field for the v equation, applied in
    rhs's one lift product (see ``_build_operand``).  blocks
    (read-only, shape (1 + 2*dim [+ 2*dim on physical meshes], N, N)) is the
    homogeneous operator in rhs's row convention: out[e] = x[e] @ blocks[0]
    + sum_s x[neighbour across side s] @ blocks[1 + s], plus
    x[e] @ blocks[1 + 2*dim + s] on each side s of e that is a boundary.
    They are the blocks of the operator family's one reference assembly
    (family, a ``Family``), scaled to the grid.  Blocks that are not all
    finite raise ValueError.  volume_quadrature is the ``FieldTable`` of the
    volume rule, shared by the forcing's projection and
    ``problems.project_initial``.  input, of shape (n_elements, Nu+Nv), is the
    array rhs reads [u v] from (an F-ordered view of its coefficient-major
    operand), and input_uv are its u and v column views.

    stiffness S (c^2 times the grad-grad form) and v_mass_diag (the diagonal
    of the v mass M), with the element Jacobian, are the element's energy
    form, E = 1/2 sum_e (v M v + u S u); u_system, S with the mean-value row
    in the constant slot, is the u equation's element system.  All three are
    read-only, as is v_mass, M as a diagonal matrix (built on first use).
    """

    def __init__(self, mesh: MeshTopology, ref: ReferenceElement,
                 params: FluxParams, w, c: float, forcing=None):
        # before element_scale, which sees only c^2
        if not c > 0:
            raise ValueError("wave speed c must be positive")
        if ref.dim != mesh.dim:
            raise ValueError("mesh and reference element dimensions differ")
        if forcing is not None and not isinstance(forcing, Separable):
            raise TypeError("forcing must be a Separable field")
        self.mesh = mesh
        self.ref = ref
        self.params = params
        self.w = np.atleast_1d(np.asarray(w, dtype=float))
        self.c = float(c)
        self.forcing = forcing

        # the element terms at the grid's size: its energy form here, and
        # matrix_free_rhs's volume matrices and solve on first use
        self._element = element = _Element(ref, self.w, self.c, mesh.h)
        self.jac_vol, self.jac_face, self.dscale = (element.jac_vol, element.jac_face,
                                                    element.dscale)
        self.stiffness, self.u_system, self.v_mass_diag = (
            element.stiffness, element.u_system, element.v_mass_diag)
        # (interior, low boundary, high boundary) flux kinds of each axis
        self.face_kinds = classify_mesh(mesh, self.w, self.c)

        # the fields at the volume rule's points: the forcing's projection
        # below and problems.project_initial's exact data
        self.volume_quadrature = FieldTable(mesh, ref.vol_nodes)

        # the family's operator on the grid (see Family): every entry times
        # k = h_ref / h to its power.  The key holds params, w and c in
        # canonical floats: + 0.0 makes a -0.0, which the key does not tell
        # from 0.0, the 0.0 the family is built from
        key_params = FluxParams(**{name: float(x) + 0.0 for name, x in vars(params).items()})
        self.family = family = _family_reference(
            ref.q, ref.s, ref.dim, key_params, tuple(float(x) + 0.0 for x in self.w), self.c,
            tuple(self.face_kinds))
        k, nu = family.h / mesh.h, ref.n_u
        scale = np.array([1.0, k, k * k])
        # an overflow shows as blocks that are not finite, raised below
        with np.errstate(over="ignore", invalid="ignore"):
            self.blocks = family.blocks * scale[family.block_powers]
            lift_factor = family.lift_factor * scale[family.factor_powers]
            # S du, the u equation's right side before its element solve:
            # the energy rate u S du takes the blocks through it, and a
            # large w (1e306 at q = 3) overflows it while du is finite
            s_du = self.blocks[..., :nu] @ self.stiffness.T
        if not (np.all(np.isfinite(self.blocks)) and np.all(np.isfinite(s_du))):
            raise ValueError("the operator's blocks overflow")
        self.blocks.flags.writeable = False
        # work arrays of rhs (allocating them per call costs page faults)
        # and the fixed views it works through.  rhs reads the stacked
        # [u v] of every element from input, an (n_elements, Nu+Nv) view;
        # passed input_uv, its column views, it skips the copy, so a caller
        # (the RK4 stages) can write a state there directly
        self._nu = nu
        self._build_operand(lift_factor)
        self.input_uv = self.input[:, :nu], self.input[:, nu:]
        # _tau_t is the time _tau was written at (None: not yet)
        self._forcing_time = None if forcing is None else forcing.time
        self._tau_t = None

    @functools.cached_property
    def v_mass(self) -> np.ndarray:
        """The v mass M as a diagonal matrix, for BLAS products with
        coefficient-major arrays: the same numbers as scaling by
        v_mass_diag."""
        mass = np.diag(self.v_mass_diag)
        mass.flags.writeable = False
        return mass

    @functools.cached_property
    def error_quadrature(self) -> FieldTable:
        """The ``FieldTable`` of ``diagnostics.l2_error``'s rule, with its
        weights, built on first use."""
        return FieldTable(self.mesh, self.ref.err_nodes, self.jac_vol * self.ref.err_weights)

    # --- traces and fluxes ------------------------------------------------

    def side_traces(self, u: np.ndarray, v: np.ndarray):
        """v and grad u of every element at every local side's face points.

        u and v may stack states on leading axes, (..., n_el, Nu) and
        (..., n_el, Nv).  Returns (vtr, gtr) with shapes
        (2*dim, ..., n_el, nfq) and (2*dim, ..., n_el, nfq, dim); gradients
        are in physical coordinates.
        """
        # one product per field against every side's table, (N, sides * nfq
        # [* dim]), then the side axis moved to the front as a view
        ref = self.ref
        vals, grads = ref.face_vals_v, ref.face_grads_u
        vtr = v @ vals.transpose(2, 0, 1).reshape(vals.shape[-1], -1)
        gtr = u @ grads.transpose(3, 0, 2, 1).reshape(grads.shape[-1], -1)
        gtr *= self.dscale
        sides, dim, nfq = grads.shape[:3]
        return (np.moveaxis(vtr.reshape(vtr.shape[:-1] + (sides, nfq)), -2, 0),
                np.moveaxis(gtr.reshape(gtr.shape[:-1] + (sides, nfq, dim)), -3, 0))

    def _face_sets(self):
        """The face sets of the grid, axis by axis: yields (axis, role, at),
        role the index of the set's kind in the axis's ``face_kinds`` (0
        interior, 1 low boundary, 2 high boundary) and at the (side, index)
        pairs, index a tuple on the element grid, that hold trace 1 and, on
        an interior face, trace 2 (``_face_sides``).

        The sets are those of ``_grid_couplings``: each shift across an
        axis's high side 2a+1 joins side 2a+1 of its dst elements (trace 1,
        outward normal +e_a) to side 2a of its src elements, and each strip
        of the axis is a set of boundary faces.
        """
        shifts, strips = _grid_couplings(self.mesh.dim, self.mesh.periodic)
        for axis in range(self.mesh.dim):
            for side, dst, src in shifts:
                if side == 2 * axis + 1:
                    yield axis, 0, ((side, dst), (side ^ 1, src))
            for side, layer in strips:
                if side // 2 == axis:
                    yield axis, 1 + side % 2, ((side, layer),)

    def _face_traces(self, vtr, gtr):
        """Traces of every face set of the grid (``_face_sets``), as
        ``Trace`` objects: yields (kind, sides, t1, t2), sides listing the
        (side, elements) pairs that hold trace 1 and, on an interior face,
        trace 2 (None on a boundary face)."""
        dim, n = self.mesh.dim, self.mesh.n
        grid = np.arange(self.mesh.n_elements).reshape((n,) * dim)
        eye = np.eye(dim)
        for axis, role, at in self._face_sets():
            sides = [(side, grid[index].ravel()) for side, index in at]
            traces = [Trace(v=vtr[side][..., el, :], grad_u=gtr[side][..., el, :, :],
                            n=(1.0 if side % 2 else -1.0) * eye[axis])
                      for side, el in sides]
            yield (self.face_kinds[axis][role], sides, traces[0],
                   traces[1] if len(traces) == 2 else None)

    def face_flux_states(self, u: np.ndarray, v: np.ndarray):
        """Flux states for every element side, face by face.

        Each interior face's state is computed once and scattered to both
        incident sides, so the conservation pairing is exact by
        construction.  Returns (vstar, gstar, vtr, gtr) shaped like the
        side-trace arrays.
        """
        vtr, gtr = self.side_traces(u, v)
        vstar, gstar = np.zeros_like(vtr), np.zeros_like(gtr)
        for kind, sides, t1, t2 in self._face_traces(vtr, gtr):
            state = fluxes.compute_flux(kind, t1, t2, self.params, self.w, self.c)
            for side, el in sides:
                vstar[side, el] = state.v_star
                gstar[side, el] = state.grad_u_star
        return vstar, gstar, vtr, gtr

    # --- assembly ------------------------------------------------------------

    def _build_operand(self, lift_factor) -> None:
        """Work arrays and views of the stencil, all coefficient-major (one
        column per element).  The operand holds [u v] (its first N rows,
        input's transpose), below it a slot per run (see ``Family``), the
        rows start to stop of the coefficients
        its lift reads, and with a forcing sum_k tau_k(t) F_k the K*Nv rows
        of its v projections (row k*Nv + i of them holds coefficient i of
        F_k), written once.  A slot holds a neighbour's coefficients on the
        shared face, zero where a side has no neighbour, and on a physical
        mesh the element's own on each boundary side, zero on its other
        sides.  Slots are copied, as whole runs of elements, from a source
        of every element's coefficients on each side a slot reads: in 1D the
        operand's [u v]; in 2D ``_traces``, the traces of the sides some slot
        reads, coordinate-major ((r, read sides) + grid), from one product
        per field of the family's trace factors (see ``Family``) with the
        operand's v rows and its u rows but the constant, so each product
        writes one run of rows and a slot's run is one strided copy.  The
        derivative is then the lift factor, lift_factor (the family's,
        scaled to the grid) with K*Nv more columns, times the operand from
        its row first on.  Those columns are
        zero but for tau_k at (Nu + i, forcing row k*Nv + i), so a forced
        derivative is the same one product; ``_tau`` is the (Nv, K) view of
        those entries that rhs writes the time factors into.  Without a
        forcing K is 0."""
        dim, n, nb = self.mesh.dim, self.mesh.n, self.blocks.shape[-1]
        sides, n_el, nu = 2 * dim, self.mesh.n_elements, self._nu
        first, n_cols = self.family.first, lift_factor.shape[1]
        # a 1D slot holds all N coefficients (see _family_reference)
        r = nb if dim == 1 else self.ref.trace_maps.shape[-1]
        n_rows, nv = first + n_cols, nb - nu
        # the forcing's K projections, (K, n_elements, Nv); K = 0 unforced
        proj = (np.empty((0, n_el, nv)) if self.forcing is None else
                self.volume_quadrature.factors(self.forcing.space) @ self.ref.proj_v)
        n_tau = len(proj)
        self._operand = np.zeros((n_rows + n_tau * nv, n_el))
        self._operand[n_rows:] = proj.transpose(0, 2, 1).reshape(-1, n_el)
        self._lift_factor = np.zeros((nb, n_cols + n_tau * nv))
        self._lift_factor[:, :n_cols] = lift_factor
        # entry (nu + i, n_cols + k*nv + i) is column k of row i (an ndarray
        # on the factor's buffer: as_strided took 3.4 us, this 0.8)
        s0, s1 = self._lift_factor.strides
        self._tau = np.ndarray((nv, n_tau), buffer=self._lift_factor,
                               offset=nu * s0 + n_cols * s1, strides=(s0 + s1, nv * s1))
        self.input = self._operand[:nb].T
        # the layout rhs's out must have: its transpose is the product's target
        self._out_strides = self.input.strides
        self._lift_products = [(self._operand[first:, cols], cols)
                               for cols in _column_blocks(self._lift_factor, n_el)]
        grid = (n,) * dim
        if dim == 1:
            self._trace_products = []
            source = [self._operand[:nb].reshape((r,) + grid)] * sides
        else:
            # _traces[j, i] is trace coordinate j of side read[i]
            read, v_factor, g_factor = self.family.trace_factors
            self._traces = np.empty((r, len(read)) + grid)
            flat, n_v = self._traces.reshape(-1, n_el), len(v_factor)
            self._trace_products = (
                _bound_products(v_factor, self._operand[nu:nb], flat[:n_v])
                + _bound_products(g_factor, self._operand[1:nu], flat[n_v:]))
            source = {side: self._traces[:, i] for i, side in enumerate(read)}
        # each kept slot's rows in the operand, and the rows of a source it
        # takes: those of its run
        slots, at, row = self._operand[nb:n_rows].reshape((-1,) + grid), {}, 0
        for slot, start, stop in self.family.runs:
            at[slot] = slice(row, row + stop - start), slice(start, stop)
            row += stop - start
        shifts, strips = _grid_couplings(dim, self.mesh.periodic)
        faces = list(shifts) + [(sides + side, layer, layer) for side, layer in strips]
        self._copies = []
        for slot, dst, src in faces:
            if slot in at:
                rows, kept = at[slot]
                self._copies.append((slots[(rows,) + dst],
                                     source[_slot_side(slot, sides)][(kept,) + src]))

    # --- operator application ----------------------------------------------

    def rhs(self, u: np.ndarray, v: np.ndarray, t: float, out: np.ndarray | None = None):
        """Semidiscrete right-hand side (du/dt, dv/dt).

        With out, an (n_elements, Nu+Nv) array laid out like ``input``
        (coefficient-major; another layout raises ValueError), the stacked
        [du dv] is written into it and its two column views are returned;
        without, the views of a new array laid out like ``input``.  u and v
        are copied into ``input`` unless they are ``input_uv``, its own
        views.  A forced call is the same one product as an unforced one:
        the forcing's time factors are lift-factor entries, written once
        per distinct t, so a call at the t of the previous one reuses them
        and an RK4 step writes them twice (k2 and k3 share t + dt/2, and
        k4's t + dt is the next step's t).  Works in arrays owned by the
        discretization (the lift factor among them), so concurrent calls on
        one instance from several threads are not supported.
        """
        x_u, x_v = self.input_uv
        if u is not x_u or v is not x_v:
            x_u[...] = u
            x_v[...] = v
        if out is None:
            out = np.empty_like(self.input)
        elif out.strides != self._out_strides:
            raise ValueError("rhs's out must be laid out like Discretization.input")
        # the forcing's time factors into the lift factor, in 2D the traces
        # of the read sides, the coefficients each element reads copied into
        # its slots, then one product with the operand
        if self._forcing_time is not None and t != self._tau_t:
            self._tau[...] = self._forcing_time(t)
            self._tau_t = t
        for product in self._trace_products:
            product()
        for dst, src in self._copies:
            dst[...] = src
        # np.dot for a product in one column block, np.matmul for blocks
        # (see SMALL_PRODUCT)
        result = out.T
        lift_products = self._lift_products
        if len(lift_products) == 1:
            np.dot(self._lift_factor, lift_products[0][0], result)
        else:
            for operand_cols, cols in lift_products:
                np.matmul(self._lift_factor, operand_cols, result[:, cols])
        nu = self._nu
        return out[:, :nu], out[:, nu:]

    def matrix_free_rhs(self, u: np.ndarray, v: np.ndarray, t: float):
        """Face-by-face evaluation of the homogeneous ``rhs``; the reference
        for the assembled operator.  t, unused, keeps the signature of
        ``rhs``."""
        if self.forcing is not None:
            raise ValueError("matrix-free reference requires the homogeneous operator")
        element = self._element
        rhs_u, rhs_v, p = element.volume_terms(u, v)
        element.lift_faces(rhs_u, rhs_v, *self.face_flux_states(u, v))
        return element.element_solve(rhs_u, rhs_v, p)

    def boundary_energy_rate(self, u: np.ndarray, v: np.ndarray):
        """Sum of the closed-form face energy rates over all faces.

        u and v may stack states on leading axes, as in ``side_traces``: the
        rates of all of them come from one pass, as an array of the leading
        shape (a numpy scalar for one state).  A face's rate is z^T Q z, with
        z its trace coordinates (``ReferenceElement.trace_maps``, the
        derivatives scaled by dscale) and Q its kind's form as the family
        built it (``Family.face_forms``, polarized from
        ``fluxes.energy_rate_density``); the sum carries the face Jacobian.
        A v coordinate reads only v coefficients and a derivative only u
        coefficients, so every side's coordinates come from one product per
        field (the family's audit_v and audit_g); each face set is then one
        product with its form and one batched dot product.
        """
        family, sides = self.family, 2 * self.mesh.dim
        grid = (self.mesh.n,) * self.mesh.dim
        tv, tg = v @ family.audit_v, u @ (self.dscale * family.audit_g)
        tv, tg = (t.reshape((-1,) + grid + (sides, t.shape[-1] // sides)) for t in (tv, tg))
        total = np.zeros(len(tv))
        for axis, role, at in self._face_sets():
            z = np.concatenate([t[(slice(None),) + index + (side,)]
                                for side, index in at for t in (tv, tg)], axis=-1)
            z = z.reshape(len(z), -1, z.shape[-1])
            y = z @ family.face_forms[axis][role]
            total += (y.reshape(len(y), 1, -1) @ z.reshape(len(z), -1, 1)).ravel()
        return (self.jac_face * total).reshape(u.shape[:-2])[()]
