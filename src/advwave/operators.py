"""Semidiscrete DG operator, assembled once into blocks, applied as a stencil.

The evolving unknown is a pair of modal coefficient arrays, one row per
element.  On a uniform Cartesian mesh with constant w the operator is linear,
time-invariant and translation-invariant: every interior face of an axis has
the same flux kind, so the derivative of an element depends only on its own
coefficients and on those of its 2*dim face neighbours, through the same
dense blocks for every element.

``Discretization.__init__`` builds the couplings once, with the u-system solve
and the v mass inverse folded in (the LIFT = M^-1 E idiom of nodal DG methods),
from one model: a neighbour acts on an element only through its traces on their
shared face (v, and grad u), held as r coefficients along the face (r =
(s+1)+(q+1)+q in 2D against the N = (q+1)^2+(s+1)^2 of an element, 11 of 32 at
q = s = 3; r = 2 on a 1D point face).  A trace map T_s (N x r,
``ReferenceElement.trace_maps``) takes an element's coefficients to its traces
on side s, and the flux and face-lifting code gives, once, the lift (r x N) of
the r unit traces (``unit_v``, ``unit_g``) in three roles: own traces on side s
against a zero neighbour (L_s^own), the neighbour's traces across side s (L_s),
and on physical meshes the change a boundary closure on side s makes to the
own-trace lift (L_{2dim+s}).  The self block is the volume block plus the sum
over sides of T_s L_s^own; the neighbour across side s couples through T_{s^1}
L_s and a boundary side through T_s L_{2dim+s}.  These N x N products are kept
as ``Discretization.blocks``, the operator's one description, from which
``diagnostics`` builds its Bloch symbols and sparse matrix.

1D ``rhs`` applies the blocks: one batched product, 2*dim shifted adds and
the boundary-strip corrections (with r = 2 against N = 8 at q = 3 the
number of array calls sets its cost, and a factored form took 33-45 %
longer).  2D ``rhs`` keeps the couplings factored: one product of [u v]
with [self block | T of every side], a copy of each element's r-wide trace
slots from its neighbours (and on physical meshes its own boundary
traces), and one product of the slots with the stacked L.  Both add the
separable forcing, a combination of projections made at build time.

``matrix_free_rhs`` keeps the face-by-face evaluation of the homogeneous
operator, the reference the assembled one is tested against.  It and the
energy audit (``boundary_energy_rate``) walk the faces of
``_grid_couplings``, the grid's one record of adjacency, each face set with
its flux kind from ``face_kinds``, classified once per discretization.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from . import fluxes
from .basis import ReferenceElement
from .fluxes import FluxParams, Trace
from .mesh import MeshTopology, classify_mesh


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
    """A field f(x, t) = sum_k time(t)[k] * space(x)[k].

    space maps positions of shape (..., dim) to an array (K, ...); time maps
    a scalar time to an array (K,).  The v-equation forcing and the exact
    solutions have this form, so their space factors can be evaluated once
    at fixed points (the operator's projection, the quadrature of
    ``diagnostics.l2_error``) and combined with the time factors on every
    call.  time must be a pure function of t: ``Discretization.rhs`` reuses
    the forcing it built at the time of its previous call.
    """

    space: Callable
    time: Callable

    def __call__(self, x, t):
        return _combine(self.time(t), self.space(x))


def _combine(g, f):
    """sum_k g[k] * f[k] for time factors g and space factors f."""
    return (g @ f.reshape(len(g), -1)).reshape(f.shape[1:])


class FieldTable:
    """Separable fields at fixed points.

    Each distinct space callable is evaluated at the points once, on first
    use, so fields that share one (u and v of the periodic problems) share
    one array; a call then only combines it with the time factors.  Keying
    by the callable itself means a field of another problem never reads
    another's values.
    """

    def __init__(self, points: np.ndarray):
        self.points = points
        self._space = {}

    def __call__(self, field: Separable, t: float) -> np.ndarray:
        if not isinstance(field, Separable):
            raise TypeError("expected a Separable field")
        values = self._space.get(field.space)
        if values is None:
            values = self._space[field.space] = field.space(self.points)
        return _combine(field.time(t), values)


@dataclass(frozen=True)
class ElementSolvers:
    """Factorized per-element systems, shared by all elements.

    u_system stacks the gradient-stiffness rows for the non-constant test
    functions with the mean-value row in the constant slot; it is square
    and nonsingular.  v_mass_inv is the inverse of the (diagonal) v mass
    matrix including the element Jacobian.
    """

    u_system: np.ndarray
    u_lu: tuple
    v_mass_diag: np.ndarray
    v_mass_inv: np.ndarray
    stiffness: np.ndarray   # c^2 * grad-grad bilinear form on the element


def build_element_solvers(ref: ReferenceElement, h: float, c: float) -> ElementSolvers:
    dim = ref.dim
    jac = (h / 2.0) ** dim
    dscale = 2.0 / h
    scale = c * c * jac * dscale * dscale
    # c^2 can overflow to an infinite system, or underflow to a singular one
    # (or, subnormal, to one with a few significant bits)
    if not np.finfo(float).tiny <= scale < np.inf:
        raise ValueError(f"wave speed c = {c!r} makes the element system infinite or "
                         f"singular: its scale c^2 (h/2)^dim (2/h)^2 is {scale!r}")
    stiffness = scale * ref.stiff_u
    u_system = stiffness.copy()
    u_system[0, :] = jac * ref.mean_row
    v_mass_diag = jac * np.diag(ref.mass_v)
    return ElementSolvers(
        u_system=u_system,
        u_lu=lu_factor(u_system),
        v_mass_diag=v_mass_diag,
        v_mass_inv=1.0 / v_mass_diag,
        stiffness=stiffness,
    )


@functools.cache
def _grid_couplings(dim: int, periodic: bool):
    """The element couplings of a dim-dimensional grid, as index tuples on
    it; built once per process for each kind of grid.  They are the only
    record of which element meets which across which side: ``rhs`` couples
    through them, and ``Discretization._face_traces`` takes the faces of
    the reference and of the energy audit from them.

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
# small-matrix kernels, which took rhs's skinny products about 30 % less
# time per row than its general path (AVX-512 Xeon, one thread)
SMALL_PRODUCT = 10 ** 6


def _row_blocks(a: np.ndarray, b: np.ndarray, out: np.ndarray):
    """(rows of a, rows of out) view pairs that compute out = a @ b in
    equal row blocks of at most SMALL_PRODUCT multiply-adds each."""
    per_block = max(1, SMALL_PRODUCT // b.size)
    size = -(-len(a) // -(-len(a) // per_block))
    return [(a[i:i + size], out[i:i + size]) for i in range(0, len(a), size)]


class Discretization:
    """Everything needed to apply the semidiscrete operator repeatedly.

    forcing, if given, is a Separable field for the v equation.  blocks
    (read-only, shape (1 + 2*dim [+ 2*dim on physical meshes], N, N)) is the
    homogeneous operator in rhs's row convention: out[e] = x[e] @ blocks[0]
    + sum_s x[neighbour across side s] @ blocks[1 + s], plus
    x[e] @ blocks[1 + 2*dim + s] on each side s of e that is a boundary.
    Blocks that are not all finite raise ValueError.
    """

    def __init__(self, mesh: MeshTopology, ref: ReferenceElement,
                 params: FluxParams, w, c: float, forcing=None):
        # before the element solvers, which see only c^2
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

        dim, h = mesh.dim, mesh.h
        self.jac_vol = (h / 2.0) ** dim
        self.jac_face = (h / 2.0) ** (dim - 1)
        self.dscale = 2.0 / h

        self.solvers = build_element_solvers(ref, h, c)
        # (interior, low boundary, high boundary) flux kinds of each axis
        self.face_kinds = classify_mesh(mesh, self.w, self.c)

        # volume matrices (applied to coefficient rows from the right)
        wq = ref.vol_weights
        c2 = self.c * self.c
        self.adv_v = self.jac_vol * self.dscale * sum(
            self.w[d] * ref.vol_vals_v.T @ (wq[:, None] * ref.vol_grads_v[d])
            for d in range(dim)
        )
        self.stiff_vu = c2 * self.jac_vol * self.dscale ** 2 * sum(
            ref.vol_grads_v[d].T @ (wq[:, None] * ref.vol_grads_u[d])
            for d in range(dim)
        )
        # modal advective derivative w . grad in the u space
        self.adv_modal_u = self.dscale * sum(
            self.w[d] * ref.deriv_u[d] for d in range(dim)
        )

        self.quad_points = (
            mesh.element_centers[:, None, :] + (h / 2.0) * ref.vol_nodes[None, :, :]
        )

        # work arrays of rhs (allocating them per call costs page faults)
        # and the fixed views it works through.  rhs reads the stacked
        # [u v] rows from _x; passed input_uv itself it skips the copy, so a
        # caller (the RK4 stages) can write a state there directly
        nu, nb = ref.n_u, ref.n_u + ref.n_v
        self._nu = nu
        self._x = np.empty((mesh.n_elements, nb))
        self.input_uv = self._x[:, :nu], self._x[:, nu:]
        # 1D applies the blocks, 2D keeps them factored
        self.blocks, lifts = self._assemble()
        if not np.all(np.isfinite(self.blocks)):
            raise ValueError("the operator's blocks overflow")
        self.blocks.flags.writeable = False
        if dim == 1:
            self._lifts = None
            self._build_blocks()
        else:
            self._build_traces(lifts)
        # _f_t is the time _f was built at (None: not built yet)
        self._forcing_time = self._forcing_proj = self._f_t = None
        if forcing is not None:
            space = forcing.space(self.quad_points)
            proj = np.zeros((len(space), mesh.n_elements, nb))
            # the integrals of each space factor times each v basis function
            load = self.jac_vol * ((space * ref.vol_weights) @ ref.vol_vals_v)
            proj[:, :, nu:] = load * self.solvers.v_mass_inv
            self._forcing_time = forcing.time
            self._forcing_proj = proj.reshape(len(space), -1)
            self._f = np.empty_like(self._x)
            self._f_flat = self._f.reshape(-1)
        # the exact fields at diagnostics.l2_error's points, built there on first use
        self.error_quadrature = None

    # --- traces and fluxes ------------------------------------------------

    def side_traces(self, u: np.ndarray, v: np.ndarray):
        """v and grad u of every element at every local side's face points.

        u and v may stack states on leading axes, (..., n_el, Nu) and
        (..., n_el, Nv).  Returns (vtr, gtr) with shapes
        (2*dim, ..., n_el, nfq) and (2*dim, ..., n_el, nfq, dim); gradients
        are in physical coordinates.
        """
        ref = self.ref
        vtr = np.einsum("sfj,...ej->s...ef", ref.face_vals_v, v)
        gtr = self.dscale * np.einsum("sdfj,...ej->s...efd", ref.face_grads_u, u)
        return vtr, gtr

    def _face_traces(self, vtr, gtr):
        """Traces of every face set of the grid, axis by axis: yields (kind,
        sides, t1, t2), sides listing the (side, elements) pairs that hold
        trace 1 and, on an interior face, trace 2 (None on a boundary face).

        The sets are those of ``_grid_couplings``: each shift across an
        axis's high side 2a+1 joins side 2a+1 of its dst elements (trace 1,
        outward normal +e_a) to side 2a of its src elements, and each strip
        of the axis is a set of boundary faces.
        """
        dim, n = self.mesh.dim, self.mesh.n
        grid = np.arange(self.mesh.n_elements).reshape((n,) * dim)
        shifts, strips = _grid_couplings(dim, self.mesh.periodic)
        eye = np.eye(dim)
        for axis, kinds in enumerate(self.face_kinds):
            faces = [(kinds[0], ((side, dst), (side ^ 1, src)))
                     for side, dst, src in shifts if side == 2 * axis + 1]
            faces += [(kinds[1 + side % 2], ((side, layer),))
                      for side, layer in strips if side // 2 == axis]
            for kind, at in faces:
                sides = [(side, grid[index].ravel()) for side, index in at]
                traces = [Trace(v=vtr[side][..., el, :], grad_u=gtr[side][..., el, :, :],
                                n=(1.0 if side % 2 else -1.0) * eye[axis])
                          for side, el in sides]
                yield kind, sides, traces[0], traces[1] if len(traces) == 2 else None

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

    # --- element terms shared by the assembly and the reference path ------

    def _volume_terms(self, u: np.ndarray, v: np.ndarray):
        """Volume parts of the u and v right-hand sides, and w . grad u - v
        as coefficients in the u space (exact, modal)."""
        p = u @ self.adv_modal_u.T - v @ self.ref.embed_v.T
        rhs_v = -(v @ self.adv_v.T) - (u @ self.stiff_vu.T)
        rhs_u = -(p @ self.solvers.stiffness.T)
        return rhs_u, rhs_v, p

    def _lift_faces(self, rhs_u, rhs_v, vstar, gstar, vtr, gtr) -> None:
        """Add the face terms of every side to rhs_u and rhs_v in place."""
        ref, dim = self.ref, self.mesh.dim
        c2 = self.c * self.c
        wf = ref.face_weights
        for side in range(2 * dim):
            axis, hi = divmod(side, 2)
            sign_out = 1.0 if hi else -1.0
            wn_out = sign_out * self.w[axis]
            dv_star = vstar[side] - vtr[side]
            gn_star_out = sign_out * gstar[side][..., axis]
            # v equation: c^2 phi grad u* . n - (v* - v) phi w . n
            av = wf * (c2 * gn_star_out - dv_star * wn_out)
            rhs_v += self.jac_face * (av @ ref.face_vals_v[side])
            # u equation: c^2 (v* - v) dphi/dn - c^2 grad phi . (grad u* - grad u) w . n
            rhs_u += (self.jac_face * sign_out * self.dscale
                      * ((wf * c2 * dv_star) @ ref.face_grads_u[side, axis]))
            for d in range(dim):
                diff = gstar[side][..., d] - gtr[side][..., d]
                rhs_u -= (self.jac_face * c2 * wn_out * self.dscale
                          * ((wf * diff) @ ref.face_grads_u[side, d]))

    def _element_solve(self, rhs_u, rhs_v, p):
        """Impose the mean constraint and apply the element inverses."""
        # mean constraint replaces the constant-test row
        rhs_u[:, 0] = -self.jac_vol * 2.0 ** self.mesh.dim * p[:, 0]
        du = lu_solve(self.solvers.u_lu, rhs_u.T).T
        dv = rhs_v * self.solvers.v_mass_inv
        return du, dv

    # --- assembly ------------------------------------------------------------

    def _assemble(self):
        """The blocks of the operator, element solves included, and the lifts
        they are built from.

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
        ref, dim, periodic = self.ref, self.mesh.dim, self.mesh.periodic
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
            state = fluxes.compute_flux(kind, t1, t2, self.params, self.w, self.c)
            return state.v_star, state.grad_u_star

        for axis, (interior, low_kind, high_kind) in enumerate(self.face_kinds):
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
        rhs_u, rhs_v, p = self._volume_terms(x[:, :nu], x[:, nu:])
        self._lift_faces(rhs_u[nb:], rhs_v[nb:],
                         *(a.reshape((sides, rows) + a.shape[3:])
                           for a in (vstar, gstar, vtr, gtr)))
        du, dv = self._element_solve(rhs_u, rhs_v, p)
        pieces = np.concatenate([du, dv], axis=1)
        lifts = pieces[nb:].reshape(n_lifts, r, nb)
        blocks = [pieces[:nb] + sum(maps[side] @ lifts[own + side] for side in range(sides))]
        blocks += [maps[side ^ 1] @ lifts[side] for side in range(sides)]
        blocks += [maps[side] @ lifts[sides + side] for side in range(own - sides)]
        return np.stack(blocks), lifts[:own]

    def _build_blocks(self) -> None:
        """Work arrays and views of the full-block stencil: the products of
        [u v] with the self and neighbour blocks land in one array (axes:
        block, grid..., coefficient); the neighbour products are then added
        onto the self one, shifted on the grid, and strips get corrections."""
        dim, n, nb = self.mesh.dim, self.mesh.n, self.blocks.shape[-1]
        sides = 2 * dim
        self._stencil = self.blocks[:1 + sides]
        self._y = np.empty((1 + sides, self.mesh.n_elements, nb))
        self._y0 = self._y[0]
        grid = self._y.reshape((1 + sides,) + (n,) * dim + (nb,))
        x_grid = self._x.reshape(grid.shape[1:])
        shifts, strips = _grid_couplings(dim, self.mesh.periodic)
        self._shifts = [(grid[(0,) + dst], grid[(1 + side,) + src])
                        for side, dst, src in shifts]
        self._strips = [(grid[(0,) + layer], x_grid[layer], self.blocks[1 + sides + side])
                        for side, layer in strips]

    def _build_traces(self, lifts) -> None:
        """Work arrays and views of the trace-factored stencil: the product
        of [u v] with [self block | trace map of every side] (w), and the
        traces each element's lifts read (g, one r-wide slot per lift),
        copied from w: a neighbour's traces on the shared face, zero where
        a side has no neighbour, and on a physical mesh the element's own
        traces on each boundary side, zero on its other sides."""
        dim, n, nb = self.mesh.dim, self.mesh.n, self.blocks.shape[-1]
        sides, n_el = 2 * dim, self.mesh.n_elements
        n_lifts, r = lifts.shape[:2]
        self._factors = np.concatenate([self.blocks[0]] + list(self.ref.trace_maps), axis=1)
        self._lifts = lifts.reshape(n_lifts * r, nb)
        self._w = np.empty((n_el, nb + sides * r))
        self._w_self = self._w[:, :nb]
        self._g = np.zeros((n_el, n_lifts * r))
        self._z = np.empty((n_el, nb))
        self._trace_products = _row_blocks(self._x, self._factors, self._w)
        self._lift_products = _row_blocks(self._g, self._lifts, self._z)
        w_grid = self._w.reshape((n,) * dim + (nb + sides * r,))
        g_grid = self._g.reshape((n,) * dim + (n_lifts, r))

        def traces(side):
            return (slice(nb + side * r, nb + (side + 1) * r),)

        shifts, strips = _grid_couplings(dim, self.mesh.periodic)
        # the neighbour across side s meets it with its side s ^ 1
        self._gathers = [(g_grid[dst + (side,)], w_grid[src + traces(side ^ 1)])
                         for side, dst, src in shifts]
        self._gathers += [(g_grid[layer + (sides + side,)], w_grid[layer + traces(side)])
                          for side, layer in strips]

    # --- operator application ----------------------------------------------

    def rhs(self, u: np.ndarray, v: np.ndarray, t: float, out: np.ndarray | None = None):
        """Semidiscrete right-hand side (du/dt, dv/dt).

        With out, an (n_elements, Nu+Nv) array, the stacked [du dv] is
        written into it and its two column views are returned; without,
        the views of a new array.  u and v are copied into a work array
        unless they are ``input_uv``, that array's own views.  The forcing
        is built once per distinct t: a call at the t of the previous one
        reuses it, so an RK4 step builds it twice (k2 and k3 share t + dt/2,
        and k4's t + dt is the next step's t).  Works in arrays owned by
        the discretization, so concurrent calls on one instance from
        several threads are not supported.
        """
        x_u, x_v = self.input_uv
        if u is not x_u or v is not x_v:
            x_u[...] = u
            x_v[...] = v
        if out is None:
            out = np.empty_like(self._x)
        f = None
        if self._forcing_proj is not None:
            # the forcing's u columns are zero
            if t != self._f_t:
                np.dot(self._forcing_time(t), self._forcing_proj, out=self._f_flat)
                self._f_t = t
            f = self._f
        if self._lifts is None:
            # full blocks: every product, then the neighbours' onto the self one
            np.matmul(self._x, self._stencil, out=self._y)
            for dst, src in self._shifts:
                dst += src
            for dst, x_strip, block in self._strips:
                dst += x_strip @ block
            if f is None:
                np.copyto(out, self._y0)
            else:
                np.add(self._y0, f, out=out)
        else:
            # face traces: [self product | traces], the traces each element
            # reads gathered into their slots, then their lifts
            for x_rows, w_rows in self._trace_products:
                np.matmul(x_rows, self._factors, out=w_rows)
            for dst, src in self._gathers:
                np.copyto(dst, src)
            # into a work array: a strided out would take matmul off BLAS
            # and change its rounding
            for g_rows, z_rows in self._lift_products:
                np.matmul(g_rows, self._lifts, out=z_rows)
            np.add(self._z, self._w_self, out=out)
            if f is not None:
                out += f
        nu = self._nu
        return out[:, :nu], out[:, nu:]

    def matrix_free_rhs(self, u: np.ndarray, v: np.ndarray, t: float):
        """Face-by-face evaluation of the homogeneous ``rhs``; the reference
        for the assembled operator.  t, unused, keeps the signature of
        ``rhs``."""
        if self.forcing is not None:
            raise ValueError("matrix-free reference requires the homogeneous operator")
        rhs_u, rhs_v, p = self._volume_terms(u, v)
        self._lift_faces(rhs_u, rhs_v, *self.face_flux_states(u, v))
        return self._element_solve(rhs_u, rhs_v, p)

    def boundary_energy_rate(self, u: np.ndarray, v: np.ndarray):
        """Sum of the closed-form face energy rates over all faces.

        u and v may stack states on leading axes, as in ``side_traces``: the
        rates of all of them come from one pass, as an array of the leading
        shape (a numpy scalar for one state).
        """
        vtr, gtr = self.side_traces(u, v)
        wf = self.ref.face_weights
        total = 0.0
        for kind, _, t1, t2 in self._face_traces(vtr, gtr):
            density = fluxes.energy_rate_density(kind, t1, t2, self.params, self.w, self.c)
            total += self.jac_face * np.sum(density @ wf, axis=-1)
        return total
