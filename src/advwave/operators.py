"""Semidiscrete DG operator, assembled once and applied as a block stencil.

The evolving unknown is a pair of modal coefficient arrays, one row per
element.  On a uniform Cartesian mesh with constant w the operator is linear,
time-invariant and translation-invariant: every interior face of an axis has
the same flux kind, so the derivative of an element depends only on its own
coefficients and on those of its 2*dim face neighbours, through the same
dense blocks for every element.

``Discretization.__init__`` builds these blocks once, with the u-system solve
and the v mass inverse folded in (the LIFT = M^-1 E idiom of nodal DG
methods): one self block, one block per neighbour side and, on physical
meshes, one self-block correction per boundary side.  The blocks come from
the flux functions and the face-lifting code applied to the face traces of
the basis functions, so the flux code stays the single source of truth.
``rhs`` is then one matrix product of the stacked [u v] coefficients with all
blocks, 2*dim shifted adds, the boundary-strip corrections, and the
separable forcing as a combination of projections made at build time,
written into an array the caller may pass.

``matrix_free_rhs`` keeps the face-by-face evaluation of the homogeneous
operator: flux states of every face from the current traces
(``face_flux_states``), then face lifting and the element solves.  It is the
reference the assembled operator is tested against.  It and the energy
audit (``boundary_energy_rate``) take the faces from the element grid, one
interior set and on physical meshes two boundary sets per axis
(``_grid_faces``).
"""

from __future__ import annotations

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
    stiffness = c * c * jac * dscale * dscale * ref.stiff_u
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


def _grid_faces(mesh: MeshTopology, w: np.ndarray, c: float):
    """The faces of the element grid, one set per axis and face class.

    Yields (kind, sides): sides lists, for trace 1 and on interior faces
    trace 2, the (side, elements) pair that holds the trace.  An interior
    face joins side 2a+1 of element i (trace 1, outward normal +e_a) to
    side 2a of element i + e_a, wrapping around on a periodic mesh.  A
    physical mesh adds the boundary faces of the first and last layer
    along each axis.
    """
    n = mesh.n
    grid = np.arange(mesh.n_elements).reshape((n,) * mesh.dim)
    for a, (interior, low_kind, high_kind) in enumerate(classify_mesh(mesh, w, c)):
        lo, hi = 2 * a, 2 * a + 1

        def layer(index):
            return np.take(grid, index, axis=a).ravel()

        if mesh.periodic:
            low, high = grid.ravel(), np.roll(grid, -1, axis=a).ravel()
        else:
            low, high = layer(range(n - 1)), layer(range(1, n))
        yield interior, ((hi, low), (lo, high))
        if not mesh.periodic:
            yield low_kind, ((lo, layer(0)),)
            yield high_kind, ((hi, layer(n - 1)),)


class Discretization:
    """Everything needed to apply the semidiscrete operator repeatedly.

    forcing, if given, is a Separable field for the v equation.
    """

    def __init__(self, mesh: MeshTopology, ref: ReferenceElement,
                 params: FluxParams, w, c: float, forcing=None):
        # before the element solvers, whose factorization is singular at c = 0
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

        blocks = self._assemble_blocks()
        self._stencil = blocks[:1 + 2 * dim]        # self, then one per side
        self._corrections = blocks[1 + 2 * dim:]    # one per boundary side
        # work arrays of rhs: the stacked [u v] rows, their products with
        # every stencil block and the forcing (allocating them per call
        # costs page faults), and the fixed views rhs works through.
        # rhs reads [u v] from _x; passed input_uv itself it skips the
        # copy, so a caller (the RK4 stages) can write a state there directly
        nu, nb = ref.n_u, ref.n_u + ref.n_v
        self._nu = nu
        self._x = np.empty((mesh.n_elements, nb))
        self.input_uv = self._x[:, :nu], self._x[:, nu:]
        self._y = np.empty((1 + 2 * dim, mesh.n_elements, nb))
        self._build_views()
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
        # diagnostics.l2_error's finer quadrature, built there on first use
        self.error_quadrature = None

    # --- traces and fluxes ------------------------------------------------

    def side_traces(self, u: np.ndarray, v: np.ndarray):
        """v and grad u of every element at every local side's face points.

        Returns (vtr, gtr) with shapes (2*dim, n_el, nfq) and
        (2*dim, n_el, nfq, dim); gradients are in physical coordinates.
        """
        ref = self.ref
        vtr = np.einsum("sfj,ej->sef", ref.face_vals_v, v)
        gtr = self.dscale * np.einsum("sdfj,ej->sefd", ref.face_grads_u, u)
        return vtr, gtr

    def _face_traces(self, vtr, gtr):
        """Traces of every face set of the grid: yields (kind, sides, t1,
        t2), t2 None on a boundary face; see ``_grid_faces``."""
        eye = np.eye(self.mesh.dim)
        for kind, sides in _grid_faces(self.mesh, self.w, self.c):
            traces = [Trace(v=vtr[side, el], grad_u=gtr[side, el],
                            n=(1.0 if side % 2 else -1.0) * eye[side // 2])
                      for side, el in sides]
            yield kind, sides, traces[0], traces[1] if len(traces) == 2 else None

    def face_flux_states(self, u: np.ndarray, v: np.ndarray):
        """Flux states for every element side, face by face.

        Each interior face's state is computed once and scattered to both
        incident sides, so the conservation pairing is exact by
        construction.  Returns (vstar, gstar, vtr, gtr) shaped like the
        side-trace arrays.
        """
        n_el, dim = self.mesh.n_elements, self.mesh.dim
        nfq = self.ref.face_weights.shape[0]
        vtr, gtr = self.side_traces(u, v)
        vstar = np.zeros((2 * dim, n_el, nfq))
        gstar = np.zeros((2 * dim, n_el, nfq, dim))
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

    def _assemble_blocks(self):
        """Dense element blocks of the operator, element solves included.

        Returns blocks of shape (n_blocks, N, N), N = Nu+Nv: the self
        block; for each side s the block of the neighbour across side s;
        on a physical mesh, for each side s the change of the self block on
        an element whose side s is a boundary.  Row j of a block is the
        derivative [du dv] produced by a unit coefficient j of [u v].

        Every block is one batch of the face-lifting code: the self batch
        holds the basis functions, whose own traces and flux states enter;
        a neighbour batch has no own traces and only the flux state that
        the neighbour's basis functions produce on the shared face.
        """
        ref, dim, periodic = self.ref, self.mesh.dim, self.mesh.periodic
        nu, nb = ref.n_u, ref.n_u + ref.n_v
        nfq = ref.face_weights.shape[0]
        sides = 2 * dim
        n_blocks = 1 + sides + (0 if periodic else sides)

        eye = np.eye(nb)
        vtr = np.zeros((sides, n_blocks, nb, nfq))
        gtr = np.zeros((sides, n_blocks, nb, nfq, dim))
        vtr[:, 0], gtr[:, 0] = self.side_traces(eye[:, :nu], eye[:, nu:])
        vstar, gstar = np.zeros_like(vtr), np.zeros_like(gtr)

        def flux(kind, t1, t2=None):
            state = fluxes.compute_flux(kind, t1, t2, self.params, self.w, self.c)
            return state.v_star, state.grad_u_star

        zero_v, zero_g = np.zeros_like(vtr[0, 0]), np.zeros_like(gtr[0, 0])
        kinds = classify_mesh(self.mesh, self.w, self.c)
        for axis, (interior, low_kind, high_kind) in enumerate(kinds):
            lo, hi = 2 * axis, 2 * axis + 1
            normal = np.zeros(dim)
            normal[axis] = 1.0
            # one batch: the basis as the face's low element (trace 1),
            # then as its high element (trace 2)
            t1 = Trace(v=np.concatenate([vtr[hi, 0], zero_v]),
                       grad_u=np.concatenate([gtr[hi, 0], zero_g]), n=normal)
            t2 = Trace(v=np.concatenate([zero_v, vtr[lo, 0]]),
                       grad_u=np.concatenate([zero_g, gtr[lo, 0]]), n=-normal)
            vs, gs = flux(interior, t1, t2)
            from_low, from_high = (vs[:nb], gs[:nb]), (vs[nb:], gs[nb:])
            vstar[hi, 0], gstar[hi, 0] = from_low
            vstar[lo, 0], gstar[lo, 0] = from_high
            vstar[hi, 1 + hi], gstar[hi, 1 + hi] = from_high
            vstar[lo, 1 + lo], gstar[lo, 1 + lo] = from_low
            if periodic:
                continue
            for side, sign, kind, own in ((lo, -1.0, low_kind, from_high),
                                          (hi, 1.0, high_kind, from_low)):
                bv, bg = flux(kind, Trace(v=vtr[side, 0], grad_u=gtr[side, 0],
                                          n=sign * normal))
                block = 1 + sides + side
                vstar[side, block] = bv - own[0]
                gstar[side, block] = bg - own[1]

        rows = n_blocks * nb
        x = np.zeros((n_blocks, nb, nb))
        x[0] = eye
        x = x.reshape(rows, nb)
        rhs_u, rhs_v, p = self._volume_terms(x[:, :nu], x[:, nu:])
        self._lift_faces(rhs_u, rhs_v,
                         vstar.reshape(sides, rows, nfq),
                         gstar.reshape(sides, rows, nfq, dim),
                         vtr.reshape(sides, rows, nfq),
                         gtr.reshape(sides, rows, nfq, dim))
        du, dv = self._element_solve(rhs_u, rhs_v, p)
        return np.concatenate([du, dv], axis=1).reshape(n_blocks, nb, nb)

    def _build_views(self) -> None:
        """Views of the rhs work arrays for the shifted adds and the
        boundary strips (with their correction blocks), on the element grid
        of the block products (axes: block, grid..., coefficient)."""
        dim, n = self.mesh.dim, self.mesh.n
        grid = self._y.reshape((1 + 2 * dim,) + (n,) * dim + (self._y.shape[-1],))
        x_grid = self._x.reshape(grid.shape[1:])
        self._y0 = self._y[0]

        def at(axis, index):
            grid = [slice(None)] * dim
            grid[axis] = index
            return tuple(grid)

        # the neighbour across side s sits one step up (hi) or down (lo)
        # along the side's axis: y_0[i] += y_s[i + step]
        self._shifts, self._strips = [], []
        inner, outer = slice(0, -1), slice(1, None)
        for side in range(2 * dim):
            axis, hi = divmod(side, 2)
            pairs = [(inner, outer) if hi else (outer, inner)]
            if self.mesh.periodic:
                pairs.append((-1, 0) if hi else (0, -1))
            else:
                strip = at(axis, -1 if hi else 0)
                self._strips.append((grid[(0,) + strip], x_grid[strip],
                                     self._corrections[side]))
            for dst, src in pairs:
                self._shifts.append((grid[(0,) + at(axis, dst)],
                                     grid[(1 + side,) + at(axis, src)]))

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
        np.matmul(self._x, self._stencil, out=self._y)
        for dst, src in self._shifts:
            dst += src
        for dst, x_strip, block in self._strips:
            dst += x_strip @ block
        if out is None:
            out = np.empty_like(self._x)
        if self._forcing_proj is None:
            np.copyto(out, self._y0)
        else:
            # the forcing's u columns are zero
            if t != self._f_t:
                np.dot(self._forcing_time(t), self._forcing_proj, out=self._f_flat)
                self._f_t = t
            np.add(self._y0, self._f, out=out)
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

    def boundary_energy_rate(self, u: np.ndarray, v: np.ndarray) -> float:
        """Sum of the closed-form face energy rates over all faces."""
        vtr, gtr = self.side_traces(u, v)
        wf = self.ref.face_weights
        total = 0.0
        for kind, _, t1, t2 in self._face_traces(vtr, gtr):
            density = fluxes.energy_rate_density(kind, t1, t2, self.params, self.w, self.c)
            total += self.jac_face * float(np.sum(density @ wf))
        return total
