"""Manufactured solutions, forcing terms and the initial projection.

The exact solutions and the forcing are ``Separable`` fields: a few space
factors taking one coordinate array per axis, combined with time factors.
A factor is a function of one coordinate (the periodic problems' sines and
cosines) or a list of terms, each a product of functions of one coordinate
(mixed2d's X(x) Y(y) and its derivatives).  The v solution is always the
advective derivative of u.  ``project_initial`` takes the exact fields at
t = 0 to coefficients by the volume rule's L2 projection, one axis at a
time (``FieldTable.projection``), as the operator does its forcing.

periodic1d is the only problem whose initial displacement is not zero.  By
default it is lifted: u0(x) e^{-t^2} is subtracted, so the solved problem
starts from u = 0 and carries a forcing, written in the same sine/cosine
factors as its exact fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import Discretization, ModalState, Separable, _combine

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class ProblemSpec:
    """One test problem: its exact u and v = u_t + w . grad u, the v-equation
    forcing, and the boundary treatment of the mesh it runs on."""

    dim: int
    w: np.ndarray
    c: float
    exact_u: Separable
    exact_v: Separable
    forcing: Separable | None     # v-equation forcing, None means zero
    boundary_mode: str            # "periodic" | "physical"


def _poly_factors(z):
    """X(z) = z^2 (1-z)^2 e^z with X' and X'' (closed forms); its double root
    at 0 zeroes v and grad u on an inflow side, as a supersonic closure does."""
    p = (z * (1.0 - z)) ** 2
    p1 = 2.0 * z - 6.0 * z * z + 4.0 * z ** 3
    p2 = 2.0 - 12.0 * z + 12.0 * z * z
    e = np.exp(z)
    return p * e, (p + p1) * e, (p + 2.0 * p1 + p2) * e


def forcing_mixed_2d_factors(x, y, w, c: float):
    """Space factors (a, b) of the mixed-BC forcing
    f = a sin t + b cos t = (d/dt + w . grad)^2 u - c^2 Lap u for
    u = X(x) X(y) sin t, for x and y coordinate arrays: each a list of
    terms, products of a function of x and one of y (``Separable``)."""
    X, Xp, Xpp = _poly_factors(np.asarray(x, dtype=float))
    Y, Yp, Ypp = _poly_factors(np.asarray(y, dtype=float))
    a = [((w[0] ** 2 - c * c) * Xpp - X, Y), ((w[1] ** 2 - c * c) * X, Ypp),
         (2.0 * w[0] * w[1] * Xp, Yp)]
    return a, [(2.0 * w[0] * Xp, Y), (2.0 * w[1] * X, Yp)]


def _traveling_sines(w: np.ndarray):
    """Space and time factors of sum_d sin 2 pi (x_d - w_d t), expanded as
    sin(2 pi x_d) cos(2 pi w_d t) - cos(2 pi x_d) sin(2 pi w_d t)."""

    def space(*x):
        axes = []
        for xd in x:
            # [sin, cos] of one axis; the angle goes into the cosine slot
            # first: no temporary array
            sc = np.empty((2,) + xd.shape)
            theta = np.multiply(xd, TWO_PI, out=sc[1])
            np.sin(theta, out=sc[0])
            np.cos(theta, out=theta)
            axes.append(sc)
        # in 1D that array is already the factors; sines first, then cosines
        return axes[0] if len(axes) == 1 else [sc[0] for sc in axes] + [sc[1] for sc in axes]

    def time(t):
        phase = TWO_PI * w * t
        return np.concatenate([np.cos(phase), -np.sin(phase)])

    return space, time


def periodic_1d(w: float, c: float, lift: bool = True) -> ProblemSpec:
    """Traveling wave u = cos(omega t) sin 2 pi (x - w t), omega = 2 pi c.

    Lifted, the fields are those of u - u0 g with u0 = sin 2 pi x and
    g = e^{-t^2}, which starts from 0 (its v from -w u0') and is driven by
    g (c^2 Lap u0 - (w d/dx)^2 u0) - 2 g' w u0' - g'' u0.  With a = 2 pi w,
    all three are combinations of the two factors [sin 2 pi x, cos 2 pi x].
    """
    w_vec = np.array([float(w)])
    space, phase = _traveling_sines(w_vec)
    omega = 2.0 * c * np.pi
    a = float(TWO_PI * w_vec[0])

    def time_u(t):
        out = np.cos(omega * t) * phase(t)
        if lift:
            out[0] -= np.exp(-t * t)
        return out

    def time_v(t):
        out = -omega * np.sin(omega * t) * phase(t)
        if lift:
            g = np.exp(-t * t)
            out[0] += 2.0 * t * g
            out[1] -= a * g
        return out

    # math's scalar functions cost half of numpy's on one float, and rhs
    # evaluates the forcing's time factors at every distinct stage time
    def time_f(t):
        g = math.exp(-t * t)
        return np.array([(a * a - omega * omega - 4.0 * t * t + 2.0) * g, 4.0 * a * t * g])

    return ProblemSpec(
        dim=1, w=w_vec, c=float(c),
        exact_u=Separable(space, time_u), exact_v=Separable(space, time_v),
        forcing=Separable(space, time_f) if lift else None,
        boundary_mode="periodic",
    )


def periodic_2d(w, c: float) -> ProblemSpec:
    w_vec = np.asarray(w, dtype=float)
    space, phase = _traveling_sines(w_vec)
    omega = 2.0 * c * np.pi
    eu = Separable(space, lambda t: np.sin(omega * t) * phase(t))
    ev = Separable(space, lambda t: omega * np.cos(omega * t) * phase(t))
    return ProblemSpec(
        dim=2, w=w_vec, c=float(c),
        exact_u=eu, exact_v=ev, forcing=None,
        boundary_mode="periodic",
    )


def mixed_2d(w, c: float) -> ProblemSpec:
    """Dirichlet inflow / radiation outflow problem on the unit square."""
    w_vec = np.asarray(w, dtype=float)

    def u_space(x, y):
        return [[(_poly_factors(x)[0], _poly_factors(y)[0])]]

    def v_space(x, y):
        X, Xp, _ = _poly_factors(x)
        Y, Yp, _ = _poly_factors(y)
        return [[(X, Y)], [(w_vec[0] * Xp, Y), (w_vec[1] * X, Yp)]]

    eu = Separable(u_space, lambda t: np.array([np.sin(t)]))
    ev = Separable(v_space, lambda t: np.array([np.cos(t), np.sin(t)]))
    forcing = Separable(
        space=lambda x, y: forcing_mixed_2d_factors(x, y, w_vec, c),
        time=lambda t: np.array([math.sin(t), math.cos(t)]),
    )
    return ProblemSpec(
        dim=2, w=w_vec, c=float(c),
        exact_u=eu, exact_v=ev, forcing=forcing,
        boundary_mode="physical",
    )


def project_initial(spec: ProblemSpec, disc: Discretization) -> ModalState:
    """Elementwise L2 projection of the exact data at t = 0 onto (q, s), by
    the volume rule one axis at a time: ``FieldTable.projection`` of
    ``disc.volume_quadrature``, which the forcing's projection shares, so
    lifted periodic1d's one space callable is evaluated once per grid.  The
    coefficients are coefficient-major, like a stepped state: u and v are
    F-ordered (n_elements, N) views."""
    table, ref = disc.volume_quadrature, disc.ref
    u, v = (_combine(field.time(0.0), table.projection(field.space, degree)).T
            for field, degree in ((spec.exact_u, ref.q), (spec.exact_v, ref.s)))
    return ModalState(u=u, v=v, t=0.0)
