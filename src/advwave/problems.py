"""Manufactured solutions, forcing terms, initial projection, and lifting.

The exact solutions and the forcing are ``Separable`` fields: a few space
factors, evaluated at positions of shape (..., dim), combined with time
factors.  The v solution is always the advective derivative of u; every
factory spot-checks this with finite differences.  The closed forms
``exact_*`` give the same solutions unfactored.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from typing import Callable

import numpy as np

from .operators import Discretization, FieldTable, ModalState, Separable

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class InitialData:
    """Closed-form initial displacement with the derivatives the lifting
    transform needs: gradient, Laplacian, and (w . grad)^2 u0."""

    u0: Callable
    grad_u0: Callable     # (..., dim)
    lap_u0: Callable
    adv2_u0: Callable     # takes (x, w)


@dataclass(frozen=True)
class ProblemSpec:
    kind: str
    dim: int
    w: np.ndarray
    c: float
    exact_u: Separable
    exact_v: Separable
    forcing: Separable | None     # v-equation forcing, None means zero
    boundary_mode: str            # "periodic" | "physical"
    lift: bool = False
    initial_data: InitialData | None = None


@cache
def _spot_samples(dim: int, n_samples: int, eps: float):
    """Random sample points and times of the spot check, and its stencil.

    The same for every problem of a dimension, so they are drawn once; the
    arrays are read-only because every caller shares them.
    """
    rng = np.random.default_rng(1234)
    x = rng.uniform(0.1, 0.9, size=(n_samples, dim))
    t = rng.uniform(0.1, 0.7, size=n_samples)
    # stencil rows: t + eps, t - eps, then x + eps e_d and x - eps e_d
    dx = np.concatenate([np.zeros((2, dim)), eps * np.eye(dim), -eps * np.eye(dim)])
    dt = np.concatenate([[eps, -eps], np.zeros(2 * dim)])
    arrays = (x, t, x + dx[:, None, :], t + dt[:, None])
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _spot_check_v(spec: ProblemSpec, n_samples: int = 5, eps: float = 1e-6,
                  tol: float = 1e-4) -> None:
    """Verify v = u_t + w . grad u by central differences at random points.

    All stencil points of all samples go through one call of exact_u, with
    the sample times as an array matching the points.
    """
    dim = spec.dim
    x, t, x_stencil, t_stencil = _spot_samples(dim, n_samples, eps)
    u = spec.exact_u(x_stencil, t_stencil)
    ut = (u[0] - u[1]) / (2 * eps)
    adv = spec.w @ (u[2:2 + dim] - u[2 + dim:]) / (2 * eps)
    if np.max(np.abs(ut + adv - spec.exact_v(x, t))) > tol:
        raise AssertionError(f"exact v inconsistent with u_t + w.grad u for {spec.kind}")


def exact_periodic_1d(x, t, w: float, c: float):
    """Traveling wave u = cos(2 c pi t) sin(2 pi (x - w t)); returns (u, v)."""
    x = np.asarray(x, dtype=float)
    theta = TWO_PI * (x - w * t)
    u = np.cos(2.0 * c * np.pi * t) * np.sin(theta)
    v = -2.0 * c * np.pi * np.sin(2.0 * c * np.pi * t) * np.sin(theta)
    return u, v


def exact_periodic_2d(x, y, t, w, c: float):
    """u = sin(2 c pi t)(sin(2 pi (x - wx t)) + sin(2 pi (y - wy t)))."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    bracket = np.sin(TWO_PI * (x - w[0] * t)) + np.sin(TWO_PI * (y - w[1] * t))
    u = np.sin(2.0 * c * np.pi * t) * bracket
    v = 2.0 * c * np.pi * np.cos(2.0 * c * np.pi * t) * bracket
    return u, v


def _poly_factors(z):
    """X(z) = z (1-z)^2 e^z together with X' and X'' (closed forms)."""
    p = z * (1.0 - z) ** 2
    p1 = 3.0 * z * z - 4.0 * z + 1.0
    p2 = 6.0 * z - 4.0
    e = np.exp(z)
    return p * e, (p + p1) * e, (p + 2.0 * p1 + p2) * e


def exact_mixed_2d(x, y, t, w=(0.5, 0.5)):
    """u = x(1-x)^2 y(1-y)^2 exp(x+y) sin t with v = u_t + w . grad u."""
    X, Xp, _ = _poly_factors(np.asarray(x, dtype=float))
    Y, Yp, _ = _poly_factors(np.asarray(y, dtype=float))
    u = X * Y * np.sin(t)
    v = X * Y * np.cos(t) + (w[0] * Xp * Y + w[1] * X * Yp) * np.sin(t)
    return u, v


def forcing_mixed_2d_factors(x, y, w, c: float):
    """Space factors (a, b) of the mixed-BC forcing f = a sin t + b cos t."""
    X, Xp, Xpp = _poly_factors(np.asarray(x, dtype=float))
    Y, Yp, Ypp = _poly_factors(np.asarray(y, dtype=float))
    utt = -X * Y
    adv2 = w[0] ** 2 * Xpp * Y + 2.0 * w[0] * w[1] * Xp * Yp + w[1] ** 2 * X * Ypp
    lap = Xpp * Y + X * Ypp
    cross = 2.0 * (w[0] * Xp * Y + w[1] * X * Yp)
    return utt + adv2 - c * c * lap, cross


def forcing_mixed_2d(x, y, t, w, c: float):
    """f = (d/dt + w . grad)^2 u - c^2 Lap u for the mixed-BC solution."""
    a, b = forcing_mixed_2d_factors(x, y, w, c)
    return a * np.sin(t) + b * np.cos(t)


def _traveling_sines(w: np.ndarray):
    """Space and time factors of sum_d sin 2 pi (x_d - w_d t), expanded as
    sin(2 pi x_d) cos(2 pi w_d t) - cos(2 pi x_d) sin(2 pi w_d t)."""

    def space(x):
        dim = x.shape[-1]
        out = np.empty((2 * dim,) + x.shape[:-1])
        for d in range(dim):
            # the angle goes into the cosine slot first: no temporary array
            theta = np.multiply(x[..., d], TWO_PI, out=out[dim + d])
            np.sin(theta, out=out[d])
            np.cos(theta, out=theta)
        return out

    def time(t):
        phase = np.multiply.outer(TWO_PI * w, t)
        return np.concatenate([np.cos(phase), -np.sin(phase)])

    return space, time


def periodic_1d(w: float, c: float, lift: bool = True) -> ProblemSpec:
    w_vec = np.array([float(w)])
    space, phase = _traveling_sines(w_vec)
    omega = 2.0 * c * np.pi
    eu = Separable(space, lambda t: np.cos(omega * t) * phase(t))
    ev = Separable(space, lambda t: -omega * np.sin(omega * t) * phase(t))

    initial = InitialData(
        u0=lambda x: np.sin(TWO_PI * x[..., 0]),
        grad_u0=lambda x: TWO_PI * np.cos(TWO_PI * x[..., 0])[..., None],
        lap_u0=lambda x: -TWO_PI ** 2 * np.sin(TWO_PI * x[..., 0]),
        adv2_u0=lambda x, wv: -(wv[0] * TWO_PI) ** 2 * np.sin(TWO_PI * x[..., 0]),
    )
    spec = ProblemSpec(
        kind="periodic1d", dim=1, w=w_vec, c=float(c),
        exact_u=eu, exact_v=ev, forcing=None,
        boundary_mode="periodic", lift=lift, initial_data=initial,
    )
    _spot_check_v(spec)
    return lift_initial_data(spec) if lift else spec


def periodic_2d(w, c: float, lift: bool = False) -> ProblemSpec:
    w_vec = np.asarray(w, dtype=float)
    space, phase = _traveling_sines(w_vec)
    omega = 2.0 * c * np.pi
    eu = Separable(space, lambda t: np.sin(omega * t) * phase(t))
    ev = Separable(space, lambda t: omega * np.cos(omega * t) * phase(t))

    # u(., 0) = 0: the lifting transform is the identity here
    initial = InitialData(
        u0=lambda x: np.zeros(x.shape[:-1]),
        grad_u0=lambda x: np.zeros(x.shape),
        lap_u0=lambda x: np.zeros(x.shape[:-1]),
        adv2_u0=lambda x, wv: np.zeros(x.shape[:-1]),
    )
    spec = ProblemSpec(
        kind="periodic2d", dim=2, w=w_vec, c=float(c),
        exact_u=eu, exact_v=ev, forcing=None,
        boundary_mode="periodic", lift=lift, initial_data=initial,
    )
    _spot_check_v(spec)
    return lift_initial_data(spec) if lift else spec


def mixed_2d(w, c: float, lift: bool = False) -> ProblemSpec:
    """Dirichlet inflow / radiation outflow problem on the unit square."""
    w_vec = np.asarray(w, dtype=float)

    def u_space(x):
        return (_poly_factors(x[..., 0])[0] * _poly_factors(x[..., 1])[0])[None]

    def v_space(x):
        X, Xp, _ = _poly_factors(x[..., 0])
        Y, Yp, _ = _poly_factors(x[..., 1])
        return np.stack([X * Y, w_vec[0] * Xp * Y + w_vec[1] * X * Yp])

    eu = Separable(u_space, lambda t: np.array([np.sin(t)]))
    ev = Separable(v_space, lambda t: np.array([np.cos(t), np.sin(t)]))
    forcing = Separable(
        space=lambda x: np.stack(forcing_mixed_2d_factors(x[..., 0], x[..., 1], w_vec, c)),
        time=lambda t: np.array([np.sin(t), np.cos(t)]),
    )
    initial = InitialData(
        u0=lambda x: np.zeros(x.shape[:-1]),
        grad_u0=lambda x: np.zeros(x.shape),
        lap_u0=lambda x: np.zeros(x.shape[:-1]),
        adv2_u0=lambda x, wv: np.zeros(x.shape[:-1]),
    )
    spec = ProblemSpec(
        kind="mixed2d", dim=2, w=w_vec, c=float(c),
        exact_u=eu, exact_v=ev, forcing=forcing,
        boundary_mode="physical", lift=lift, initial_data=initial,
    )
    _spot_check_v(spec)
    return lift_initial_data(spec) if lift else spec


def lift_initial_data(spec: ProblemSpec) -> ProblemSpec:
    """Transform to zero initial displacement via u = u_tilde + u0(x) e^{-t^2}.

    The lifted problem evolves u_tilde with an extra forcing; its exact
    solutions are shifted so errors computed in lifted variables equal
    errors of the reconstructed solution.  Both fields get the factors u0
    and w . grad u0 appended, with weights (-g, 0) in u and (-g', -g) in v.  Note
    the lifted v initial data is v(., 0) - w . grad u0, which need not
    vanish.
    """
    if spec.initial_data is None:
        raise ValueError("lifting requires the problem's initial-data derivatives")
    data = spec.initial_data
    w, c = spec.w, spec.c
    base_u, base_v, base_f = spec.exact_u, spec.exact_v, spec.forcing

    def lift_time(t):
        """g(t) = exp(-t^2) and its first two derivatives."""
        g = np.exp(-t * t)
        return np.array([g, -2.0 * t * g, (4.0 * t * t - 2.0) * g])

    def adv_u0(x):
        return data.grad_u0(x) @ w

    def extend(space):
        return lambda x: np.concatenate([space(x), np.stack([data.u0(x), adv_u0(x)])])

    # u and v keep sharing one space callable (one evaluation) if they did;
    # u gives the w . grad u0 factor zero weight
    space_u = extend(base_u.space)
    space_v = space_u if base_v.space is base_u.space else extend(base_v.space)

    def time_u(t):
        g = lift_time(t)[0]
        return np.concatenate([base_u.time(t), [-g, 0.0 * g]])

    lifted_u = Separable(space_u, time_u)
    lifted_v = Separable(
        space_v, lambda t: np.concatenate([base_v.time(t), -lift_time(t)[1::-1]]))

    # the lifting adds g (c^2 Lap u0 - (w . grad)^2 u0) - 2 g' w . grad u0
    # - g'' u0 to the forcing
    def lift_space(x):
        return np.stack([c * c * data.lap_u0(x) - data.adv2_u0(x, w),
                         -2.0 * adv_u0(x), -data.u0(x)])

    if base_f is None:
        forcing = Separable(space=lift_space, time=lift_time)
    else:
        forcing = Separable(
            space=lambda x: np.concatenate([base_f.space(x), lift_space(x)]),
            time=lambda t: np.concatenate([base_f.time(t), lift_time(t)]),
        )
    return replace(spec, exact_u=lifted_u, exact_v=lifted_v,
                   forcing=forcing, lift=True)


def project_initial(spec: ProblemSpec, disc: Discretization) -> ModalState:
    """Elementwise L2 projection of the exact data at t = 0 onto (q, s)."""
    ref = disc.ref
    exact = FieldTable(disc.quad_points)
    wq = ref.vol_weights
    u0 = exact(spec.exact_u, 0.0)
    v0 = exact(spec.exact_v, 0.0)
    mass_u_diag = np.diag(ref.mass_u)
    mass_v_diag = np.diag(ref.mass_v)
    u_hat = ((u0 * wq) @ ref.vol_vals_u) / mass_u_diag
    v_hat = ((v0 * wq) @ ref.vol_vals_v) / mass_v_diag
    return ModalState(u=u_hat, v=v_hat, t=0.0)
