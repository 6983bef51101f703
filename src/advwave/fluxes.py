"""Numerical flux states (v*, grad u*) and per-face energy-rate densities.

All functions are pointwise and broadcast over leading axes, so the same
code path serves the scalar contracts and the batched evaluation inside the
semidiscrete operator.  Traces carry the value of v, the full gradient of u,
and the outward unit normal of the contributing element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import FaceKind


@dataclass(frozen=True)
class Trace:
    """One-sided face data: v, grad u, and the element's outward normal."""

    v: np.ndarray        # (...,)
    grad_u: np.ndarray   # (..., dim)
    n: np.ndarray        # (..., dim), unit length

    def normal_grad(self) -> np.ndarray:
        return np.sum(self.grad_u * self.n, axis=-1)


@dataclass(frozen=True)
class FluxState:
    v_star: np.ndarray
    grad_u_star: np.ndarray


@dataclass(frozen=True)
class FluxParams:
    """Interior-flux parametrization (sigma, beta, eta) plus splitting speed xi.

    v*      = sigma v1 + (1-sigma) v2 - eta [[grad u]]
    grad u* = -beta [[v]] + (1-sigma) grad u1 + sigma grad u2

    Dissipative parameters (beta > 0 or eta > 0) additionally switch
    supersonic interior faces to the one-sided upwind flux; the central
    flux keeps the parametrized form everywhere.
    """

    sigma: float = 0.5
    beta: float = 0.0
    eta: float = 0.0
    xi: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.sigma <= 1.0):
            raise ValueError("sigma must lie in [0, 1]")
        if self.beta < 0 or self.eta < 0:
            raise ValueError("beta and eta must be nonnegative")
        if self.xi <= 0:
            raise ValueError("xi must be positive")

    @classmethod
    def central(cls, xi: float = 1.0) -> "FluxParams":
        return cls(sigma=0.5, beta=0.0, eta=0.0, xi=xi)

    @classmethod
    def sommerfeld(cls, xi: float = 1.0) -> "FluxParams":
        return cls(sigma=0.5, beta=1.0 / (2.0 * xi), eta=xi / 2.0, xi=xi)

    @property
    def dissipative(self) -> bool:
        return self.beta > 0.0 or self.eta > 0.0


def grad_jump(t1: Trace, t2: Trace) -> np.ndarray:
    """Scalar jump [[grad u]] = grad u1 . n1 + grad u2 . n2."""
    return t1.normal_grad() + t2.normal_grad()


def value_jump(t1: Trace, t2: Trace) -> np.ndarray:
    """Vector jump [[v]] = v1 n1 + v2 n2."""
    return t1.v[..., None] * t1.n + t2.v[..., None] * t2.n


def interior_flux(t1: Trace, t2: Trace, p: FluxParams, w) -> FluxState:
    """General parametrized interior flux; trace 1 belongs to the owner."""
    jg = grad_jump(t1, t2)
    jv = value_jump(t1, t2)
    v_star = p.sigma * t1.v + (1.0 - p.sigma) * t2.v - p.eta * jg
    g_star = -p.beta * jv + (1.0 - p.sigma) * t1.grad_u + p.sigma * t2.grad_u
    return FluxState(v_star=v_star, grad_u_star=g_star)


def supersonic_interior_flux(t1: Trace, t2: Trace, w, c: float) -> FluxState:
    """One-sided upwind flux for |w.n| > c; everything comes from upwind."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    wn1 = np.sum(t1.n * w, axis=-1)
    if np.any(np.abs(wn1) <= c):
        raise ValueError("supersonic flux called on a subsonic face")
    take1 = wn1 >= c
    v_star = np.where(take1, t1.v, t2.v)
    g_star = np.where(take1[..., None], t1.grad_u, t2.grad_u)
    return FluxState(v_star=v_star, grad_u_star=g_star)


def inflow_flux(t: Trace, w, xi: float) -> FluxState:
    """Dirichlet (u = 0) inflow closure for -c <= w.n < 0.

    Enforces v* = w . grad u*, the incoming characteristic relation
    v* - xi grad u* . n = v - xi grad u . n, and (grad u*)_tau = 0.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    wn = np.sum(t.n * w, axis=-1)
    gn = t.normal_grad()
    num = xi * gn - t.v
    gn_star = num / (xi - wn)
    v_star = wn / (xi - wn) * num
    g_star = gn_star[..., None] * t.n
    return FluxState(v_star=v_star, grad_u_star=g_star)


def outflow_flux(t: Trace, xi: float) -> FluxState:
    """Radiation (v* + xi grad u* . n = 0) outflow closure for 0 <= w.n <= c."""
    gn = t.normal_grad()
    gn_star = (xi * gn - t.v) / (2.0 * xi)
    v_star = (t.v - xi * gn) / 2.0
    g_star = t.grad_u + (gn_star - gn)[..., None] * t.n
    return FluxState(v_star=v_star, grad_u_star=g_star)


def supersonic_boundary_flux(t: Trace, kind: FaceKind) -> FluxState:
    """Supersonic boundary states: inflow pins both, outflow imposes nothing."""
    if kind == FaceKind.BOUNDARY_INFLOW_SUPERSONIC:
        return FluxState(v_star=np.zeros_like(t.v), grad_u_star=np.zeros_like(t.grad_u))
    if kind == FaceKind.BOUNDARY_OUTFLOW_SUPERSONIC:
        return FluxState(v_star=t.v, grad_u_star=t.grad_u)
    raise ValueError(f"not a supersonic boundary kind: {kind}")


def compute_flux(kind: FaceKind, t1: Trace, t2: Trace | None,
                 p: FluxParams, w, c: float) -> FluxState:
    """Dispatch to the flux for a classified face."""
    if kind == FaceKind.INTERIOR_SUBSONIC:
        return interior_flux(t1, t2, p, w)
    if kind == FaceKind.INTERIOR_SUPERSONIC:
        if p.dissipative:
            return supersonic_interior_flux(t1, t2, w, c)
        return interior_flux(t1, t2, p, w)
    if kind == FaceKind.BOUNDARY_INFLOW:
        return inflow_flux(t1, w, p.xi)
    if kind == FaceKind.BOUNDARY_OUTFLOW:
        return outflow_flux(t1, p.xi)
    return supersonic_boundary_flux(t1, kind)


# --- energy-rate densities -------------------------------------------------
#
# Closed-form integrands of dE^h/dt, one per face regime.  These are
# independent of the operator assembly and serve as the reference side of
# the energy-identity diagnostic.

def _tangential_sq(t: Trace) -> np.ndarray:
    gn = t.normal_grad()
    return np.sum(t.grad_u ** 2, axis=-1) - gn ** 2


def interior_energy_density(t1: Trace, t2: Trace, p: FluxParams, w, c: float) -> np.ndarray:
    """J^h for the parametrized interior flux (zero for the central preset).

    The sigma != 1/2 contribution (sigma - 1/2) w.n (c^2 |g1 - g2|^2
    - (v1 - v2)^2) is sign-indefinite, which is why only sigma = 1/2
    members of the family are used in practice.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    wn1 = np.sum(t1.n * w, axis=-1)
    jg = grad_jump(t1, t2)
    dv = t1.v - t2.v  # [[v]] . n1
    tau = p.sigma - 0.5
    skew = tau * wn1 * (c * c * np.sum((t1.grad_u - t2.grad_u) ** 2, axis=-1)
                        - dv ** 2)
    return skew - (c * c * p.eta * jg ** 2 + c * c * p.beta * dv ** 2
                   - (c * c * p.beta + p.eta) * jg * dv * wn1)


def supersonic_interior_energy_density(t1: Trace, t2: Trace, w, c: float) -> np.ndarray:
    """J^h for the one-sided upwind flux at a supersonic interior face."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    wn1 = np.sum(t1.n * w, axis=-1)
    dg = t1.grad_u - t2.grad_u
    dv = t1.v - t2.v
    quad = 0.5 * (c * c * np.sum(dg ** 2, axis=-1) + dv ** 2)
    take1 = wn1 >= c
    dgn1 = np.sum(dg * t1.n, axis=-1)
    from1 = quad * (-wn1) + c * c * dgn1 * dv
    from2 = quad * wn1 + c * c * (-dgn1) * dv
    return np.where(take1, from1, from2)


def inflow_energy_density(t: Trace, w, c: float, xi: float) -> np.ndarray:
    """B_I bracket of the global energy identity (subsonic inflow)."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    wn = np.sum(t.n * w, axis=-1)
    gn = t.normal_grad()
    return (0.5 * c * c * wn * _tangential_sq(t)
            + 0.5 * c * c * wn * gn ** 2
            + (0.5 * wn + (wn ** 2 - c * c) / (xi - wn)) * t.v ** 2
            + (c * c - xi * wn) * wn / (xi - wn) * gn * t.v)


def outflow_energy_density(t: Trace, w, c: float, xi: float) -> np.ndarray:
    """B_O bracket of the global energy identity (subsonic outflow)."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    wn = np.sum(t.n * w, axis=-1)
    gn = t.normal_grad()
    return (-0.5 * c * c * _tangential_sq(t) * wn
            + (c * c / (2.0 * xi) + xi / 2.0) * gn * t.v * wn
            - 0.5 * c * c * xi * gn ** 2
            - c * c / (2.0 * xi) * t.v ** 2)


def supersonic_boundary_energy_density(t: Trace, kind: FaceKind, w, c: float) -> np.ndarray:
    """Boundary integrand with the supersonic states substituted."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    wn = np.sum(t.n * w, axis=-1)
    gn = t.normal_grad()
    half = 0.5 * c * c * np.sum(t.grad_u ** 2, axis=-1) + 0.5 * t.v ** 2
    if kind == FaceKind.BOUNDARY_INFLOW_SUPERSONIC:
        return half * wn - c * c * t.v * gn
    if kind == FaceKind.BOUNDARY_OUTFLOW_SUPERSONIC:
        return -half * wn + c * c * t.v * gn
    raise ValueError(f"not a supersonic boundary kind: {kind}")


def energy_rate_density(kind: FaceKind, t1: Trace, t2: Trace | None,
                        p: FluxParams, w, c: float) -> np.ndarray:
    """Pointwise dE^h/dt contribution of a classified face."""
    if kind == FaceKind.INTERIOR_SUBSONIC:
        return interior_energy_density(t1, t2, p, w, c)
    if kind == FaceKind.INTERIOR_SUPERSONIC:
        if p.dissipative:
            return supersonic_interior_energy_density(t1, t2, w, c)
        return interior_energy_density(t1, t2, p, w, c)
    if kind == FaceKind.BOUNDARY_INFLOW:
        return inflow_energy_density(t1, w, c, p.xi)
    if kind == FaceKind.BOUNDARY_OUTFLOW:
        return outflow_energy_density(t1, w, c, p.xi)
    return supersonic_boundary_energy_density(t1, kind, w, c)
