"""Classic RK4 time integration with CFL-based step selection."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .operators import Discretization, ModalState


class InstabilityError(RuntimeError):
    """Raised when the state stops being finite during a run."""

    def __init__(self, step: int):
        super().__init__(f"non-finite state detected at step {step}")
        self.step = step


@dataclass(frozen=True)
class TimeControls:
    cfl: float
    T: float
    dt_override: float | None = None

    def __post_init__(self):
        if self.cfl <= 0:
            raise ValueError("cfl must be positive")
        if self.T < 0:
            raise ValueError("final time must be nonnegative")


def compute_dt(h: float, controls: TimeControls) -> float:
    """dt = CFL * h (or the override), shrunk minimally so T/dt is an integer.

    Raises ValueError when T/dt overflows to infinity.
    """
    if h <= 0:
        raise ValueError("spacing must be positive")
    if controls.T == 0.0:
        return 0.0
    base = controls.dt_override if controls.dt_override is not None else controls.cfl * h
    ratio = controls.T / base
    if not math.isfinite(ratio):
        raise ValueError(f"T / dt = {controls.T!r} / {base!r} is not a finite number of steps")
    steps = max(1, math.ceil(ratio - 1e-12))
    return controls.T / steps


def check_cfl_margin(dt: float, h: float, q: int, w, c: float) -> None:
    """Warn when dt exceeds the RK4 stability bound for the expected
    spectral-radius scaling (c + |w|) q^2 / h."""
    speed = c + float(np.linalg.norm(np.atleast_1d(w)))
    radius_estimate = speed * q * q / h
    if dt * radius_estimate > 2.8:
        warnings.warn(
            f"dt = {dt:.3e} likely unstable: estimated spectral radius "
            f"{radius_estimate:.3e} exceeds the RK4 stability interval",
            stacklevel=2,
        )


def rk4_step(state: ModalState, dt: float, rhs) -> ModalState:
    """One classic 4-stage RK4 step; rhs(u, v, t) -> (du, dv)."""
    u, v, t = state.u, state.v, state.t
    k1u, k1v = rhs(u, v, t)
    k2u, k2v = rhs(u + 0.5 * dt * k1u, v + 0.5 * dt * k1v, t + 0.5 * dt)
    k3u, k3v = rhs(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v, t + 0.5 * dt)
    k4u, k4v = rhs(u + dt * k3u, v + dt * k3v, t + dt)
    un = u + dt / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    vn = v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return ModalState(u=un, v=vn, t=t + dt)


def evolve(state0: ModalState, controls: TimeControls, disc: Discretization,
           observers=()) -> ModalState:
    """Integrate to exactly t = T; observers are called as obs(step, state),
    including once with step 0 for the initial state."""
    dt = compute_dt(disc.mesh.h, controls)
    state = state0.copy()
    for obs in observers:
        obs(0, state)
    if controls.T == 0.0:
        return state
    n_steps = round(controls.T / dt)
    for step in range(1, n_steps + 1):
        state = rk4_step(state, dt, disc.rhs)
        if not (np.all(np.isfinite(state.u)) and np.all(np.isfinite(state.v))):
            raise InstabilityError(step)
        for obs in observers:
            obs(step, state)
    # land exactly on T (dt was chosen so the product is exact up to roundoff)
    state.t = controls.T
    return state
