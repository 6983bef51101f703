"""Classic RK4 time integration, with step snapping and a stability warning."""

from __future__ import annotations

import math
import warnings

import numpy as np

from .operators import Discretization, ModalState


class InstabilityError(RuntimeError):
    """Raised when the state stops being finite during a run."""

    def __init__(self, step: int):
        super().__init__(f"non-finite state detected at step {step}")
        self.step = step


def compute_dt(T: float, dt_max: float) -> float:
    """The largest step <= dt_max that divides T into a whole number of
    steps; 0 when T = 0.

    Raises ValueError when T / dt_max is not a finite number.
    """
    if T == 0.0:
        return 0.0
    ratio = T / dt_max
    if not math.isfinite(ratio):
        raise ValueError(f"T / dt = {T!r} / {dt_max!r} is not a finite number of steps")
    steps = max(1, math.ceil(ratio - 1e-12))
    return T / steps


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


class RK4Buffers:
    """The arrays one RK4 solve steps in, allocated once per solve.

    x is the stacked state [u v] of shape (n_elements, Nu+Nv), a copy of
    the given state; k holds the four stage derivatives and stage the
    state each of the last three is evaluated at.  x_uv and stage_uv are
    the u and v column views passed to rhs.  The stages are written into
    the array whose column views stage_uv are: evolve passes the
    discretization's ``input_uv``, which rhs reads without a copy.
    """

    def __init__(self, state: ModalState, stage_uv):
        nu = state.u.shape[1]
        self.x = np.concatenate([state.u, state.v], axis=1)
        self.k = np.empty((4,) + self.x.shape)
        self.finite = np.empty(self.x.shape, dtype=bool)
        self.x_uv = self.x[:, :nu], self.x[:, nu:]
        self.stage, self.stage_uv = stage_uv[0].base, stage_uv


def rk4_step(buf: RK4Buffers, t: float, dt: float, rhs) -> float:
    """One classic 4-stage RK4 step of buf.x from time t, in place; returns
    t + dt.  rhs(u, v, t, out=k) writes the stacked [du dv] into k.

    The stages are x + (dt/2) k and the update x + dt/6 (k1 + 2 k2 + 2 k3
    + k4), each rounded in that order, so the result is bitwise that of
    the same formulas on separate arrays.
    """
    x, stage = buf.x, buf.stage
    k1, k2, k3, k4 = buf.k
    half = 0.5 * dt
    rhs(*buf.x_uv, t, out=k1)
    np.multiply(k1, half, out=stage)
    stage += x
    rhs(*buf.stage_uv, t + half, out=k2)
    np.multiply(k2, half, out=stage)
    stage += x
    rhs(*buf.stage_uv, t + half, out=k3)
    np.multiply(k3, dt, out=stage)
    stage += x
    rhs(*buf.stage_uv, t + dt, out=k4)
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= dt / 6.0
    x += k2
    return t + dt


def evolve(state0: ModalState, disc: Discretization, T: float, dt: float,
           observers=()) -> ModalState:
    """Integrate to exactly t = T in steps of dt, which must divide T (see
    compute_dt); observers are called as obs(step, state), including once
    with step 0 for the initial state.

    The state is stepped in place in the buffers of one RK4Buffers, so the
    state an observer receives is valid only during the call: an observer
    that keeps it must copy it.  The returned state's arrays belong to it
    alone; state0 is not modified.
    """
    buf = RK4Buffers(state0, disc.input_uv)
    state = ModalState(*buf.x_uv, state0.t)
    for obs in observers:
        obs(0, state)
    if T == 0.0:
        return state
    n_steps = round(T / dt)
    rhs = disc.rhs
    for step in range(1, n_steps + 1):
        state.t = rk4_step(buf, state.t, dt, rhs)
        # one check on the stacked array covers u and v
        if not np.isfinite(buf.x, out=buf.finite).all():
            raise InstabilityError(step)
        for obs in observers:
            obs(step, state)
    # land exactly on T (dt divides it, so the product is exact up to roundoff)
    state.t = T
    return state
