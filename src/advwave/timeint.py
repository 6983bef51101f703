"""Classic RK4 time integration, with step snapping and instability detection."""

from __future__ import annotations

import math

import numpy as np

from .operators import Discretization, ModalState


class InstabilityError(RuntimeError):
    """Raised when the state stops being finite during a run.

    Its only argument is the step, so that it pickles (from a worker
    process of ``advwave converge``) with its message intact.
    """

    def __init__(self, step: int):
        super().__init__(step)
        self.step = step

    def __str__(self) -> str:
        return f"non-finite state detected at step {self.step}"


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


class RK4Buffers:
    """The arrays one RK4 solve steps in, allocated once per solve.

    x is the stacked state [u v] of shape (n_elements, Nu+Nv), a copy of
    the given state; k holds the four stage derivatives and stage the
    state each of them is evaluated at.  x_uv are the u and v column views
    of x, stage_uv those of stage, which are passed to rhs.  The stages are
    written into the array whose column views stage_uv are: evolve passes
    the discretization's ``input_uv``, which rhs reads without a copy.
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

    The stages are x (copied into the stage array), x + (dt/2) k and the
    update x + dt/6 (k1 + 2 k2 + 2 k3 + k4), each rounded in that order, so
    the result is bitwise that of the same formulas on separate arrays.
    """
    x, stage, stage_uv = buf.x, buf.stage, buf.stage_uv
    k1, k2, k3, k4 = buf.k
    half = 0.5 * dt
    t_half = t + half
    np.copyto(stage, x)
    rhs(*stage_uv, t, out=k1)
    np.multiply(k1, half, out=stage)
    stage += x
    rhs(*stage_uv, t_half, out=k2)
    np.multiply(k2, half, out=stage)
    stage += x
    rhs(*stage_uv, t_half, out=k3)
    np.multiply(k3, dt, out=stage)
    stage += x
    rhs(*stage_uv, t + dt, out=k4)
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
    with step 0 for the initial state, and after the last step with
    state.t equal to T.

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
        t = rk4_step(buf, state.t, dt, rhs)
        # the last step lands exactly on T, before its observers see it (dt
        # divides T, so the accumulated time differs only by roundoff)
        state.t = T if step == n_steps else t
        # one check on the stacked array covers u and v; the ufunc reduce
        # is ndarray.all without its Python-level wrapper
        if not np.logical_and.reduce(np.isfinite(buf.x, out=buf.finite), axis=None):
            raise InstabilityError(step)
        for obs in observers:
            obs(step, state)
    return state
