"""Classic RK4 time integration on a given number of equal steps, with
instability detection."""

from __future__ import annotations

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


class RK4Buffers:
    """The arrays one RK4 solve steps in, allocated once per solve.

    stage is the array each stage derivative is evaluated at, disc's
    ``input``, and stage_uv its u and v column views ``disc.input_uv``,
    which are passed to rhs: rhs reads them without a copy.  x, the
    stacked state [u v] of shape (n_elements, Nu+Nv) (a copy of the given
    state), the four stage derivatives k and the finiteness mask take the
    stage array's layout (coefficient-major), so no stage operation, and no
    rhs input or output, transposes.  x_uv are the u and v column views of
    x.

    The step's scalar factors are 0-d arrays, which a ufunc takes with less
    overhead than Python floats: two, and coef, the dt/2, dt and dt/6 of
    the step size coef_dt, which ``rk4_step`` rebuilds when dt changes.
    """

    def __init__(self, state: ModalState, disc: Discretization):
        nu = state.u.shape[1]
        self.stage, self.stage_uv = disc.input, disc.input_uv
        self.x = np.empty_like(self.stage)
        self.x_uv = self.x[:, :nu], self.x[:, nu:]
        self.x_uv[0][...], self.x_uv[1][...] = state.u, state.v
        self.k = tuple(np.empty_like(self.stage) for _ in range(4))
        self.finite = np.empty_like(self.stage, dtype=bool)
        self.two = np.array(2.0)
        self.coef_dt = self.coef = None


def rk4_step(buf: RK4Buffers, t: float, dt: float, rhs) -> float:
    """One classic 4-stage RK4 step of buf.x from time t, in place; returns
    t + dt.  rhs(u, v, t, out=k) writes the stacked [du dv] into k.

    The stages are x (copied into the stage array), x + (dt/2) k and the
    update x + dt/6 (k1 + 2 k2 + 2 k3 + k4), each rounded in that order, so
    the result is bitwise that of the same formulas on separate arrays.
    """
    if dt != buf.coef_dt:
        buf.coef_dt, buf.coef = dt, tuple(np.array(a) for a in (0.5 * dt, dt, dt / 6.0))
    x, stage, stage_uv, two = buf.x, buf.stage, buf.stage_uv, buf.two
    k1, k2, k3, k4 = buf.k
    half, step, sixth = buf.coef
    mul, add = np.multiply, np.add
    t_half = t + 0.5 * dt
    stage[...] = x
    rhs(*stage_uv, t, out=k1)
    mul(k1, half, stage)
    add(stage, x, stage)
    rhs(*stage_uv, t_half, out=k2)
    mul(k2, half, stage)
    add(stage, x, stage)
    rhs(*stage_uv, t_half, out=k3)
    mul(k3, step, stage)
    add(stage, x, stage)
    rhs(*stage_uv, t + dt, out=k4)
    mul(k2, two, k2)
    add(k2, k1, k2)
    mul(k3, two, k3)
    add(k2, k3, k2)
    add(k2, k4, k2)
    mul(k2, sixth, k2)
    add(x, k2, x)
    return t + dt


def evolve(state0: ModalState, disc: Discretization, T: float, n_steps: int,
           observers=()) -> ModalState:
    """Integrate to exactly t = T in n_steps steps of T / n_steps; observers
    are called as obs(step, state), including once with step 0 for the
    initial state, and after the last step with state.t equal to T.

    The grid must reach T: n_steps >= 1 when T > 0, and n_steps = 0 when
    T = 0; any other pair (a negative or NaN T too) is a ValueError.  The
    state is stepped in place in the buffers of one RK4Buffers, so the
    state an observer receives is valid only during the call: an observer
    that keeps it must copy it.  The returned state's arrays belong to it
    alone; state0 is not modified.
    """
    if not (n_steps >= 1 if T > 0 else T == 0 and n_steps == 0):
        raise ValueError(f"{n_steps!r} steps do not reach T = {T!r}")
    buf = RK4Buffers(state0, disc)
    state = ModalState(*buf.x_uv, state0.t)
    for obs in observers:
        obs(0, state)
    if n_steps == 0:
        return state
    dt = T / n_steps
    rhs = disc.rhs
    for step in range(1, n_steps + 1):
        t = rk4_step(buf, state.t, dt, rhs)
        # the last step lands exactly on T, before its observers see it (the
        # accumulated time differs from it only by roundoff)
        state.t = T if step == n_steps else t
        # one check on the stacked array covers u and v; the ufunc reduce
        # is ndarray.all without its Python-level wrapper
        if not np.logical_and.reduce(np.isfinite(buf.x, buf.finite), axis=None):
            raise InstabilityError(step)
        for obs in observers:
            obs(step, state)
    return state
