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
    which are passed to rhs: rhs reads them without a copy.  stage must be
    coefficient-major (F-contiguous, one column per element; another
    layout raises ValueError), so that stage_flat, its entries in memory
    order, is a view of it.

    rows, of shape (5, Nu+Nv, n_elements), holds the stacked state [u v]
    (a copy of the given state) and the four stage derivatives k, one per
    row.  Their transposes x and k take the stage array's layout, so no
    stage operation, and no rhs input or output, transposes; x_uv are the u
    and v column views of x.  rows_flat and x_flat are rows and x with
    their entries in memory order, as stage_flat orders them; zeros, as
    long as x_flat, is the finiteness check's other operand.

    The step's factors are arrays, built for the step size coef_dt and
    rebuilt by ``rk4_step`` when dt changes: coef, the stages' dt/2 and dt
    as 0-d arrays (a ufunc takes them with less overhead than Python
    floats), and weights, the update's (1, dt/6, dt/3, dt/3, dt/6).
    """

    def __init__(self, state: ModalState, disc: Discretization):
        nu = state.u.shape[1]
        self.stage, self.stage_uv = disc.input, disc.input_uv
        if not self.stage.flags.f_contiguous:
            raise ValueError("the stage array must be coefficient-major")
        self.stage_flat = self.stage.ravel(order="F")
        self.rows = np.empty((5,) + self.stage.T.shape)
        self.x, self.k = self.rows[0].T, tuple(row.T for row in self.rows[1:])
        self.x_uv = self.x[:, :nu], self.x[:, nu:]
        self.x_uv[0][...], self.x_uv[1][...] = state.u, state.v
        self.rows_flat = self.rows.reshape(5, -1)
        self.x_flat = self.rows_flat[0]
        self.zeros = np.zeros_like(self.x_flat)
        self.coef_dt = self.coef = self.weights = None


def rk4_step(buf: RK4Buffers, t: float, dt: float, rhs) -> float:
    """One classic 4-stage RK4 step of buf.x from time t, in place; returns
    t + dt.  rhs(u, v, t, out=k) writes the stacked [du dv] into k.

    The stages are x (copied into the stage array) and x + (dt/2) k and
    x + dt k, each rounded in that order.  The update
    x + dt/6 (k1 + 2 k2 + 2 k3 + k4) is one BLAS product of the weights
    (1, dt/6, dt/3, dt/3, dt/6) with the five rows [x k1 k2 k3 k4], written
    into the stage array and copied into x: two array calls where the same
    formula on separate arrays takes seven.  Its rounding is the BLAS
    kernel's, which may depend on an entry's position in the rows.
    """
    if dt != buf.coef_dt:
        buf.coef_dt = dt
        buf.coef = np.array(0.5 * dt), np.array(dt)
        buf.weights = np.array([1.0, dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0])
    x, stage, stage_uv = buf.x, buf.stage, buf.stage_uv
    k1, k2, k3, k4 = buf.k
    half, step = buf.coef
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
    np.dot(buf.weights, buf.rows_flat, buf.stage_flat)
    buf.x_flat[...] = buf.stage_flat
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
    that keeps it must copy it.  The returned state is a copy of the last
    one, laid out like it, whose arrays belong to it alone; state0 is not
    modified.  A state that stops being finite raises InstabilityError at
    the step that made it so, without numpy's warning for an invalid
    operation: the steps run under np.errstate(invalid="ignore"), the
    observers under the caller's settings.
    """
    if not (n_steps >= 1 if T > 0 else T == 0 and n_steps == 0):
        raise ValueError(f"{n_steps!r} steps do not reach T = {T!r}")
    # the returned state's array, allocated before the buffers (see below)
    final = np.empty_like(disc.input)
    buf = RK4Buffers(state0, disc)
    state = ModalState(*buf.x_uv, state0.t)
    for obs in observers:
        obs(0, state)
    dt = T / n_steps if n_steps else 0.0
    rhs = disc.rhs
    # an invalid operation in a step leaves a value that is not finite, and
    # so ends in InstabilityError; the check's own 0 inf would warn beside it.
    # One context for the steps (one per step costs ~1 us a step); the
    # observers run under the caller's settings
    caller = np.geterr()
    with np.errstate(invalid="ignore"):
        for step in range(1, n_steps + 1):
            t = rk4_step(buf, state.t, dt, rhs)
            # the last step lands exactly on T, before its observers see it
            # (the accumulated time differs from it only by roundoff)
            state.t = T if step == n_steps else t
            # one product covers u and v: 0 x = 0 for every finite x, and
            # 0 inf and 0 NaN are NaN, so the sum is 0 exactly when the state
            # is finite
            if not np.dot(buf.x_flat, buf.zeros) == 0.0:
                raise InstabilityError(step)
            if observers:
                with np.errstate(**caller):
                    for obs in observers:
                        obs(step, state)
    # a copy in the buffers' layout, so that the returned state does not
    # keep the solve's five rows alive.  Its array is allocated before them:
    # returning the rows, or a copy allocated after them, cost a sweep-2d
    # pass ~250 page faults in the set-up of its next grids
    final[...] = buf.x
    nu = state0.u.shape[1]
    return ModalState(final[:, :nu], final[:, nu:], state.t)
