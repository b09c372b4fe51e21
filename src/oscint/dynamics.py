"""Forward-Euler integration of the gated recurrent model.

All three state blocks advance synchronously: the response update and both
gain updates read the state from the *start* of the step, never a value
computed within it.  The response pulls toward a convex mixture of the
feedforward drive and the recurrent prediction,

    tau_y[j] * dy[j]/dt = -y[j] + (b+/(1+b+)) z[j] + (1/(1+a+)) yhat[j],

while each gain relaxes toward its own input drive with its population time
constant.  Gains are stored raw; only their rectified values enter the
response update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    DivergenceError,
    InputFunction,
    NetworkSpec,
    SimState,
    Trajectory,
    input_drive,
    recurrent_drive,
    rectify,
    steps_in_span,
)


@dataclass
class StepInput:
    """Input sample consumed by one step."""

    x: np.ndarray
    dt: float


def step(spec: NetworkSpec, state: SimState, inp: StepInput) -> SimState:
    """Advance the full state by one step of length ``inp.dt``.

    Returns a fresh state at ``state.t + inp.dt``; the argument is not
    modified.  Raises :class:`DivergenceError` if any component leaves the
    finite range.
    """
    x = np.asarray(inp.x)
    dt = inp.dt
    if dt <= 0.0:
        raise ValueError("dt must be positive")

    a_plus = rectify(state.a)
    b_plus = rectify(state.b)
    beta = b_plus / (1.0 + b_plus)

    z = input_drive(spec, x)
    yhat = recurrent_drive(spec, state.y)
    y_new = state.y + (dt / spec.tau_y) * (
        -state.y + beta * z + yhat / (1.0 + a_plus)
    )

    # Gain populations are real; complex responses contribute their real part.
    x_real = x.real if np.iscomplexobj(x) else x
    a_in = spec.c_a.copy()
    if not spec._w_ax_zero:
        a_in += spec.w_ax @ x_real
    if not spec._w_ay_zero:
        a_in += (spec.w_ay @ state.y).real
    b_in = spec.c_b.copy()
    if not spec._w_bx_zero:
        b_in += spec.w_bx @ x_real
    if not spec._w_by_zero:
        b_in += (spec.w_by @ state.y).real
    a_new = state.a + (dt / spec.tau_a) * (-state.a + a_in)
    b_new = state.b + (dt / spec.tau_b) * (-state.b + b_in)

    if not (
        np.all(np.isfinite(y_new))
        and np.all(np.isfinite(a_new))
        and np.all(np.isfinite(b_new))
    ):
        raise DivergenceError(
            f"non-finite state at t = {state.t + dt:.6g} ms"
        )
    return SimState(y=y_new, a=a_new, b=b_new, t=state.t + dt)


def simulate(
    spec: NetworkSpec,
    input_fn: InputFunction,
    t_start: float,
    t_stop: float,
    dt: float = 1.0,
    init: Optional[SimState] = None,
    record_readout: bool = False,
) -> Trajectory:
    """Integrate from ``t_start`` to ``t_stop`` and record every sample.

    ``input_fn(t)`` must return the length-M input vector at time ``t`` (ms).
    The recorded sample at index ``i`` is the state at ``t_start + i*dt``
    alongside the input/drive evaluated there; the final sample at ``t_stop``
    is recorded without stepping past it.  Identical arguments produce
    bit-identical trajectories.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t_stop < t_start:
        raise ValueError("t_stop must be >= t_start")
    if dt > float(np.min(spec.tau_y)) / 10.0 + 1e-12:
        raise ValueError(
            f"dt = {dt} exceeds min(tau_y)/10 = {float(np.min(spec.tau_y)) / 10.0}"
        )

    n_steps = steps_in_span(t_stop - t_start, dt)
    n_samples = n_steps + 1
    n, m = spec.n_neurons, spec.n_inputs

    x0 = np.asarray(input_fn(t_start))
    x_dtype = np.complex128 if np.iscomplexobj(x0) else np.float64
    xs = np.zeros((n_samples, m), dtype=x_dtype)
    zs = np.zeros((n_samples, n), dtype=np.complex128)
    as_ = np.zeros((n_samples, n))
    bs = np.zeros((n_samples, n))
    ys = np.zeros((n_samples, n), dtype=np.complex128)

    state = init if init is not None else SimState.zeros(spec, t=t_start)
    if state.y.shape != (n,):
        raise ValueError("initial state has wrong width")

    for i in range(n_samples):
        t = t_start + i * dt
        x = x0 if i == 0 else np.asarray(input_fn(t))
        xs[i] = x
        zs[i] = input_drive(spec, x)
        as_[i] = state.a
        bs[i] = state.b
        ys[i] = state.y
        if i < n_steps:
            state = step(spec, state, StepInput(x=x, dt=dt))

    times = t_start + dt * np.arange(n_samples)
    traj = Trajectory(dt=dt, times=times, x=xs, z=zs, a=as_, b=bs, y=ys)
    if record_readout and spec.n_readout > 0:
        traj.readout = ys @ spec.w_ry.T + spec.c_r
    return traj
