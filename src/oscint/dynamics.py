"""Forward-Euler integration of the gated recurrent model.

All three state blocks advance synchronously: the response update and both
gain updates read the state from the *start* of the step, never a value
computed within it.  The response pulls toward a convex mixture of the
feedforward drive and the recurrent prediction,

    tau_y[j] * dy[j]/dt = -y[j] + (b+/(1+b+)) z[j] + (1/(1+a+)) yhat[j],

while each gain relaxes toward its own input drive with its population time
constant.  Gains are stored raw; only their rectified values enter the
response update.

:func:`simulate` takes one of two paths through the same recurrence.  When
the gains do not read the response (``w_ay = w_by = 0``, true of every
preset) the drive z and both gains are known before y is, so the run goes
in blocks of ``_BLOCK`` steps: each block's inputs are evaluated, z and
the two gain drives are one matmul each, the gains advance as one IIR
filter (:func:`oscint.batch._gain_series`), and a loop advances y alone,
one ``W_yy @ y`` per step.  Specs whose gains read y take one :func:`step`
per sample; ``step`` is also the reference the block path is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .batch import _gain_series
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

# Steps per block of the input-gated path: long enough that the per-block
# matmuls and filters cost little per step, short enough that the block's
# temporaries stay small (a few (512, N) arrays).
_BLOCK = 512


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

    When ``w_ay`` and ``w_by`` are zero the run advances in blocks of
    ``_BLOCK`` steps (see the module docstring); otherwise it takes one
    :func:`step` per sample.  The two paths agree to rounding.  Either way a
    non-finite y, a or b raises :class:`DivergenceError` naming the time of
    the first non-finite sample.
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

    state = init if init is not None else SimState.zeros(spec, t=t_start)
    for name in ("y", "a", "b"):
        shape = np.shape(getattr(state, name))
        if shape != (n,):
            raise ValueError(f"init.{name} has shape {shape}, expected {(n,)}")

    x0 = np.asarray(input_fn(t_start))
    x_dtype = np.complex128 if np.iscomplexobj(x0) else np.float64
    xs = np.zeros((n_samples, m), dtype=x_dtype)
    zs = np.zeros((n_samples, n), dtype=np.complex128)
    as_ = np.zeros((n_samples, n))
    bs = np.zeros((n_samples, n))
    ys = np.zeros((n_samples, n), dtype=np.complex128)
    xs[0], ys[0], as_[0], bs[0] = x0, state.y, state.a, state.b

    times = t_start + dt * np.arange(n_samples)
    traj = Trajectory(dt=dt, times=times, x=xs, z=zs, a=as_, b=bs, y=ys)
    if spec._w_ay_zero and spec._w_by_zero:
        _advance_blocks(spec, input_fn, traj, x0)
    else:
        _advance_steps(spec, input_fn, traj, x0, state)
    if record_readout and spec.n_readout > 0:
        traj.readout = ys @ spec.w_ry.T + spec.c_r
    return traj


def _advance_steps(spec: NetworkSpec, input_fn: InputFunction,
                   traj: Trajectory, x0: np.ndarray, state: SimState) -> None:
    """Fill ``traj`` with one :func:`step` per sample."""
    t_start, dt = float(traj.times[0]), traj.dt
    # The clock starts at t_start whatever init.t says, so a divergence is
    # reported at the same time as on the block path.
    state = SimState(y=state.y, a=state.a, b=state.b, t=t_start)
    for i in range(traj.n_samples):
        x = x0 if i == 0 else np.asarray(input_fn(t_start + i * dt))
        traj.x[i] = x
        traj.z[i] = input_drive(spec, x)
        traj.a[i] = state.a
        traj.b[i] = state.b
        traj.y[i] = state.y
        if i < traj.n_samples - 1:
            state = step(spec, state, StepInput(x=x, dt=dt))


def _advance_blocks(spec: NetworkSpec, input_fn: InputFunction,
                    traj: Trajectory, x0: np.ndarray) -> None:
    """Fill ``traj`` past its first sample, ``_BLOCK`` steps at a time.

    Valid only when the gains do not read y.  Block ``[s, e]`` forms x, z, a
    and b for samples s..e at once (sample e's gains come from the drive
    before it), then runs y through
    ``y[i+1] = keep * y[i] + gate[i] * (W_yy @ y[i]) + push[i]`` with
    ``keep = 1 - dt/tau_y``, ``gate = (dt/tau_y) / (1+a+)`` and
    ``push = (dt/tau_y) (beta z + c_yhat / (1+a+))``.  Sample e starts the
    next block.
    """
    x_all, z_all, a_all, b_all, y_all = traj.x, traj.z, traj.a, traj.b, traj.y
    t_start, dt = float(traj.times[0]), traj.dt
    n_steps = traj.n_samples - 1
    rate = dt / spec.tau_y
    keep = 1.0 - rate
    m = spec.n_inputs
    x_last = x0
    # One pass even for a zero-step run, which still records z at t_start.
    for s in range(0, max(n_steps, 1), _BLOCK):
        e = min(s + _BLOCK, n_steps)
        # Drives and gains read the samples as returned, as step() does; the
        # record keeps the dtype of the first sample.
        rows = [x_last] + [input_fn(t_start + i * dt) for i in range(s + 1, e + 1)]
        x = np.array(rows)
        if x.shape != (e - s + 1, m):
            raise ValueError(f"input_fn must return shape ({m},) samples")
        x_all[s + 1:e + 1] = x[1:]
        x_last = x[-1]
        x_real = x.real
        z_all[s:e + 1] = x @ spec.w_zx.T + spec.c_z
        a_all[s:e + 1] = _gain_series(x_real @ spec.w_ax.T + spec.c_a,
                                      spec.tau_a, dt, a_all[s])
        b_all[s:e + 1] = _gain_series(x_real @ spec.w_bx.T + spec.c_b,
                                      spec.tau_b, dt, b_all[s])

        # Past a blow-up the block runs on to its end; the check below
        # reports it, so the overflow warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            recur = 1.0 / (1.0 + rectify(a_all[s:e]))
            b_plus = rectify(b_all[s:e])
            gate = rate * recur
            push = rate * (b_plus / (1.0 + b_plus) * z_all[s:e]
                           + spec.c_yhat * recur)
            y = y_all[s]
            for y_next, g, p in zip(y_all[s + 1:e + 1], gate, push):
                np.matmul(spec.w_yy, y, out=y_next)
                y_next *= g
                y_next += p
                y_next += keep * y
                y = y_next

        finite = (np.isfinite(y_all[s + 1:e + 1]).all(axis=1)
                  & np.isfinite(a_all[s + 1:e + 1]).all(axis=1)
                  & np.isfinite(b_all[s + 1:e + 1]).all(axis=1))
        if not finite.all():
            first = s + 1 + int(np.argmin(finite))
            raise DivergenceError(
                f"non-finite state at t = {traj.times[first]:.6g} ms"
            )
