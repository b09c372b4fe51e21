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
in blocks of ``_BLOCK`` steps: for each block's rows of the input series
the two gain drives are one matmul each and the gains advance by the
first-order recursion every engine shares (:func:`oscint.model._gain_series`
over :func:`oscint.model.first_order`).  Then y advances over the block in
one of two ways:

* **scan** — when the block's gate 1/(1+a+) is equal across neurons and
  the spec has a ``modal_basis`` (uniform ``tau_y``, W_yy = V diag(lam) V⁻¹
  with cond(V) at most ``_MAX_EIG_COND``), each of W_yy's eigenmodes is a
  scalar linear recurrence, solved for the whole block in prefix form by
  :func:`_scan_block`.  Each block re-anchors at its recorded first sample;
  a block whose gate repeats the last one's bits reuses its mode-power
  table, and one that no input drives skips q.
* **loop** — otherwise, one ``W_yy @ y`` per step.  A block the scan turns
  down (a running mode product out of range, or a non-finite result) is
  re-run by the loop, so a divergence is named at the loop's time.

Gains every neuron shares, as the presets' cue-driven modulators are, are
filtered and stored once, as one column (see :func:`simulate`).

Specs whose gains read y take one :func:`step` per sample.  ``step`` and
the loop are the references the faster paths are tested against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .model import (
    _BLOCK,
    NetworkSpec,
    SimState,
    Trajectory,
    _gain_series,
    check_finite,
    input_drive,
    recurrent_drive,
    rectify,
    sample_times,
)

def step(spec: NetworkSpec, state: SimState, x: np.ndarray, dt: float) -> SimState:
    """Advance the full state by one step of length ``dt`` under input ``x``.

    Returns a fresh state at ``state.t + dt``; the argument is not modified.
    Raises :class:`DivergenceError` if any component leaves the finite range.
    """
    x = np.asarray(x)
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
    a_in = spec.c_a + spec.w_ax @ x_real + (spec.w_ay @ state.y).real
    b_in = spec.c_b + spec.w_bx @ x_real + (spec.w_by @ state.y).real
    a_new = state.a + (dt / spec.tau_a) * (-state.a + a_in)
    b_new = state.b + (dt / spec.tau_b) * (-state.b + b_in)

    check_finite([state.t + dt], y_new, a_new, b_new)
    return SimState(y=y_new, a=a_new, b=b_new, t=state.t + dt)


def simulate(
    spec: NetworkSpec,
    x: np.ndarray,
    t_start: float,
    t_stop: float,
    dt: float = 1.0,
    init: Optional[SimState] = None,
) -> Trajectory:
    """Integrate from ``t_start`` to ``t_stop`` and record every sample.

    ``x`` is the input series: row ``i`` is the length-M input at
    ``t_start + i*dt``, one row per recorded sample (ValueError for any other
    shape, or for a non-finite entry; likewise for an ``init`` field, and for
    a complex ``init.a`` or ``init.b``).  Sample ``i`` records the state at
    ``t_start + i*dt`` alongside row ``i``; the final sample at ``t_stop`` is
    recorded without stepping past it.  ``traj.x`` is a float64 or, for
    complex ``x``, complex128 copy of ``x``; neither the drive z nor the
    readout is recorded, as ``traj.x`` and ``traj.y`` give them.  Identical
    arguments produce bit-identical trajectories.

    When ``w_ay`` and ``w_by`` are zero the run advances in blocks of
    ``_BLOCK`` steps, by the eigenbasis scan or the per-step loop (see the
    module docstring); otherwise it takes one :func:`step` per sample.  All
    paths agree to rounding.  Either way a non-finite y, a or b raises
    :class:`DivergenceError` naming the time of the first non-finite sample.

    When the spec's gains are shared by every neuron (``w_ay = w_by = 0`` and
    every row of ``w_ax``, ``w_bx``, ``c_a`` and ``c_b`` equal) and ``init.a``
    and ``init.b`` are each constant (:meth:`NetworkSpec.gain_columns`), a
    and b are computed once and stored as one column: with N > 1, ``traj.a``
    and ``traj.b`` are then read-only ``np.broadcast_to`` views of shape
    (T, N), so a caller copies them before writing.  They match the
    per-neuron values bit for bit when each gain drive ``x @ w.T + c`` sums
    exactly (every preset's does), and otherwise to the rounding of that sum.
    """
    if dt > float(np.min(spec.tau_y)) / 10.0 + 1e-12:
        raise ValueError(
            f"dt = {dt} exceeds min(tau_y)/10 = {float(np.min(spec.tau_y)) / 10.0}"
        )

    times = sample_times(t_start, t_stop, dt)
    n_samples, n = len(times), spec.n_neurons
    x = np.asarray(x)
    if x.shape != (n_samples, spec.n_inputs):
        raise ValueError(f"x has shape {x.shape}, expected "
                         f"{(n_samples, spec.n_inputs)}")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")

    state = init if init is not None else SimState.zeros(spec, t=t_start)
    for name in ("y", "a", "b"):
        shape = np.shape(getattr(state, name))
        if shape != (n,):
            raise ValueError(f"init.{name} has shape {shape}, expected {(n,)}")
        if not np.isfinite(getattr(state, name)).all():
            raise ValueError(f"init.{name} must be finite")
        if name != "y" and np.iscomplexobj(getattr(state, name)):
            raise ValueError(f"init.{name} must be real")

    cols = spec.gain_columns(state.a, state.b)
    xs = np.array(x, dtype=np.complex128 if np.iscomplexobj(x) else np.float64)
    as_ = np.zeros((n_samples, cols))
    bs = np.zeros((n_samples, cols))
    ys = np.zeros((n_samples, n), dtype=np.complex128)
    ys[0], as_[0], bs[0] = state.y, state.a[:cols], state.b[:cols]

    traj = Trajectory(dt=dt, times=times, x=xs, a=as_, b=bs, y=ys)
    if spec._w_ay_zero and spec._w_by_zero:
        _advance_blocks(spec, traj)
    else:
        _advance_steps(spec, traj)
    if cols < n:
        traj.a = np.broadcast_to(as_, (n_samples, n))
        traj.b = np.broadcast_to(bs, (n_samples, n))
    return traj


def _advance_steps(spec: NetworkSpec, traj: Trajectory) -> None:
    """Fill ``traj`` past its first sample with one :func:`step` per sample."""
    # The clock starts at t_start whatever init.t says, so a divergence is
    # reported at the same time as on the block path.
    state = SimState(y=traj.y[0], a=traj.a[0], b=traj.b[0],
                     t=float(traj.times[0]))
    for i, x in enumerate(traj.x[:-1], start=1):
        state = step(spec, state, x, traj.dt)
        traj.a[i] = state.a
        traj.b[i] = state.b
        traj.y[i] = state.y


def _push(spec: NetworkSpec, rate, recur: np.ndarray, b_plus: np.ndarray,
          x: np.ndarray) -> np.ndarray:
    """``(dt/tau_y) (beta z + c_yhat / (1+a+))`` for each step of a block."""
    z = x @ spec.w_zx.T + spec.c_z
    return rate * (b_plus / (1.0 + b_plus) * z[:-1] + spec.c_yhat * recur)


# Bounds on |M|, the running product of a mode's per-step factors within a
# block; outside them the scan's q / M and M u lose range.
_SCAN_RANGE = (1e-150, 1e150)


def _mode_powers(gate: np.ndarray, lam: np.ndarray, rate: float) -> Optional[np.ndarray]:
    """The table M = cumprod(mu) of a block's per-step mode factors
    ``mu[i] = 1 - rate + gate[i] lam``, one row per step and one column per
    mode, or None when some |M| leaves ``_SCAN_RANGE``."""
    mu = np.multiply.outer(gate, lam) + (1.0 - rate)
    np.cumprod(mu, axis=0, out=mu)
    m_abs = np.abs(mu)
    if not (m_abs.min() >= _SCAN_RANGE[0] and m_abs.max() <= _SCAN_RANGE[1]):
        return None
    return mu


def _modal_push(spec: NetworkSpec, rate: float, gate: np.ndarray, recur: np.ndarray,
                b_plus: np.ndarray, x: np.ndarray) -> Optional[np.ndarray]:
    """q = V⁻¹ push for each step of a scanned block, or None when no
    ``live`` input of the spec's ``modal_basis`` is non-zero, so q is zero."""
    _, _, v_inv, drive, live = spec.modal_basis
    if live is not None and not np.any(x[:-1, live]):
        return None
    if np.all(b_plus == b_plus[:, :1]):
        # V⁻¹ push = [rate beta x, rate beta, gate] @ drive: no N x N product.
        b_col = b_plus[:, :1]
        push_beta = rate * (b_col / (1.0 + b_col))
        return np.hstack([push_beta * x[:-1], push_beta, gate[:, None]]) @ drive
    return _push(spec, rate, recur, b_plus, x) @ v_inv.T


def _scan_block(spec: NetworkSpec, rate: float, recur: np.ndarray,
                b_plus: np.ndarray, x: np.ndarray, y_rows: np.ndarray,
                table: list) -> bool:
    """Advance y over one block in W_yy's eigenbasis, or return False for
    the loop to run the block.

    ``y_rows[0]`` is the block's first sample; rows 1.. are written.  The scan
    runs only when, in turn: the gate g[i] = rate / (1+a+) is equal across
    neurons (``recur`` = 1/(1+a+)), the spec has a ``modal_basis``, the gate's
    :func:`_mode_powers` table is in range, and every row written is finite.
    ``table`` holds the last gate's bytes and table, updated in place, so a
    gate that repeats those bytes reuses it.  u = V⁻¹ y follows ``u[i+1] =
    mu[i] u[i] + q[i]`` (q from :func:`_modal_push`), solved in prefix form
    as ``u = M (u0 + cumsum(q / M))``.
    """
    if not np.all(recur == recur[:, :1]):
        return False
    basis = spec.modal_basis
    if basis is None:
        return False
    lam, v, v_inv, _, _ = basis
    gate = rate * recur[:, 0]
    if gate.tobytes() != table[0]:
        table[:] = gate.tobytes(), _mode_powers(gate, lam, rate)
    powers = table[1]
    if powers is None:
        return False
    q = _modal_push(spec, rate, gate, recur, b_plus, x)
    u0 = v_inv @ y_rows[0]
    if q is not None and np.any(q):
        q /= powers
        np.cumsum(q, axis=0, out=q)
        q += u0
        u = np.multiply(powers, q, out=q)
    else:
        u = powers * u0
    np.matmul(u, v.T, out=y_rows[1:])
    return bool(np.isfinite(y_rows[1:]).all())


def _advance_blocks(spec: NetworkSpec, traj: Trajectory) -> None:
    """Fill ``traj`` past its first sample, ``_BLOCK`` steps at a time.

    Valid only when the gains do not read y.  Block ``[s, e]`` reads input
    rows s..e and forms a and b for samples s..e at once (sample e's gains
    come from the drive before it); when ``traj.a`` and ``traj.b`` hold one
    column, the shared gains are formed from the first gain row alone.
    :func:`_scan_block` decides whether the scan advances y, and reuses the
    last gate's mode-power table; when it turns the block down, a loop runs
    ``y[i+1] = keep * y[i] + gate[i] * (W_yy @ y[i]) + push[i]`` with
    ``keep = 1 - dt/tau_y``, ``gate = (dt/tau_y) / (1+a+)`` and ``push`` from
    :func:`_push`.  Sample e starts the next block.
    """
    a_all, b_all, y_all = traj.a, traj.b, traj.y
    cols = a_all.shape[1]
    n_steps = traj.n_samples - 1
    rate = traj.dt / spec.tau_y
    keep = 1.0 - rate
    table = [None, None]    # the last scanned gate's bytes and its table
    for s in range(0, n_steps, _BLOCK):
        e = min(s + _BLOCK, n_steps)
        x = traj.x[s:e + 1]
        a_all[s:e + 1] = _gain_series(
            x.real @ spec.w_ax[:cols].T + spec.c_a[:cols],
            spec.tau_a, traj.dt, a_all[s])
        b_all[s:e + 1] = _gain_series(
            x.real @ spec.w_bx[:cols].T + spec.c_b[:cols],
            spec.tau_b, traj.dt, b_all[s])

        # Past a blow-up the block runs on to its end; the check below
        # reports it, so the overflow warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            recur = 1.0 / (1.0 + rectify(a_all[s:e]))
            b_plus = rectify(b_all[s:e])
            scanned = _scan_block(spec, float(rate[0]), recur, b_plus, x,
                                  y_all[s:e + 1], table)
            # A block the scan turns down, non-finite ones included, runs
            # through the loop, so a divergence is named at the loop's time.
            if not scanned:
                gate = rate * recur
                push = _push(spec, rate, recur, b_plus, x)
                y = y_all[s]
                for y_next, g, p in zip(y_all[s + 1:e + 1], gate, push):
                    np.matmul(spec.w_yy, y, out=y_next)
                    y_next *= g
                    y_next += p
                    y_next += keep * y
                    y = y_next

        # A scanned block's y rows are finite: the scan checked them.
        rows = slice(s + 1, e + 1)
        check_finite(traj.times[rows], a_all[rows], b_all[rows],
                     *(() if scanned else (y_all[rows],)))
