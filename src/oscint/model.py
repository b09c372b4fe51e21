"""Core data model for gated recurrent integrator networks.

A network holds a complex-valued recurrent matrix together with two real,
rectified gain populations ("a" and "b") that gate how strongly the recurrent
prediction and the feedforward drive pull on each neuron.  The same structures
are shared by the incremental simulator (:mod:`oscint.dynamics`), the batch
energy solver (:mod:`oscint.batch`), spectral analysis (:mod:`oscint.spectral`)
and the conductance-circuit realization (:mod:`oscint.circuit`).

Shapes and units
----------------
* ``n_neurons`` (N) response units, ``n_inputs`` (M) input channels and
  ``n_readout`` (K) readout channels.
* Response weights/offsets (``w_zx``, ``w_yy``, ``w_ry``, ``c_z``, ``c_yhat``,
  ``c_r``) are complex; gain weights/offsets (``w_ax``, ``w_bx``, ``w_ay``,
  ``w_by``, ``c_a``, ``c_b``) are real.
* Time constants are milliseconds: ``tau_y`` is per-neuron, ``tau_a`` and
  ``tau_b`` are scalars shared by each gain population.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import cache, cached_property
from pathlib import Path
from typing import Optional

import numpy as np


class DivergenceError(RuntimeError):
    """Raised when an iteration produces non-finite state.

    Carries enough context (time or iteration index) to locate the blow-up;
    simulations never silently propagate NaN/Inf.
    """


def steps_in_span(span: float, dt: float) -> int:
    """Number of ``dt`` steps in ``span``.

    Raises ValueError unless ``span`` is a non-negative whole number of steps,
    within a relative 1e-9, so no engine silently stops short of or runs past
    the time it was asked for, unless both are finite, and unless an array
    can index that many samples.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not (np.isfinite(span) and np.isfinite(dt)):
        raise ValueError(f"span {span:g} and dt = {dt:g} must be finite")
    ratio = span / dt
    if not ratio < np.iinfo(np.intp).max:
        raise ValueError(f"span {span:g} ms at dt = {dt:g} is {ratio:.4g} steps, "
                         f"more samples than an array can index")
    n_steps = round(ratio)
    if n_steps < 0 or abs(ratio - n_steps) > 1e-9 * max(1.0, abs(ratio)):
        raise ValueError(f"span {span:g} is not a non-negative whole number "
                         f"of steps of dt = {dt:g}")
    return int(n_steps)


def grid_stride(n_steps: int, dt: float) -> int:
    """The largest k <= 1 ms / dt, within a relative 1e-9, that divides
    ``n_steps``: the stride of the coarsest whole-step grid within 1 ms."""
    limit = int(1.0 / dt * (1.0 + 1e-9))
    return next((k for k in range(min(limit, n_steps), 1, -1) if n_steps % k == 0), 1)


def check_finite(times, *series: np.ndarray, what: str = "state") -> None:
    """Raise ``DivergenceError("non-finite <what> at t = ... ms")`` naming
    ``times[i]`` for the first sample i at which any of ``series`` (each with
    one leading row per entry of ``times``) is non-finite."""
    finite = np.logical_and.reduce(
        [np.isfinite(s).reshape(len(times), -1).all(axis=1) for s in series])
    if not finite.all():
        raise DivergenceError(f"non-finite {what} at t = "
                              f"{times[int(np.argmin(finite))]:.6g} ms")


def sample_times(t_start: float, t_stop: float, dt: float) -> np.ndarray:
    """The grid ``t_start + i*dt`` for i = 0..n, where n = the number of
    ``dt`` steps from ``t_start`` to ``t_stop`` (:func:`steps_in_span`)."""
    return t_start + dt * np.arange(steps_in_span(t_stop - t_start, dt) + 1)


def rectify(values: np.ndarray | float) -> np.ndarray | float:
    """Elementwise max(value, 0); the only nonlinearity in the model."""
    return np.maximum(values, 0.0)


# Recursions of at most this many columns step each column as Python floats,
# wider ones one NumPy row at a time.  Column vs row stepping over 512 rows,
# in µs, on a 2-core x86-64 VM (Python 3.11, NumPy 2.4): 1 column 61 vs 1456,
# 8 columns 494 vs 1134, 12 columns 803 vs 1177 (with a per-row keep 1055 vs
# 1067), 16 columns 1110 vs 1188 (1399 vs 1060).
_COLUMN_STEPPED_MAX = 12


def first_order(keep, push: np.ndarray, init) -> np.ndarray:
    """g[0] = init, g[i+1] = keep[i] g[i] + push[i]: the leaky first-order
    integrator that advances every gain in the model.

    ``push`` is (T, C), ``keep`` a scalar or ``push``'s shape and ``init``
    one value or one per column; returns the (T + 1, C) float64 series.
    Each column steps in order, so every value has a plain step loop's bits.
    """
    out = np.empty((len(push) + 1, push.shape[1]))
    out[0] = init
    if push.shape[1] > _COLUMN_STEPPED_MAX:
        keeps = np.broadcast_to(keep, push.shape)
        for g, g_next, k, p in zip(out, out[1:], keeps, push):
            np.multiply(k, g, out=g_next)
            g_next += p
    elif np.ndim(keep) == 0:
        k = float(keep)
        for j, g in enumerate(out[0].tolist()):
            out[1:, j] = [g := k * g + p for p in push[:, j].tolist()]
    else:
        for j, g in enumerate(out[0].tolist()):
            out[1:, j] = [g := k * g + p
                          for k, p in zip(keep[:, j].tolist(), push[:, j].tolist())]
    return out


def _gain_series(
    drive: np.ndarray, tau: float, dt: float, init: float | np.ndarray
) -> np.ndarray:
    """First-order Euler recursion g[i+1] = g[i] + (dt/tau)(drive[i] - g[i]).

    Stepped as g[i+1] = (1 - dt/tau) g[i] + (dt/tau) drive[i] by
    :func:`first_order`.  ``init`` is g[0]: one value, or one per column.
    The rate integrator's blocks and the batch solver advance their gains
    with it.
    """
    k = dt / tau
    return first_order(1.0 - k, k * drive[:-1], init)


# Steps per block of the rate and circuit engines' input-gated paths, and rows
# per block of the batch solver's sweep: long enough that the per-block
# matmuls and filters cost little per step, short enough that the block's
# temporaries stay small (a few (512, N) arrays).
_BLOCK = 512

# The modal scan runs only on a map whose eigenvector matrix V has cond(V) at
# most this, as its rounding error grows with cond(V): the shared-gate rate
# presets' W_yy have 1.00 to 1.62, while non-normal motifs such as
# ``ei_pair`` (3.19) keep the step loop.
_MAX_EIG_COND = 2.0

@cache
def _openblas_thread_calls():
    """The thread-count getter and setter of NumPy's bundled OpenBLAS
    (``numpy.libs/libscipy_openblas*``), or None when NumPy bundles none or
    the library lacks either call."""
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas*"))
    if not libs:
        return None
    try:
        lib = ctypes.CDLL(str(libs[0]))
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextmanager
def _blas_threads(n: int):
    """Run the body with NumPy's bundled OpenBLAS on ``n`` threads, and
    restore the previous thread count when it ends or raises.

    The count is process-wide, so it holds for every thread of the process
    while the body runs.  Without a bundled OpenBLAS this does nothing.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    previous = get()
    put(n)
    try:
        yield
    finally:
        put(previous)


def _coerce(value, shape: tuple, dtype, name: str) -> np.ndarray:
    """A fresh ``dtype`` copy of ``value``; ValueError unless it has ``shape``."""
    out = np.array(value, dtype=dtype, copy=True)
    if out.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {out.shape}")
    return out


# Each array field of a NetworkSpec: its shape over the sizes n (neurons),
# m (inputs) and k (readout rows), and its dtype.
_ARRAY_FIELDS = {
    "w_zx": ("nm", np.complex128),
    "w_yy": ("nn", np.complex128),
    "w_ry": ("kn", np.complex128),
    "w_ax": ("nm", np.float64),
    "w_bx": ("nm", np.float64),
    "w_ay": ("nn", np.float64),
    "w_by": ("nn", np.float64),
    "c_z": ("n", np.complex128),
    "c_yhat": ("n", np.complex128),
    "c_a": ("n", np.float64),
    "c_b": ("n", np.float64),
    "c_r": ("k", np.complex128),
    "tau_y": ("n", np.float64),
}


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """Immutable description of one network.

    Construct directly with full matrices, or use :meth:`build` to fill unused
    pathways with zeros.  All arrays are copied and frozen so a spec can be
    shared between threads/processes without defensive copying.  Specs
    compare and hash by identity.
    """

    n_neurons: int
    n_inputs: int
    n_readout: int
    w_zx: np.ndarray        # (N, M) complex, input -> feedforward drive
    w_yy: np.ndarray        # (N, N) complex, recurrent prediction
    w_ry: np.ndarray        # (K, N) complex, linear readout
    w_ax: np.ndarray        # (N, M) real, input -> gain a
    w_bx: np.ndarray        # (N, M) real, input -> gain b
    w_ay: np.ndarray        # (N, N) real, response -> gain a
    w_by: np.ndarray        # (N, N) real, response -> gain b
    c_z: np.ndarray         # (N,) complex offset of the feedforward drive
    c_yhat: np.ndarray      # (N,) complex offset of the recurrent prediction
    c_a: np.ndarray         # (N,) real offset of gain a
    c_b: np.ndarray         # (N,) real offset of gain b
    c_r: np.ndarray         # (K,) complex readout offset
    tau_y: np.ndarray       # (N,) ms, per-neuron response time constants
    tau_a: float            # ms
    tau_b: float            # ms

    @staticmethod
    def layout(n: int, m: int, k: int) -> dict[str, tuple[tuple[int, ...], type]]:
        """Shape and dtype of each array field for N = n, M = m, K = k."""
        sizes = {"n": n, "m": m, "k": k}
        return {name: (tuple(sizes[d] for d in dims), dtype)
                for name, (dims, dtype) in _ARRAY_FIELDS.items()}

    def __post_init__(self) -> None:
        n, m, k = self.n_neurons, self.n_inputs, self.n_readout
        if n < 1 or m < 0 or k < 0:
            raise ValueError("n_neurons must be >= 1 and channel counts >= 0")
        coerced = {name: _coerce(getattr(self, name), shape, dtype, name)
                   for name, (shape, dtype) in self.layout(n, m, k).items()}
        for name, arr in coerced.items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if np.any(coerced["tau_y"] <= 0.0):
            raise ValueError("tau_y entries must be positive")
        if not all(np.isfinite(tau) and tau > 0.0 for tau in (self.tau_a, self.tau_b)):
            raise ValueError("tau_a and tau_b must be finite and positive")
        object.__setattr__(self, "tau_a", float(self.tau_a))
        object.__setattr__(self, "tau_b", float(self.tau_b))
        # Gains that do not read y let the engines take their block paths.
        object.__setattr__(self, "_w_ay_zero", not np.any(coerced["w_ay"]))
        object.__setattr__(self, "_w_by_zero", not np.any(coerced["w_by"]))
        # Every neuron's gains follow the same drive: they do not read y, and
        # each row of w_ax, w_bx, c_a and c_b equals the first.
        object.__setattr__(self, "_gains_shared", bool(
            self._w_ay_zero and self._w_by_zero
            and all(np.all(coerced[name] == coerced[name][:1])
                    for name in ("w_ax", "w_bx", "c_a", "c_b"))))

    @classmethod
    def build(
        cls,
        n_neurons: int,
        n_inputs: int,
        n_readout: int = 0,
        *,
        tau_y: float | np.ndarray = 10.0,
        tau_a: float = 10.0,
        tau_b: float = 10.0,
        **overrides,
    ) -> "NetworkSpec":
        """Create a spec with zero defaults for every pathway not supplied."""
        n, m, k = n_neurons, n_inputs, n_readout
        values = {name: np.zeros(shape, dtype)
                  for name, (shape, dtype) in cls.layout(n, m, k).items()
                  if name != "tau_y"}
        unknown = set(overrides) - set(values)
        if unknown:
            raise TypeError(f"unknown NetworkSpec fields: {sorted(unknown)}")
        values.update(overrides)
        tau_vec = np.broadcast_to(np.asarray(tau_y, dtype=np.float64), (n,)).copy()
        return cls(
            n_neurons=n,
            n_inputs=m,
            n_readout=k,
            tau_y=tau_vec,
            tau_a=tau_a,
            tau_b=tau_b,
            **values,
        )

    def gain_columns(self, a0: np.ndarray, b0: np.ndarray) -> int:
        """The gain columns an engine steps from initial gains ``a0``, ``b0``:
        1 when every neuron shares its gains and each is constant, else N."""
        shared = self._gains_shared and np.all(a0 == a0[0]) and np.all(b0 == b0[0])
        return 1 if shared else self.n_neurons

    @cached_property
    def modal_basis(self) -> Optional[tuple[Optional[np.ndarray], ...]]:
        """What the rate engine's eigenbasis scan derives from the spec alone,
        as ``(lam, V, V⁻¹, drive, live)``: W_yy = V diag(lam) V⁻¹, the drive
        rows (V⁻¹ W_zx)ᵀ, V⁻¹ c_z and V⁻¹ c_yhat, and ``live`` the input
        channels with a non-zero W_zx column (None when c_z or c_yhat is
        non-zero, so every step is driven).  None when ``tau_y`` differs
        across neurons or cond(V) exceeds ``_MAX_EIG_COND``.  Formed on first
        use and kept, its arrays read-only like the spec's own."""
        if np.any(self.tau_y != self.tau_y[0]):
            return None
        lam, v = np.linalg.eig(self.w_yy)
        if not np.linalg.cond(v) <= _MAX_EIG_COND:
            return None
        v_inv = np.linalg.inv(v)
        drive = np.vstack([self.w_zx.T, self.c_z, self.c_yhat]) @ v_inv.T
        live = (None if np.any(self.c_z) or np.any(self.c_yhat)
                else np.flatnonzero(np.any(self.w_zx, axis=0)))
        basis = lam, v, v_inv, drive, live
        for arr in basis:
            if arr is not None:
                arr.flags.writeable = False
        return basis

    def replace(self, **changes) -> "NetworkSpec":
        """Return a copy with the given fields replaced."""
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        current.update(changes)
        return NetworkSpec(**current)


@dataclass
class SimState:
    """Instantaneous state: complex responses, raw (unrectified) gains, time."""

    y: np.ndarray           # (N,) complex
    a: np.ndarray           # (N,) real
    b: np.ndarray           # (N,) real
    t: float = 0.0

    @classmethod
    def zeros(cls, spec: NetworkSpec, t: float = 0.0) -> "SimState":
        n = spec.n_neurons
        return cls(
            y=np.zeros(n, dtype=np.complex128),
            a=np.zeros(n),
            b=np.zeros(n),
            t=t,
        )


def input_drive(spec: NetworkSpec, x: np.ndarray) -> np.ndarray:
    """Feedforward drive z = W_zx x + c_z."""
    return spec.w_zx @ np.asarray(x) + spec.c_z


def recurrent_drive(spec: NetworkSpec, y: np.ndarray) -> np.ndarray:
    """Recurrent prediction y_hat = W_yy y + c_yhat."""
    return spec.w_yy @ np.asarray(y) + spec.c_yhat


@dataclass
class SampledRecord:
    """A run's record on a uniform time grid: ``times[i] = times[0] + i*dt``.

    Every array field holds one row per sample.  The rate, circuit and
    frequency-bank records share this one rule for turning times into
    samples: :meth:`sample_index` for a time, :meth:`window` for a span.
    """

    dt: float
    times: np.ndarray       # (T,) ms

    def __post_init__(self) -> None:
        if self.times.ndim != 1 or len(self.times) < 1:
            raise ValueError("times must be a non-empty 1-d array")
        if not np.allclose(np.diff(self.times), self.dt, rtol=1e-9, atol=1e-9):
            raise ValueError("times must be uniformly spaced by dt")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray) and value.shape[:1] != self.times.shape:
                raise ValueError(f"{f.name} and times disagree on sample count")

    @property
    def n_samples(self) -> int:
        return len(self.times)

    def sample_index(self, t):
        """Index of the sample nearest time ``t``, or an index array for an
        array of times; IndexError if any falls outside the run."""
        idx = np.rint((np.asarray(t) - self.times[0]) / self.dt).astype(np.intp)
        if np.any(idx < 0) or np.any(idx >= self.n_samples):
            raise IndexError(f"time {t} outside the run")
        return int(idx) if idx.ndim == 0 else idx

    def window(self, t_lo: float, t_hi: float) -> Optional[slice]:
        """Samples from ``t_lo`` to ``t_hi`` inclusive, or None when that
        span is not inside ``[times[0], times[-1]]`` (or is reversed).

        The ends may miss the grid by a relative 1e-9 of the run's steps.
        """
        slack = 1e-9 * max(1, self.n_samples - 1) * self.dt
        if not self.times[0] - slack <= t_lo <= t_hi <= self.times[-1] + slack:
            return None
        return slice(self.sample_index(t_lo), self.sample_index(t_hi) + 1)


@dataclass
class Trajectory(SampledRecord):
    """Record of a rate-model simulation.

    Sample ``i`` holds the state *at* ``times[i]`` together with the input
    evaluated at that instant (the value that advances the state to sample
    ``i + 1``).  The feedforward drive is not stored; it is
    ``x @ w_zx.T + c_z``, and the linear readout is
    :func:`readout_series` of ``y``.  ``a`` and ``b`` may be read-only
    ``np.broadcast_to`` views of one column when every neuron shares its
    gains (:func:`oscint.dynamics.simulate`); copy them before writing.
    """

    x: np.ndarray           # (T, M)
    a: np.ndarray           # (T, N) real, unrectified
    b: np.ndarray           # (T, N) real, unrectified
    y: np.ndarray           # (T, N) complex


def readout_series(spec: NetworkSpec, y_series: np.ndarray) -> Optional[np.ndarray]:
    """Linear readout ``y @ w_ry.T + c_r`` of every sample of a response
    series, or None when the spec has no readout rows."""
    return y_series @ spec.w_ry.T + spec.c_r if spec.n_readout > 0 else None


def predicted_series(spec: NetworkSpec, y_series: np.ndarray) -> np.ndarray:
    """Recurrent prediction for every sample of a response series.

    The prediction at sample ``i`` reads the response one sample earlier;
    the first sample, having no predecessor, predicts from itself.
    """
    yhat = np.empty_like(y_series)
    yhat[0] = y_series[0] @ spec.w_yy.T + spec.c_yhat
    if len(y_series) > 1:
        yhat[1:] = y_series[:-1] @ spec.w_yy.T + spec.c_yhat
    return yhat


def mismatch_gain(a_plus: np.ndarray, b_plus: np.ndarray) -> np.ndarray:
    """Excess gain alpha+ defined by (1 + a+) = (1 + b+)(1 + alpha+).

    Clamped at zero: the energy only penalizes recurrent gain in excess of the
    feedforward one.
    """
    return np.maximum((1.0 + a_plus) / (1.0 + b_plus) - 1.0, 0.0)


def residual_energy(dt: float, beta: np.ndarray, feed_res: np.ndarray,
                    recur_weight: np.ndarray, recur_res: np.ndarray) -> float:
    """0.5 dt sum(beta |y - z|^2 + (1/(1+b+)) |y - yhat/(1+alpha+)|^2): the
    trajectory energy from its two residuals and their weights, with
    ``beta`` = b+/(1+b+) and ``recur_weight`` = 1/(1+b+)."""
    return float(0.5 * dt * (beta * np.abs(feed_res) ** 2
                             + recur_weight * np.abs(recur_res) ** 2).sum())


def energy(spec: NetworkSpec, traj: Trajectory) -> float:
    """Total trajectory energy.

    Each sample contributes a convex mismatch between the response and two
    targets: the feedforward drive z = W_zx x + c_z, derived from ``traj.x``
    (weighted b+/(1+b+)), and the gain-corrected recurrent prediction
    (weighted 1/(1+b+)).  The recurrent prediction is treated as data (no
    dependence on the current sample), so the per-sample curvature in each
    response coordinate is exactly 1.
    """
    for name in ("y", "x", "a", "b"):
        if not np.all(np.isfinite(getattr(traj, name))):
            raise ValueError(f"trajectory field {name} contains non-finite values")
    b_plus = rectify(traj.b)
    alpha_plus = mismatch_gain(rectify(traj.a), b_plus)
    z = traj.x @ spec.w_zx.T + spec.c_z
    yhat = predicted_series(spec, traj.y)
    return residual_energy(traj.dt, b_plus / (1.0 + b_plus), traj.y - z,
                           1.0 / (1.0 + b_plus), traj.y - yhat / (1.0 + alpha_plus))
