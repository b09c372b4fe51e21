"""Whole-trajectory energy minimization.

Instead of integrating forward in time, the batch solver treats the entire
response series as the unknown and descends the trajectory energy
(:func:`oscint.model.energy`) by alternating two passes:

* **forward pass** — from the current response series, rebuild everything the
  energy treats as data: the feedforward drive, the one-sample-shifted
  recurrent prediction, and the two gain series advanced by their own
  first-order recursions;
* **backward pass** — one explicit gradient step on every sample at once,
  with the prediction held fixed (no chain rule through the recurrent
  matrix).

Because the prediction is frozen, the per-sample curvature in each response
coordinate is exactly 1, so step sizes below 2 are stable and the iteration
is a Jacobi-style relaxation that transports information roughly one sample
per sweep.

The gain that divides the recurrent prediction here is the *excess* gain
("alpha"), related to the integrator's a-gain by (1+a+) = (1+b+)(1+alpha+).
Its drive weights default to the a-gain weights of the network but can be
overridden; a schedule in which the integrator holds a = b maps to alpha = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.signal import lfilter

from .model import (
    DivergenceError,
    NetworkSpec,
    Trajectory,
    _energy_terms,
    rectify,
)


class BatchDivergenceError(DivergenceError):
    """Raised when the energy rises for many consecutive sweeps."""


@dataclass
class BatchProblem:
    """One minimization instance.

    ``x_series`` has one row per sample, sampled every ``dt`` ms.  The alpha
    weight family defaults to the network's a-gain family; pass explicit
    (possibly zero) arrays to pin the excess gain independently.  ``alpha0``
    and ``b0`` seed the gain recursions at the first sample.
    """

    spec: NetworkSpec
    x_series: np.ndarray
    dt: float = 1.0
    rate: float = 0.01
    max_iters: int = 10_000
    tolerance: float = 1e-8
    w_alpha_x: Optional[np.ndarray] = None
    w_alpha_y: Optional[np.ndarray] = None
    c_alpha: Optional[np.ndarray] = None
    tau_alpha: Optional[float] = None
    alpha0: float = 0.0
    b0: float = 0.0

    def __post_init__(self) -> None:
        self.x_series = np.asarray(self.x_series)
        if self.x_series.ndim != 2 or self.x_series.shape[1] != self.spec.n_inputs:
            raise ValueError("x_series must have shape (n_samples, n_inputs)")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.rate < 0:
            raise ValueError("rate must be >= 0")
        if self.w_alpha_x is None:
            self.w_alpha_x = self.spec.w_ax
        if self.w_alpha_y is None:
            self.w_alpha_y = self.spec.w_ay
        if self.c_alpha is None:
            self.c_alpha = self.spec.c_a
        if self.tau_alpha is None:
            self.tau_alpha = self.spec.tau_a

    @property
    def n_samples(self) -> int:
        return self.x_series.shape[0]

    def zero_series(self) -> np.ndarray:
        return np.zeros(
            (self.n_samples, self.spec.n_neurons), dtype=np.complex128
        )


@dataclass
class ForwardOutputs:
    """Data series the backward pass descends against."""

    z: np.ndarray           # (T, N) complex feedforward drive
    yhat: np.ndarray        # (T, N) complex shifted recurrent prediction
    alpha: np.ndarray       # (T, N) real excess gain, unrectified
    b: np.ndarray           # (T, N) real feedforward gain, unrectified


def _gain_series(
    drive: np.ndarray, tau: float, dt: float, init: float | np.ndarray
) -> np.ndarray:
    """First-order Euler recursion g[i+1] = g[i] + (dt/tau)(drive[i] - g[i]).

    Vectorized across samples as an IIR filter along the time axis.  ``init``
    is g[0]: one value, or one per column.  The rate integrator's block path
    advances its gains with this same filter.
    """
    t_samples = drive.shape[0]
    out = np.empty_like(drive)
    out[0] = init
    if t_samples == 1:
        return out
    k = dt / tau
    zi = (1.0 - k) * np.full((1, drive.shape[1]), init)
    out[1:] = lfilter([k], [1.0, -(1.0 - k)], drive[:-1], axis=0, zi=zi)[0]
    return out


def forward_pass(prob: BatchProblem, y_series: np.ndarray) -> ForwardOutputs:
    """Rebuild drive, prediction and gain series from a response series.

    The prediction at sample ``i`` uses the response at sample ``i - 1``
    (the first sample predicts from itself), mirroring the integrator's
    one-step delay.  Gains respond to the input and, through their y-weights,
    to the real part of the current response series.
    """
    spec = prob.spec
    x = prob.x_series
    y = np.asarray(y_series)
    if y.shape != (prob.n_samples, spec.n_neurons):
        raise ValueError("y_series has wrong shape")

    z = x @ spec.w_zx.T + spec.c_z
    yhat = np.empty_like(y)
    yhat[0] = y[0] @ spec.w_yy.T + spec.c_yhat
    if len(y) > 1:
        yhat[1:] = y[:-1] @ spec.w_yy.T + spec.c_yhat

    x_real = x.real if np.iscomplexobj(x) else x
    alpha_drive = x_real @ prob.w_alpha_x.T + (y @ prob.w_alpha_y.T).real + prob.c_alpha
    b_drive = x_real @ spec.w_bx.T + (y @ spec.w_by.T).real + spec.c_b
    alpha = _gain_series(alpha_drive, prob.tau_alpha, prob.dt, prob.alpha0)
    b = _gain_series(b_drive, spec.tau_b, prob.dt, prob.b0)
    return ForwardOutputs(z=z, yhat=yhat, alpha=alpha, b=b)


def backward_pass(
    prob: BatchProblem, y_series: np.ndarray, fwd: ForwardOutputs
) -> np.ndarray:
    """One gradient step on every sample, prediction held fixed.

    The per-sample gradient is  beta (y - z) + (1 - beta)(y - yhat/(1+alpha+))
    with beta = b+/(1+b+); the new series is y - rate * gradient.
    """
    b_plus = rectify(fwd.b)
    alpha_plus = rectify(fwd.alpha)
    beta = b_plus / (1.0 + b_plus)
    target_recur = fwd.yhat / (1.0 + alpha_plus)
    grad = beta * (y_series - fwd.z) + (1.0 - beta) * (y_series - target_recur)
    return y_series - prob.rate * grad


def _series_energy(prob: BatchProblem, y: np.ndarray, fwd: ForwardOutputs) -> float:
    terms = _energy_terms(
        y, fwd.z, fwd.yhat, rectify(fwd.alpha), rectify(fwd.b)
    )
    return float(0.5 * prob.dt * terms.sum())


@dataclass
class BatchResult:
    y_series: np.ndarray
    energy_history: np.ndarray
    iterations: int
    converged: bool


_DIVERGENCE_PATIENCE = 10


def solve(prob: BatchProblem, y_init: Optional[np.ndarray] = None) -> BatchResult:
    """Alternate forward/backward passes until the energy stalls.

    Convergence: relative energy decrease below ``prob.tolerance``.
    Divergence (energy rising for 10 consecutive sweeps) raises
    :class:`BatchDivergenceError` with the iteration index.
    """
    y = prob.zero_series() if y_init is None else np.array(y_init, dtype=np.complex128)
    if y.shape != (prob.n_samples, prob.spec.n_neurons):
        raise ValueError("y_init has wrong shape")

    energies = []
    prev_energy = None
    rises = 0
    iterations = 0
    converged = False
    for iteration in range(1, prob.max_iters + 1):
        fwd = forward_pass(prob, y)
        e = _series_energy(prob, y, fwd)
        if not np.isfinite(e):
            raise BatchDivergenceError(
                f"energy became non-finite at iteration {iteration}"
            )
        energies.append(e)
        iterations = iteration
        if prev_energy is not None:
            if e > prev_energy:
                rises += 1
                if rises >= _DIVERGENCE_PATIENCE:
                    raise BatchDivergenceError(
                        f"energy rose for {rises} consecutive sweeps "
                        f"(iteration {iteration}, energy {e:.6g})"
                    )
            else:
                rises = 0
            scale = max(abs(prev_energy), 1e-30)
            if (prev_energy - e) / scale < prob.tolerance and e <= prev_energy:
                converged = True
                break
        prev_energy = e
        y = backward_pass(prob, y, fwd)

    return BatchResult(
        y_series=y,
        energy_history=np.asarray(energies),
        iterations=iterations,
        converged=converged,
    )


def trajectory_from_result(
    prob: BatchProblem, result: BatchResult, t_start: float = 0.0
) -> Trajectory:
    """Package a solved series as a :class:`Trajectory` for shared tooling.

    The gain columns carry the solver's (alpha, b) pair rather than the
    integrator's (a, b); the conversion is (1+a+) = (1+b+)(1+alpha+).
    """
    fwd = forward_pass(prob, result.y_series)
    times = t_start + prob.dt * np.arange(prob.n_samples)
    a_equiv = (1.0 + rectify(fwd.b)) * (1.0 + rectify(fwd.alpha)) - 1.0
    return Trajectory(
        dt=prob.dt,
        times=times,
        x=prob.x_series,
        z=fwd.z,
        a=a_equiv,
        b=fwd.b,
        y=result.y_series,
    )
