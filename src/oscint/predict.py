"""Frequency-channel bank that extrapolates a scalar signal.

A bank of decoupled rotators (one per frequency, built by
:func:`oscint.weights.diagonal_oscillators`) shares a single scalar input.
While input flows, a small feedforward gain lets every channel accumulate
whatever component of the signal matches its own frequency; channels also
compete through the shared reconstruction error, so the readout
sum_j Re(y_j) tracks the input.  When the input stops and both gains drop to
zero each channel keeps rotating at its own frequency with constant
magnitude, continuing the signal; raising the recurrent-excess gain damps
every channel back to zero.

Per-channel update (gains shared across channels):

    tau dy_j/dt = -y_j + beta x + yhat_j/(1+a+) - beta * (competition)

where yhat_j = w_j y_j, beta = b+/(1+b+), and the competition term is
sum_{k != j} y_k for complex input, or sum_k Re(y_k) - y_j for real input
(the two coincide on real states).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import DivergenceError, SampledRecord, steps_in_span
from .weights import diagonal_oscillators


@dataclass(frozen=True)
class ModulatorSchedule:
    """Piecewise-constant gain schedule.

    ``segments`` is a sorted sequence of (start_time, a_value, b_value);
    each entry holds from its start time until the next entry's.
    """

    segments: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        starts = [s[0] for s in self.segments]
        if sorted(starts) != starts:
            raise ValueError("schedule segments must be sorted by start time")
        object.__setattr__(self, "segments", tuple(tuple(s) for s in self.segments))

    def at(self, t: float) -> tuple[float, float]:
        """(a, b) in effect at time t (first segment extends backwards)."""
        starts = [s[0] for s in self.segments]
        idx = max(bisect_right(starts, t) - 1, 0)
        _, a, b = self.segments[idx]
        return a, b


@dataclass(frozen=True)
class PredictorSpec:
    """Bank of frequency channels with shared scalar input.

    ``freqs_hz`` must be distinct and non-negative; ``tau_y`` is shared.
    The recurrent weight of channel j is the diagonal rotator entry
    1 + i 2 pi f_j tau_y / 1000.
    """

    freqs_hz: tuple[float, ...]
    tau_y: float = 10.0
    w_diag: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        freqs = tuple(float(f) for f in self.freqs_hz)
        if len(set(freqs)) != len(freqs):
            raise ValueError("channel frequencies must be distinct")
        if any(f < 0 for f in freqs):
            raise ValueError("channel frequencies must be non-negative")
        object.__setattr__(self, "freqs_hz", freqs)
        w = np.diagonal(diagonal_oscillators(np.asarray(freqs), self.tau_y)).copy()
        w.flags.writeable = False
        object.__setattr__(self, "w_diag", w)

    @property
    def n_channels(self) -> int:
        return len(self.freqs_hz)


def prediction_step(
    pspec: PredictorSpec,
    y: np.ndarray,
    x: float,
    a: float,
    b: float,
    dt: float,
    real_input: bool = True,
) -> np.ndarray:
    """Advance the bank one Euler step; gains are scalars shared by all
    channels and enter rectified."""
    y = np.asarray(y, dtype=np.complex128)
    a_plus = max(a, 0.0)
    b_plus = max(b, 0.0)
    beta = b_plus / (1.0 + b_plus)
    yhat = pspec.w_diag * y
    if real_input:
        competition = np.sum(y.real) - y
    else:
        competition = np.sum(y) - y
    drive = -y + beta * x + yhat / (1.0 + a_plus) - beta * competition
    return y + (dt / pspec.tau_y) * drive


def predictive_basis(
    pspec: PredictorSpec,
    channel: int,
    horizon: float,
    dt: float,
    a: float = 0.0,
    b: float = 0.0,
) -> np.ndarray:
    """Euler impulse response of one isolated channel under frozen gains.

    Starting from y = 1 with no input, the channel traces a (possibly damped)
    complex exponential: pure rotation at its frequency when both gains are
    zero, a real exponential decay for the zero-frequency channel with equal
    positive gains.  First-order accurate: halving dt halves the deviation
    from the continuous-time exponential.

    With no input and no sibling channels the feedforward gain ``b`` drops
    out of the update; it is accepted only so callers can pass a schedule's
    (a, b) pair unchanged.
    """
    if not 0 <= channel < pspec.n_channels:
        raise ValueError("channel index out of range")
    n_steps = steps_in_span(horizon, dt)
    a_plus = max(a, 0.0)
    w = pspec.w_diag[channel]
    out = np.empty(n_steps + 1, dtype=np.complex128)
    y = 1.0 + 0.0j
    gain = (dt / pspec.tau_y) * (w / (1.0 + a_plus) - 1.0)
    for i in range(n_steps + 1):
        out[i] = y
        y = y + gain * y
    return out


@dataclass
class PredictionResult(SampledRecord):
    """Recorded bank run: channel states plus in-phase/quadrature readouts,
    with each channel's frequency (ValueError unless one per channel)."""

    y: np.ndarray               # (T, n_channels) complex
    readout: np.ndarray         # (T,) sum of Re(y_j)
    quadrature: np.ndarray      # (T,) sum of Im(y_j)
    freqs_hz: tuple[float, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.freqs_hz) != self.y.shape[1]:
            raise ValueError(f"{len(self.freqs_hz)} frequency labels for "
                             f"{self.y.shape[1]} channels")


def predict_series(
    pspec: PredictorSpec,
    x_samples: Sequence[float],
    schedule: ModulatorSchedule,
    horizon: float,
    dt: float,
    t_start: float | None = None,
) -> PredictionResult:
    """Drive the bank with a sampled signal, then let it run on its own.

    ``x_samples`` are input values at ``t_start, t_start + dt, ...``; the
    drive phase ends at time 0 (so ``t_start`` defaults to
    ``-len(x_samples) * dt``) and the free phase runs to ``horizon``.

    The driven phase integrates with forward Euler.  Free segments whose
    feedforward gain is zero are autonomous and diagonal, so they advance by
    the exact per-step propagator exp((w/(1+a+) - 1) dt / tau); channel
    magnitudes are then conserved to rounding when both gains are zero,
    regardless of channel frequency.  A free segment with positive
    feedforward gain (channels still coupled) falls back to Euler.

    A schedule boundary inside the free phase must lie on the step grid;
    one off it raises ValueError, as an off-grid ``horizon`` does.  A
    non-finite state raises :class:`DivergenceError` naming its first time.
    """
    x_arr = np.asarray(x_samples, dtype=np.float64)
    if x_arr.ndim != 1:
        raise ValueError("x_samples must be 1-d")
    n_past = len(x_arr)
    if t_start is None:
        t_start = -n_past * dt
    n_future = steps_in_span(horizon, dt)
    n_total = n_past + n_future

    times = t_start + dt * np.arange(n_total + 1)
    ys = np.zeros((n_total + 1, pspec.n_channels), dtype=np.complex128)

    # Past a blow-up the run goes on to the horizon; the check below
    # reports it, so the overflow warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.zeros(pspec.n_channels, dtype=np.complex128)
        ys[0] = y
        for i in range(n_past):
            t = times[i]
            a, b = schedule.at(t)
            y = prediction_step(pspec, y, x_arr[i], a, b, dt, real_input=True)
            ys[i + 1] = y

        i = n_past
        while i < n_total:
            # A boundary that rounding puts just after the grid time counts as
            # reached, so no segment below is shorter than one step.
            t = times[i] + 1e-9 * dt
            a, b = schedule.at(t)
            # Extent of the current schedule segment, capped at the horizon.
            seg_end = n_total
            for start, _, _ in schedule.segments:
                if start > t:
                    seg_end = i + steps_in_span(min(start, times[-1]) - times[i], dt)
                    break
            n_seg = seg_end - i
            if max(b, 0.0) == 0.0:
                w_eff = pspec.w_diag / (1.0 + max(a, 0.0)) - 1.0
                multiplier = np.exp(w_eff * dt / pspec.tau_y)
                powers = multiplier[None, :] ** np.arange(1, n_seg + 1)[:, None]
                ys[i + 1 : seg_end + 1] = y[None, :] * powers
                y = ys[seg_end]
            else:
                for j in range(n_seg):
                    y = prediction_step(pspec, y, 0.0, a, b, dt, real_input=True)
                    ys[i + 1 + j] = y
            i = seg_end

    finite = np.isfinite(ys).all(axis=1)
    if not finite.all():
        raise DivergenceError(f"non-finite state at t = {times[np.argmin(finite)]:.6g} ms")

    return PredictionResult(
        dt=dt,
        times=times,
        y=ys,
        readout=ys.real.sum(axis=1),
        quadrature=ys.imag.sum(axis=1),
        freqs_hz=pspec.freqs_hz,
    )
