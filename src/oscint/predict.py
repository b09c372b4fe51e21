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

Within a schedule piece the gains are constant, so a long Euler piece
advances by one block operator read off :func:`prediction_step`, which
stays the reference and the fallback (see :func:`predict_series`).

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

from .model import _BLOCK, SampledRecord, check_finite, steps_in_span
from .weights import diagonal_oscillators

# Steps per block operator product (:func:`_euler_piece`).  fig10's driven piece
# took 7.0 ms at 64, 7.6 at 32, 12.5 at 16, 15 at 128 and 110 at 512 (the
# operator grows as B²); best of 7, one BLAS thread, 2-core x86-64 VM.
_OPERATOR_STEPS = 64


@dataclass(frozen=True)
class ModulatorSchedule:
    """Piecewise-constant gain schedule.

    ``segments`` is a sorted sequence of finite (start_time, a_value, b_value)
    triples, kept as floats (any other form raises ValueError); each entry
    holds from its start time until the next entry's, and the first also
    before its start (see :func:`predict_series`).
    """

    segments: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        try:
            table = np.array(self.segments, dtype=np.float64)
        except (TypeError, ValueError):
            table = None
        if table is None or table.ndim != 2 or table.shape[1] != 3:
            raise ValueError("each schedule segment must be a (start, a, b) triple "
                             "of real numbers")
        if not np.isfinite(table).all():
            raise ValueError("schedule starts and gains must be finite")
        if np.any(np.diff(table[:, 0]) < 0):
            raise ValueError("schedule segments must be sorted by start time")
        object.__setattr__(self, "segments", tuple(map(tuple, table.tolist())))


@dataclass(frozen=True)
class PredictorSpec:
    """Bank of frequency channels with shared scalar input.

    ``freqs_hz`` must be distinct, finite and non-negative; ``tau_y`` is shared.
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
        if not all(0 <= f < np.inf for f in freqs):
            raise ValueError("channel frequencies must be finite and non-negative")
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
    channels and enter rectified.  ``y`` is one (C,) state, or a (K, C)
    stack of states stepped at once with ``x`` a (K, 1) input column."""
    y = np.asarray(y, dtype=np.complex128)
    a_plus = max(a, 0.0)
    b_plus = max(b, 0.0)
    beta = b_plus / (1.0 + b_plus)
    yhat = pspec.w_diag * y
    if real_input:
        competition = y.real.sum(axis=-1, keepdims=True) - y
    else:
        competition = y.sum(axis=-1, keepdims=True) - y
    drive = -y + beta * x + yhat / (1.0 + a_plus) - beta * competition
    return y + (dt / pspec.tau_y) * drive


@dataclass
class PredictionResult(SampledRecord):
    """Recorded bank run: channel states plus in-phase/quadrature readouts,
    with each channel's frequency (ValueError unless one per channel)."""

    y: np.ndarray               # (T, n_channels) complex
    readout: np.ndarray         # (T,) sum of Re(y_j)
    quadrature: np.ndarray      # (T,) sum of Im(y_j)
    freqs_hz: tuple[float, ...]
    scan_pieces: int = 0        # Euler pieces the block operator advanced

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
) -> PredictionResult:
    """Drive the bank with a sampled signal, then let it run on its own.

    ``x_samples`` are input values at ``-n dt, ..., -dt`` for n samples: the
    drive ends at time 0 and the free phase runs, with zero input, to
    ``horizon``.  Complex or non-finite samples raise ValueError before any
    step.

    The run is walked once, piece by piece.  It is cut at the end of the
    drive and at the sample where each schedule entry takes effect: sample
    0 for an entry that starts before the run, none for one past its end.
    A boundary inside the run must lie on the step grid; one off it raises
    ValueError, as an off-grid ``horizon`` does.  Each piece takes the gains
    of the last entry that has taken effect by its first sample; before any
    has, the first entry's.

    Free pieces whose feedforward gain is zero are autonomous and diagonal,
    so they advance by the exact per-step propagator
    exp((w/(1+a+) - 1) dt / tau); channel magnitudes are then conserved to
    rounding when both gains are zero, regardless of channel frequency.
    Every other piece is forward Euler: one of at least ``_BLOCK`` steps
    advances ``_OPERATOR_STEPS`` steps at a time by its block operator
    (:func:`_euler_piece`), counted in ``scan_pieces``; a shorter one, and
    the rest of a piece from a block with a non-finite row, take one
    :func:`prediction_step` per step.  A non-finite state raises
    :class:`DivergenceError` naming its first time.
    """
    x_arr = np.asarray(x_samples)
    if np.iscomplexobj(x_arr) or x_arr.ndim != 1:
        raise ValueError("x_samples must be real and 1-d")
    x_arr = x_arr.astype(np.float64, copy=False)
    if not np.isfinite(x_arr).all():
        raise ValueError("x_samples must be finite")
    n_past = len(x_arr)
    n_total = n_past + steps_in_span(horizon, dt)
    times = -n_past * dt + dt * np.arange(n_total + 1)
    drive = np.pad(x_arr, (0, n_total - n_past))

    # The sample at which each entry inside the run takes effect.
    onsets = []
    for start, _, _ in schedule.segments:
        if start > times[-1]:
            break
        try:
            onsets.append(0 if start <= times[0]
                         else steps_in_span(start - times[0], dt))
        except ValueError:
            raise ValueError(f"schedule entry at t = {start:g} ms is not a "
                             f"whole number of steps of dt = {dt:g} from the "
                             f"run's start at {times[0]:g} ms") from None
    cuts = sorted(set(onsets) | {0, n_past, n_total})

    ys = np.zeros((n_total + 1, pspec.n_channels), dtype=np.complex128)
    scan_pieces = 0
    # Past a blow-up the run goes on to the horizon; the check below
    # reports it, so the overflow warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, j in zip(cuts, cuts[1:]):
            _, a, b = schedule.segments[max(bisect_right(onsets, i) - 1, 0)]
            if i >= n_past and max(b, 0.0) == 0.0:
                w_eff = pspec.w_diag / (1.0 + max(a, 0.0)) - 1.0
                multiplier = np.exp(w_eff * dt / pspec.tau_y)
                ys[i + 1:j + 1] = ys[i] * multiplier ** np.arange(1, j - i + 1)[:, None]
            else:
                scan_pieces += _euler_piece(pspec, ys, drive, i, j, a, b, dt)

    check_finite(times, ys)
    return PredictionResult(
        dt=dt,
        times=times,
        y=ys,
        readout=ys.real.sum(axis=1),
        quadrature=ys.imag.sum(axis=1),
        freqs_hz=pspec.freqs_hz,
        scan_pieces=scan_pieces,
    )


def _euler_piece(pspec: PredictorSpec, ys: np.ndarray, drive: np.ndarray,
                 i: int, j: int, a: float, b: float, dt: float) -> bool:
    """Fill ``ys[i+1..j]`` by Euler steps under the gains (a, b); True when
    the block operator advanced them all.  The piece is linear and
    time-invariant, so B = ``_OPERATOR_STEPS`` steps of :func:`prediction_step`
    on the 2C unit states of [Re y; Im y] and on B zero states, each given a
    unit input at one step, are its block operator: n <= B steps from y are
    [Re y; Im y; u_0..u_(n-1)] times its first 2C + n rows and n steps."""
    c, start = pspec.n_channels, i
    if j - i >= _BLOCK:
        y = np.vstack([np.eye(c), 1j * np.eye(c), np.zeros((_OPERATOR_STEPS, c))])
        inputs = np.eye(len(y), _OPERATOR_STEPS, -2 * c)
        steps = np.empty((len(y), _OPERATOR_STEPS, c), dtype=np.complex128)
        for m in range(_OPERATOR_STEPS):
            y = steps[:, m] = prediction_step(pspec, y, inputs[:, m:m + 1], a, b, dt)
        # Real rows on interleaved (Re, Im) columns: step m, channel h at 2(mC + h).
        operator = steps.reshape(len(y), -1).view(np.float64)
        for start in range(i, j, _OPERATOR_STEPS):
            n = min(_OPERATOR_STEPS, j - start)
            head = np.concatenate([ys[start].real, ys[start].imag, drive[start:start + n]])
            rows = head @ operator[:2 * c + n, :2 * n * c]
            if not np.isfinite(rows).all():
                break
            ys[start + 1:start + n + 1] = rows.view(np.complex128).reshape(n, c)
        else:
            return True
    y = ys[start]
    for k in range(start, j):
        y = ys[k + 1] = prediction_step(pspec, y, drive[k], a, b, dt)
    return False
