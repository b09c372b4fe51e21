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

:func:`solve` does not call the two passes.  The drive z, the alpha and b
series and the weights built from them (beta, 1 - beta, 1/(1+b+),
1/(1+alpha+)) are formed once before the first sweep; when the gains read the
response (non-zero ``w_alpha_y`` or ``w_by``) the weights are rebuilt at the
start of every sweep instead.  Each sweep then walks the series in blocks of
``model._BLOCK`` (512) rows, the block size of the rate and circuit engines:
per block, one matmul forms the prediction from the rows one sample back, and
the residuals y - z and y - yhat/(1+alpha+) give the block's share of the
energy, of the squared step norm and the stepped rows, which go into a second
series buffer.  Beyond z and the weights, a solve holds that one extra series
and five (512, N) complex block buffers; unless the gains read y, a sweep
allocates no series-sized temporaries.  A block's working set stays in
cache; its BLAS calls run on the caller's thread count (one under
:func:`oscint.scenarios.run_scenario`).
The stop and divergence rules see whole-sweep sums.  :func:`forward_pass` and
:func:`backward_pass` compute one sweep from scratch over the whole series
and are the reference the solver is tested against.

Unless the gains read y, a block whose input rows (its own and the one before
it) have the bits of the iterate two sweeps back is reused, not computed: its
step would repeat that sweep's exactly, whose output rows the second series
buffer already holds, so that sweep's kept per-block energy and step-norm
terms are summed in its place and the iterates do not change.  A block that
has settled, or that flips between two bit patterns, is reused from the
second sweep after.  fig3 computes 9 415 of its 7 x 3632 block updates: the
rest are the exact-zero tail that the front of the descent has not reached
yet, the delay blocks that have settled behind it, and block 0, whose rows
1-2 flip between two bit patterns 6.9e-18 apart from sweep 83 on.

When the gains do not read y, :func:`fixed_point` gives the series the sweep
leaves unchanged in one causal pass (sample i predicts from sample i - 1).

The gain that divides the recurrent prediction here is the *excess* gain
("alpha"), related to the integrator's a-gain by (1+a+) = (1+b+)(1+alpha+).
Its drive weights default to the a-gain weights of the network but can be
overridden; a schedule in which the integrator holds a = b maps to alpha = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    _BLOCK,
    DivergenceError,
    NetworkSpec,
    Trajectory,
    _coerce,
    _gain_series,
    _positive,
    _whole,
    predicted_series,
    rectify,
)


class BatchDivergenceError(DivergenceError):
    """Raised when the sweep update keeps growing, or a value leaves the
    finite range."""


@dataclass
class BatchProblem:
    """One minimization instance.

    ``x_series`` has one row per sample, sampled every ``dt`` ms.  The alpha
    weight family defaults to the network's a-gain family; pass explicit
    (possibly zero) arrays of its shapes to pin the excess gain independently.
    ``alpha0`` and ``b0`` (one value, or one per neuron) seed the gain
    recursions at the first sample.  Bad input raises ValueError naming it.
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
        spec = self.spec
        self.x_series = _coerce(self.x_series, (None, spec.n_inputs), None, "x_series")
        _whole(len(self.x_series), "x_series sample count", 1)
        _positive(self.dt, "dt")
        # Rates of 2 and above are accepted: solve reports the divergence.
        _positive(self.rate, "rate", zero=True)
        _whole(self.max_iters, "max_iters", 1)
        _positive(self.tolerance, "tolerance", zero=True)
        if self.tau_alpha is None:
            self.tau_alpha = spec.tau_a
        _positive(self.tau_alpha, "tau_alpha")
        layout = NetworkSpec.layout(spec.n_neurons, spec.n_inputs, spec.n_readout)
        for name, like in (("w_alpha_x", "w_ax"), ("w_alpha_y", "w_ay"),
                           ("c_alpha", "c_a")):
            value = getattr(self, name)
            setattr(self, name, _coerce(getattr(spec, like) if value is None else value,
                                        *layout[like], name))
        for name in ("alpha0", "b0"):
            value = getattr(self, name)
            try:
                one = np.ndim(value) == 0
            except ValueError:      # ragged nesting, which _coerce names
                one = False
            arr = _coerce(value, () if one else (spec.n_neurons,), np.float64, name)
            setattr(self, name, arr if arr.ndim else float(arr))

    @property
    def n_samples(self) -> int:
        return self.x_series.shape[0]

    @property
    def gains_read_y(self) -> bool:
        """Whether a gain drive reads the response: non-zero ``w_alpha_y``
        or ``w_by``."""
        return bool(np.any(self.w_alpha_y)) or not self.spec._w_by_zero

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
    alpha, b = _gain_pair(prob, y)
    return ForwardOutputs(z=z, yhat=predicted_series(spec, y), alpha=alpha, b=b)


def _gain_pair(prob: BatchProblem, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (alpha, b) series driven by the input and the response ``y``."""
    spec, x = prob.spec, prob.x_series
    alpha_drive = x.real @ prob.w_alpha_x.T + (y @ prob.w_alpha_y.T).real + prob.c_alpha
    b_drive = x.real @ spec.w_bx.T + (y @ spec.w_by.T).real + spec.c_b
    alpha = _gain_series(alpha_drive, prob.tau_alpha, prob.dt, prob.alpha0)
    b = _gain_series(b_drive, spec.tau_b, prob.dt, prob.b0)
    return alpha, b


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


@dataclass
class BatchResult:
    y_series: np.ndarray
    energy_history: np.ndarray
    iterations: int
    converged: bool
    block_updates: int      # block steps computed, not reused


_DIVERGENCE_PATIENCE = 10


def _sweep_weights(prob: BatchProblem, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """beta, 1 - beta, 1/(1+b+) and 1/(1+alpha+) for the gains driven by ``y``.

    The gain series themselves are not kept: only these four enter a sweep.
    """
    alpha, b = _gain_pair(prob, y)
    b_plus = rectify(b)
    beta = b_plus / (1.0 + b_plus)
    return beta, 1.0 - beta, 1.0 / (1.0 + b_plus), 1.0 / (1.0 + rectify(alpha))


def solve(prob: BatchProblem, y_init: Optional[np.ndarray] = None) -> BatchResult:
    """Descend the trajectory energy by sweeps until it stalls.

    Each sweep evaluates the energy of the current series, then takes one
    gradient step with the prediction held fixed: the sweep of
    :func:`forward_pass` and :func:`backward_pass`, to rounding.  The drive z
    and, unless the gains read y (non-zero ``w_alpha_y`` or ``w_by``), the
    gain weights beta, 1 - beta, 1/(1+b+) and 1/(1+alpha+) are formed once
    before the first sweep; gains that read y are rebuilt from the current
    series at the start of every sweep.

    A sweep walks the series in blocks of ``model._BLOCK`` rows.  For each
    block it forms the prediction from the block's rows shifted one sample
    back (one matmul), the residuals y - z and y - yhat/(1+alpha+), the
    block's share of the energy and of the squared step norm (``np.vdot``),
    and writes the stepped rows into a second series buffer.  The buffers
    swap once the sweep has passed the stop rule, so the returned series is
    the one whose energy met it.  Besides z and the four weight series, a
    solve holds that one extra series and five (``_BLOCK``, N) complex block
    buffers; unless the gains read y, a sweep allocates no series-sized
    temporaries.

    Unless the gains read y, a block is reused rather than computed when
    every row it reads (its own and the one before them) has the bits of the
    iterate two sweeps back.  Its step is then a function of the same rows
    and the same weights as in that sweep, so it would write the rows that
    the second buffer already holds and give the same three ``np.vdot``
    terms.  Those terms are kept per block for each sweep parity and summed
    in block order as before, so the energy, the step norm and the stop rule
    keep their bits and the iterates are those of computing every block.  A
    computed block steps into a block buffer, compares the stepped rows with
    the second buffer's and copies them there only when they differ.  The
    second buffer starts as a copy of the starting series, which stands in
    for the iterate two sweeps back in sweep 2: a block whose reads sweep 1
    left as they were repeats sweep 1's step, which left its rows as they
    were, so sweep 1's terms are kept for both parities.  Sweep 1, and every
    sweep when the gains read y, computes every block.  ``block_updates`` in
    the result counts the blocks computed.

    ``y_init`` (zeros by default) passes :func:`oscint.model._coerce`.

    Convergence: relative energy decrease below ``prob.tolerance``.
    Divergence raises :class:`BatchDivergenceError` with the iteration index:
    a non-finite energy, or an update ``|Δy|`` (the 2-norm over the whole
    series) larger than the first sweep's for 10 consecutive sweeps.  The
    energy itself may rise for many sweeps while the iterates converge, so it
    is not the test.
    """
    spec = prob.spec
    y = (prob.zero_series() if y_init is None else
         _coerce(y_init, (prob.n_samples, spec.n_neurons), np.complex128, "y_init",
                 copy=True))

    n_samples = prob.n_samples
    gains_read_y = prob.gains_read_y
    z = prob.x_series @ spec.w_zx.T + spec.c_z
    w_yy_t = spec.w_yy.T
    # y_next holds the iterate two sweeps back; before sweep 2 the starting
    # series stands in for it (see the docstring).
    y_next = y.copy()
    yhat, feed_res, recur_res, weighted, step = np.empty(
        (5, min(_BLOCK, n_samples), spec.n_neurons), dtype=np.complex128)
    changed = np.empty((len(yhat), 2 * spec.n_neurons), dtype=bool)
    n_blocks = -(-n_samples // _BLOCK)
    # Per block: do any of its rows, and does its last row, differ in their
    # bits from the iterate two sweeps back (both stay set when the gains
    # read y); and its feed, recurrent and step-norm terms from the last
    # sweep of each parity that computed it.
    moved = np.ones(n_blocks, dtype=bool)
    last_moved = np.ones(n_blocks, dtype=bool)
    terms = np.zeros((2, n_blocks, 3))

    energies = []
    prev_energy = None
    first_step = None
    grown = 0
    iterations = 0
    block_updates = 0
    converged = False
    for iteration in range(1, prob.max_iters + 1):
        if iteration == 1 or gains_read_y:
            beta, one_minus_beta, recur_weight, recur_scale = _sweep_weights(prob, y)
        # A block reads its own rows and the row before them.  One whose reads
        # repeat the iterate two sweeps back repeats that sweep's step: y_next
        # already holds its rows, and now[j] its terms.
        stale = moved.copy()
        stale[1:] |= last_moved[:-1]
        now = terms[iteration % 2]
        feed_sq = recur_sq = step_sq = 0.0
        for j, lo in enumerate(range(0, n_samples, _BLOCK)):
            hi = min(lo + _BLOCK, n_samples)
            if stale[j]:
                k = hi - lo
                y_blk, y_dst = y[lo:hi], y_next[lo:hi]
                yh, f, r, w, st = (yhat[:k], feed_res[:k], recur_res[:k],
                                   weighted[:k], step[:k])
                # Sample i predicts from sample i - 1; sample 0 from itself.
                if lo == 0:
                    np.matmul(y[0], w_yy_t, out=yh[0])
                    np.matmul(y[:k - 1], w_yy_t, out=yh[1:])
                else:
                    np.matmul(y[lo - 1:hi - 1], w_yy_t, out=yh)
                yh += spec.c_yhat
                np.subtract(y_blk, z[lo:hi], out=f)
                np.multiply(yh, recur_scale[lo:hi], out=r)
                np.subtract(y_blk, r, out=r)
                np.multiply(f, beta[lo:hi], out=w)
                now[j, 0] = np.vdot(f, w).real
                np.multiply(r, one_minus_beta[lo:hi], out=st)
                st += w
                np.multiply(r, recur_weight[lo:hi], out=w)
                now[j, 1] = np.vdot(r, w).real
                st *= prob.rate
                now[j, 2] = np.vdot(st, st).real
                if gains_read_y:
                    np.subtract(y_blk, st, out=y_dst)
                else:
                    np.subtract(y_blk, st, out=st)
                    np.not_equal(st.view(np.int64), y_dst.view(np.int64),
                                 out=changed[:k])
                    moved[j], last_moved[j] = changed[:k].any(), changed[k - 1].any()
                    if moved[j]:
                        y_dst[...] = st
                block_updates += 1
            feed_sq += now[j, 0]
            recur_sq += now[j, 1]
            step_sq += now[j, 2]
        if iteration == 1:
            terms[0] = terms[1]

        e = 0.5 * prob.dt * (feed_sq + recur_sq)
        if not np.isfinite(e):
            raise BatchDivergenceError(
                f"energy became non-finite at iteration {iteration}"
            )
        energies.append(e)
        iterations = iteration
        if prev_energy is not None:
            scale = max(abs(prev_energy), 1e-30)
            if (prev_energy - e) / scale < prob.tolerance and e <= prev_energy:
                converged = True
                break
        prev_energy = e
        step_size = np.sqrt(step_sq)
        if first_step is None:
            first_step = step_size
        grown = grown + 1 if step_size > first_step else 0
        if grown >= _DIVERGENCE_PATIENCE:
            raise BatchDivergenceError(
                f"update size stayed above the first sweep's {first_step:.6g} "
                f"for {grown} consecutive sweeps (iteration {iteration}, "
                f"size {step_size:.6g})"
            )
        y, y_next = y_next, y

    return BatchResult(
        y_series=y,
        energy_history=np.asarray(energies),
        iterations=iterations,
        converged=converged,
        block_updates=block_updates,
    )


def fixed_point(prob: BatchProblem) -> np.ndarray:
    """The series a sweep of :func:`solve` leaves unchanged, in one causal pass.

    A zero step means y[i] = beta[i] z[i] + (1 - beta[i]) s[i] (W_yy y[i-1]
    + c_yhat) with s = 1/(1+alpha+).  When the gains do not read y these
    weights are fixed, so sample 0 (which predicts from itself) is one
    N x N solve and every later sample follows from the one before it.
    Raises ValueError when the gains read y (non-zero ``w_alpha_y`` or
    ``w_by``): then the weights move with the series and no single pass
    gives the fixed point.
    """
    spec = prob.spec
    if prob.gains_read_y:
        raise ValueError("fixed_point needs gains that do not read y "
                         "(w_alpha_y and w_by zero)")
    beta, one_minus_beta, _, recur_scale = _sweep_weights(prob, prob.zero_series())
    gain = one_minus_beta * recur_scale
    push = prob.x_series @ spec.w_zx.T + spec.c_z
    push *= beta
    push += gain * spec.c_yhat
    gain = gain.astype(np.complex128)   # complex *= complex skips a cast per row
    y = prob.zero_series()
    y[0] = np.linalg.solve(np.eye(spec.n_neurons) - gain[0][:, None] * spec.w_yy,
                           push[0])
    rows = list(y)
    for prev, row, g, p in zip(rows, rows[1:], gain[1:], push[1:]):
        np.dot(spec.w_yy, prev, out=row)
        row *= g
        row += p
    return y


def trajectory_from_result(
    prob: BatchProblem, result: BatchResult, t_start: float = 0.0
) -> Trajectory:
    """Package a solved series as a :class:`Trajectory` for shared tooling.

    The gain columns carry the solver's (alpha, b) pair rather than the
    integrator's (a, b); the conversion is (1+a+) = (1+b+)(1+alpha+).
    """
    alpha, b = _gain_pair(prob, result.y_series)
    times = t_start + prob.dt * np.arange(prob.n_samples)
    a_equiv = (1.0 + rectify(b)) * (1.0 + rectify(alpha)) - 1.0
    return Trajectory(
        dt=prob.dt,
        times=times,
        x=prob.x_series,
        a=a_equiv,
        b=b,
        y=result.y_series,
    )
