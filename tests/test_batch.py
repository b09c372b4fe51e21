"""Whole-trajectory energy descent: forward/backward passes and solve."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sampling import sampled

from oscint.batch import (
    BatchDivergenceError,
    BatchProblem,
    _sweep_weights,
    backward_pass,
    fixed_point,
    forward_pass,
    solve,
    trajectory_from_result,
)
from oscint.dynamics import simulate
from oscint.model import _BLOCK, NetworkSpec, SimState, energy, rectify, residual_energy
from oscint.scenarios import run_scenario


def test_forward_pass_zero_everything():
    spec = NetworkSpec.build(2, 1)
    prob = BatchProblem(spec=spec, x_series=np.zeros((5, 1)))
    fwd = forward_pass(prob, np.zeros((5, 2), dtype=np.complex128))
    assert np.all(fwd.z == 0)
    assert np.all(fwd.yhat == 0)
    assert np.all(fwd.alpha == 0)
    assert np.all(fwd.b == 0)


def test_gain_series_matches_hand_recursion():
    # The vectorized gain recursions must reproduce the incremental Euler
    # update b <- b + (dt/tau)(-b + drive) sample by sample.
    rng = np.random.default_rng(8)
    n, m, t_len = 2, 3, 12
    spec = NetworkSpec.build(
        n, m,
        tau_b=25.0,
        w_bx=rng.standard_normal((n, m)),
        c_b=rng.standard_normal(n),
    )
    x_series = rng.standard_normal((t_len, m))
    prob = BatchProblem(spec=spec, x_series=x_series, dt=2.0, b0=0.3,
                        w_alpha_x=np.zeros((n, m)), c_alpha=np.zeros(n))
    fwd = forward_pass(prob, np.zeros((t_len, n), dtype=np.complex128))

    k = 2.0 / 25.0
    b = np.full(n, 0.3)
    expected = np.empty((t_len, n))
    for i in range(t_len):
        expected[i] = b
        drive = spec.w_bx @ x_series[i] + spec.c_b
        b = b + k * (drive - b)
    assert np.abs(fwd.b - expected).max() < 1e-13


def test_backward_pass_hand_case():
    # b held at 1 (input weight 1/2), alpha = 0, no recurrence: from y = 2
    # with z = 1 and prediction 0 the descent direction is
    # 0.5 (y - z) + 0.5 (y - 0) = 1.5, so one step at rate 0.1 gives 1.85.
    spec = NetworkSpec.build(1, 1, w_zx=np.array([[1.0]]), c_b=np.array([1.0]))
    prob = BatchProblem(spec=spec, x_series=np.array([[1.0]]), rate=0.1, b0=1.0)
    y0 = np.array([[2.0 + 0j]])
    fwd = forward_pass(prob, y0)
    y1 = backward_pass(prob, y0, fwd)
    assert y1[0, 0] == pytest.approx(1.85 + 0j, abs=1e-14)


def test_backward_pass_zero_rate_is_identity():
    rng = np.random.default_rng(2)
    spec = NetworkSpec.build(2, 1, w_yy=rng.standard_normal((2, 2)) * 0.3,
                             c_b=np.ones(2))
    prob = BatchProblem(spec=spec, x_series=rng.standard_normal((6, 1)),
                        rate=0.0, b0=1.0)
    y0 = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    fwd = forward_pass(prob, y0)
    assert np.array_equal(backward_pass(prob, y0, fwd), y0)


def _frozen_gain_problem(rng, t_len=40, n=3, rate=0.4, w_scale=0.0, **kwargs):
    spec = NetworkSpec.build(
        n, 2,
        w_yy=rng.standard_normal((n, n)) * w_scale,
        w_zx=rng.standard_normal((n, 2)),
        c_yhat=rng.standard_normal(n),
        c_b=np.ones(n),
    )
    x_series = rng.standard_normal((t_len, 2))
    kwargs.setdefault("max_iters", 400)
    kwargs.setdefault("tolerance", 1e-12)
    return BatchProblem(
        spec=spec, x_series=x_series, rate=rate, b0=1.0,
        w_alpha_x=np.zeros((n, 2)), w_alpha_y=np.zeros((n, n)),
        c_alpha=np.zeros(n), alpha0=0.0, **kwargs,
    )


@pytest.mark.parametrize("rate", [0.5, 1.0, 1.9])
def test_energy_monotone_with_frozen_gains_and_fixed_prediction(rate):
    # Without recurrence the prediction never moves between sweeps, the
    # per-sample curvature is exactly 1, and any step below 2 must descend
    # the trajectory energy strictly until it stalls.
    rng = np.random.default_rng(17)
    for trial in range(3):
        prob = _frozen_gain_problem(rng, rate=rate)
        result = solve(prob)
        hist = result.energy_history
        assert len(hist) >= 2
        assert result.converged
        rises = np.diff(hist) > 1e-12 * np.abs(hist[:-1])
        assert not rises.any(), f"trial {trial}: energy rose"


def _shift_chain_problem(rate=0.8, t_len=40):
    from oscint.weights import synfire

    n = 6
    spec = NetworkSpec.build(
        n, 1,
        w_yy=0.9 * synfire(n),
        w_zx=np.eye(n)[:, :1],
        c_b=np.ones(n),
    )
    x_series = np.zeros((t_len, 1))
    x_series[:5] = 1.0
    return BatchProblem(
        spec=spec, x_series=x_series, rate=rate, b0=1.0,
        w_alpha_x=np.zeros((n, 1)), c_alpha=np.zeros(n),
    )


def _frozen_objective(prob, y, fwd):
    from oscint.model import rectify

    b_plus = rectify(fwd.b)
    alpha_plus = rectify(fwd.alpha)
    beta = b_plus / (1.0 + b_plus)
    target = fwd.yhat / (1.0 + alpha_plus)
    terms = beta * np.abs(y - fwd.z) ** 2 + (1.0 - beta) * np.abs(y - target) ** 2
    return float(0.5 * prob.dt * terms.sum())


@pytest.mark.parametrize("rate", [0.5, 1.5])
def test_each_sweep_descends_its_frozen_objective(rate):
    # Per sample the residual weights sum to one, so the curvature of the
    # frozen-prediction objective is exactly 1 and any step below 2 cannot
    # increase it, whatever the recurrence or the gain schedule does between
    # sweeps.
    rng = np.random.default_rng(21)
    problems = [
        _frozen_gain_problem(rng, w_scale=0.3, rate=rate),
        _shift_chain_problem(rate=rate),
    ]
    for prob in problems:
        y = prob.zero_series()
        for _ in range(40):
            fwd = forward_pass(prob, y)
            before = _frozen_objective(prob, y, fwd)
            y = backward_pass(prob, y, fwd)
            after = _frozen_objective(prob, y, fwd)
            assert after <= before * (1.0 + 1e-12)


def test_fixed_point_is_selfconsistent_weighted_average():
    # Iterated far past convergence, every sample must equal the gain-weighted
    # average of its feedforward drive and the rebuilt one-step recurrent
    # prediction.
    prob = _shift_chain_problem(rate=0.8)
    y = prob.zero_series()
    for _ in range(200):
        fwd = forward_pass(prob, y)
        y = backward_pass(prob, y, fwd)
    fwd = forward_pass(prob, y)
    target = 0.5 * fwd.z + 0.5 * fwd.yhat
    assert np.abs(y - target).max() < 1e-9


def test_solve_reaches_pointwise_optimum_without_recurrence():
    # With no recurrent coupling each sample's optimum is the gain-weighted
    # average of input and (constant) prediction offset.
    rng = np.random.default_rng(4)
    prob = _frozen_gain_problem(rng, t_len=20, rate=0.9,
                                max_iters=500, tolerance=1e-14)
    spec, x_series = prob.spec, prob.x_series
    result = solve(prob)
    assert result.converged
    z = x_series @ spec.w_zx.T.real
    expected = 0.5 * z + 0.5 * spec.c_yhat
    assert np.abs(result.y_series - expected).max() < 1e-7


def test_batch_plateau_matches_incremental_steady_state():
    # Constant input, gains held at one on both sides: the descent solution
    # and the integrator must settle on the same fixed point.
    spec = NetworkSpec.build(
        1, 1,
        w_yy=np.array([[0.4]]),
        w_zx=np.array([[1.0]]),
        c_a=np.ones(1), c_b=np.ones(1),
    )
    t_len = 400
    x_series = np.full((t_len, 1), 1.2)
    prob = BatchProblem(
        spec=spec, x_series=x_series, rate=0.9, b0=1.0,
        w_alpha_x=np.zeros((1, 1)), c_alpha=np.zeros(1),
        max_iters=3000, tolerance=1e-13,
    )
    result = solve(prob)
    assert result.converged

    init = SimState(y=np.zeros(1, dtype=np.complex128),
                    a=np.ones(1), b=np.ones(1))
    t_stop = float(t_len - 1)
    traj = simulate(spec, sampled(lambda t: np.array([1.2]), 0.0, t_stop, 1.0),
                    0.0, t_stop, dt=1.0, init=init)
    fixed_point = 0.5 * 1.2 / (1.0 - 0.5 * 0.4)
    assert traj.y[-1, 0].real == pytest.approx(fixed_point, abs=1e-6)
    assert result.y_series[-1, 0].real == pytest.approx(fixed_point, abs=1e-6)
    assert np.abs(result.y_series[-1] - traj.y[-1]).max() < 1e-4


def test_solve_flags_divergence_at_excessive_rate():
    rng = np.random.default_rng(6)
    prob = _frozen_gain_problem(rng, t_len=15, rate=2.5)
    with pytest.raises(BatchDivergenceError):
        solve(prob)


def test_trajectory_from_result_round_trip():
    rng = np.random.default_rng(9)
    prob = _frozen_gain_problem(rng, t_len=25)
    result = solve(prob)
    traj = trajectory_from_result(prob, result)
    assert traj.n_samples == 25
    assert traj.dt == prob.dt
    assert np.array_equal(traj.x, prob.x_series)
    # alpha = 0 throughout, so the equivalent a-gain equals b
    assert np.abs(traj.a - traj.b).max() < 1e-13
    assert np.isfinite(energy(prob.spec, traj))


def _series_energy(prob, y, fwd):
    """The energy of response ``y`` against the forward outputs ``fwd``."""
    b_plus = rectify(fwd.b)
    return residual_energy(prob.dt, b_plus / (1.0 + b_plus), y - fwd.z,
                           1.0 / (1.0 + b_plus),
                           y - fwd.yhat / (1.0 + rectify(fwd.alpha)))


def _reference_solve(prob, y_init=None):
    """The sweep loop written with the public passes: one ``forward_pass``,
    ``_series_energy`` and ``backward_pass`` per sweep, same stop rule.
    Returns (y, energy history, converged)."""
    y = prob.zero_series() if y_init is None else np.array(y_init, dtype=np.complex128)
    energies, prev, rises = [], None, 0
    for _ in range(prob.max_iters):
        fwd = forward_pass(prob, y)
        e = _series_energy(prob, y, fwd)
        energies.append(e)
        if prev is not None:
            rises = rises + 1 if e > prev else 0
            assert rises < 10, "reference diverged"
            if (prev - e) / max(abs(prev), 1e-30) < prob.tolerance and e <= prev:
                return y, np.array(energies), True
        prev = e
        y = backward_pass(prob, y, fwd)
    return y, np.array(energies), False


def _random_problem(rng, case, t_len=30, n=3, m=2):
    """A random problem with signed gain weights (so rectification engages);
    ``case`` selects the feature under test.  The rate is above 1 so that
    near the fixed point successive energy changes alternate in sign and the
    stop rule ends the run; below 1 the energy can rise for many sweeps in a
    row while the iterates converge.  "quiet tail" has no input past the
    first 10 samples and zero offsets, so the series stays exactly zero
    ahead of the front that each sweep carries one sample further."""
    w_yy = 0.5 * rng.standard_normal((n, n)) / np.sqrt(n)
    if case == "complex w_yy":
        w_yy = w_yy + 0.5j * rng.standard_normal((n, n)) / np.sqrt(n)
    spec = NetworkSpec.build(
        n, m,
        w_yy=w_yy,
        w_zx=rng.standard_normal((n, m)),
        w_bx=rng.standard_normal((n, m)),
        w_by=0.3 * rng.standard_normal((n, n)) if case == "w_by" else np.zeros((n, n)),
        c_yhat=0.3 * rng.standard_normal(n),
        c_b=rng.uniform(0.2, 1.0, n),
        tau_b=5.0,
    )
    w_alpha_y = (0.3 * rng.standard_normal((n, n)) if case == "w_alpha_y"
                 else np.zeros((n, n)))
    x_series = rng.standard_normal((t_len, m))
    if case == "quiet tail":
        spec = spec.replace(c_yhat=np.zeros(n))
        x_series[10:] = 0.0
    return BatchProblem(
        spec=spec, x_series=x_series, rate=1.3,
        max_iters=600, tolerance=1e-10, tau_alpha=4.0, alpha0=0.2, b0=0.5,
        w_alpha_x=rng.standard_normal((n, m)), w_alpha_y=w_alpha_y,
        c_alpha=0.3 * rng.standard_normal(n),
    )


@pytest.mark.parametrize("t_len", [1, 2, 30, _BLOCK + 1, 2 * _BLOCK + 76])
@pytest.mark.parametrize(
    "case", ["frozen", "w_alpha_y", "w_by", "complex w_yy", "y_init",
             "quiet tail"])
def test_solve_matches_reference_loop(case, t_len):
    # solve forms the drive and (for gains that do not read y) the gain
    # weights once and walks each sweep in blocks of _BLOCK rows; the
    # reference rebuilds everything every sweep over the whole series.
    # Gains that read y must be rebuilt every sweep by solve too.  The two
    # longest series put one and two block seams in the walk; with a quiet
    # tail, solve reuses the blocks the front has not reached.
    rng = np.random.default_rng(31)
    prob = _random_problem(rng, case, t_len=t_len)
    y_init = None
    if case == "y_init":
        y_init = (rng.standard_normal((t_len, 3))
                  + 1j * rng.standard_normal((t_len, 3)))
    y_ref, e_ref, conv_ref = _reference_solve(prob, y_init)
    result = solve(prob, y_init)
    assert result.iterations == len(e_ref) > 1
    assert result.converged == conv_ref
    rel = np.abs(result.energy_history - e_ref) / np.abs(e_ref)
    assert rel.max() <= 1e-12
    bound = 1e-12 * max(1.0, float(np.abs(y_ref).max()))
    assert np.abs(result.y_series - y_ref).max() <= bound


def _block_walk(prob, y_init=None):
    """solve's block walk without reuse: every block computed in every
    sweep, the same arithmetic and stop rule (no divergence rule), so reuse
    must match it bit for bit.  Returns (y, energy history, iterations)."""
    spec, n_samples = prob.spec, prob.n_samples
    y, y_next = prob.zero_series(), prob.zero_series()
    if y_init is not None:
        y[...] = y_init
    z = prob.x_series @ spec.w_zx.T + spec.c_z
    energies, prev = [], None
    for iteration in range(1, prob.max_iters + 1):
        if iteration == 1 or prob.gains_read_y:
            beta, one_minus_beta, recur_weight, recur_scale = _sweep_weights(prob, y)
        feed_sq = recur_sq = 0.0
        for lo in range(0, n_samples, _BLOCK):
            hi = min(lo + _BLOCK, n_samples)
            y_blk = y[lo:hi]
            if lo == 0:
                yh = np.empty_like(y_blk)
                yh[0] = y[0] @ spec.w_yy.T
                yh[1:] = y[:hi - 1] @ spec.w_yy.T
            else:
                yh = y[lo - 1:hi - 1] @ spec.w_yy.T
            yh += spec.c_yhat
            f = y_blk - z[lo:hi]
            r = y_blk - yh * recur_scale[lo:hi]
            w = f * beta[lo:hi]
            feed_sq += np.vdot(f, w).real
            st = r * one_minus_beta[lo:hi]
            st += w
            recur_sq += np.vdot(r, r * recur_weight[lo:hi]).real
            st *= prob.rate
            y_next[lo:hi] = y_blk - st
        e = 0.5 * prob.dt * (feed_sq + recur_sq)
        energies.append(e)
        if prev is not None and (prev - e) / max(abs(prev), 1e-30) < prob.tolerance \
                and e <= prev:
            break
        prev = e
        y, y_next = y_next, y
    return y, np.asarray(energies), iteration


@pytest.fixture(scope="module")
def fig3():
    return run_scenario("fig3")


def _n_blocks(prob):
    return -(-prob.n_samples // _BLOCK)


def test_fig3_computes_under_two_fifths_of_its_block_updates(fig3):
    # Ahead of the front the series is exactly zero, behind it the delay has
    # settled, and from sweep 83 on rows 1-2 of block 0 repeat the bits of
    # the iterate two sweeps back, so 9 415 of the 7 x 3632 block updates
    # (37 %) are computed.
    result = fig3.extras["result"]
    assert _n_blocks(fig3.extras["problem"]) == 7
    assert result.block_updates <= 0.40 * 7 * result.iterations


@pytest.mark.parametrize("case", ["fig3", "quiet tail"])
def test_block_reuse_is_exact(case, fig3):
    # Reusing a block whose input rows equal those of the iterate two sweeps
    # back leaves every iterate and energy bit-identical to computing
    # every block.  By sweep 1200 of fig3 the zero tail, the settled cue
    # blocks and block 0's two-sweep cycle are all being reused.
    if case == "fig3":
        prob = dataclasses.replace(fig3.extras["problem"], max_iters=1200)
    else:
        prob = _random_problem(np.random.default_rng(31), case,
                               t_len=2 * _BLOCK + 76)
    y_ref, e_ref, iterations = _block_walk(prob)
    result = solve(prob)
    assert result.iterations == iterations
    assert np.array_equal(result.y_series, y_ref)
    assert np.array_equal(result.energy_history, e_ref)
    assert result.block_updates < result.iterations * _n_blocks(prob)


def _pinned_unit(x_series, rate, max_iters):
    """One unit with b pinned at 1e20, so beta is exactly 1 and a sweep
    steps y to y - rate (y - z); tolerance 0 runs every sweep."""
    spec = NetworkSpec.build(1, 1, w_yy=np.array([[0.5]]), w_zx=np.array([[1.0]]),
                             c_b=np.array([1e20]))
    return BatchProblem(spec=spec, x_series=x_series, rate=rate, b0=1e20,
                        max_iters=max_iters, tolerance=0.0)


def test_reuse_sees_the_row_before_a_block_and_keeps_its_terms():
    # One unit with b pinned at 1e20, so beta is exactly 1: a step never
    # reads the prediction, while the energy's recurrent term does.  The one
    # input sample is block 0's last row, and sweep 1 moves that row alone.
    # Sweeps 2 and 3 must still compute block 1, whose prediction reads that
    # row (it differs from the iterate two sweeps back until sweep 3); in
    # sweep 4 nothing has moved for two sweeps, and both blocks' non-zero
    # energy terms must be reused.
    x_series = np.zeros((_BLOCK + 10, 1))
    x_series[_BLOCK - 1] = 1.0
    prob = _pinned_unit(x_series, rate=1.0, max_iters=4)
    y_ref, e_ref, iterations = _block_walk(prob)
    result = solve(prob)
    assert result.iterations == iterations == 4
    assert np.array_equal(result.y_series, y_ref)
    assert np.array_equal(result.energy_history, e_ref)
    assert e_ref[-1] > 0
    assert result.block_updates == 6


def test_sweep_two_reuses_what_sweep_one_left_as_it_was():
    # y_init is already the fixed point, so sweep 1 moves no row, while the
    # energy's recurrent term is not zero.  The starting series stands in
    # for the iterate two sweeps back: sweep 2 and on reuse both blocks and
    # must sum sweep 1's terms.
    x_series = np.zeros((_BLOCK + 10, 1))
    x_series[[3, _BLOCK + 7]] = 1.0
    prob = _pinned_unit(x_series, rate=1.0, max_iters=3)
    y_init = x_series.astype(np.complex128)
    y_ref, e_ref, iterations = _block_walk(prob, y_init)
    result = solve(prob, y_init)
    assert result.iterations == iterations == 3
    assert np.array_equal(result.y_series, y_ref)
    assert np.array_equal(result.energy_history, e_ref)
    assert e_ref[-1] > 0
    assert result.block_updates == 2


def test_reuse_follows_an_exact_two_sweep_cycle():
    # At rate 2 a sweep maps y to 2z - y, so from y = 0 the iterates cycle
    # exactly between 0 and 2z.  Blocks 0 and 1 hold an input sample each;
    # sweep 2 returns them to the bits of sweep 0, so from sweep 3 on they
    # repeat the sweep before last and only sweeps 1 and 2 compute them.
    # Block 2 never moves, so sweep 2 reuses it too.  Reuse of the last
    # sweep alone computes 17.
    x_series = np.zeros((2 * _BLOCK + 10, 1))
    x_series[[3, _BLOCK + 7]] = 1.0
    prob = _pinned_unit(x_series, rate=2.0, max_iters=8)
    y_ref, e_ref, iterations = _block_walk(prob)
    result = solve(prob)
    assert result.iterations == iterations == 8
    assert np.array_equal(result.y_series, y_ref)
    assert np.array_equal(result.energy_history, e_ref)
    assert result.block_updates == 5


def test_two_sweep_reuse_keeps_the_terms_of_the_sweep_before_last():
    # One sample, which predicts from itself through w = -2, with beta 0.5:
    # a rate-1 sweep maps y to (z + c)/2 - y, so y cycles exactly between 0
    # and 0.5 while the energy, whose minimum lies elsewhere, alternates
    # between 0.25 and 0.625.  From sweep 3 on the block is reused, and its
    # terms must come from the sweep of the same parity.
    spec = NetworkSpec.build(1, 1, w_yy=np.array([[-2.0]]), w_zx=np.array([[1.0]]),
                             c_b=np.array([1.0]), tau_b=1.0)
    prob = BatchProblem(spec=spec, x_series=np.ones((1, 1)), rate=1.0, b0=1.0,
                        max_iters=6, tolerance=0.0)
    y_ref, e_ref, iterations = _block_walk(prob)
    result = solve(prob)
    assert result.iterations == iterations == 6
    assert np.array_equal(result.y_series, y_ref)
    assert np.array_equal(result.energy_history, e_ref)
    assert list(e_ref) == [0.25, 0.625] * 3
    assert result.block_updates == 2


def test_reuse_waits_for_an_iterate_two_sweeps_back():
    # Block 0 has no input and a unit y_init, so sweep 1 steps it to exact
    # zeros: bits that y_next, before it holds an iterate, may hold too.
    # Sweep 2 must still compute it from sweep 1's iterate.
    x_series = np.zeros((2 * _BLOCK + 10, 1))
    x_series[_BLOCK + 7] = 1.0
    y_init = np.ones((len(x_series), 1), dtype=np.complex128)
    prob = _pinned_unit(x_series, rate=1.0, max_iters=4)
    y_ref, e_ref, iterations = _block_walk(prob, y_init)
    result = solve(prob, y_init)
    assert result.iterations == iterations == 4
    assert np.array_equal(result.y_series, y_ref)
    assert np.array_equal(result.energy_history, e_ref)


_dyadic = st.sampled_from([-2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0])
_value = st.one_of(_dyadic, st.floats(-2.0, 2.0))


@st.composite
def _frozen_problems(draw):
    """A small problem whose gains do not read y, over one to three blocks:
    sparse input and y_init, dyadic values (which make exact cycles likely)
    or any in [-2, 2], b pinned (beta exactly 1) or free.  At most 10 sweeps,
    so the divergence rule cannot stop solve before the walk stops."""
    n = draw(st.integers(1, 2))
    t_len = draw(st.integers(1, 2 * _BLOCK + 20))
    rows = st.integers(0, t_len - 1)
    x_series = np.zeros((t_len, 1))
    for row, value in draw(st.lists(st.tuples(rows, _value), max_size=4)):
        x_series[row] = value
    w_yy = 0.5 * np.array(draw(st.lists(_value, min_size=n * n, max_size=n * n)))
    pinned = draw(st.booleans())
    c_b = 1e20 if pinned else draw(st.floats(0.0, 2.0))
    spec = NetworkSpec.build(
        n, 1, w_yy=w_yy.reshape(n, n),
        w_zx=np.array(draw(st.lists(_value, min_size=n, max_size=n)))[:, None],
        w_bx=np.full((n, 1), 0.0 if pinned else draw(_value)),
        c_b=np.full(n, c_b), tau_b=2.0)
    prob = BatchProblem(
        spec=spec, x_series=x_series, b0=c_b, tolerance=0.0,
        rate=draw(st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0]),
                            st.floats(0.0, 2.0, exclude_min=True))),
        max_iters=draw(st.integers(1, 10)))
    y_init = None
    if draw(st.booleans()):
        y_init = prob.zero_series()
        for row, value in draw(st.lists(st.tuples(rows, _value), max_size=4)):
            y_init[row] = value
    return prob, y_init


@settings(deadline=None)
@given(case=_frozen_problems())
def test_reuse_matches_the_block_walk_bit_for_bit(case):
    prob, y_init = case
    y_ref, e_ref, iterations = _block_walk(prob, y_init)
    result = solve(prob, y_init)
    assert result.iterations == iterations
    assert np.array_equal(result.y_series, y_ref)
    assert np.array_equal(result.energy_history, e_ref)


@pytest.mark.parametrize("case", ["w_alpha_y", "w_by"])
def test_gains_that_read_y_compute_every_block(case):
    prob = _random_problem(np.random.default_rng(31), case, t_len=2 * _BLOCK + 76)
    result = solve(prob)
    assert result.block_updates == result.iterations * _n_blocks(prob)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(0.0, math.nan)])
def test_solve_rejects_non_finite_y_init(bad):
    prob = _random_problem(np.random.default_rng(3), "frozen", t_len=6)
    y_init = prob.zero_series()
    y_init[4, 1] = bad
    with pytest.raises(ValueError, match="y_init"):
        solve(prob, y_init)


def _fixed_point_oracle(prob):
    """Closed form of the frozen-gain fixed point by forward substitution:
    y[i] = beta z[i] + (1 - beta)(W_yy y[i-1] + c_yhat)/(1+alpha+), with
    sample 0 predicting from itself (one linear solve)."""
    from oscint.model import _gain_series, rectify

    spec, x = prob.spec, prob.x_series
    z = x @ spec.w_zx.T + spec.c_z
    alpha = _gain_series(x @ prob.w_alpha_x.T + prob.c_alpha,
                         prob.tau_alpha, prob.dt, prob.alpha0)
    b = _gain_series(x @ spec.w_bx.T + spec.c_b, spec.tau_b, prob.dt, prob.b0)
    b_plus = rectify(b)
    beta = b_plus / (1.0 + b_plus)
    recur = (1.0 - beta) / (1.0 + rectify(alpha))
    y = np.empty_like(z)
    lhs = np.eye(spec.n_neurons) - recur[0][:, None] * spec.w_yy
    y[0] = np.linalg.solve(lhs, beta[0] * z[0] + recur[0] * spec.c_yhat)
    for i in range(1, len(y)):
        y[i] = beta[i] * z[i] + recur[i] * (spec.w_yy @ y[i - 1] + spec.c_yhat)
    return y


def test_solve_converges_to_closed_form_fixed_point():
    rng = np.random.default_rng(12)
    prob = _random_problem(rng, "complex w_yy", t_len=25)
    prob.max_iters, prob.tolerance = 5000, 1e-15
    result = solve(prob)
    assert result.converged
    oracle = _fixed_point_oracle(prob)
    assert np.abs(result.y_series - oracle).max() <= 1e-9


def test_solve_converges_while_the_energy_rises():
    # Below rate 1 the energy of this problem rises for 40 sweeps in a row
    # while the iterates contract onto the fixed point, so a divergence rule
    # on the energy would stop a converging run.
    prob = _random_problem(np.random.default_rng(31), "frozen", t_len=30)
    prob.rate = 0.7
    result = solve(prob)
    assert result.converged
    rising = np.diff(result.energy_history) > 0
    assert np.lib.stride_tricks.sliding_window_view(rising, 10).all(axis=1).any()
    oracle = _fixed_point_oracle(prob)
    assert np.abs(result.y_series - oracle).max() <= 1e-12


@pytest.mark.parametrize("t_len", [1, 2, 30, _BLOCK + 1])
@pytest.mark.parametrize("case", ["frozen", "complex w_yy"])
def test_fixed_point_matches_oracle(case, t_len):
    # The one-pass fixed point against the test's own forward substitution,
    # and a sweep of the reference passes started on it stays there.
    prob = _random_problem(np.random.default_rng(12), case, t_len=t_len)
    y = fixed_point(prob)
    oracle = _fixed_point_oracle(prob)
    bound = 1e-12 * max(1.0, float(np.abs(oracle).max()))
    assert np.abs(y - oracle).max() <= bound
    assert np.abs(backward_pass(prob, y, forward_pass(prob, y)) - y).max() <= bound


@pytest.mark.parametrize("case", ["w_alpha_y", "w_by"])
def test_fixed_point_rejects_gains_that_read_y(case):
    prob = _random_problem(np.random.default_rng(12), case)
    with pytest.raises(ValueError, match="read y"):
        fixed_point(prob)


@pytest.mark.parametrize("field, value", [
    ("max_iters", 0), ("max_iters", -3), ("max_iters", 2.5), ("max_iters", True),
    ("tolerance", math.nan), ("tolerance", -1e-9), ("tolerance", math.inf),
    ("dt", math.nan), ("dt", 0.0), ("dt", -1.0), ("dt", math.inf),
    ("rate", math.nan), ("rate", -0.1), ("rate", math.inf),
    ("tau_alpha", 0.0), ("tau_alpha", -1.0), ("tau_alpha", math.nan),
    ("alpha0", math.nan), ("b0", math.inf), ("alpha0", 1j), ("b0", 1j),
])
def test_problem_rejects_bad_arguments(field, value):
    spec = NetworkSpec.build(2, 1)
    with pytest.raises(ValueError, match=field):
        BatchProblem(spec=spec, x_series=np.zeros((4, 1)), **{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("w_alpha_x", np.full((3, 2), np.nan), "w_alpha_x must be finite"),
    ("w_alpha_x", np.zeros((1, 2)), r"w_alpha_x has shape \(1, 2\), expected \(3, 2\)"),
    ("c_alpha", np.zeros(1), r"c_alpha has shape \(1,\), expected \(3,\)"),
    ("w_alpha_x", np.zeros((3, 5)), r"w_alpha_x has shape \(3, 5\)"),
    ("w_alpha_y", np.zeros((2, 2)), r"w_alpha_y has shape \(2, 2\), expected \(3, 3\)"),
    ("c_alpha", np.zeros(3, dtype=complex), "c_alpha must be real"),
    ("alpha0", np.zeros(2), r"alpha0 has shape \(2,\), expected \(3,\)"),
    ("b0", [[0.0] * 3], r"b0 has shape \(1, 3\)"),
    ("tau_alpha", 1 + 1j, "tau_alpha must be positive and finite"),
], ids=["nan-w_alpha_x", "one-row-w_alpha_x", "one-entry-c_alpha",
        "wide-w_alpha_x", "small-w_alpha_y", "complex-c_alpha", "short-alpha0",
        "matrix-b0", "complex-tau_alpha"])
def test_problem_checks_the_alpha_family_against_the_a_gain_layout(field, value, message):
    # Each used to pass the constructor, and was broadcast without a word or
    # failed inside solve.
    spec = NetworkSpec.build(3, 2)
    with pytest.raises(ValueError, match=message):
        BatchProblem(spec=spec, x_series=np.zeros((4, 2)), **{field: value})


@pytest.mark.parametrize("field", ["alpha0", "b0"])
def test_problem_names_a_ragged_seed(field):
    with pytest.raises(ValueError, match=f"{field} must be numeric"):
        BatchProblem(spec=NetworkSpec.build(2, 1), x_series=np.zeros((4, 1)),
                     **{field: [[0.0], [0.0, 1.0]]})


def test_problem_takes_one_seed_or_one_per_neuron():
    spec = NetworkSpec.build(3, 1, c_a=np.ones(3))
    one = BatchProblem(spec=spec, x_series=np.ones((6, 1)), alpha0=0.5, b0=1)
    each = BatchProblem(spec=spec, x_series=np.ones((6, 1)), alpha0=np.full(3, 0.5),
                        b0=[1, 1, 1])
    assert one.alpha0 == 0.5 and type(one.b0) is float
    assert np.array_equal(solve(one).y_series, solve(each).y_series)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_problem_rejects_non_finite_input(bad):
    x_series = np.zeros((4, 1), dtype=type(bad))
    x_series[2, 0] = bad
    with pytest.raises(ValueError, match="x_series"):
        BatchProblem(spec=NetworkSpec.build(2, 1), x_series=x_series)


@given(field=st.sampled_from(["dt", "rate", "tolerance", "tau_alpha"]),
       value=st.floats(allow_nan=True, allow_infinity=True))
def test_problem_accepts_exactly_the_finite_range(field, value):
    # dt and tau_alpha must be positive, rate and tolerance non-negative;
    # every finite rate is accepted, including the divergent ones >= 2.
    ok = math.isfinite(value) and (
        value > 0 if field in ("dt", "tau_alpha") else value >= 0)
    spec = NetworkSpec.build(2, 1)
    make = lambda: BatchProblem(spec=spec, x_series=np.zeros((3, 1)),
                                **{field: value})
    if ok:
        assert getattr(make(), field) == value
    else:
        with pytest.raises(ValueError, match=field):
            make()
