"""Frequency-channel bank: stepping, schedules, continuation runs."""

import signal
import warnings

import numpy as np
import pytest

import oscint.predict
from oscint.model import _BLOCK, DivergenceError
from oscint.predict import (
    ModulatorSchedule,
    PredictorSpec,
    predict_series,
    prediction_step,
)
from oscint.scenarios import run_scenario


def test_spec_validation_and_rotator_entries():
    pspec = PredictorSpec((2.0,), tau_y=10.0)
    assert pspec.n_channels == 1
    assert pspec.w_diag[0] == pytest.approx(1.0 + 0.12566370614359174j, abs=1e-15)
    with pytest.raises(ValueError, match="distinct"):
        PredictorSpec((3.0, 3.0))
    with pytest.raises(ValueError, match="non-negative"):
        PredictorSpec((-1.0,))
    with pytest.raises(ValueError):
        pspec.w_diag[0] = 0.0


@pytest.mark.parametrize("freq", [float("nan"), float("inf")])
def test_spec_rejects_a_non_finite_frequency(freq):
    with pytest.raises(ValueError, match="finite and non-negative"):
        PredictorSpec((1.0, freq))


@pytest.mark.parametrize("tau_y", [float("nan"), float("inf"), 0.0])
def test_spec_rejects_a_tau_y_that_is_not_positive_and_finite(tau_y):
    with pytest.raises(ValueError, match="tau_y must be positive and finite"):
        PredictorSpec((1.0,), tau_y=tau_y)


def test_prediction_step_single_channel_hand_case():
    pspec = PredictorSpec((2.0,), tau_y=10.0)
    y1 = prediction_step(pspec, np.array([1.0 + 0j]), 0.0, 0.0, 0.0, 0.1)
    assert y1[0] == pytest.approx(1.0 + 0.0012566370614359175j, abs=1e-16)


def test_prediction_step_competition_hand_case():
    # Two unit channels, input 2, b = 1: beta = 1/2, each channel's
    # competition is the other's real part (1), so the drive is w_j - 1/2.
    pspec = PredictorSpec((0.0, 5.0), tau_y=10.0)
    y = np.array([1.0 + 0j, 1.0 + 0j])
    out = prediction_step(pspec, y, 2.0, 0.0, 1.0, 1.0)
    assert out[0] == pytest.approx(1.05 + 0j, abs=1e-15)
    assert out[1] == pytest.approx(1.05 + 0.03141592653589793j, abs=1e-15)


def test_real_and_complex_competition_agree_on_real_states():
    pspec = PredictorSpec((1.0, 3.0, 7.0))
    rng = np.random.default_rng(11)
    y = rng.standard_normal(3).astype(np.complex128)
    real_form = prediction_step(pspec, y, 0.4, 0.2, 0.6, 0.5, real_input=True)
    complex_form = prediction_step(pspec, y, 0.4, 0.2, 0.6, 0.5, real_input=False)
    assert np.abs(real_form - complex_form).max() < 1e-15

    y_complex = y + 1j * rng.standard_normal(3)
    real_form = prediction_step(pspec, y_complex, 0.4, 0.2, 0.6, 0.5, real_input=True)
    complex_form = prediction_step(pspec, y_complex, 0.4, 0.2, 0.6, 0.5,
                                   real_input=False)
    assert np.abs(real_form - complex_form).max() > 1e-6


def test_schedule_lookup_and_validation():
    # The run starts at -5 ms.  The first entry is in force from sample 0,
    # whether it starts before the run or inside it; the entry at 10 ms
    # takes over exactly at its sample, 15; the one past the horizon (off
    # the grid, even) is ignored.
    pspec = PredictorSpec((1.0, 3.0))
    x = np.ones(5)
    y = np.zeros(2, dtype=np.complex128)
    want = [y]
    for k in range(25):
        a, b = (1.0, 2.0) if k < 15 else (3.0, 4.0)
        y = prediction_step(pspec, y, x[k] if k < 5 else 0.0, a, b, 1.0)
        want.append(y)
    for first_start in (-100.0, 0.0):
        sched = ModulatorSchedule(((first_start, 1.0, 2.0), (10.0, 3.0, 4.0),
                                   (1e9 + 0.5, 5.0, 6.0)))
        result = predict_series(pspec, x, sched, horizon=20.0, dt=1.0)
        assert np.array_equal(result.y, np.array(want))
    with pytest.raises(ValueError, match="sorted"):
        ModulatorSchedule(((5.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
    with pytest.raises(ValueError, match="at least one"):
        ModulatorSchedule(())


def test_predict_series_zero_input_stays_zero():
    pspec = PredictorSpec((2.0, 8.0))
    sched = ModulatorSchedule(((-100.0, 0.1, 0.1), (0.0, 0.0, 0.0)))
    result = predict_series(pspec, np.zeros(500), sched, horizon=100.0, dt=0.2)
    assert np.all(result.y == 0)
    assert np.all(result.readout == 0)


def test_predict_series_timeline_and_index():
    pspec = PredictorSpec((1.0,))
    sched = ModulatorSchedule(((-50.0, 0.1, 0.1), (0.0, 0.0, 0.0)))
    result = predict_series(pspec, np.zeros(100), sched, horizon=20.0, dt=0.5)
    assert result.times[0] == pytest.approx(-50.0)
    assert result.times[-1] == pytest.approx(20.0)
    assert len(result.times) == 141
    assert result.sample_index(0.0) == 100
    with pytest.raises(ValueError, match=r"x_samples has shape \(5, 2\), expected \(n,\)"):
        predict_series(pspec, np.zeros((5, 2)), sched, horizon=10.0, dt=0.5)


@pytest.mark.parametrize("x_samples", [np.array([0.5, 1.0 + 1.0j]), [0.5, 1.0 + 1.0j]],
                         ids=["complex-array", "list-with-complex"])
def test_complex_samples_are_rejected(x_samples):
    # Neither loses its imaginary part to a cast, nor fails with a TypeError.
    sched = ModulatorSchedule(((-10.0, 0.1, 0.1),))
    with pytest.raises(ValueError, match="x_samples"):
        predict_series(PredictorSpec((1.0,)), x_samples, sched, horizon=10.0, dt=0.5)


def test_free_run_conserves_channel_magnitudes():
    pspec = PredictorSpec((2.0, 8.0), tau_y=10.0)
    dt = 0.1
    past_t = np.arange(-500.0, 0.0, dt)
    x = np.sin(2 * np.pi * 2e-3 * past_t) + 0.5 * np.sin(2 * np.pi * 8e-3 * past_t)
    sched = ModulatorSchedule(((-500.0, 0.01, 0.01), (0.0, 0.0, 0.0)))
    result = predict_series(pspec, x, sched, horizon=2000.0, dt=dt)
    i0 = result.sample_index(0.0)
    mags0 = np.abs(result.y[i0])
    assert mags0.min() > 1e-4
    drift = np.abs(np.abs(result.y[i0:]) - mags0).max()
    assert drift < 1e-12 * mags0.max()


def test_channels_select_their_own_frequency(monkeypatch):
    # At b = 0.1 the one 12 500-step driven piece takes the block operator.
    pspec = PredictorSpec((1.0, 2.0, 4.0, 8.0), tau_y=10.0)
    dt = 0.2
    past_t = np.arange(-2500.0, 0.0, dt)
    x = np.sin(2 * np.pi * 4e-3 * past_t)
    sched = ModulatorSchedule(((-2500.0, 0.1, 0.1), (0.0, 0.0, 0.0)))
    result = _assert_scan_matches_loop(monkeypatch, pspec, x, sched, 0.0, dt)
    assert result.scan_pieces == 1
    mags = np.abs(result.y[-1])
    assert int(np.argmax(mags)) == 2
    assert mags[2] > 3.0 * np.delete(mags, 2).max()


def test_raised_recurrent_gain_damps_every_channel():
    pspec = PredictorSpec((2.0, 8.0), tau_y=10.0)
    dt = 0.1
    past_t = np.arange(-200.0, 0.0, dt)
    x = np.sin(2 * np.pi * 2e-3 * past_t)
    sched = ModulatorSchedule(((-200.0, 0.1, 0.1), (0.0, 5.0, 0.0)))
    result = predict_series(pspec, x, sched, horizon=500.0, dt=dt)
    i0 = result.sample_index(0.0)
    mags = np.abs(result.y[i0:])
    assert np.all(np.diff(mags, axis=0) <= 0)
    assert mags[-1].max() < 1e-3 * mags[0].max()


def test_bank_rejects_off_grid_horizon():
    pspec = PredictorSpec((2.0,))
    sched = ModulatorSchedule(((0.0, 0.0, 0.0),))
    with pytest.raises(ValueError, match="whole number of steps"):
        predict_series(pspec, np.zeros(10), sched, horizon=1.05, dt=0.1)


def test_bank_names_the_first_non_finite_sample():
    # A feedforward gain of 50 at dt/tau = 0.5 makes the driven Euler phase
    # blow up: the state is first non-finite at t = -1105 ms.
    pspec = PredictorSpec((1.0, 2.0, 4.0))
    sched = ModulatorSchedule(((-1e4, 0.0, 50.0), (0.0, 0.0, 50.0)))
    with pytest.raises(DivergenceError, match=r"non-finite state at t = -1105 ms"):
        predict_series(pspec, np.ones(2000), sched, horizon=2000.0, dt=5.0)


def _timed_out(signum, frame):
    raise TimeoutError("predict_series did not return")


def _within_seconds(seconds, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or TimeoutError once ``seconds`` pass."""
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(seconds)
    try:
        return fn(*args, **kwargs)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("start", [0.04, 0.07])
def test_bank_rejects_off_grid_schedule_boundary(start):
    # A free-phase segment that starts less than half a step after the grid
    # time gave a zero-step segment, and the segment loop never advanced;
    # one past half a step was silently rounded to a whole step.
    pspec = PredictorSpec((1.0, 2.0))
    sched = ModulatorSchedule(((-1.0, 0.0, 0.0), (start, 1.0, 0.0)))
    with pytest.raises(ValueError, match="whole number of steps"):
        _within_seconds(20, predict_series, pspec, np.zeros(10), sched,
                        horizon=1.0, dt=0.1)


@pytest.mark.parametrize("start", [-0.55, -0.46])
def test_bank_rejects_off_grid_boundary_in_the_driven_phase(start):
    pspec = PredictorSpec((1.0, 2.0))
    sched = ModulatorSchedule(((-1.0, 0.1, 0.1), (start, 1.0, 0.1),
                               (0.0, 0.0, 0.0)))
    with pytest.raises(ValueError, match="whole number of steps"):
        predict_series(pspec, np.ones(10), sched, horizon=1.0, dt=0.1)


def _reference_walk(pspec, x, segments, n_future, dt):
    """The bank run one sample at a time.  Each entry takes effect at the
    sample nearest its start (sample 0 if it starts before the run); a free
    sample under b+ = 0 is the exact propagator's power from the sample its
    piece starts at, every other sample one Euler step."""
    n_past = len(x)
    first = [max(0, round(start / dt) + n_past) for start, _, _ in segments]
    ys = [np.zeros(pspec.n_channels, dtype=np.complex128)]
    for k in range(n_past + n_future):
        in_force = [e for e, f in enumerate(first) if f <= k]
        _, a, b = segments[in_force[-1] if in_force else 0]
        if k >= n_past and max(b, 0.0) == 0.0:
            anchor = max([f for f in first if f <= k] + [n_past])
            w_eff = pspec.w_diag / (1.0 + max(a, 0.0)) - 1.0
            multiplier = np.exp(w_eff * dt / pspec.tau_y)
            ys.append(ys[anchor] * np.power(multiplier, k + 1 - anchor))
        else:
            ys.append(prediction_step(pspec, ys[-1], x[k] if k < n_past else 0.0,
                                      a, b, dt))
    return np.array(ys)


@pytest.mark.parametrize("seed", range(50))
def test_walk_matches_a_per_sample_reference(seed):
    # 2-4 entries on the grid anywhere from before the run to past its end,
    # so boundaries fall in both phases; b is zero or positive.
    rng = np.random.default_rng(seed)
    dt = float(rng.choice([0.25, 0.5, 1.0]))
    n_past, n_future = int(rng.integers(1, 40)), int(rng.integers(0, 60))
    ks = np.sort(rng.integers(-5, n_past + n_future + 5,
                              size=int(rng.integers(2, 5))))
    segments = tuple(((int(k) - n_past) * dt, float(rng.uniform(0.0, 2.0)),
                      float(rng.choice([0.0, rng.uniform(0.0, 1.0)])))
                     for k in ks)
    pspec = PredictorSpec((0.0, 2.0, 8.0), tau_y=10.0)
    x = rng.standard_normal(n_past)
    result = predict_series(pspec, x, ModulatorSchedule(segments),
                            horizon=n_future * dt, dt=dt)
    want = _reference_walk(pspec, x, segments, n_future, dt)
    assert np.array_equal(result.y, want)


def test_bank_starts_a_segment_at_the_grid_time_rounding_puts_before_it():
    # At dt 0.3 from t = -3 the grid time nearest 8192.7 ms is
    # 8192.699999999999, 1.8e-12 short of it.  The segment that starts there
    # must take over at that sample: the lookup once kept the previous
    # segment's gains to the horizon, and a boundary a little further past
    # the grid time made a zero-step segment that never advanced.
    pspec = PredictorSpec((1.0,))
    sched = ModulatorSchedule(((-3.0, 0.1, 0.1), (0.0, 0.0, 0.0),
                               (8192.7, 1.0, 0.0)))
    result = _within_seconds(20, predict_series, pspec, np.ones(10), sched,
                             horizon=8250.0, dt=0.3)
    k = result.sample_index(8192.7)
    assert result.times[k] < 8192.7
    mags = np.abs(result.y[result.sample_index(0.0):, 0])
    held, damped = mags[:k - 9], mags[k - 10:]
    assert np.abs(held - held[0]).max() < 1e-12 * held[0]
    assert np.all(np.diff(damped) < 0)


def test_bank_ignores_boundaries_past_the_horizon():
    pspec = PredictorSpec((1.0,))
    sched = ModulatorSchedule(((-1.0, 0.1, 0.1), (0.0, 0.0, 0.0),
                               (5.04, 1.0, 0.0)))
    result = predict_series(pspec, np.ones(10), sched, horizon=1.0, dt=0.1)
    assert len(result.times) == 21


@pytest.mark.parametrize("segment", [
    (float("nan"), 0.1, 0.1), (float("-inf"), 0.1, 0.1),
    (0.0, float("nan"), 0.1), (0.0, float("inf"), 0.1),
    (0.0, 0.1, float("nan")), (0.0, 0.1, float("-inf")),
])
def test_schedule_rejects_a_non_finite_start_or_gain(segment):
    with pytest.raises(ValueError, match="must be finite"):
        ModulatorSchedule(((-10.0, 0.1, 0.1), segment))


@pytest.mark.parametrize("segments", [
    ((0.0, 1.0),),
    ((0.0, 1.0, 0.0, 5.0),),
    ((-1.0, 0.1, 0.1), (0.0, 1.0)),
    ((0.0, (1.0, 2.0), 0.0),),
    ((0.0, 0.1j, 0.0),),
    (0.0, 0.1, 0.1),
], ids=["pair", "quadruple", "ragged", "nested", "complex", "flat"])
def test_schedule_rejects_a_segment_that_is_not_a_triple(segments):
    # Turned down when the schedule is built, with one message naming the
    # form, not deep inside predict_series or NumPy.
    with pytest.raises(ValueError, match=r"\(start, a, b\) triple"):
        ModulatorSchedule(segments)


# ---------------------------------------------------------------------------
# The block operator of long Euler pieces against the prediction_step loop.


def _loop_only(monkeypatch):
    """Every later ``predict_series`` advances its Euler pieces step by step."""
    monkeypatch.setattr(oscint.predict, "_BLOCK", 10 ** 12)


def _assert_scan_matches_loop(monkeypatch, *args):
    """Run ``predict_series(*args)`` with the block operator, then by the
    loop alone; the two agree to 1e-10 of the larger of 1 and max |y|.
    Returns the operator's result."""
    scanned = predict_series(*args)
    with monkeypatch.context() as patch:
        _loop_only(patch)
        looped = predict_series(*args)
    assert looped.scan_pieces == 0
    bound = 1e-10 * max(1.0, float(np.abs(looped.y).max()))
    assert np.abs(scanned.y - looped.y).max() <= bound
    return scanned


def test_prediction_step_steps_a_stack_of_states_row_by_row():
    pspec = PredictorSpec((0.0, 1.0, 3.0, 7.0, 12.0))
    rng = np.random.default_rng(5)
    y = rng.standard_normal((9, 5)) + 1j * rng.standard_normal((9, 5))
    x = rng.standard_normal((9, 1))
    for real_input in (True, False):
        stacked = prediction_step(pspec, y, x, 0.3, 0.7, 0.5, real_input)
        rows = [prediction_step(pspec, yk, float(xk[0]), 0.3, 0.7, 0.5, real_input)
                for yk, xk in zip(y, x)]
        assert np.array_equal(stacked, np.array(rows))


def test_scan_matches_the_loop_on_fig10(monkeypatch):
    result = run_scenario("fig10")
    assert result.trajectory.scan_pieces == 1
    # The 0 Hz channel's map keeps it real, as the loop does, to the bit.
    assert result.trajectory.freqs_hz[0] == 0.0
    assert np.all(result.trajectory.y[:, 0].imag == 0.0)
    extras = result.extras
    _assert_scan_matches_loop(monkeypatch, extras["pspec"], extras["x_past"],
                              extras["schedule"], 3000.0, 0.1)


def _random_bank(rng, feed_max):
    """1-8 channels with b+ up to ``feed_max``, and one schedule boundary
    inside each phase: four Euler pieces of 520 steps or more."""
    freqs = rng.choice(np.arange(0.0, 41.0, 2.0), int(rng.integers(1, 9)),
                       replace=False)
    pspec = PredictorSpec(tuple(freqs), tau_y=10.0)
    dt = float(rng.choice([0.1, 0.25, 0.5]))
    n_past, n_future = (int(n) for n in rng.integers(1100, 2000, size=2))
    k_past = int(rng.integers(520, n_past - 520))
    k_future = int(rng.integers(520, n_future - 520))
    gain = lambda: float(rng.uniform(0.0, 2.0))
    feed = lambda: float(rng.uniform(1e-4, feed_max))
    segments = ((-n_past * dt, gain(), feed()), ((k_past - n_past) * dt, gain(), feed()),
                (0.0, gain(), feed()), (k_future * dt, gain(), feed()))
    return (pspec, rng.standard_normal(n_past), ModulatorSchedule(segments),
            n_future * dt, dt)


@pytest.mark.parametrize("seed", range(12))
def test_scan_matches_the_loop_on_random_banks(monkeypatch, seed):
    # b+ up to fig10's 0.01.
    args = _random_bank(np.random.default_rng(seed), 0.01)
    assert _assert_scan_matches_loop(monkeypatch, *args).scan_pieces == 4


@pytest.mark.parametrize("seed", range(100, 112))
def test_operator_matches_the_loop_on_strongly_coupled_banks(monkeypatch, seed):
    # b+ up to 0.1: the real-input competition makes the map far from
    # normal (its eigenvectors have cond(V) above 2 on 21 of these 48
    # pieces); the operator needs no eigenbasis.
    args = _random_bank(np.random.default_rng(seed), 0.1)
    assert _assert_scan_matches_loop(monkeypatch, *args).scan_pieces == 4


def test_free_piece_with_feedforward_gain_takes_the_scan(monkeypatch):
    # Pieces of 1000 and 800 steps, whose last operator blocks are short.
    pspec = PredictorSpec((1.0, 2.0, 4.0))
    x = np.sin(np.arange(1000) * 0.05)
    sched = ModulatorSchedule(((-500.0, 0.01, 0.01), (0.0, 0.5, 0.005)))
    result = _assert_scan_matches_loop(monkeypatch, pspec, x, sched, 400.0, 0.5)
    assert result.scan_pieces == 2


def test_fast_decaying_piece_takes_the_operator(monkeypatch):
    # At dt/tau = 0.5 with the recurrent gate shut the fastest mode shrinks
    # by more than half a step, to below 1e-150 over 512 steps; the operator
    # holds no such product.  The short driven piece before it takes the loop.
    pspec = PredictorSpec((1.0, 2.0, 4.0))
    sched = ModulatorSchedule(((-1e4, 0.0, 0.01), (0.0, 1e6, 0.5)))
    result = _assert_scan_matches_loop(monkeypatch, pspec, np.ones(100), sched,
                                       5000.0, 5.0)
    assert result.scan_pieces == 1


def _operator_walk(pspec, x, a, b, dt, steps):
    """Reference for one driven piece from zero: each block of up to
    ``steps`` steps is its own probe run (unit states, then unit inputs)
    of that many steps, applied to the block's first state and inputs."""
    c = pspec.n_channels
    ys = [np.zeros(c, dtype=np.complex128)]
    for start in range(0, len(x), steps):
        u = x[start:start + steps]
        n = len(u)
        probes = np.vstack([np.eye(c), 1j * np.eye(c), np.zeros((n, c))])
        inputs = np.eye(2 * c + n, n, -2 * c)
        head = np.concatenate([ys[-1].real, ys[-1].imag, u])
        for m in range(n):
            probes = prediction_step(pspec, probes, inputs[:, m:m + 1], a, b, dt)
            ys.append(head @ probes)
    return np.array(ys)


def test_short_last_block_reads_a_prefix_of_the_piece_operator():
    # A 1000-step piece: 15 blocks of 64 steps and a last one of 40, whose
    # operator is the first 2C + 40 rows and 40 steps of the piece's.
    pspec = PredictorSpec((1.0, 2.0, 4.0))
    x = np.sin(np.arange(1000) * 0.05)
    sched = ModulatorSchedule(((-500.0, 0.01, 0.01),))
    result = predict_series(pspec, x, sched, 0.0, 0.5)
    assert result.scan_pieces == 1
    ref = _operator_walk(pspec, x, 0.01, 0.01, 0.5, oscint.predict._OPERATOR_STEPS)
    assert np.abs(result.y - ref).max() <= 1e-13 * np.abs(ref).max()


def test_pieces_shorter_than_a_block_take_the_loop():
    pspec = PredictorSpec((1.0, 2.0))
    sched = ModulatorSchedule(((-1.0, 0.1, 0.1), (0.0, 0.0, 0.1)))
    n = _BLOCK - 1
    result = predict_series(pspec, np.ones(n), sched, horizon=n * 0.1, dt=0.1)
    assert result.scan_pieces == 0


def _divergence_message(*args):
    """The DivergenceError ``predict_series(*args)`` raises, with every
    RuntimeWarning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError) as raised:
            predict_series(*args)
    return str(raised.value)


def test_divergent_piece_raises_no_runtime_warning():
    # The divergent run of test_bank_names_the_first_non_finite_sample: the
    # operator advances its 2000-step driven piece until a block turns
    # non-finite, and the loop runs on from there into the overflow.
    args = (PredictorSpec((1.0, 2.0, 4.0)), np.ones(2000),
            ModulatorSchedule(((-1e4, 0.0, 50.0), (0.0, 0.0, 50.0))), 2000.0, 5.0)
    assert _divergence_message(*args) == "non-finite state at t = -1105 ms"


def test_divergence_inside_a_scanned_piece_is_named_at_the_loop_time(monkeypatch):
    # The fastest mode grows 1.417-fold a step: the operator advances the
    # first blocks and a later one turns non-finite, which the loop re-runs
    # to name the time.
    args = (PredictorSpec((1.0, 2.0)), np.ones(3000),
            ModulatorSchedule(((-1.5e4, 0.0, 5.0),)), 0.0, 5.0)
    scanned = _divergence_message(*args)
    _loop_only(monkeypatch)
    assert scanned == _divergence_message(*args) == "non-finite state at t = -4770 ms"


def test_operator_that_overflows_leaves_a_quiet_piece_to_the_loop():
    # At dt/tau = 1e5 the map grows about 2e5-fold a step, so the 64-step
    # operator overflows, while a bank at rest with no input stays at zero:
    # the operator's non-finite rows send the piece to the loop.
    pspec = PredictorSpec((1.0, 2.0, 4.0))
    sched = ModulatorSchedule(((-1e12, 0.0, 1e6),))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = predict_series(pspec, np.zeros(600), sched, 0.0, 1e6)
    assert result.scan_pieces == 0 and np.all(result.y == 0)
