"""Acceptance suite: thirteen numbered end-to-end criteria.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s`` or on
failure) and asserts the same condition, so the suite doubles as a checklist:

 1. leaky-integrator closed form (single unit, unit recurrence)
 2. gradient oracles: integrator and prediction-bank right-hand sides vs
    finite differences of their energy summands
 3. ring-attractor delay memory: readout holds the cue, end cue resets
 4. encoder perturbations orthogonal to the stored subspace are invisible
 5. 100-unit shift ring: constant stored magnitude, ~1 Hz traveling wave
 6. random spectrum: exactly 10 sustained dimensions, stored for 2 s
 7. two-unit pair: predicted oscillation frequencies and stability classes
 8. double-step remapping snapshot values
 9. linearity: responses superpose
10. whole-trajectory descent matches the integrator's plateau
11. conductance circuit: delay fixed point identity and full-circuit match
12. frequency-channel bank: continuation peaks, conservation, reset
13. time warp: doubling every time constant halves the oscillation peak

Last, every run of the results ledger (``tests/ledger.py``) is compared
with the committed ``tests/ledger.json``.
"""

import json

import ledger
import numpy as np
import pytest
from sampling import sampled

from oscint.circuit import CircuitParams, steady_state_vs, total_conductance
from oscint.dynamics import simulate, step
from oscint.model import NetworkSpec, SimState, readout_series
from oscint.predict import PredictorSpec, prediction_step
from oscint.scenarios import pulse_series, run_scenario
from oscint.spectral import dominant_frequency


def _verdict(num: int, description: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description} ({detail})"
    print(line)
    assert ok, line


def _named_check(result, name: str):
    for check in result.assertions:
        if check.name == name:
            assert not check.skipped, \
                f"{result.name}: {name!r} skipped: {check.detail}"
            return check
    raise AssertionError(f"{result.name} has no check named {name!r}")


# ---------------------------------------------------------------------------
# shared scenario runs


@pytest.fixture(scope="module")
def fig2():
    return run_scenario("fig2")


@pytest.fixture(scope="module")
def fig3():
    return run_scenario("fig3")


@pytest.fixture(scope="module")
def fig4():
    return run_scenario("fig4")


@pytest.fixture(scope="module")
def fig5():
    return run_scenario("fig5")


@pytest.fixture(scope="module")
def fig6():
    return run_scenario("fig6")


@pytest.fixture(scope="module")
def fig7_default():
    return run_scenario("fig7")


@pytest.fixture(scope="module")
def fig7_slow():
    return run_scenario("fig7", tau_y=(20.0, 25.0))


@pytest.fixture(scope="module")
def fig7_equal():
    return run_scenario("fig7", tau_y=(10.0, 10.0))


@pytest.fixture(scope="module")
def fig8():
    return run_scenario("fig8")


@pytest.fixture(scope="module")
def fig9():
    return run_scenario("fig9")


@pytest.fixture(scope="module")
def fig10():
    return run_scenario("fig10")


# ---------------------------------------------------------------------------
# 1. closed-form leaky integrator


def test_criterion_01_leaky_integrator_closed_form():
    tau = 10.0
    dt = tau / 100.0
    spec = NetworkSpec.build(
        1, 1,
        tau_y=tau,
        w_yy=np.array([[1.0]]),
        w_zx=np.array([[1.0]]),
        c_a=np.ones(1), c_b=np.ones(1),
    )
    init = SimState(y=np.zeros(1, dtype=np.complex128),
                    a=np.ones(1), b=np.ones(1))
    traj = simulate(spec, sampled(lambda t: np.ones(1), 0.0, 100.0, dt),
                    0.0, 100.0, dt, init=init)
    tau_eff = tau * (1.0 + 1.0) / 1.0          # tau (1+b)/b at b = 1
    closed = 1.0 - np.exp(-traj.times / tau_eff)
    mask = closed > 0
    rel = np.abs(traj.y[mask, 0].real - closed[mask]) / closed[mask]
    worst = float(rel.max())
    _verdict(1, "leaky-integrator closed form",
             worst < 0.01,
             f"max relative error {worst:.3e} at dt = tau/100 "
             f"(effective tau {tau_eff:g} ms, tol 1%)")


# ---------------------------------------------------------------------------
# 2. gradient oracles (finite differences of the energy summands)


def _integrator_gradient_error(rng) -> float:
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 4))
    tau = rng.uniform(5.0, 20.0, n)
    b = np.abs(rng.standard_normal(n))
    a = b + np.abs(rng.standard_normal(n))       # keep the excess gain >= 0
    yhat = rng.standard_normal(n)                # frozen recurrent prediction
    spec = NetworkSpec.build(
        n, m,
        tau_y=tau,
        w_zx=rng.standard_normal((n, m)),
        c_z=rng.standard_normal(n),
        c_yhat=yhat,
    )
    x = rng.standard_normal(m)
    y0 = rng.standard_normal(n)
    dt = float(rng.uniform(0.05, 0.5))

    z = (spec.w_zx.real @ x) + spec.c_z.real
    beta = b / (1.0 + b)
    alpha = (1.0 + a) / (1.0 + b) - 1.0

    def summand(y):
        recur = np.abs(y - yhat / (1.0 + alpha)) ** 2 / (1.0 + b)
        return 0.5 * dt * float(np.sum(beta * np.abs(y - z) ** 2 + recur))

    state = SimState(y=y0.astype(np.complex128), a=a.copy(), b=b.copy())
    y_next = step(spec, state, x, dt).y
    grad_rhs = -tau * (y_next.real - y0)

    h = 1e-4
    grad_fd = np.empty(n)
    for j in range(n):
        up, down = y0.copy(), y0.copy()
        up[j] += h
        down[j] -= h
        grad_fd[j] = (summand(up) - summand(down)) / (2.0 * h)
    return float(np.linalg.norm(grad_fd - grad_rhs) / np.linalg.norm(grad_rhs))


def _prediction_gradient_error(rng) -> float:
    n = int(rng.integers(1, 6))
    freqs = tuple(np.sort(rng.uniform(0.5, 20.0, n)))
    tau = float(rng.uniform(5.0, 20.0))
    pspec = PredictorSpec(freqs, tau_y=tau)
    y0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = float(rng.standard_normal())
    b = float(np.abs(rng.standard_normal()))
    a = b + float(np.abs(rng.standard_normal()))
    dt = float(rng.uniform(0.05, 0.5))

    beta = b / (1.0 + b)
    alpha = (1.0 + a) / (1.0 + b) - 1.0
    target = pspec.w_diag * y0 / (1.0 + alpha)   # frozen one-step prediction

    def summand(y):
        mismatch = beta * (x - np.sum(y.real)) ** 2
        recur = np.sum(np.abs(y - target) ** 2) / (1.0 + b)
        return 0.5 * float(mismatch + recur)

    y_next = prediction_step(pspec, y0, x, a, b, dt)
    grad_rhs = -(tau / dt) * (y_next - y0)

    h = 1e-4
    grad_fd = np.empty(n, dtype=np.complex128)
    for j in range(n):
        for part, unit in ((0, 1.0), (1, 1.0j)):
            up, down = y0.copy(), y0.copy()
            up[j] += h * unit
            down[j] -= h * unit
            d = (summand(up) - summand(down)) / (2.0 * h)
            grad_fd[j] = d if part == 0 else grad_fd[j] + 1j * d
    return float(np.linalg.norm(grad_fd - grad_rhs) / np.linalg.norm(grad_rhs))


def test_criterion_02_gradient_oracles():
    rng = np.random.default_rng(2024)
    worst_dyn = max(_integrator_gradient_error(rng) for _ in range(100))
    worst_pred = max(_prediction_gradient_error(rng) for _ in range(100))
    ok = worst_dyn < 1e-6 and worst_pred < 1e-6
    _verdict(2, "gradient oracles vs finite differences",
             ok,
             f"integrator max rel {worst_dyn:.3e}, prediction max rel "
             f"{worst_pred:.3e} over 100 random instances each (tol 1e-6)")


# ---------------------------------------------------------------------------
# 3. ring-attractor delay memory


def test_criterion_03_delay_memory_and_reset(fig2):
    traj = fig2.trajectory
    timing = fig2.extras["timing"]
    target = fig2.extras["target"]

    lo = traj.sample_index(timing.input_off + 500.0)
    hi = traj.sample_index(timing.end_cue_on)
    readout = readout_series(fig2.extras["spec"], traj.y[lo:hi + 1])
    read_err = float(np.abs(readout - target).max())

    t_reset = timing.end_cue_on + 20.0 * 10.0
    resid = float(np.abs(traj.y[traj.sample_index(t_reset):]).max())

    ok = read_err < 1e-3 and resid < 1e-3
    _verdict(3, "delay memory holds the cue and resets",
             ok,
             f"readout error {read_err:.3e} across the delay, |y| {resid:.3e} "
             f"from 20 tau after the end cue (tol 1e-3 each)")


# ---------------------------------------------------------------------------
# 4. orthogonal encoder perturbations are invisible


def test_criterion_04_orthogonal_encoder_perturbation(fig2):
    spec = fig2.extras["spec"]
    encoder = fig2.extras["encoder"]
    pulses = fig2.extras["pulses"]
    timing = fig2.extras["timing"]
    base = fig2.trajectory

    rng = np.random.default_rng(7)
    raw = rng.standard_normal((spec.n_neurons, encoder.shape[1]))
    q, _ = np.linalg.qr(encoder)                      # orthonormal column span
    perp = raw - q @ (q.conj().T @ raw)
    perp = perp / np.linalg.norm(perp, axis=0)        # column norms exactly 1
    overlap = float(np.abs(encoder.conj().T @ perp).max())

    w_zx = spec.w_zx.copy()
    w_zx[:, : encoder.shape[1]] += perp
    perturbed_spec = spec.replace(w_zx=w_zx)
    perturbed = simulate(perturbed_spec,
                         pulse_series(4, pulses, 0.0, timing.t_stop, 1.0),
                         0.0, timing.t_stop, 1.0)

    lo = base.sample_index(timing.input_off + 500.0)
    hi = base.sample_index(timing.end_cue_on)
    diff = float(np.abs(readout_series(perturbed_spec, perturbed.y[lo:hi + 1])
                        - readout_series(spec, base.y[lo:hi + 1])).max())
    ok = overlap < 1e-12 and diff < 1e-6
    _verdict(4, "orthogonal encoder component leaves the readout unchanged",
             ok,
             f"stored-subspace overlap {overlap:.1e}, delay readout moved by "
             f"{diff:.3e} for unit-norm perturbations (tol 1e-6)")


# ---------------------------------------------------------------------------
# 5. 100-unit shift ring


def test_criterion_05_shift_ring_memory(fig5):
    mag_check = _named_check(fig5, "stored magnitudes constant")
    osc_check = _named_check(fig5, "single-unit oscillation near 1 Hz")
    eigs = np.linalg.eigvals(fig5.extras["spec"].w_yy)
    sustained = eigs[np.abs(eigs.real - 1.0) < 1e-6]
    pair_imag = float(np.abs(sustained.imag).max())
    imag_ok = sustained.size == 2 and abs(pair_imag - 0.0628) < 5e-4
    ok = mag_check.passed and osc_check.passed and imag_ok
    _verdict(5, "shift-ring memory: constant magnitude, ~1 Hz wave",
             ok,
             f"{mag_check.detail}; {osc_check.detail}; sustained pair imag "
             f"+-{pair_imag:.5f} vs 0.0628 (tol 5e-4)")


# ---------------------------------------------------------------------------
# 6. random spectrum with ten sustained dimensions


def test_criterion_06_random_spectrum_memory(fig6):
    const_check = _named_check(fig6, "10-d magnitudes constant")
    dim_check = _named_check(fig6, "10 sustained dimensions")
    eigs = np.linalg.eigvals(fig6.extras["spec"].w_yy)
    n_sustained = int(np.sum(np.abs(eigs.real - 1.0) < 1e-8))
    ok = const_check.passed and dim_check.passed and n_sustained == 10
    _verdict(6, "random spectrum holds a 10-d pattern",
             ok,
             f"{n_sustained} eigenvalues with |Re - 1| < 1e-8 (want exactly "
             f"10); {const_check.detail}")


# ---------------------------------------------------------------------------
# 7. two-unit pair: frequencies and stability classes


def test_criterion_07_pair_frequencies_and_stability(
        fig7_default, fig7_slow, fig7_equal):
    rep_fast = fig7_default.extras["report"]
    rep_slow = fig7_slow.extras["report"]
    rep_equal = fig7_equal.extras["report"]

    f_fast = float(rep_fast.frequencies_hz.max())
    f_slow = float(rep_slow.frequencies_hz.max())
    fast_fft = _named_check(fig7_default, "delay oscillation at predicted frequency")
    slow_fft = _named_check(fig7_slow, "delay oscillation at predicted frequency")
    decay = _named_check(fig7_equal, "delay activity decays")

    ok = (
        rep_fast.stability == "stable-oscillation"
        and abs(f_fast - 12.33) < 5e-3
        and fast_fft.passed
        and abs(f_slow - 6.16) < 5e-3
        and slow_fft.passed
        and rep_equal.stability == "decaying"
        and decay.passed
    )
    _verdict(7, "pair oscillation frequencies track the time constants",
             ok,
             f"predicted {f_fast:.4f} Hz / {f_slow:.4f} Hz vs 12.33 / 6.16; "
             f"{fast_fft.detail}; equal constants classified "
             f"{rep_equal.stability} with {decay.detail}")


# ---------------------------------------------------------------------------
# 8. double-step remapping snapshots


def test_criterion_08_double_step_snapshots(fig4):
    names = (
        "map positions before first movement",
        "map positions after first movement",
        "map positions after second movement",
    )
    checks = [_named_check(fig4, name) for name in names]
    ok = all(c.passed for c in checks)
    _verdict(8, "double-step remapping snapshot values",
             ok, "; ".join(c.detail for c in checks))


# ---------------------------------------------------------------------------
# 9. linearity


def test_criterion_09_superposition(fig8):
    runs = fig8.extras["runs"]
    err = float(np.abs(
        runs["combined"].y - runs["first"].y - runs["second"].y
    ).max())
    _verdict(9, "responses superpose",
             err < 1e-8,
             f"max |combined - (first + second)| = {err:.3e} (tol 1e-8)")


# ---------------------------------------------------------------------------
# 10. batch descent vs incremental integration


def test_criterion_10_batch_matches_incremental(fig3):
    batch = fig3.trajectory
    incremental = fig3.extras["incremental"]
    lo = batch.sample_index(2000.0)
    hi = batch.sample_index(2500.0)
    err = float(np.abs(batch.y[lo:hi + 1]
                       - incremental.y[lo:hi + 1]).max())
    _verdict(10, "whole-trajectory descent matches the integrator's plateau",
             err < 1e-4,
             f"max per-neuron difference {err:.3e} over the constant delay "
             f"segment (tol 1e-4)")


# ---------------------------------------------------------------------------
# 11. conductance circuit


def test_criterion_11a_delay_fixed_point_identity():
    params = CircuitParams()
    rng = np.random.default_rng(3)
    z = rng.standard_normal(6)
    yhat = rng.standard_normal(6)
    zeros = np.zeros(6)
    out = steady_state_vs(params, z, yhat, zeros, zeros)
    g_v = total_conductance(params, zeros, zeros)
    ok = np.array_equal(out, yhat) and np.all(g_v == 1.0)
    _verdict(11, "delay-period somatic fixed point equals the prediction",
             ok,
             "steady-state potential is bitwise the recurrent prediction when "
             "both gains are zero and the total conductance is exactly 1")


def test_criterion_11b_circuit_matches_rate_model(fig9):
    circ = fig9.trajectory
    rate = fig9.extras["rate_trajectory"]
    timing = fig9.extras["timing"]

    t_grid = np.arange(timing.input_off + 100.0, timing.end_cue_on, 1.0)
    ci = np.round((t_grid - circ.times[0]) / circ.dt).astype(int)
    ri = np.round((t_grid - rate.times[0]) / rate.dt).astype(int)
    err = float(np.abs(circ.y_net[ci] - rate.y[ri].real).max())

    plateau = _named_check(fig9, "encoding plateau sits at the predicted level")
    ok = err < 1e-3 and plateau.passed
    _verdict(11, "conductance circuit reproduces the rate model",
             ok,
             f"max |circuit - rate| = {err:.3e} from 10 tau into the delay "
             f"(tol 1e-3); input period checked at the conductance scale: "
             f"{plateau.detail}")


def test_fig9_advances_most_blocks_by_the_map(fig9):
    # 160 000 steps at dt 0.01, one sample per 100: 313 blocks of 512 steps.
    # Through the delay and after the reset the input is zero and the leaks
    # have stopped moving, and 296 of those blocks are one affine map.
    circ = fig9.trajectory
    assert circ.n_samples == 1601
    assert 280 <= circ.map_blocks <= 313


# ---------------------------------------------------------------------------
# 12. frequency-channel continuation


def test_criterion_12_continuation_bank(fig10):
    traj = fig10.trajectory
    dt = traj.dt

    i0 = traj.sample_index(0.0)
    i1 = traj.sample_index(1000.0)
    sig = traj.readout[i0 + 1 : i1 + 1]
    mags = np.abs(np.fft.rfft(sig - sig.mean()))
    mags[0] = 0.0
    freqs = np.fft.rfftfreq(len(sig), dt / 1000.0)
    bin_hz = freqs[1] - freqs[0]
    top2 = np.sort(freqs[np.argsort(mags)[-2:]])
    peaks_ok = (abs(top2[0] - 2.0) <= bin_hz) and (abs(top2[1] - 8.0) <= bin_hz)

    i2 = traj.sample_index(2000.0)
    drift_per_s = float(np.abs(
        np.abs(traj.y[i2]) - np.abs(traj.y[i0])
    ).max()) / 2.0
    conserved_ok = drift_per_s < 1e-4

    i_reset = traj.sample_index(2500.0 + 200.0)
    resid = float(np.abs(traj.y[i_reset:]).max())
    reset_ok = resid < 1e-3

    ok = peaks_ok and conserved_ok and reset_ok
    _verdict(12, "continuation carries both tones, conserves, then resets",
             ok,
             f"free-run peaks at {top2[0]:.2f}/{top2[1]:.2f} Hz (bin "
             f"{bin_hz:.2f} Hz), magnitude drift {drift_per_s:.2e}/s "
             f"(tol 1e-4/s), |y| = {resid:.2e} from 20 tau after the raised "
             f"gain (tol 1e-3)")


# ---------------------------------------------------------------------------
# 13. time warp


def test_criterion_13_time_warp_halves_the_peak(fig7_default, fig7_slow):
    peaks = []
    for result in (fig7_default, fig7_slow):
        traj = result.trajectory
        lo = traj.sample_index(1000.0)
        hi = traj.sample_index(3000.0)
        peaks.append(dominant_frequency(traj.y[lo:hi, 0].real, traj.dt))
    bin_hz = 1000.0 / 2000.0
    ok = abs(peaks[1] - peaks[0] / 2.0) <= bin_hz
    _verdict(13, "doubling every time constant halves the oscillation peak",
             ok,
             f"peaks {peaks[0]:.3f} Hz -> {peaks[1]:.3f} Hz, halving error "
             f"{abs(peaks[1] - peaks[0] / 2.0):.3f} Hz (bin {bin_hz:.2f} Hz)")


# ---------------------------------------------------------------------------
# The results ledger: each run's check names and verdicts, and the shape and
# dtype of each of its arrays, as committed.  Details can move at rounding
# level across CPUs and NumPy builds, so they are compared only on a host whose
# NumPy, machine, OpenBLAS core and CPU dispatch targets are the ledger's.
# Hashes are left to ``python tests/ledger.py --check``.

_COMMITTED = json.loads(ledger.LEDGER.read_text())
_LEDGER = _COMMITTED["runs"]
_HOST = ledger.header()
_CHECK_KEYS = ("name", "verdict") + (
    ("detail",) if all(_COMMITTED["header"].get(key) == _HOST[key]
                       for key in ledger.HOST_KEYS) else ())


@pytest.mark.parametrize("label", list(ledger.RUNS))
def test_run_matches_the_ledger(request, label):
    name, overrides = ledger.RUNS[label]
    result = (run_scenario(name, **overrides) if overrides
              else request.getfixturevalue("fig7_default" if name == "fig7" else name))
    committed = _LEDGER[label]
    assert ([[c[key] for key in _CHECK_KEYS] for c in ledger.checks(result)]
            == [[c[key] for key in _CHECK_KEYS] for c in committed["checks"]])
    assert ({path: [list(a.shape), str(a.dtype)]
             for path, a in ledger.arrays(result).items()}
            == {path: [f["shape"], f["dtype"]]
                for path, f in committed["arrays"].items()})
