"""Forward-Euler integrator semantics and conservation properties."""

import warnings

import numpy as np
import pytest
from sampling import sampled

import oscint.dynamics
import oscint.model
import oscint.scenarios
from oscint.dynamics import _BLOCK, simulate, step
from oscint.model import DivergenceError, NetworkSpec, SimState, readout_series
from oscint.scenarios import run_scenario
from oscint.weights import center_surround, ei_pair, eigen_encoder, synfire


def test_step_hand_case():
    # tau = 10, dt = 1, a = b = 1: input weight 1/2, recurrent weight 1/2.
    # From y = 0 with z = 1 and no recurrence: y' = 0.1 * 0.5 = 0.05.
    spec = NetworkSpec.build(1, 1, w_zx=np.array([[1.0]]))
    state = SimState(y=np.array([0j]), a=np.array([1.0]), b=np.array([1.0]))
    out = step(spec, state, np.array([1.0]), 1.0)
    assert out.y[0] == pytest.approx(0.05 + 0j, abs=1e-15)
    # gains decay toward their (zero) drive with tau = 10
    assert out.a[0] == pytest.approx(0.9, abs=1e-15)
    assert out.b[0] == pytest.approx(0.9, abs=1e-15)
    assert out.t == 1.0


def test_zero_input_from_rest_stays_at_rest():
    spec = NetworkSpec.build(4, 2, w_yy=np.eye(4))
    traj = simulate(spec, sampled(lambda t: np.zeros(2), 0.0, 50.0, 1.0),
                    0.0, 50.0, dt=1.0)
    assert np.all(traj.y == 0)
    assert np.all(traj.a == 0)
    assert np.all(traj.b == 0)


def test_simulate_is_deterministic():
    rng = np.random.default_rng(0)
    spec = NetworkSpec.build(
        3, 2,
        w_yy=rng.standard_normal((3, 3)) * 0.3,
        w_zx=rng.standard_normal((3, 2)),
        w_ax=np.abs(rng.standard_normal((3, 2))),
        w_bx=np.abs(rng.standard_normal((3, 2))),
    )

    def drive(t):
        return np.array([np.sin(0.01 * t), 1.0])

    t1 = simulate(spec, sampled(drive, 0.0, 200.0, 1.0), 0.0, 200.0, dt=1.0)
    t2 = simulate(spec, sampled(drive, 0.0, 200.0, 1.0), 0.0, 200.0, dt=1.0)
    assert np.array_equal(t1.y, t2.y)
    assert np.array_equal(t1.a, t2.a)
    assert np.array_equal(t1.b, t2.b)


def _step_loop(spec, input_fn, t_start, n_steps, dt, init):
    """Reference run: one ``step`` per sample; rows of y, a and b."""
    state, rows = init, [init]
    for i in range(n_steps):
        x = np.asarray(input_fn(t_start + i * dt))
        state = step(spec, state, x, dt)
        rows.append(state)
    return tuple(np.array([getattr(r, f) for r in rows]) for f in "yab")


def _blow_up(channel):
    """A one-unit spec and input whose first non-finite sample is 701 (a or b:
    a 1e308 input overflows the gain drive from t = 700) or 1107 (y:
    the response grows 1.9-fold per step), both inside a block."""
    late = lambda t: np.array([1e308 if t >= 700.0 else 0.0])
    if channel == "y":
        spec = NetworkSpec.build(1, 1, w_yy=np.array([[10.0]]),
                                 c_yhat=np.array([1.0]))
        return spec, lambda t: np.zeros(1)
    if channel == "a":
        return NetworkSpec.build(1, 1, w_ax=np.array([[10.0]])), late
    return NetworkSpec.build(1, 1, w_bx=np.array([[10.0]])), late


def test_divergence_raises():
    spec = NetworkSpec.build(1, 1, w_yy=np.array([[1e8]]), c_yhat=np.array([1e8]))
    with np.errstate(all="ignore"), pytest.raises(DivergenceError):
        simulate(spec, sampled(lambda t: np.zeros(1), 0.0, 100.0, 1.0),
                 0.0, 100.0, dt=1.0)


@pytest.mark.parametrize("channel", ["y", "a", "b"])
def test_divergence_names_first_non_finite_sample(channel):
    # The block path checks once per block but must name the same time as
    # the per-step check: the first non-finite sample, not the block's end.
    spec, input_fn = _blow_up(channel)
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError) as reference:
            _step_loop(spec, input_fn, 0.0, 2000, 1.0, SimState.zeros(spec))
        with pytest.raises(DivergenceError) as blocked:
            simulate(spec, sampled(input_fn, 0.0, 2000.0, 1.0), 0.0, 2000.0,
                     dt=1.0)
    assert str(blocked.value) == str(reference.value)
    t_bad = float(str(reference.value).split("t = ")[1].split()[0])
    assert t_bad % _BLOCK != 0


@pytest.mark.parametrize("w_ay", [0.0, -1e-3])
def test_divergence_time_counts_from_t_start(w_ay):
    # Both paths (w_ay = 0: blocks; w_ay != 0: steps) name the time on the
    # run's own clock, not one started at init.t.
    spec, input_fn = _blow_up("y")
    spec = spec.replace(w_ay=np.array([[w_ay]]))
    init = SimState.zeros(spec, t=0.0)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        simulate(spec, sampled(input_fn, 500.0, 3000.0, 1.0), 500.0, 3000.0,
                 dt=1.0, init=init)
    assert str(info.value) == "non-finite state at t = 1607 ms"


def _gated_spec(rng, n, m, **extra):
    """Random input-gated spec: signed gain weights (so rectification
    engages), complex drive and recurrence, per-neuron tau_y."""
    cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    w_yy = cplx(n, n)
    w_yy *= 0.9 / np.abs(np.linalg.eigvals(w_yy)).max()
    return NetworkSpec.build(
        n, m,
        tau_y=rng.uniform(5.0, 20.0, n),
        tau_a=rng.uniform(2.0, 20.0),
        tau_b=rng.uniform(2.0, 20.0),
        w_yy=w_yy, w_zx=cplx(n, m),
        w_ax=rng.standard_normal((n, m)), w_bx=rng.standard_normal((n, m)),
        c_z=cplx(n), c_yhat=0.1 * cplx(n),
        c_a=rng.standard_normal(n), c_b=rng.standard_normal(n),
        **extra,
    )


def _random_input(rng, m, kind="real", t_start=0.0):
    """Real sinusoids, complex phasors, or phasors after a real sample at
    ``t_start`` (recorded as real, but driving the network with their
    complex values)."""
    freq, phase = rng.uniform(0.01, 0.2, m), rng.uniform(0, 2 * np.pi, m)
    if kind == "real":
        return lambda t: np.sin(freq * t + phase)
    t_complex = -np.inf if kind == "complex" else t_start
    return lambda t: (np.exp(1j * (freq * t + phase)) if t > t_complex
                      else np.sin(freq * t + phase))


def _random_init(rng, n, t):
    return SimState(y=rng.standard_normal(n) + 1j * rng.standard_normal(n),
                    a=rng.standard_normal(n), b=rng.standard_normal(n), t=t)


@pytest.mark.parametrize("n_steps", [0, _BLOCK - 1, _BLOCK, _BLOCK + 1])
@pytest.mark.parametrize("kind", ["real", "complex", "complex after real"])
@pytest.mark.parametrize("seed", [0, 1])
def test_block_path_matches_step_loop(seed, kind, n_steps):
    rng = np.random.default_rng(seed)
    n, m, dt, t_start = 6, 3, 0.5, 20.0
    spec = _gated_spec(rng, n, m)
    input_fn = _random_input(rng, m, kind, t_start)
    init = _random_init(rng, n, t_start)
    t_stop = t_start + n_steps * dt
    traj = simulate(spec, sampled(input_fn, t_start, t_stop, dt), t_start,
                    t_stop, dt=dt, init=init)
    reference = _step_loop(spec, input_fn, t_start, n_steps, dt, init)
    for name, ref in zip("yab", reference):
        got = getattr(traj, name)
        assert got.shape == ref.shape == (n_steps + 1, n)
        bound = 1e-12 * max(1.0, float(np.abs(ref).max()))
        assert np.abs(got - ref).max() <= bound, name


def test_gains_reading_y_take_the_step_loop_exactly():
    rng = np.random.default_rng(3)
    n, m, dt = 4, 2, 0.5
    spec = _gated_spec(rng, n, m, w_ay=0.3 * rng.standard_normal((n, n)))
    input_fn = _random_input(rng, m)
    init = _random_init(rng, n, 0.0)
    n_steps = _BLOCK + 1
    traj = simulate(spec, sampled(input_fn, 0.0, n_steps * dt, dt), 0.0,
                    n_steps * dt, dt=dt, init=init)
    y, a, b = _step_loop(spec, input_fn, 0.0, n_steps, dt, init)
    assert np.array_equal(traj.y, y)
    assert np.array_equal(traj.a, a)
    assert np.array_equal(traj.b, b)


@pytest.mark.parametrize("w_ay", [0.0, 0.3])
def test_complex_input_after_real_is_recorded_whole(w_ay):
    # Both paths (w_ay = 0: blocks; w_ay != 0: steps) record a series whose
    # first sample is real and the rest complex as complex, so replaying
    # the recorded x through step() reproduces the recorded y.
    rng = np.random.default_rng(5)
    n, m, dt, t_start = 4, 2, 0.5, 3.0
    spec = _gated_spec(rng, n, m, w_ay=w_ay * rng.standard_normal((n, n)))
    input_fn = _random_input(rng, m, "complex after real", t_start)
    init = _random_init(rng, n, t_start)
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        t_stop = t_start + (_BLOCK + 3) * dt
        traj = simulate(spec, sampled(input_fn, t_start, t_stop, dt), t_start,
                        t_stop, dt=dt, init=init)
    assert traj.x.dtype == np.complex128
    assert np.abs(traj.x[1:].imag).min() > 0.0
    y, _, _ = _step_loop(spec, lambda t: traj.x[traj.sample_index(t)],
                         t_start, traj.n_samples - 1, dt, init)
    assert np.abs(traj.y - y).max() <= 1e-12 * max(1.0, float(np.abs(y).max()))


def test_simulate_rejects_wrong_shaped_input():
    # Three steps take four rows of two channels: any other shape is turned
    # down before a step is taken.
    spec = NetworkSpec.build(2, 2)
    for shape in [(4, 1), (3, 2), (5, 2), (4,), (4, 2, 1)]:
        with pytest.raises(ValueError, match=r"expected \(4, 2\)"):
            simulate(spec, np.ones(shape), 0.0, 3.0, dt=1.0)


@pytest.mark.parametrize("field", ["y", "a", "b"])
def test_simulate_rejects_wrong_shaped_init(field):
    spec = NetworkSpec.build(2, 1)
    init = SimState.zeros(spec)
    setattr(init, field, np.zeros(1, dtype=getattr(init, field).dtype))
    with pytest.raises(ValueError, match=f"init.{field}"):
        simulate(spec, np.zeros((4, 1)), 0.0, 3.0, dt=1.0, init=init)


@pytest.mark.parametrize("gate_path", ["blocks", "steps"])
@pytest.mark.parametrize("n_steps", [0, 3])
@pytest.mark.parametrize("field", ["y", "a", "b"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_simulate_rejects_non_finite_init(field, bad, n_steps, gate_path):
    # Turned down before any step, also when there is no step to take.
    w_ay = np.zeros((2, 2)) if gate_path == "blocks" else np.eye(2)
    spec = NetworkSpec.build(2, 1, w_ay=w_ay)
    init = SimState.zeros(spec)
    getattr(init, field)[1] = bad
    with pytest.raises(ValueError, match=f"init.{field} must be finite"):
        simulate(spec, np.zeros((n_steps + 1, 1)), 0.0, float(n_steps),
                 dt=1.0, init=init)


@pytest.mark.parametrize("gate_path", ["blocks", "steps"])
@pytest.mark.parametrize("field", ["a", "b"])
def test_simulate_rejects_complex_gains_in_init(field, gate_path):
    # Gains are real: a complex init.a or init.b is turned down before any
    # step, not cast to real with a ComplexWarning.  init.y may be complex.
    w_ay = np.zeros((2, 2)) if gate_path == "blocks" else np.eye(2)
    spec = NetworkSpec.build(2, 1, w_ay=w_ay)
    init = SimState.zeros(spec)
    init.y = init.y + 0.5j
    setattr(init, field, getattr(init, field) + 0.5j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"init.{field} must be real"):
            simulate(spec, np.zeros((4, 1)), 0.0, 3.0, dt=1.0, init=init)


def test_superposition_at_held_gains():
    # With the gains pinned at a fixed point (offset drive, no input coupling)
    # the response is linear in the input.
    rng = np.random.default_rng(5)
    n = 4
    spec = NetworkSpec.build(
        n, 2,
        w_yy=rng.standard_normal((n, n)) * 0.2,
        w_zx=rng.standard_normal((n, 2)),
        c_a=np.ones(n),
        c_b=np.ones(n),
    )
    init = SimState(y=np.zeros(n, dtype=np.complex128),
                    a=np.ones(n), b=np.ones(n))

    def run(fn):
        return simulate(spec, sampled(fn, 0.0, 300.0, 1.0), 0.0, 300.0,
                        dt=1.0, init=init).y

    f1 = lambda t: np.array([1.0, 0.0]) * (t < 150.0)
    f2 = lambda t: np.array([0.0, np.sin(0.02 * t)])
    y1, y2 = run(f1), run(f2)
    y12 = run(lambda t: f1(t) + f2(t))
    assert np.abs(y12 - (y1 + y2)).max() < 1e-10


def test_sustained_projection_conserved_step_by_step():
    # In the unit-eigenvalue subspace the Euler update cancels exactly:
    # the projection of y is constant to rounding at every step.
    w = center_surround(8)
    v = eigen_encoder(w, 2)
    spec = NetworkSpec.build(8, 1, w_yy=w)
    rng = np.random.default_rng(2)
    p0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    init = SimState(y=v @ p0, a=np.zeros(8), b=np.zeros(8))
    traj = simulate(spec, sampled(lambda t: np.zeros(1), 0.0, 200.0, 1.0),
                    0.0, 200.0, dt=1.0, init=init)
    proj = traj.y @ v.conj()
    drift = np.abs(proj - p0).max()
    assert drift < 1e-12


def test_dt_guard():
    spec = NetworkSpec.build(2, 1, tau_y=10.0)
    with pytest.raises(ValueError):
        simulate(spec, sampled(lambda t: np.zeros(1), 0.0, 10.0, 2.0),
                 0.0, 10.0, dt=2.0)


@pytest.mark.parametrize("dt, t_stop", [(0.0, 10.0), (-1.0, 10.0), (1.0, -5.0)],
                         ids=["dt-zero", "dt-negative", "t-stop-before-t-start"])
def test_simulate_rejects_a_span_no_step_covers(dt, t_stop):
    spec = NetworkSpec.build(2, 1, tau_y=10.0)
    with pytest.raises(ValueError, match="dt must be positive|non-negative whole number"):
        simulate(spec, np.zeros((11, 1)), 0.0, t_stop, dt)


@pytest.mark.parametrize("dt", [0.0, -1.0])
def test_step_rejects_a_non_positive_dt(dt):
    spec = NetworkSpec.build(2, 1, tau_y=10.0)
    with pytest.raises(ValueError, match="dt must be positive"):
        step(spec, SimState.zeros(spec), np.zeros(1), dt)


def test_readout_recording():
    # The record holds y only; readout_series reads it out of any samples.
    spec = NetworkSpec.build(
        2, 1, n_readout=1,
        w_ry=np.array([[1.0, -1.0]]),
        c_r=np.array([0.5]),
        c_yhat=np.array([1.0, 0.0]),
    )
    traj = simulate(spec, sampled(lambda t: np.zeros(1), 0.0, 20.0, 1.0),
                    0.0, 20.0, dt=1.0)
    assert not hasattr(traj, "readout")
    readout = readout_series(spec, traj.y)
    assert readout.shape == (traj.n_samples, 1)
    expected = traj.y @ np.array([[1.0, -1.0]]).T + 0.5
    assert np.abs(readout - expected).max() < 1e-14
    assert np.array_equal(readout_series(spec, traj.y[5:9]), readout[5:9])
    assert readout_series(spec.replace(n_readout=0, w_ry=np.zeros((0, 2)),
                                       c_r=np.zeros(0)), traj.y) is None


def test_recorded_samples_are_pre_step_states():
    spec = NetworkSpec.build(1, 1, w_zx=np.array([[1.0]]), c_b=np.array([1.0]))
    traj = simulate(spec, sampled(lambda t: np.ones(1), 0.0, 5.0, 1.0),
                    0.0, 5.0, dt=1.0)
    # Sample 0 is the initial condition, untouched by the first update.
    assert traj.y[0, 0] == 0j
    assert traj.times[0] == 0.0
    assert traj.n_samples == 6


def test_simulate_rejects_off_grid_span():
    spec = NetworkSpec.build(1, 1)
    with pytest.raises(ValueError, match="whole number of steps"):
        simulate(spec, np.zeros((11, 1)), 0.0, 10.7, dt=1.0)


# ---------------------------------------------------------------------------
# The eigenbasis scan against the block loop it replaces.


def _force_loop(monkeypatch):
    """Every later ``simulate`` advances y through the block loop."""
    monkeypatch.setattr(NetworkSpec, "modal_basis", property(lambda spec: None))


def _count_scans(monkeypatch):
    """A list that records, per block, whether the scan advanced it."""
    scanned, real = [], oscint.dynamics._scan_block

    def scan(*args):
        scanned.append(real(*args))
        return scanned[-1]

    monkeypatch.setattr(oscint.dynamics, "_scan_block", scan)
    return scanned


# Every preset that runs the rate engine (fig3's one rate run is fig2's), with
# fig9's circuit at a coarse step: its rate run does not depend on it.
@pytest.mark.parametrize("name, overrides", [
    ("fig2", {}), ("fig4", {}), ("fig5", {}), ("fig6", {}), ("fig7", {}),
    ("fig8", {}), ("fig9", {"dt": 0.05}),
])
def test_scan_matches_block_loop_on_every_rate_preset(monkeypatch, name,
                                                      overrides):
    calls, real = [], oscint.scenarios.simulate

    def spy(*args, **kwargs):
        traj = real(*args, **kwargs)
        calls.append((args, kwargs, traj.y))
        return traj

    monkeypatch.setattr(oscint.scenarios, "simulate", spy)
    scanned = _count_scans(monkeypatch)
    assert run_scenario(name, **overrides).all_passed
    assert calls
    # fig7's pair has two time constants; every other preset shares its gate.
    assert any(scanned) == (name != "fig7")

    _force_loop(monkeypatch)
    for args, kwargs, y in calls:
        ref = simulate(*args, **kwargs).y
        bound = 1e-10 * max(1.0, float(np.abs(ref).max()))
        assert np.abs(y - ref).max() <= bound


def _shared_gate_spec(rng, n, m, shared_b, **extra):
    """Random spec the scan accepts: normal W_yy, one tau_y, and a gate
    1/(1+a+) equal across neurons because every neuron's a-drive is the same
    single input channel (so it is bit-equal whatever the summation order).
    b is per neuron unless ``shared_b``; drive and offsets are complex."""
    cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, _ = np.linalg.qr(cplx(n, n))
    lam = rng.uniform(-0.5, 1.0, n) + 1j * rng.normal(0.0, 0.3, n)

    def same_channel(k):
        w = np.zeros((n, m))
        w[:, k] = rng.standard_normal()
        return w

    fields = dict(
        tau_y=rng.uniform(5.0, 20.0),
        tau_a=rng.uniform(2.0, 20.0),
        tau_b=rng.uniform(2.0, 20.0),
        w_yy=(q * lam) @ q.conj().T, w_zx=cplx(n, m),
        w_ax=same_channel(0), c_a=np.full(n, rng.standard_normal()),
        w_bx=same_channel(1) if shared_b else rng.standard_normal((n, m)),
        c_b=np.full(n, 0.5) if shared_b else rng.standard_normal(n),
        c_z=cplx(n), c_yhat=0.1 * cplx(n),
    )
    fields.update(extra)
    return NetworkSpec.build(n, m, **fields)


def _shared_gate_init(rng, spec, t):
    n = spec.n_neurons
    b = np.full(n, 0.3) if np.all(spec.c_b == spec.c_b[0]) else rng.standard_normal(n)
    return SimState(y=rng.standard_normal(n) + 1j * rng.standard_normal(n),
                    a=np.full(n, rng.standard_normal()), b=b, t=t)


@pytest.mark.parametrize("n_steps", [0, _BLOCK - 1, _BLOCK, _BLOCK + 1])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("shared_b", [False, True])
def test_scan_matches_block_loop_on_random_shared_gate_specs(
        monkeypatch, shared_b, kind, n_steps):
    rng = np.random.default_rng(40 + n_steps)
    n, m, dt, t_start = 7, 3, 0.5, 4.0
    spec = _shared_gate_spec(rng, n, m, shared_b)
    input_fn = _random_input(rng, m, kind)
    init = _shared_gate_init(rng, spec, t_start)
    t_stop = t_start + n_steps * dt
    scanned = _count_scans(monkeypatch)
    x = sampled(input_fn, t_start, t_stop, dt)
    traj = simulate(spec, x, t_start, t_stop, dt=dt, init=init)
    assert all(scanned) and len(scanned) == -(-n_steps // _BLOCK)
    _force_loop(monkeypatch)
    ref = simulate(spec, x, t_start, t_stop, dt=dt, init=init)
    assert np.array_equal(traj.a, ref.a) and np.array_equal(traj.b, ref.b)
    bound = 1e-10 * max(1.0, float(np.abs(ref.y).max()))
    assert np.abs(traj.y - ref.y).max() <= bound


def _one_unit(w):
    """One block of a one-unit spec (dt/tau_y = 0.1) whose mode factor
    0.9 + 0.1 w takes |M| out of the scan's range, from y = 1e-150."""
    spec = NetworkSpec.build(1, 1, w_yy=np.array([[w]]))
    init = SimState(y=np.array([1e-150 + 0j]), a=np.zeros(1), b=np.zeros(1))
    return spec, lambda t: np.zeros(1), init, _BLOCK, 1.0


def _loop_case(case):
    rng = np.random.default_rng(7)
    if case == "growth beyond range":       # factor 2.1: 2.1^512 > 1e150
        return _one_unit(12.0)
    if case == "decay beyond range":        # factor 0.1: 0.1^512 underflows
        return _one_unit(-8.0)
    n, m = 6, 3
    extra = {
        "per-neuron tau_y": {"tau_y": rng.uniform(5.0, 20.0, n)},
        "per-neuron gains": {"c_a": rng.standard_normal(n)},
    }.get(case, {})
    if case == "non-normal W":
        n = 2
        assert np.linalg.cond(np.linalg.eig(ei_pair())[1]) > oscint.model._MAX_EIG_COND
        extra = {"w_yy": ei_pair()}
    spec = _shared_gate_spec(rng, n, m, shared_b=False, **extra)
    return (spec, _random_input(rng, m), _shared_gate_init(rng, spec, 0.0),
            2 * _BLOCK + 5, 0.5)


@pytest.mark.parametrize("case", [
    "per-neuron tau_y", "per-neuron gains", "non-normal W",
    "growth beyond range", "decay beyond range",
])
def test_specs_outside_the_scan_take_the_block_loop(monkeypatch, case):
    # The loop is the same code either way, so a run that never scans is
    # bit-identical to one with the scan switched off.
    spec, input_fn, init, n_steps, dt = _loop_case(case)
    scanned = _count_scans(monkeypatch)
    x = sampled(input_fn, 0.0, n_steps * dt, dt)
    traj = simulate(spec, x, 0.0, n_steps * dt, dt=dt, init=init)
    assert not any(scanned)
    _force_loop(monkeypatch)
    ref = simulate(spec, x, 0.0, n_steps * dt, dt=dt, init=init)
    assert np.array_equal(traj.y, ref.y)


def test_a_spec_forms_its_eigenbasis_once(monkeypatch):
    formed, real = [], np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig",
                        lambda matrix: formed.append(matrix) or real(matrix))
    rng = np.random.default_rng(5)
    spec = _shared_gate_spec(rng, 6, 3, shared_b=True)
    init = _shared_gate_init(rng, spec, 0.0)
    x = sampled(_random_input(rng, 3), 0.0, 3 * _BLOCK * 0.5, 0.5)
    scanned = _count_scans(monkeypatch)
    runs = [simulate(s, x, 0.0, 3 * _BLOCK * 0.5, dt=0.5, init=init)
            for s in (spec, spec, spec.replace())]
    assert len(formed) == 2 and all(scanned)
    for name in ("y", "a", "b"):
        assert np.array_equal(getattr(runs[1], name), getattr(runs[0], name))
        assert np.array_equal(getattr(runs[2], name), getattr(runs[0], name))
    # The spec's drive offsets drive every step, so no channel set is live.
    *arrays, live = spec.modal_basis
    assert live is None and not any(arr.flags.writeable for arr in arrays)


def test_a_gate_never_shared_forms_no_eigenbasis(monkeypatch):
    # The basis is formed at the first block the scan could take.
    formed, real = [], np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig",
                        lambda matrix: formed.append(matrix) or real(matrix))
    spec, input_fn, init, n_steps, dt = _loop_case("per-neuron gains")
    x = sampled(input_fn, 0.0, n_steps * dt, dt)
    simulate(spec, x, 0.0, n_steps * dt, dt=dt, init=init)
    assert formed == []


def test_modal_basis_holds_what_the_scan_derives_from_the_spec(monkeypatch):
    # A spec whose drive reads input channel 2 alone, with no drive offsets.
    spec = _pulse_then_quiet(True)[0]
    lam, v, v_inv, drive, live = spec.modal_basis
    assert spec.modal_basis is spec.modal_basis
    assert np.allclose(v * lam @ v_inv, spec.w_yy, atol=1e-12)
    assert np.array_equal(
        drive, np.vstack([spec.w_zx.T, spec.c_z, spec.c_yhat]) @ v_inv.T)
    assert np.array_equal(live, [2])
    assert not any(arr.flags.writeable for arr in spec.modal_basis)
    # No basis for a non-normal W_yy, nor, without an eig, for per-neuron tau_y.
    assert spec.replace(w_yy=np.zeros((6, 6)) + np.diag(np.ones(5), 1)
                        ).modal_basis is None
    formed, real = [], np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig",
                        lambda matrix: formed.append(matrix) or real(matrix))
    tau_y = np.linspace(5.0, 10.0, 6)
    assert spec.replace(tau_y=tau_y).modal_basis is None and formed == []


# ---------------------------------------------------------------------------
# Mode-power tables reused across blocks, and quiet blocks without q, against
# a scan that builds every block's table and q itself.


def _per_block_scan(spec, rate, recur, b_plus, x, y_rows, table):
    """Reference for ``_scan_block``: the block's own mode-power table from
    its gate, and q always formed, as a block scanned alone would do."""
    basis = spec.modal_basis
    if not np.all(recur == recur[:, :1]) or basis is None:
        return False
    lam, v, v_inv, drive, _ = basis
    gate = rate * recur[:, 0]
    mu = np.cumprod(np.multiply.outer(gate, lam) + (1.0 - rate), axis=0)
    low, high = oscint.dynamics._SCAN_RANGE
    if not (np.abs(mu).min() >= low and np.abs(mu).max() <= high):
        return False
    if np.all(b_plus == b_plus[:, :1]):
        beta = rate * (b_plus[:, :1] / (1.0 + b_plus[:, :1]))
        q = np.hstack([beta * x[:-1], beta, gate[:, None]]) @ drive
    else:
        q = oscint.dynamics._push(spec, rate, recur, b_plus, x) @ v_inv.T
    u0 = v_inv @ y_rows[0]
    u = mu * (np.cumsum(q / mu, axis=0) + u0) if np.any(q) else mu * u0
    y_rows[1:] = u @ v.T
    return bool(np.isfinite(y_rows[1:]).all())


def _spy_tables(monkeypatch):
    """Lists of the tables ``_scan_block`` builds (None when out of range)
    and of whether each block it scans forms its q."""
    tables, formed_q = [], []
    real_powers, real_push = oscint.dynamics._mode_powers, oscint.dynamics._modal_push

    def powers(*args):
        tables.append(real_powers(*args))
        return tables[-1]

    def push(*args):
        q = real_push(*args)
        formed_q.append(q is not None)
        return q

    monkeypatch.setattr(oscint.dynamics, "_mode_powers", powers)
    monkeypatch.setattr(oscint.dynamics, "_modal_push", push)
    return tables, formed_q


def _pulse_then_quiet(shared_b, **extra):
    """A spec the scan accepts whose drive reads input channel 2 alone, with
    no drive offsets unless ``extra`` sets them, and a run of 4 blocks and 100
    steps: the drive pulses in block 0 and the a-drive (channel 0) in blocks
    0-1, after which a decays below 2**-53 and the gate repeats its bits."""
    rng = np.random.default_rng(17)
    n, m, dt = 6, 3, 0.5
    w_zx = np.zeros((n, m), dtype=np.complex128)
    w_zx[:, 2] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w_ax = np.zeros((n, m))
    w_ax[:, 0] = 1.0
    fields = dict(w_zx=w_zx, c_z=np.zeros(n), c_yhat=np.zeros(n),
                  w_ax=w_ax, c_a=np.zeros(n), tau_a=2.0)
    fields.update(extra)
    spec = _shared_gate_spec(rng, n, m, shared_b, **fields)
    n_steps = 4 * _BLOCK + 100
    x = np.zeros((n_steps + 1, m))
    x[:300, 2] = 1.0
    x[:700, 0] = 0.5
    x[:, 1] = 0.25
    init = _shared_gate_init(rng, spec, 0.0)
    init.a[:] = 0.0
    return spec, x, n_steps * dt, dt, init


def _gate_changes(traj, spec):
    """Per block, whether its gate column differs in some bit from the
    block's before it (always for the first)."""
    n_steps, rate = traj.n_samples - 1, traj.dt / spec.tau_y[0]
    keys = [(rate * (1.0 / (1.0 + np.maximum(traj.a[s:s + _BLOCK, 0], 0.0))))
            [:n_steps - s].tobytes() for s in range(0, n_steps, _BLOCK)]
    return [k != before for k, before in zip(keys, [None] + keys)]


@pytest.mark.parametrize("shared_b", [True, False])
def test_changed_gate_rebuilds_the_table_and_repeated_gate_reuses_it(
        monkeypatch, shared_b):
    spec, x, t_stop, dt, init = _pulse_then_quiet(shared_b)
    tables, formed_q = _spy_tables(monkeypatch)
    traj = simulate(spec, x, 0.0, t_stop, dt=dt, init=init)
    changes = _gate_changes(traj, spec)
    # Blocks 0-2 each have a new gate, block 3 repeats block 2's, and the
    # short last block's shorter column is a new key.
    assert changes == [True, True, True, False, True]
    assert len(tables) == sum(changes) and all(t is not None for t in tables)
    # Only block 0's inputs reach the drive.
    assert formed_q == [True, False, False, False, False]
    monkeypatch.setattr(oscint.dynamics, "_scan_block", _per_block_scan)
    ref = simulate(spec, x, 0.0, t_stop, dt=dt, init=init)
    assert np.array_equal(traj.y, ref.y)


@pytest.mark.parametrize("offset", ["c_z", "c_yhat"])
def test_drive_offsets_never_skip_q(monkeypatch, offset):
    rng = np.random.default_rng(3)
    value = 0.1 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
    spec, x, t_stop, dt, init = _pulse_then_quiet(True, **{offset: value})
    tables, formed_q = _spy_tables(monkeypatch)
    traj = simulate(spec, x, 0.0, t_stop, dt=dt, init=init)
    assert len(formed_q) == 5 and all(formed_q)
    monkeypatch.setattr(oscint.dynamics, "_scan_block", _per_block_scan)
    ref = simulate(spec, x, 0.0, t_stop, dt=dt, init=init)
    assert np.array_equal(traj.y, ref.y)


def test_out_of_range_table_sends_every_block_with_its_gate_to_the_loop(
        monkeypatch):
    # The one-unit mode factor 0.1 underflows |M| within each block, and
    # the gate is the same in all three.
    spec, _, init, _, dt = _one_unit(-8.0)
    x = np.zeros((3 * _BLOCK + 1, 1))
    tables, _ = _spy_tables(monkeypatch)
    scanned = _count_scans(monkeypatch)
    traj = simulate(spec, x, 0.0, 3 * _BLOCK * dt, dt=dt, init=init)
    assert len(tables) == 1 and tables[0] is None
    assert scanned == [False] * 3
    monkeypatch.setattr(oscint.dynamics, "_scan_block", _per_block_scan)
    ref = simulate(spec, x, 0.0, 3 * _BLOCK * dt, dt=dt, init=init)
    assert np.array_equal(traj.y, ref.y)
    _force_loop(monkeypatch)
    ref = simulate(spec, x, 0.0, 3 * _BLOCK * dt, dt=dt, init=init)
    assert np.array_equal(traj.y, ref.y)


# ---------------------------------------------------------------------------
# Gains every neuron shares: one filtered column behind read-only views.


def _per_neuron(spec):
    """A copy of ``spec`` whose gains ``simulate`` filters neuron by neuron."""
    copy = spec.replace()
    object.__setattr__(copy, "_gains_shared", False)
    return copy


def _fig5_ring():
    """fig5's 100-unit shift ring and cue series, at a coarser step."""
    n, dt, t_stop = 100, 0.1, 1200.0
    w = synfire(n) / np.cos(2.0 * np.pi / n)
    encoder = eigen_encoder(w, 3)[:, 1:3]
    spec = oscint.scenarios._memory_spec(w, encoder)
    pulses = oscint.scenarios._memory_pulses(
        2, oscint.scenarios._UNIT_TARGET_2D, oscint.scenarios._MemoryTiming())
    x = oscint.scenarios.pulse_series(4, pulses, 0.0, t_stop, dt)
    return spec, x, t_stop, dt, None


def _random_shared_gains(channels=1):
    """Random spec whose gain rows are all equal, each gain reading
    ``channels`` input channels, with a non-normal W_yy (so y advances
    through the block loop) and constant initial gains."""
    rng = np.random.default_rng(12)
    n, m, dt, n_steps = 6, 3, 0.5, 2 * _BLOCK + 5
    cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    w_yy = cplx(n, n)
    w_yy *= 0.9 / np.abs(np.linalg.eigvals(w_yy)).max()
    assert np.linalg.cond(np.linalg.eig(w_yy)[1]) > oscint.model._MAX_EIG_COND

    def rows():
        w = np.zeros(m)
        w[rng.permutation(m)[:channels]] = rng.standard_normal(channels)
        return np.tile(w, (n, 1))

    spec = NetworkSpec.build(
        n, m, tau_y=rng.uniform(5.0, 20.0), tau_a=3.0, tau_b=7.0,
        w_yy=w_yy, w_zx=cplx(n, m), w_ax=rows(), w_bx=rows(),
        c_a=np.full(n, -0.2), c_b=np.full(n, 0.4),
        c_z=cplx(n), c_yhat=0.1 * cplx(n))
    init = SimState(y=cplx(n), a=np.full(n, 0.7), b=np.full(n, -0.1))
    x = sampled(_random_input(rng, m), 0.0, n_steps * dt, dt)
    return spec, x, n_steps * dt, dt, init


@pytest.mark.parametrize("case", [_fig5_ring, _random_shared_gains],
                         ids=["fig5 ring", "random non-normal, one channel"])
def test_shared_gains_match_the_per_neuron_path_exactly(monkeypatch, case):
    spec, x, t_stop, dt, init = case()
    assert spec._gains_shared
    scanned = _count_scans(monkeypatch)
    traj = simulate(spec, x, 0.0, t_stop, dt=dt, init=init)
    if case is _fig5_ring:
        assert scanned and all(scanned)
    else:
        assert not any(scanned)         # non-normal W: the block loop
    ref = simulate(_per_neuron(spec), x, 0.0, t_stop, dt=dt, init=init)
    assert ref.a.flags.writeable and not traj.a.flags.writeable
    for name in "yab":
        assert np.array_equal(getattr(traj, name), getattr(ref, name)), name


def test_shared_gains_of_several_channels_match_to_rounding():
    # The one-column drive x @ w[0] may add its channels in another order
    # than the N-column product does.
    spec, x, t_stop, dt, init = _random_shared_gains(channels=3)
    assert spec._gains_shared
    traj = simulate(spec, x, 0.0, t_stop, dt=dt, init=init)
    ref = simulate(_per_neuron(spec), x, 0.0, t_stop, dt=dt, init=init)
    assert not traj.a.flags.writeable
    for name, rel in (("a", 1e-14), ("b", 1e-14), ("y", 1e-12)):
        got, want = getattr(traj, name), getattr(ref, name)
        assert np.abs(got - want).max() <= rel * max(1.0, float(np.abs(want).max()))


def test_gains_that_differ_are_filtered_per_neuron():
    spec, x, t_stop, dt, init = _random_shared_gains()
    c_a = spec.c_a.copy()
    c_a[-1] += 1e-3
    differ = spec.replace(c_a=c_a)
    assert not differ._gains_shared
    assert simulate(differ, x, 0.0, t_stop, dt=dt, init=init).a.flags.writeable
    init.a[0] += 1e-3
    traj = simulate(spec, x, 0.0, t_stop, dt=dt, init=init)
    assert traj.a.flags.writeable and traj.a[0, 0] != traj.a[0, 1]


def test_shared_gains_are_read_only_views():
    spec, x, t_stop, dt, init = _random_shared_gains()
    traj = simulate(spec, x, 0.0, t_stop, dt=dt, init=init)
    for gains in (traj.a, traj.b):
        assert gains.shape == (traj.n_samples, spec.n_neurons)
        assert not gains.flags.writeable
        with pytest.raises(ValueError):
            gains[1, 0] = 0.0
    # fig4's closed loop concatenates its pieces' views into whole arrays.
    full = run_scenario("fig4").trajectory
    assert full.a.flags.writeable and full.b.flags.writeable
    assert full.a.shape == full.b.shape == full.y.shape
