"""Forward-Euler integrator semantics and conservation properties."""

import numpy as np
import pytest

from oscint.dynamics import _BLOCK, StepInput, simulate, step
from oscint.model import DivergenceError, NetworkSpec, SimState
from oscint.weights import center_surround, eigen_encoder


def test_step_hand_case():
    # tau = 10, dt = 1, a = b = 1: input weight 1/2, recurrent weight 1/2.
    # From y = 0 with z = 1 and no recurrence: y' = 0.1 * 0.5 = 0.05.
    spec = NetworkSpec.build(1, 1, w_zx=np.array([[1.0]]))
    state = SimState(y=np.array([0j]), a=np.array([1.0]), b=np.array([1.0]))
    out = step(spec, state, StepInput(x=np.array([1.0]), dt=1.0))
    assert out.y[0] == pytest.approx(0.05 + 0j, abs=1e-15)
    # gains decay toward their (zero) drive with tau = 10
    assert out.a[0] == pytest.approx(0.9, abs=1e-15)
    assert out.b[0] == pytest.approx(0.9, abs=1e-15)
    assert out.t == 1.0


def test_zero_input_from_rest_stays_at_rest():
    spec = NetworkSpec.build(4, 2, w_yy=np.eye(4))
    traj = simulate(spec, lambda t: np.zeros(2), 0.0, 50.0, dt=1.0)
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

    t1 = simulate(spec, drive, 0.0, 200.0, dt=1.0)
    t2 = simulate(spec, drive, 0.0, 200.0, dt=1.0)
    assert np.array_equal(t1.y, t2.y)
    assert np.array_equal(t1.a, t2.a)
    assert np.array_equal(t1.b, t2.b)


def _step_loop(spec, input_fn, t_start, n_steps, dt, init):
    """Reference run: one ``step`` per sample; rows of y, a and b."""
    state, rows = init, [init]
    for i in range(n_steps):
        x = np.asarray(input_fn(t_start + i * dt))
        state = step(spec, state, StepInput(x=x, dt=dt))
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
        simulate(spec, lambda t: np.zeros(1), 0.0, 100.0, dt=1.0)


@pytest.mark.parametrize("channel", ["y", "a", "b"])
def test_divergence_names_first_non_finite_sample(channel):
    # The block path checks once per block but must name the same time as
    # the per-step check: the first non-finite sample, not the block's end.
    spec, input_fn = _blow_up(channel)
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError) as reference:
            _step_loop(spec, input_fn, 0.0, 2000, 1.0, SimState.zeros(spec))
        with pytest.raises(DivergenceError) as blocked:
            simulate(spec, input_fn, 0.0, 2000.0, dt=1.0)
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
        simulate(spec, input_fn, 500.0, 3000.0, dt=1.0, init=init)
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


@pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
@pytest.mark.parametrize("n_steps", [0, _BLOCK - 1, _BLOCK, _BLOCK + 1])
@pytest.mark.parametrize("kind", ["real", "complex", "complex after real"])
@pytest.mark.parametrize("seed", [0, 1])
def test_block_path_matches_step_loop(seed, kind, n_steps):
    rng = np.random.default_rng(seed)
    n, m, dt, t_start = 6, 3, 0.5, 20.0
    spec = _gated_spec(rng, n, m)
    input_fn = _random_input(rng, m, kind, t_start)
    init = _random_init(rng, n, t_start)
    traj = simulate(spec, input_fn, t_start, t_start + n_steps * dt, dt=dt,
                    init=init)
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
    traj = simulate(spec, input_fn, 0.0, n_steps * dt, dt=dt, init=init)
    y, a, b = _step_loop(spec, input_fn, 0.0, n_steps, dt, init)
    assert np.array_equal(traj.y, y)
    assert np.array_equal(traj.a, a)
    assert np.array_equal(traj.b, b)


def test_simulate_rejects_wrong_shaped_input():
    spec = NetworkSpec.build(2, 2)
    with pytest.raises(ValueError, match=r"shape \(2,\)"):
        simulate(spec, lambda t: np.ones(1), 0.0, 3.0, dt=1.0)


@pytest.mark.parametrize("field", ["y", "a", "b"])
def test_simulate_rejects_wrong_shaped_init(field):
    spec = NetworkSpec.build(2, 1)
    init = SimState.zeros(spec)
    setattr(init, field, np.zeros(1, dtype=getattr(init, field).dtype))
    with pytest.raises(ValueError, match=f"init.{field}"):
        simulate(spec, lambda t: np.zeros(1), 0.0, 3.0, dt=1.0, init=init)


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
        return simulate(spec, fn, 0.0, 300.0, dt=1.0, init=init).y

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
    traj = simulate(spec, lambda t: np.zeros(1), 0.0, 200.0, dt=1.0, init=init)
    proj = traj.y @ v.conj()
    drift = np.abs(proj - p0).max()
    assert drift < 1e-12


def test_dt_guard():
    spec = NetworkSpec.build(2, 1, tau_y=10.0)
    with pytest.raises(ValueError):
        simulate(spec, lambda t: np.zeros(1), 0.0, 10.0, dt=2.0)


def test_readout_recording():
    spec = NetworkSpec.build(
        2, 1, n_readout=1,
        w_ry=np.array([[1.0, -1.0]]),
        c_r=np.array([0.5]),
        c_yhat=np.array([1.0, 0.0]),
    )
    traj = simulate(spec, lambda t: np.zeros(1), 0.0, 20.0, dt=1.0,
                    record_readout=True)
    assert traj.readout is not None
    assert traj.readout.shape == (traj.n_samples, 1)
    expected = traj.y @ np.array([[1.0, -1.0]]).T + 0.5
    assert np.abs(traj.readout - expected).max() < 1e-14


def test_recorded_samples_are_pre_step_states():
    spec = NetworkSpec.build(1, 1, w_zx=np.array([[1.0]]), c_b=np.array([1.0]))
    traj = simulate(spec, lambda t: np.ones(1), 0.0, 5.0, dt=1.0)
    # Sample 0 is the initial condition, untouched by the first update.
    assert traj.y[0, 0] == 0j
    assert traj.times[0] == 0.0
    assert traj.n_samples == 6


def test_simulate_rejects_off_grid_span():
    spec = NetworkSpec.build(1, 1)
    with pytest.raises(ValueError, match="whole number of steps"):
        simulate(spec, lambda t: np.zeros(1), 0.0, 10.7, dt=1.0)
