"""Forward-Euler integrator semantics and conservation properties."""

import numpy as np
import pytest

from oscint.dynamics import StepInput, simulate, step
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


def test_divergence_raises():
    spec = NetworkSpec.build(1, 1, w_yy=np.array([[1e8]]), c_yhat=np.array([1e8]))
    with np.errstate(all="ignore"), pytest.raises(DivergenceError):
        simulate(spec, lambda t: np.zeros(1), 0.0, 100.0, dt=1.0)


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
