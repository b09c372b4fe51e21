"""Conductance-circuit realization: gain units, compartment cells, simulator."""

import re
import warnings

import numpy as np
import pytest
from sampling import sampled

import oscint.circuit
from oscint.circuit import (
    CircuitParams,
    CircuitState,
    pfc_step,
    simulate_circuit,
    split_signed,
    steady_state_vs,
    thalamic_step,
    total_conductance,
)
from oscint.dynamics import simulate
from oscint.model import DivergenceError, NetworkSpec, SimState, first_order, rectify


def test_split_signed_partition():
    plus, minus = split_signed(np.array([1.5, -2.0, 0.0]))
    assert np.array_equal(plus, [1.5, 0.0, 0.0])
    assert np.array_equal(minus, [0.0, 2.0, 0.0])
    v = np.random.default_rng(3).standard_normal(20)
    plus, minus = split_signed(v)
    assert np.array_equal(plus - minus, v)
    assert np.all(plus * minus == 0)


def test_total_conductance_values():
    params = CircuitParams()
    assert total_conductance(params, 0.0, 0.0) == pytest.approx(1.0)
    # defaults R_a = 10, R_b = 1: 1 + 1/20 + 1/2
    assert total_conductance(params, 1.0, 1.0) == pytest.approx(1.55)
    equal_r = CircuitParams(r_apical=10.0, r_basal=10.0)
    assert total_conductance(equal_r, 1.0, 1.0) == pytest.approx(1.1)
    # each dendritic term saturates at 1/R
    g_inf = total_conductance(params, 1e12, 1e12)
    assert g_inf == pytest.approx(1.0 + 0.1 + 1.0, rel=1e-9)


def test_steady_state_vs_matches_rate_target_when_gains_off():
    # With both gains at zero and unit soma leak the equilibrium potential
    # is exactly the recurrent prediction, the rate model's relaxation target.
    params = CircuitParams()
    yhat = np.array([0.3, -0.7, 0.0])
    out = steady_state_vs(params, np.array([5.0, 5.0, 5.0]), yhat, 0.0, 0.0)
    assert np.array_equal(out, yhat)


def test_steady_state_vs_hand_case():
    params = CircuitParams()
    v = steady_state_vs(params, np.array([1.0]), np.array([0.0]), 1.0, 1.0)
    assert v[0] == pytest.approx(0.5 / 1.55, abs=1e-15)
    assert v[0] == pytest.approx(0.32258064516129037, abs=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        CircuitParams(r_basal=0.0)
    with pytest.raises(ValueError):
        CircuitParams(g_leak_soma=-1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["capacitance", "g_leak_soma", "r_apical",
                                  "r_basal", "g_leak_gain"])
def test_params_reject_non_finite_constants(name, bad):
    # min() of a tuple holding NaN is never <= 0, and an infinite gain leak
    # used to end in a DivergenceError at the first step.
    with pytest.raises(ValueError, match="must be finite and positive"):
        CircuitParams(**{name: bad})


@pytest.mark.parametrize("name", ["e_leak", "e_exc", "e_inh"])
def test_params_have_no_reversal_settings(name):
    # The reversals are fixed at 0, +1 and -1 by the normalization; no
    # equation would read a setting for them.
    with pytest.raises(TypeError):
        CircuitParams(**{name: 2.0})


def test_gain_unit_fixed_point_mixed_signs():
    # Weight [2, -3] on input [0.5, 0.25]: excitatory conductance 1.0,
    # inhibitory 0.75, so the potential settles at (1 - 0.75)/(1 + 0.75 + 1).
    spec = NetworkSpec.build(1, 2, w_ax=np.array([[2.0, -3.0]]))
    params = CircuitParams()
    state = CircuitState.zeros(1)
    x = np.array([0.5, 0.25])
    zeros = np.zeros(1)
    a, b = state.a, state.b
    for _ in range(5000):
        state.a, state.b = a, b
        a, b = thalamic_step(spec, params, state, x, zeros, zeros, 0.01)
    assert a[0] == pytest.approx(0.25 / 2.75, abs=1e-12)
    assert a[0] == pytest.approx(0.09090909090909091, abs=1e-12)
    assert b[0] == pytest.approx(0.0, abs=1e-15)


def test_gain_unit_fixed_point_net_inhibitory():
    spec = NetworkSpec.build(1, 2, w_ax=np.array([[-1.0, 0.0]]))
    params = CircuitParams()
    state = CircuitState.zeros(1)
    x = np.array([0.4, 0.0])
    zeros = np.zeros(1)
    a, b = state.a, state.b
    for _ in range(5000):
        state.a, state.b = a, b
        a, b = thalamic_step(spec, params, state, x, zeros, zeros, 0.01)
    assert a[0] == pytest.approx(-0.4 / 1.4, abs=1e-12)
    # conductance ratios keep every gain potential strictly inside (-1, 1)
    assert -1.0 < a[0] < 1.0


def _relax_single_cell(w_self=0.3, z=1.0, n_steps=8000, dt=0.05):
    spec = NetworkSpec.build(1, 1, w_yy=np.array([[w_self]]),
                             w_zx=np.array([[1.0]]))
    params = CircuitParams()
    state = CircuitState.zeros(1)
    state.a = np.ones(1)
    state.b = np.ones(1)
    x = np.array([z])
    for _ in range(n_steps):
        state = pfc_step(spec, params, state, x, dt)
    return spec, params, state


def test_compartment_cell_relaxes_to_hand_value():
    # One self-coupled cell, both gains held at 1, unit drive: the somatic
    # equilibrium solves g_v v = 0.5 z + 0.5 w v, i.e. v = 0.5/(1.55 - 0.15).
    _, _, state = _relax_single_cell()
    assert state.v[0, 0] == pytest.approx(0.35714285714285715, abs=1e-10)
    assert state.v[1, 0] == pytest.approx(-state.v[0, 0], abs=1e-12)
    assert state.y_net[0] == pytest.approx(state.v[0, 0], abs=1e-12)


def test_compartment_currents_balance_at_equilibrium():
    spec, params, state = _relax_single_cell()
    v, va, vb = state.v[0, 0], state.va[0, 0], state.vb[0, 0]
    i_as = (va - v) / params.r_apical
    i_bs = (vb - v) / params.r_basal
    soma = -params.g_leak_soma * v + 1.0 + i_as + i_bs
    apical = -(1.0 / params.r_apical) * va + 0.3 * state.y_net[0] - i_as
    basal = -(1.0 / params.r_basal) * vb - 1.0 - i_bs
    for residual in (soma, apical, basal):
        assert abs(residual) < 1e-10


def test_equilibrium_matches_steady_state_formula():
    spec, params, state = _relax_single_cell()
    v = steady_state_vs(params, np.array([1.0]), 0.3 * state.y_net,
                        np.ones(1), np.ones(1))
    assert v[0] == pytest.approx(state.v[0, 0], abs=1e-10)


def test_circuit_rejects_complex_weights():
    # Every field the step reads the real part of: no imaginary part is dropped.
    params = CircuitParams()
    state = CircuitState.zeros(1)
    for field, value in [("w_yy", [[0.5 + 0.5j]]), ("w_zx", [[0.5 + 0.5j]]),
                         ("c_z", [0.3 + 1j]), ("c_yhat", [0.3 + 1j])]:
        spec = NetworkSpec.build(1, 1, **{field: np.array(value)})
        with pytest.raises(ValueError, match="real-valued"):
            pfc_step(spec, params, state, np.zeros(1), 0.01)


def test_circuit_accepts_complex_dtype_with_zero_imag():
    spec = NetworkSpec.build(1, 1, w_yy=np.array([[0.5 + 0j]]))
    state = pfc_step(spec, CircuitParams(), CircuitState.zeros(1),
                     np.zeros(1), 0.01)
    assert np.all(np.isfinite(state.v))


def test_on_off_pair_stays_antisymmetric():
    # Every signed source reaches the OFF cell negated, so from a symmetric
    # start the two somas track exact mirror images even through rectified
    # recurrent rates.
    spec = NetworkSpec.build(
        2, 1,
        w_yy=np.array([[0.2, -0.4], [0.3, 0.1]]),
        w_zx=np.array([[1.0], [-0.5]]),
        w_ax=np.full((2, 1), 0.8),
        w_bx=np.full((2, 1), 0.8),
    )
    traj = simulate_circuit(
        spec, CircuitParams(),
        sampled(lambda t: np.array([np.sin(0.01 * t)]), 0.0, 50.0, 0.01),
        0.0, 50.0, dt=0.01,
    )
    assert np.abs(traj.v[:, 0] + traj.v[:, 1]).max() < 1e-12
    assert np.abs(traj.va[:, 0] + traj.va[:, 1]).max() < 1e-12
    on = np.maximum(traj.v[:, 0], 0.0)
    off = np.maximum(traj.v[:, 1], 0.0)
    assert np.all(on * off < 1e-24)


def test_simulate_circuit_recording():
    spec = NetworkSpec.build(1, 1)
    x = sampled(lambda t: np.zeros(1), 0.0, 1.0, 0.1)
    traj = simulate_circuit(spec, CircuitParams(), x, 0.0, 1.0, dt=0.1,
                            record_stride=5)
    assert traj.n_samples == 3
    assert traj.dt == pytest.approx(0.5)
    assert np.allclose(traj.times, [0.0, 0.5, 1.0])
    assert traj.sample_index(0.5) == 1
    with pytest.raises(ValueError, match="record_stride"):
        simulate_circuit(spec, CircuitParams(), x, 0.0, 1.0, dt=0.1,
                         record_stride=3)
    for stride in (2.5, True):
        with pytest.raises(ValueError, match="record_stride a whole number"):
            simulate_circuit(spec, CircuitParams(), x, 0.0, 1.0, dt=0.1,
                             record_stride=stride)


def _paired_drive(w, x_pos, x_neg, c):
    """Conductances onto the ON and OFF targets of a signed pathway, with
    every weight and offset split into its excitatory and inhibitory parts."""
    w_pos, w_neg = split_signed(w)
    c_pos, c_neg = split_signed(c)
    return (w_pos @ x_pos + w_neg @ x_neg + c_pos,
            w_pos @ x_neg + w_neg @ x_pos + c_neg)


def test_steps_match_paired_conductance_reference():
    rng = np.random.default_rng(21)
    n, m = 5, 3
    spec = NetworkSpec.build(
        n, m,
        w_zx=rng.standard_normal((n, m)), w_yy=rng.standard_normal((n, n)),
        w_ax=rng.standard_normal((n, m)), w_bx=rng.standard_normal((n, m)),
        w_ay=rng.standard_normal((n, n)), w_by=rng.standard_normal((n, n)),
        c_z=rng.standard_normal(n), c_yhat=rng.standard_normal(n),
        c_a=rng.standard_normal(n), c_b=rng.standard_normal(n),
    )
    params = CircuitParams(capacitance=2.0, g_leak_soma=1.5, r_apical=7.0,
                           r_basal=0.5, g_leak_gain=0.8)
    # ON and OFF rows start unrelated, so no antisymmetry hides an error.
    state = CircuitState(v=rng.standard_normal((2, n)),
                         va=rng.standard_normal((2, n)),
                         vb=rng.standard_normal((2, n)),
                         a=rng.standard_normal(n), b=rng.standard_normal(n), t=0.3)
    x = rng.standard_normal(m)
    dt = 0.01
    scale = dt / params.capacitance
    x_pos, x_neg = split_signed(x)
    y_plus, y_minus = rectify(state.v)

    gains = thalamic_step(spec, params, state, x, y_plus, y_minus, dt)
    pathways = ((state.a, spec.w_ax, spec.w_ay, spec.c_a),
                (state.b, spec.w_bx, spec.w_by, spec.c_b))
    for got, (v, w_x, w_y, c) in zip(gains, pathways):
        ge_x, gi_x = _paired_drive(w_x, x_pos, x_neg, c)
        ge_y, gi_y = _paired_drive(w_y, y_plus, y_minus, np.zeros(n))
        g_e, g_i = ge_x + ge_y, gi_x + gi_y
        want = v + scale * (-(g_e + g_i + params.g_leak_gain) * v + g_e - g_i)
        assert np.abs(got - want).max() <= 1e-12

    new = pfc_step(spec, params, state, x, dt)
    iz_pos, iz_neg = _paired_drive(spec.w_zx.real, x_pos, x_neg, spec.c_z.real)
    iy_pos, iy_neg = _paired_drive(spec.w_yy.real, y_plus, y_minus,
                                   spec.c_yhat.real)
    g_va = rectify(state.a) / params.r_apical
    g_vb = rectify(state.b) / params.r_basal
    sources = ((iz_pos - iz_neg, iy_pos - iy_neg),     # ON row
               (iz_neg - iz_pos, iy_neg - iy_pos))     # OFF row
    for row, (i_z, i_y) in enumerate(sources):
        v, va, vb = state.v[row], state.va[row], state.vb[row]
        i_as = (va - v) / params.r_apical
        i_bs = (vb - v) / params.r_basal
        want = {
            "v": v + scale * (-params.g_leak_soma * v + i_z + i_as + i_bs),
            "va": va + scale * (-g_va * va + i_y - i_as),
            "vb": vb + scale * (-g_vb * vb - i_z - i_bs),
        }
        for name, value in want.items():
            assert np.abs(getattr(new, name)[row] - value).max() <= 1e-12
    assert np.array_equal(new.a, state.a) and np.array_equal(new.b, state.b)
    assert new.t == pytest.approx(state.t + dt)


def test_simulate_circuit_raises_on_blow_up():
    # A gain conductance of 1000 makes the explicit gain update unstable at
    # dt = 0.01 (|1 - dt g / C| = 9), so the potentials overflow within
    # a few hundred steps.
    spec = NetworkSpec.build(1, 1, w_ax=np.array([[1e3]]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="non-finite circuit state at t"):
            simulate_circuit(spec, CircuitParams(),
                             sampled(lambda t: np.ones(1), 0.0, 10.0, 0.01),
                             0.0, 10.0, dt=0.01)


def test_simulate_circuit_rejects_off_grid_span():
    spec = NetworkSpec.build(1, 1)
    with pytest.raises(ValueError, match="whole number of steps"):
        simulate_circuit(spec, CircuitParams(), np.zeros((11, 1)),
                         0.0, 1.05, dt=0.1)


@pytest.mark.parametrize("gate_path", ["blocks", "steps"])
@pytest.mark.parametrize("n_steps", [0, 3])
@pytest.mark.parametrize("field", ["v", "va", "vb", "a", "b"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_simulate_circuit_rejects_non_finite_init(field, bad, n_steps, gate_path):
    # Turned down before any step, also when there is no step to take.
    w_ay = np.zeros((2, 2)) if gate_path == "blocks" else np.eye(2)
    spec = NetworkSpec.build(2, 1, w_ay=w_ay)
    init = CircuitState.zeros(2)
    getattr(init, field)[..., 1] = bad
    with pytest.raises(ValueError, match=f"init.{field} must be finite"):
        simulate_circuit(spec, CircuitParams(), np.zeros((n_steps + 1, 1)),
                         0.0, n_steps * 0.01, dt=0.01, init=init)


@pytest.mark.parametrize("gate_path", ["blocks", "steps"])
@pytest.mark.parametrize("field", ["v", "va", "vb", "a", "b"])
def test_simulate_circuit_rejects_complex_init(field, gate_path):
    # Every circuit state is real: a complex field is turned down before
    # any step, not cast to real with a ComplexWarning.
    w_ay = np.zeros((2, 2)) if gate_path == "blocks" else np.eye(2)
    spec = NetworkSpec.build(2, 1, w_ay=w_ay)
    init = CircuitState.zeros(2)
    setattr(init, field, getattr(init, field) + 0.5j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"init.{field} must be real"):
            simulate_circuit(spec, CircuitParams(), np.zeros((4, 1)),
                             0.0, 0.03, dt=0.01, init=init)


def test_simulate_circuit_step_loop_raises_on_blow_up():
    # The same unstable gain unit on a spec whose gains read y, which takes
    # the thalamic_step + pfc_step loop.
    spec = NetworkSpec.build(1, 1, w_ax=np.array([[1e3]]),
                             w_ay=np.array([[0.5]]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="non-finite circuit state at t"):
            simulate_circuit(spec, CircuitParams(),
                             sampled(lambda t: np.ones(1), 0.0, 10.0, 0.01),
                             0.0, 10.0, dt=0.01)


_FIELDS = ("v", "va", "vb", "a", "b")


def _reference_run(spec, params, input_fn, t_start, n_steps, dt, init, stride):
    """One thalamic_step and one pfc_step per step, every stride-th recorded."""
    state = init
    rows = {name: [getattr(state, name).copy()] for name in _FIELDS}
    for i in range(n_steps):
        x = np.asarray(input_fn(t_start + i * dt))
        y = rectify(state.v)
        a, b = thalamic_step(spec, params, state, x, y[0], y[1], dt)
        state = pfc_step(spec, params, state, x, dt)
        state.a, state.b = a, b
        if (i + 1) % stride == 0:
            for name in _FIELDS:
                rows[name].append(getattr(state, name).copy())
    return {name: np.array(arrs) for name, arrs in rows.items()}


def _random_gated_case(seed, n, m):
    """Input-gated spec with mixed-sign weights and offsets, unrelated ON
    and OFF rows in the initial state, and a mixed-sign input."""
    rng = np.random.default_rng(seed)
    spec = NetworkSpec.build(
        n, m,
        w_zx=rng.standard_normal((n, m)), w_yy=0.4 * rng.standard_normal((n, n)),
        w_ax=rng.standard_normal((n, m)), w_bx=rng.standard_normal((n, m)),
        c_z=rng.standard_normal(n), c_yhat=rng.standard_normal(n),
        c_a=rng.standard_normal(n), c_b=rng.standard_normal(n),
    )
    params = CircuitParams(capacitance=rng.uniform(0.5, 2.0),
                           g_leak_soma=rng.uniform(0.5, 1.5),
                           r_apical=rng.uniform(2.0, 10.0),
                           r_basal=rng.uniform(0.5, 2.0),
                           g_leak_gain=rng.uniform(0.5, 1.5))
    init = CircuitState(v=rng.standard_normal((2, n)),
                        va=rng.standard_normal((2, n)),
                        vb=rng.standard_normal((2, n)),
                        a=rng.standard_normal(n), b=rng.standard_normal(n))
    freqs = rng.uniform(0.01, 0.2, m)
    phases = rng.uniform(0.0, 2.0 * np.pi, m)
    return spec, params, init, lambda t: 1.5 * np.sin(freqs * t + phases)


@pytest.mark.parametrize("seed, n, m, n_steps, stride", [
    (0, 5, 3, 1030, 5),     # three blocks, the last one partial
    (1, 1, 1, 512, 1),      # exactly one block
    (2, 8, 4, 513, 1),      # one step into a second block
    (3, 6, 2, 1536, 3),
    (4, 3, 2, 0, 1),        # no step at all
    (5, 4, 3, 1200, 600),   # a stride longer than a block
])
def test_block_path_matches_step_loop(seed, n, m, n_steps, stride):
    spec, params, init, input_fn = _random_gated_case(seed, n, m)
    t_start, dt = 20.0, 0.01
    t_stop = t_start + n_steps * dt
    traj = simulate_circuit(spec, params,
                            sampled(input_fn, t_start, t_stop, dt), t_start,
                            t_stop, dt, init=init, record_stride=stride)
    ref = _reference_run(spec, params, input_fn, t_start, n_steps, dt, init,
                         stride)
    assert traj.n_samples == n_steps // stride + 1
    for name in _FIELDS:
        want = ref[name]
        bound = 1e-12 * max(1.0, float(np.abs(want).max()))
        assert np.abs(getattr(traj, name) - want).max() <= bound, name


def _first_non_finite_time(spec, params, input_fn, dt, init=None):
    """Time of the first step loop state with a non-finite entry."""
    state = init if init is not None else CircuitState.zeros(spec.n_neurons)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(100_000):
            x = input_fn(i * dt)
            y = rectify(state.v)
            a, b = thalamic_step(spec, params, state, x, y[0], y[1], dt)
            state = pfc_step(spec, params, state, x, dt)
            state.a, state.b = a, b
            if not all(np.all(np.isfinite(getattr(state, f))) for f in _FIELDS):
                return (i + 1) * dt
    raise AssertionError("the reference run stayed finite")


@pytest.mark.parametrize("spec, params", [
    # An unstable gain unit: a and b overflow first.
    (NetworkSpec.build(1, 1, w_ax=np.array([[1e3]])), CircuitParams()),
    # Stable gains, but dt/(C R_b) = 10 makes the basal coupling unstable.
    (NetworkSpec.build(2, 1, w_zx=np.ones((2, 1))), CircuitParams(r_basal=1e-3)),
])
def test_block_path_names_first_non_finite_sample(spec, params):
    input_fn = lambda t: np.ones(1)
    dt = 0.01
    with pytest.raises(DivergenceError, match="non-finite circuit state") as err:
        simulate_circuit(spec, params, sampled(input_fn, 0.0, 20.0, dt),
                         0.0, 20.0, dt=dt)
    named = float(re.search(r"at t = (\S+) ms", str(err.value)).group(1))
    # The run up to the sample before the named one is finite ...
    traj = simulate_circuit(spec, params,
                            sampled(input_fn, 0.0, named - dt, dt),
                            0.0, named - dt, dt=dt)
    assert all(np.all(np.isfinite(getattr(traj, f))) for f in _FIELDS)
    # ... and the step loop overflows within a few steps of it (its
    # intermediate products overflow slightly earlier than the block path's).
    assert abs(named - _first_non_finite_time(spec, params, input_fn, dt)) <= 5 * dt


def test_step_loop_names_first_non_finite_sample():
    # A tiny w_ay sends the unstable gain unit of the blow-up test through
    # the step loop, which must name the step its state first goes
    # non-finite, not a later one.
    spec = NetworkSpec.build(1, 1, w_ax=np.array([[1e3]]),
                             w_ay=np.array([[1e-9]]))
    params, input_fn, dt = CircuitParams(), lambda t: np.ones(1), 0.01
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="non-finite circuit state") as err:
            simulate_circuit(spec, params, sampled(input_fn, 0.0, 10.0, dt),
                             0.0, 10.0, dt=dt)
        first = _first_non_finite_time(spec, params, input_fn, dt)
    named = float(re.search(r"at t = (\S+) ms", str(err.value)).group(1))
    assert abs(named - first) <= dt


@pytest.mark.parametrize("field", ["w_zx", "w_yy", "c_z", "c_yhat"])
@pytest.mark.parametrize("reads_y", [False, True])
def test_simulate_circuit_rejects_complex_weights(field, reads_y):
    # The weights are checked first: the input series given here is
    # misshapen and complex as well.
    value = [0.3 + 1j] if field.startswith("c_") else [[0.5 + 0.5j]]
    weights = {field: np.array(value)}
    if reads_y:
        weights["w_ay"] = np.array([[0.5]])
    spec = NetworkSpec.build(1, 1, **weights)
    with pytest.raises(ValueError, match="real-valued"):
        simulate_circuit(spec, CircuitParams(), np.zeros(1, dtype=complex),
                         0.0, 1.0, dt=0.01)


def _raise_if_stepped(*args, **kwargs):
    raise AssertionError("the step loop ran")


def test_step_loop_runs_only_when_the_gains_read_y(monkeypatch):
    monkeypatch.setattr(oscint.circuit, "pfc_step", _raise_if_stepped)
    monkeypatch.setattr(oscint.circuit, "thalamic_step", _raise_if_stepped)
    gated = NetworkSpec.build(2, 1, w_ax=np.ones((2, 1)))
    x = sampled(lambda t: np.ones(1), 0.0, 1.0, 0.01)
    traj = simulate_circuit(gated, CircuitParams(), x, 0.0, 1.0, dt=0.01)
    assert traj.n_samples == 101
    reads_y = gated.replace(w_by=np.eye(2))
    with pytest.raises(AssertionError, match="step loop ran"):
        simulate_circuit(reads_y, CircuitParams(), x, 0.0, 1.0, dt=0.01)


def test_simulate_circuit_rejects_misshapen_init_and_input():
    spec = NetworkSpec.build(2, 1)
    init = CircuitState.zeros(2)
    init.a = np.zeros(1)
    with pytest.raises(ValueError, match=r"init\.a has shape \(1,\)"):
        simulate_circuit(spec, CircuitParams(), np.zeros((11, 1)),
                         0.0, 1.0, dt=0.1, init=init)
    # Ten steps take eleven real rows of one channel (the last row unused),
    # on either path; anything else is turned down before a step is taken.
    for either_path in (spec, spec.replace(w_ay=np.eye(2))):
        for bad in (np.zeros((11, 2)), np.zeros((10, 1)), np.zeros((12, 1)),
                    np.zeros(11), np.zeros((11, 1), dtype=complex)):
            with pytest.raises(ValueError,
                               match=r"real series of shape \(11, 1\)"):
                simulate_circuit(either_path, CircuitParams(), bad, 0.0, 1.0,
                                 dt=0.1)


# ---------------------------------------------------------------------------
# Blocks whose per-step coefficients hold: powers of one affine map.

# The map path against the step loop, relative to max(1, max |ref|).  The
# map's products round differently from the loop's steps, so this bound is
# its own; the block loop keeps the 1e-12 above.
_MAP_BOUND = 1e-10


def _matches_step_loop(spec, params, input_fn, n_steps, dt, init, stride=1):
    """The block path's record, after checking it against the step loop."""
    t_stop = n_steps * dt
    traj = simulate_circuit(spec, params, sampled(input_fn, 0.0, t_stop, dt),
                            0.0, t_stop, dt, init=init, record_stride=stride)
    ref = _reference_run(spec, params, input_fn, 0.0, n_steps, dt, init, stride)
    for name in _FIELDS:
        want = ref[name]
        bound = _MAP_BOUND * max(1.0, float(np.abs(want).max()))
        assert np.abs(getattr(traj, name) - want).max() <= bound, name
    return traj, ref


def _quiet_tail_case(seed):
    """The random gated case driven for 5 ms, then given zero input.  The
    gain offsets are negative, so in the tail the gains fall below zero,
    the dendritic leaks vanish and every step has the same coefficients."""
    spec, params, init, input_fn = _random_gated_case(seed, 4, 2)
    spec = spec.replace(c_a=-np.abs(spec.c_a), c_b=-np.abs(spec.c_b))
    return spec, params, init, lambda t: input_fn(t) if t < 5.0 else np.zeros(2)


@pytest.mark.parametrize("seed", [0, 2])
def test_quiet_tail_advances_by_the_map(seed):
    spec, params, init, input_fn = _quiet_tail_case(seed)
    # 500 driven steps, then a quiet tail of two full blocks and a part.
    traj, _ = _matches_step_loop(spec, params, input_fn, 3 * 512 + 100, 0.01,
                                 init)
    assert traj.map_blocks > 0


def test_map_blocks_record_every_seventh_step():
    # 7 does not divide 512, so the recorded rows fall at a different offset
    # in every block.
    spec, params, init, input_fn = _quiet_tail_case(0)
    traj, _ = _matches_step_loop(spec, params, input_fn, 7 * 300, 0.02, init,
                                 stride=7)
    assert traj.n_samples == 301 and traj.map_blocks > 0


def test_soma_crossing_zero_falls_back_to_the_loop():
    # Zero input and gains held below zero: every step of the block has the
    # same coefficients.  But the offsets pull the first ON soma from +1
    # through zero, and its recurrent current stops there, so the map of
    # the first row's sign pattern does not hold for the block.
    spec = NetworkSpec.build(
        2, 1, w_yy=np.array([[0.5, 0.2], [0.1, 0.3]]),
        c_z=np.array([-1.0, 0.5]), c_yhat=np.array([-1.0, 0.5]),
        c_a=np.full(2, -0.5), c_b=np.full(2, -0.5))
    init = CircuitState(v=np.array([[1.0, -0.2], [-1.0, 0.2]]),
                        va=np.zeros((2, 2)), vb=np.zeros((2, 2)),
                        a=np.full(2, -0.2), b=np.full(2, -0.2))
    traj, ref = _matches_step_loop(spec, CircuitParams(),
                                   lambda t: np.zeros(1), 512, 0.01, init)
    assert np.all(ref["a"] < 0.0) and np.all(ref["b"] < 0.0)
    assert ref["v"][0, 0, 0] > 0.0 > ref["v"][-2, 0, 0]
    assert traj.map_blocks == 0


def test_settling_gains_keep_every_block_on_the_loop():
    # A held input, but gains still rising towards their level: the leaks
    # move every step, so no block has constant coefficients.
    spec = NetworkSpec.build(3, 1, w_yy=0.3 * np.eye(3), w_zx=np.ones((3, 1)),
                             w_ax=np.full((3, 1), 0.8),
                             w_bx=np.full((3, 1), 0.6))
    traj, ref = _matches_step_loop(spec, CircuitParams(),
                                   lambda t: np.ones(1), 2 * 512, 0.01,
                                   CircuitState.zeros(3))
    assert ref["a"][-1, 0] != ref["a"][-2, 0]
    assert traj.map_blocks == 0


def test_gains_that_read_y_count_no_map_block():
    spec, params, init, input_fn = _quiet_tail_case(0)
    reads_y = spec.replace(w_ay=0.1 * np.eye(4))
    traj, _ = _matches_step_loop(reads_y, params, input_fn, 3 * 512, 0.01, init)
    assert traj.map_blocks == 0


def test_divergence_inside_a_map_block_is_named_at_the_loop_time():
    # Strong self-excitation with the gains at zero: every step has the
    # same coefficients, the somas keep their signs and the state grows
    # about 5.5-fold per step from 1e-200.  A block of 400 steps goes by
    # the map; over a full block M^512 overflows while the state does not,
    # and the state itself overflows in the second block.
    spec = NetworkSpec.build(1, 1, w_yy=np.array([[2e6]]))
    params, input_fn, dt = CircuitParams(), lambda t: np.zeros(1), 0.01
    init = CircuitState(v=np.array([[1e-200], [-1e-200]]),
                        va=np.zeros((2, 1)), vb=np.zeros((2, 1)),
                        a=np.zeros(1), b=np.zeros(1))
    short = simulate_circuit(spec, params, sampled(input_fn, 0.0, 4.0, dt),
                             0.0, 4.0, dt, init=init)
    assert short.map_blocks == 1
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="non-finite circuit state") as err:
            simulate_circuit(spec, params, sampled(input_fn, 0.0, 20.0, dt),
                             0.0, 20.0, dt, init=init)
        first = _first_non_finite_time(spec, params, input_fn, dt, init=init)
    named = float(re.search(r"at t = (\S+) ms", str(err.value)).group(1))
    assert first > 512 * dt
    assert abs(named - first) <= 5 * dt


def _shared_gain_spec(rows):
    """A random gated spec whose gain rows are ``rows`` (one per neuron)."""
    rng = np.random.default_rng(31)
    n, m = rows.shape[0], 3
    w_a = np.zeros((n, m))
    w_a[:, 1] = rows
    return NetworkSpec.build(
        n, m, w_zx=rng.standard_normal((n, m)),
        w_yy=0.4 * rng.standard_normal((n, n)), w_ax=w_a, w_bx=0.5 * w_a,
        c_a=np.full(n, -0.2), c_b=np.full(n, 0.3),
        c_z=rng.standard_normal(n), c_yhat=rng.standard_normal(n))


def _gain_columns(monkeypatch):
    """Record the column count of every gain recursion the circuit steps."""
    counts = []

    def spy(keep, push, init):
        counts.append(push.shape[1])
        return first_order(keep, push, init)

    monkeypatch.setattr(oscint.circuit, "first_order", spy)
    return counts


def test_shared_gains_step_one_column_per_population(monkeypatch):
    spec = _shared_gain_spec(np.full(5, 1.3))
    assert spec._gains_shared
    per_neuron = spec.replace()
    object.__setattr__(per_neuron, "_gains_shared", False)
    x = sampled(lambda t: np.array([0.0, np.sin(0.05 * t), 1.0]), 0.0, 20.0, 0.01)
    init = CircuitState.zeros(5)
    init.a[:], init.b[:] = 0.4, -0.1
    counts = _gain_columns(monkeypatch)
    traj = simulate_circuit(spec, CircuitParams(), x, 0.0, 20.0, 0.01, init=init)
    assert counts and set(counts) == {2}
    counts.clear()
    ref = simulate_circuit(per_neuron, CircuitParams(), x, 0.0, 20.0, 0.01,
                           init=init)
    assert set(counts) == {10}
    for name in _FIELDS:
        assert np.array_equal(getattr(traj, name), getattr(ref, name)), name


def test_unequal_gains_stay_per_neuron(monkeypatch):
    x = sampled(lambda t: np.array([0.0, 1.0, 0.0]), 0.0, 6.0, 0.01)
    counts = _gain_columns(monkeypatch)
    unequal = _shared_gain_spec(np.array([1.3, 1.3, 1.3, 1.3, 1.2]))
    assert not unequal._gains_shared
    simulate_circuit(unequal, CircuitParams(), x, 0.0, 6.0, 0.01)
    # Equal gain rows, but initial gains that differ between neurons.
    spec = _shared_gain_spec(np.full(5, 1.3))
    init = CircuitState.zeros(5)
    init.b[2] = 0.1
    simulate_circuit(spec, CircuitParams(), x, 0.0, 6.0, 0.01, init=init)
    assert counts and set(counts) == {10}


@pytest.mark.parametrize("rows, init_b2, cols", [
    (np.full(5, 1.3), -0.1, 1),
    (np.full(5, 1.3), 0.1, 5),
    (np.array([1.3, 1.3, 1.3, 1.3, 1.2]), -0.1, 5),
], ids=["shared, constant init", "shared, varied init", "unequal rows"])
def test_both_engines_step_the_gain_columns_the_spec_names(monkeypatch, rows,
                                                          init_b2, cols):
    spec = _shared_gain_spec(rows)
    a0, b0 = np.full(5, 0.4), np.full(5, -0.1)
    b0[2] = init_b2
    assert spec.gain_columns(a0, b0) == cols
    x = sampled(lambda t: np.array([0.0, np.sin(0.05 * t), 1.0]), 0.0, 6.0, 0.01)
    counts = _gain_columns(monkeypatch)
    init = CircuitState.zeros(5)
    init.a[:], init.b[:] = a0, b0
    simulate_circuit(spec, CircuitParams(), x, 0.0, 6.0, 0.01, init=init)
    assert counts and set(counts) == {2 * cols}
    traj = simulate(spec, x, 0.0, 6.0, dt=0.01,
                    init=SimState(y=np.zeros(5, dtype=np.complex128), a=a0, b=b0))
    # One stored column reads as a broadcast view across the neurons.
    for gains in (traj.a, traj.b):
        assert gains.shape == (len(x), 5)
        assert (gains.strides[1] == 0) == (cols == 1)
