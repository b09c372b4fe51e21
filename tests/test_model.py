"""Core containers, drives and the trajectory energy."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oscint.batch import BatchProblem
from oscint.circuit import (
    CircuitParams,
    CircuitState,
    CircuitTrajectory,
    pfc_step,
    simulate_circuit,
    thalamic_step,
)
from oscint.config import load_spec, save_spec, spec_from_dict, spec_to_dict
from oscint.dynamics import simulate, step
from oscint.model import (
    _COLUMN_STEPPED_MAX,
    DivergenceError,
    NetworkSpec,
    SimState,
    Trajectory,
    _coerce,
    _whole,
    check_finite,
    energy,
    first_order,
    input_drive,
    mismatch_gain,
    predicted_series,
    rectify,
    recurrent_drive,
    sample_times,
    steps_in_span,
)
from oscint.predict import (
    ModulatorSchedule,
    PredictionResult,
    PredictorSpec,
    predict_series,
    prediction_step,
)


def test_rectify_scalar_and_array():
    assert rectify(-1.0) == 0.0
    assert rectify(2.5) == 2.5
    out = rectify(np.array([-1.0, 0.0, 0.5]))
    assert np.array_equal(out, [0.0, 0.0, 0.5])


def test_input_drive_hand_case():
    spec = NetworkSpec.build(
        2, 2,
        w_zx=np.array([[1.0, 2.0], [3.0, 4.0]]),
        c_z=np.array([0.5, -0.5]),
    )
    z = input_drive(spec, np.array([1.0, -1.0]))
    assert np.allclose(z, [-0.5, -1.5], atol=1e-15)


def test_recurrent_drive_hand_case():
    spec = NetworkSpec.build(
        2, 1,
        w_yy=np.array([[0.0, 1.0], [1.0, 0.0]]),
        c_yhat=np.array([1.0, 0.0]),
    )
    yhat = recurrent_drive(spec, np.array([2.0 + 0j, 3.0 + 0j]))
    assert np.allclose(yhat, [4.0, 2.0], atol=1e-15)


def test_mismatch_gain_clips_at_zero():
    a = np.array([1.0, 3.0, 0.0])
    b = np.array([1.0, 1.0, 1.0])
    assert np.allclose(mismatch_gain(a, b), [0.0, 1.0, 0.0], atol=1e-15)
    # scalar form
    assert mismatch_gain(0.0, 2.0) == 0.0


def test_predicted_series_first_sample_self_referential():
    spec = NetworkSpec.build(1, 1, w_yy=np.array([[2.0]]), c_yhat=np.array([1.0]))
    y = np.array([[1.0 + 0j], [3.0 + 0j]])
    yhat = predicted_series(spec, y)
    # yhat[0] = W y[0] + c; yhat[i>0] = W y[i-1] + c
    assert np.allclose(yhat.ravel(), [3.0, 3.0], atol=1e-15)


def _single_sample_traj(y_val, x_val, a_val, b_val):
    # Every energy test below uses w_zx = 1, so the drive z equals x_val.
    return Trajectory(
        dt=1.0,
        times=np.array([0.0]),
        x=np.array([[x_val]]),
        a=np.array([[a_val]]),
        b=np.array([[b_val]]),
        y=np.array([[y_val]], dtype=np.complex128),
    )


def _first_order_loop(keep, push, init):
    """Reference: g[0] = init, g[i+1] = keep[i] g[i] + push[i], one Python
    float at a time."""
    keep = np.broadcast_to(keep, push.shape)
    init = np.broadcast_to(init, push.shape[1:])
    out = np.empty((len(push) + 1, push.shape[1]))
    for j in range(push.shape[1]):
        g = out[0, j] = float(init[j])
        for i in range(len(push)):
            g = out[i + 1, j] = float(keep[i, j]) * g + float(push[i, j])
    return out


@pytest.mark.parametrize("cols", [1, _COLUMN_STEPPED_MAX, _COLUMN_STEPPED_MAX + 1, 40])
@pytest.mark.parametrize("rows", [1, 2, 513])
@pytest.mark.parametrize("per_row_keep", [False, True])
@pytest.mark.parametrize("per_column_init", [False, True])
def test_first_order_matches_step_loop_bit_for_bit(cols, rows, per_row_keep,
                                                   per_column_init):
    # Both strategies, either side of the crossover, must give the bits of a
    # plain step loop, including a last column that overflows to inf.
    rng = np.random.default_rng(cols * 1000 + rows)
    push = rng.standard_normal((rows, cols))
    push[:, -1] = 1e308
    keep = rng.uniform(0.8, 1.0, (rows, cols)) if per_row_keep else 0.9
    init = rng.standard_normal(cols) if per_column_init else -0.25
    with np.errstate(over="ignore"):
        got = first_order(keep, push, init)
    assert got.dtype == np.float64
    assert np.array_equal(got, _first_order_loop(keep, push, init))
    assert np.isinf(got[-1, -1]) == (rows > 1)


def test_energy_hand_case():
    # One neuron, no recurrence.  a = b = 1: the input weight is 1/2 and the
    # prediction weight 1/2; with y = 1, z = 0 and prediction 0 the energy is
    # (dt/2)(1/2 + 1/2) = 1/2.
    spec = NetworkSpec.build(1, 1, w_zx=np.array([[1.0]]))
    traj = _single_sample_traj(1.0, 0.0, 1.0, 1.0)
    assert energy(spec, traj) == pytest.approx(0.5, abs=1e-15)


def test_energy_zero_gains_counts_only_prediction_error():
    # b = 0 removes the input term entirely; a = 0 leaves the prediction term
    # at weight 1.
    spec = NetworkSpec.build(1, 1, w_zx=np.array([[1.0]]))
    traj = _single_sample_traj(1.0, 5.0, 0.0, 0.0)
    assert energy(spec, traj) == pytest.approx(0.5, abs=1e-15)


def test_energy_large_b_weights_input_term():
    # As b grows the input weight tends to 1 and the prediction weight to 0.
    spec = NetworkSpec.build(1, 1, w_zx=np.array([[1.0]]))
    traj = _single_sample_traj(1.0, 0.0, 1e9, 1e9)
    assert energy(spec, traj) == pytest.approx(0.5, rel=1e-8)


def test_energy_phase_invariant_without_offsets():
    # With zero offsets and zero input the energy depends only on |y| patterns,
    # so rotating the whole trajectory by a global phase leaves it unchanged.
    rng = np.random.default_rng(3)
    w = rng.standard_normal((3, 3)) * 0.3
    spec = NetworkSpec.build(3, 1, w_yy=w)
    y = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    base = Trajectory(
        dt=0.5,
        times=0.5 * np.arange(5),
        x=np.zeros((5, 1)),
        a=np.full((5, 3), 0.7),
        b=np.full((5, 3), 0.2),
        y=y,
    )
    rotated = Trajectory(
        dt=0.5,
        times=0.5 * np.arange(5),
        x=np.zeros((5, 1)),
        a=np.full((5, 3), 0.7),
        b=np.full((5, 3), 0.2),
        y=y * np.exp(1j * 1.234),
    )
    assert energy(spec, rotated) == pytest.approx(energy(spec, base), rel=1e-12)


def test_energy_nonnegative_random_sweep():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        t = int(rng.integers(1, 7))
        spec = NetworkSpec.build(n, 2, w_yy=rng.standard_normal((n, n)),
                                 w_zx=rng.standard_normal((n, 2)))
        traj = Trajectory(
            dt=1.0,
            times=np.arange(t, dtype=float),
            x=rng.standard_normal((t, 2)),
            a=rectify(rng.standard_normal((t, n))),
            b=rectify(rng.standard_normal((t, n))),
            y=rng.standard_normal((t, n)) + 1j * rng.standard_normal((t, n)),
        )
        assert energy(spec, traj) >= 0.0


def test_energy_rejects_nonfinite():
    spec = NetworkSpec.build(1, 1)
    traj = _single_sample_traj(np.nan, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        energy(spec, traj)


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        NetworkSpec.build(2, 1, tau_y=-1.0)
    with pytest.raises(ValueError):
        NetworkSpec.build(2, 1, w_zx=np.zeros((3, 1)))  # wrong row count
    with pytest.raises(ValueError):
        NetworkSpec.build(2, 1, w_yy=np.full((2, 2), np.inf))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["tau_a", "tau_b"])
def test_spec_rejects_non_finite_gain_time_constants(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        NetworkSpec.build(2, 1, **{name: bad})


@pytest.mark.parametrize("bad", ["10", None, [1.0], True])
@pytest.mark.parametrize("name", ["tau_a", "tau_b"])
def test_spec_names_a_gain_time_constant_that_is_not_a_number(name, bad):
    # A string or None used to raise TypeError from np.isfinite, a list
    # TypeError from the comparison.
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        NetworkSpec.build(2, 1).replace(**{name: bad})


def test_spec_is_frozen_and_arrays_locked():
    spec = NetworkSpec.build(2, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.tau_a = 5.0
    with pytest.raises(ValueError):
        spec.w_yy[0, 0] = 1.0  # numpy write lock


def test_build_broadcasts_tau_and_replace_overrides():
    spec = NetworkSpec.build(3, 1, tau_y=7.0)
    assert spec.tau_y.shape == (3,)
    assert np.all(spec.tau_y == 7.0)
    spec2 = spec.replace(tau_y=spec.tau_y * 2.0)
    assert np.all(spec2.tau_y == 14.0)
    assert np.all(spec.tau_y == 7.0)  # original untouched


def test_trajectory_requires_uniform_times():
    with pytest.raises(ValueError):
        Trajectory(
            dt=1.0,
            times=np.array([0.0, 1.0, 3.0]),
            x=np.zeros((3, 1)),
            a=np.zeros((3, 1)),
            b=np.zeros((3, 1)),
            y=np.zeros((3, 1), dtype=np.complex128),
        )


def test_trajectory_sample_index():
    traj = Trajectory(
        dt=0.5,
        times=0.5 * np.arange(9),
        x=np.zeros((9, 1)),
        a=np.zeros((9, 1)),
        b=np.zeros((9, 1)),
        y=np.zeros((9, 1), dtype=np.complex128),
    )
    assert traj.sample_index(0.0) == 0
    assert traj.sample_index(2.0) == 4
    assert traj.n_samples == 9


def _records(n=9, dt=0.5, t0=-1.0):
    """One record of each kind on the grid -1.0, -0.5, ..., 3.0."""
    times = t0 + dt * np.arange(n)
    return [
        Trajectory(dt=dt, times=times, x=np.zeros((n, 1)), a=np.zeros((n, 2)),
                   b=np.zeros((n, 2)), y=np.zeros((n, 2), dtype=np.complex128)),
        CircuitTrajectory(dt=dt, times=times, v=np.zeros((n, 2, 2)),
                          va=np.zeros((n, 2, 2)), vb=np.zeros((n, 2, 2)),
                          a=np.zeros((n, 2)), b=np.zeros((n, 2))),
        PredictionResult(dt=dt, times=times,
                         y=np.zeros((n, 3), dtype=np.complex128),
                         readout=np.zeros(n), quadrature=np.zeros(n),
                         freqs_hz=(2.0, 4.0, 8.0)),
    ]


_RECORD_IDS = ["rate", "circuit", "prediction"]


@pytest.mark.parametrize("record", _records(), ids=_RECORD_IDS)
def test_record_time_grid(record):
    assert record.n_samples == 9
    assert record.sample_index(0.0) == 2
    assert np.array_equal(record.sample_index(np.array([-1.0, 3.0])), [0, 8])
    with pytest.raises(IndexError):
        record.sample_index(3.5)
    assert record.window(-1.0, 3.0) == slice(0, 9)
    assert record.window(0.0, 1.0) == slice(2, 5)
    assert record.window(1.0, 1.0) == slice(4, 5)
    # Ends that miss the grid by rounding still count as inside.
    assert record.window(-1.0 - 1e-12, 3.0 + 1e-12) == slice(0, 9)


@pytest.mark.parametrize("record", _records(), ids=_RECORD_IDS)
@pytest.mark.parametrize("span", [(2.0, 3.5), (3.5, 4.0), (-1.5, 0.0),
                                  (2.0, 1.0), (3.5, 3.0)],
                         ids=["past end", "after end", "before start",
                              "reversed", "starts after end"])
def test_record_window_outside_the_run(record, span):
    assert record.window(*span) is None


@pytest.mark.parametrize("kind, name", [(0, "y"), (1, "v"), (2, "readout")],
                         ids=_RECORD_IDS)
def test_record_rejects_short_field(kind, name):
    record = _records()[kind]
    with pytest.raises(ValueError, match="disagree on sample count"):
        dataclasses.replace(record, **{name: getattr(record, name)[:-1]})


def test_config_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(7)
    spec = NetworkSpec.build(
        3, 2, n_readout=2,
        tau_y=np.array([10.0, 12.5, 9.0]),
        tau_a=20.0, tau_b=30.0,
        w_yy=rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
        w_zx=rng.standard_normal((3, 2)),
        w_ry=rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)),
        w_ax=rng.standard_normal((3, 2)),
        c_a=rng.standard_normal(3),
    )
    path = tmp_path / "spec.json"
    save_spec(spec, path)
    loaded = load_spec(path)
    for name in ("w_yy", "w_zx", "w_ry", "w_ax", "w_bx", "w_ay", "w_by",
                 "c_z", "c_yhat", "c_a", "c_b", "c_r", "tau_y"):
        assert np.array_equal(getattr(loaded, name), getattr(spec, name)), name
    assert loaded.tau_a == spec.tau_a and loaded.tau_b == spec.tau_b
    assert loaded.n_readout == spec.n_readout


def test_config_preserves_empty_readout_shape():
    spec = NetworkSpec.build(4, 1, n_readout=0)
    loaded = spec_from_dict(spec_to_dict(spec))
    assert loaded.w_ry.shape == (0, 4)
    assert loaded.c_r.shape == (0,)


def test_spec_compares_and_hashes_by_identity():
    spec = NetworkSpec.build(2, 1)
    twin = spec.replace()
    assert spec == spec
    assert spec != twin
    assert {spec: 1, twin: 2}[spec] == 1


def test_spec_from_dict_names_bad_keys():
    data = spec_to_dict(NetworkSpec.build(2, 1))
    missing = dict(data)
    del missing["n_neurons"]
    with pytest.raises(ValueError, match="missing key.*n_neurons"):
        spec_from_dict(missing)
    with pytest.raises(ValueError, match="unknown key.*w_extra"):
        spec_from_dict(data | {"w_extra": []})
    with pytest.raises(ValueError, match="'w_yy'"):
        spec_from_dict(data | {"w_yy": [[1.0]]})
    with pytest.raises(ValueError, match="JSON object"):
        spec_from_dict([data])


@given(n_steps=st.integers(0, 10**6),
       dt=st.sampled_from([0.01, 0.05, 0.1, 0.2, 0.5, 0.7, 1.0, 2.5]))
def test_steps_in_span_counts_grid_spans(n_steps, dt):
    assert steps_in_span(n_steps * dt, dt) == n_steps


@given(n_steps=st.integers(0, 10**5), frac=st.floats(1e-3, 1.0 - 1e-3),
       dt=st.sampled_from([0.01, 0.1, 0.7, 1.0]))
def test_steps_in_span_rejects_off_grid_spans(n_steps, frac, dt):
    with pytest.raises(ValueError, match="whole number of steps"):
        steps_in_span((n_steps + frac) * dt, dt)


@pytest.mark.parametrize("span, dt", [
    (float("inf"), 1.0), (float("nan"), 1.0), (-float("inf"), 1.0),
    (100.0, float("inf")), (100.0, float("nan")),
])
def test_steps_in_span_rejects_non_finite_spans_and_steps(span, dt):
    with pytest.raises(ValueError, match="must be finite"):
        steps_in_span(span, dt)


@pytest.mark.parametrize("span, dt, message", [
    (1.0, 1e-300, r"span 1 ms at dt = 1e-300 is 1e\+300 steps"),
    (1e10, 1e-310, r"span 1e\+10 ms at dt = 1e-310 is inf steps"),  # ratio overflows
    (2.0 ** 63, 1.0, r"is 9.223e\+18 steps"),
])
def test_sample_times_rejects_more_samples_than_an_array_can_index(span, dt, message):
    with pytest.raises(ValueError, match=message + ", more samples than an array"):
        sample_times(0.0, span, dt)
    with pytest.raises(ValueError, match="more samples than an array can index"):
        steps_in_span(span, dt)


def test_steps_in_span_rejects_negative_spans_and_steps():
    with pytest.raises(ValueError):
        steps_in_span(-1.0, 0.1)
    with pytest.raises(ValueError, match="dt must be positive"):
        steps_in_span(1.0, 0.0)


def test_check_finite_names_the_first_non_finite_sample():
    times = np.array([0.0, 0.5, 1.0, 1.5])
    y = np.zeros((4, 2), dtype=np.complex128)
    cells = np.zeros((4, 3, 2))
    check_finite(times, y, cells)
    y[3, 1] = np.inf
    cells[2, 1, 0] = np.nan
    with pytest.raises(DivergenceError, match=r"^non-finite cell state at t = 1 ms$"):
        check_finite(times, y, cells, what="cell state")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("engine", ["rate", "circuit", "bank", "batch"])
def test_every_engine_rejects_a_non_finite_input_series(engine, bad):
    # Sample 3 of channel 1 is bad; no weight reads that channel.
    spec = NetworkSpec.build(2, 2, w_zx=np.array([[1.0, 0.0], [0.5, 0.0]]))
    x = np.zeros((11, 2))
    x[3, 1] = bad
    run = {
        "rate": lambda: simulate(spec, x, 0.0, 10.0, dt=1.0),
        "circuit": lambda: simulate_circuit(spec, CircuitParams(), x, 0.0, 10.0,
                                            dt=1.0),
        "bank": lambda: predict_series(PredictorSpec((1.0,)), x[:, 1],
                                       ModulatorSchedule(((0.0, 0.0, 0.0),)),
                                       horizon=10.0, dt=1.0),
        "batch": lambda: BatchProblem(spec=spec, x_series=x),
    }[engine]
    with pytest.raises(ValueError, match="finite"):
        run()


# Every dtype here converts to float64 or complex128 exactly; an int64 beyond
# 2**53 would round to the nearest float64.
_KINDS = [np.int16, np.int32, np.float16, np.float32, np.float64, np.complex64,
          np.complex128, np.bool_, np.dtype("U2")]


@given(data=st.data(), kind=st.sampled_from(_KINDS),
       dtype=st.sampled_from([None, np.float64, np.complex128]))
def test_coerce_accepts_exactly_finite_numeric_input_of_its_shape(data, kind, dtype):
    arr = data.draw(hnp.arrays(kind, hnp.array_shapes(min_dims=0, max_dims=3,
                                                      min_side=0, max_side=3)))
    shape = data.draw(st.one_of(
        st.tuples(*(st.sampled_from([d, None]) for d in arr.shape)),
        st.lists(st.one_of(st.none(), st.integers(0, 3)), max_size=3).map(tuple)))
    ok = (np.issubdtype(arr.dtype, np.number)
          and len(shape) == arr.ndim
          and all(w is None or w == d for d, w in zip(arr.shape, shape))
          and not (dtype is np.float64 and np.iscomplexobj(arr))
          and bool(np.isfinite(arr).all()))
    if not ok:
        with pytest.raises(ValueError, match="^field "):
            _coerce(arr, shape, dtype, "field")
        return
    want = dtype or (np.complex128 if np.iscomplexobj(arr) else np.float64)
    out = _coerce(arr, shape, dtype, "field")
    assert out.dtype == want and out.shape == arr.shape
    assert np.array_equal(out, arr)
    # The caller's array comes back when its dtype already matches.
    assert (out is arr) == (arr.dtype == want)
    fresh = _coerce(arr, shape, dtype, "field", copy=True)
    assert np.array_equal(fresh, arr) and not np.shares_memory(fresh, arr)


@given(value=st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(np.int64),
                       st.booleans(), st.floats(allow_nan=True), st.text(max_size=2),
                       st.none(), st.complex_numbers()),
       minimum=st.integers(0, 2))
def test_whole_accepts_exactly_integers_from_the_minimum(value, minimum):
    ok = (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
          and value >= minimum)
    if ok:
        assert _whole(value, "count", minimum) == value
        assert type(_whole(value, "count", minimum)) is int
    else:
        with pytest.raises(ValueError, match=f"^count must be a whole number >= {minimum}"):
            _whole(value, "count", minimum)


def test_spec_keeps_the_memory_order_of_each_field():
    # A copy in C order would move fig4's rounding-level discharge.
    w_ry = np.asfortranarray(np.arange(6.0).reshape(2, 3) + 1j)
    spec = NetworkSpec.build(3, 1, 2, w_ry=w_ry)
    assert spec.w_ry.flags.f_contiguous and not spec.w_ry.flags.c_contiguous
    assert not np.shares_memory(spec.w_ry, w_ry)
    assert np.array_equal(spec.w_ry, w_ry)


@pytest.mark.parametrize("override, message", [
    ({"w_ax": [[1 + 2j], [0]]}, "w_ax must be real"),
    ({"w_ax": [["1"], ["0"]]}, "w_ax must be numeric"),
    ({"tau_y": [5.0, 5j]}, "tau_y must be real"),
], ids=["complex-gain-weights", "string-gain-weights", "complex-tau-y"])
def test_build_refuses_to_cast_a_field(override, message):
    with pytest.raises(ValueError, match=message):
        NetworkSpec.build(2, 1, **override)


@pytest.mark.parametrize("counts, name", [
    ((2.5, 1), "n_neurons"), ((0, 1), "n_neurons"), ((True, 1), "n_neurons"),
    ((2, 1.0), "n_inputs"), ((2, -1), "n_inputs"), ((2, 1, 0.5), "n_readout"),
])
def test_build_takes_whole_counts(counts, name):
    with pytest.raises(ValueError, match=f"{name} must be a whole number"):
        NetworkSpec.build(*counts)


@pytest.mark.parametrize("key, value", [("n_neurons", 2.7), ("n_inputs", 1.5),
                                        ("n_readout", 0.0), ("n_neurons", True)])
def test_spec_from_dict_takes_json_integer_counts(key, value):
    data = spec_to_dict(NetworkSpec.build(2, 1))
    with pytest.raises(ValueError, match=f"{key} must be a whole number"):
        spec_from_dict(data | {key: value})


@pytest.mark.parametrize("key, value", [
    ("tau_a", "10"), ("tau_b", True), ("c_a", [True, 0.0]), ("c_b", ["1.5", 0.0]),
    ("c_z", [["1.5", 0.0], [0.0, 0.0]]), ("c_yhat", [[0.0, False], [0.0, 0.0]]),
])
def test_spec_from_dict_takes_json_numbers(key, value):
    data = spec_to_dict(NetworkSpec.build(2, 1))
    with pytest.raises(ValueError, match=f"'{key}'.*is not a JSON number"):
        spec_from_dict(data | {key: value})


def test_spec_from_dict_reads_rows_as_written():
    # Two rows of three are no (3, 2) matrix, though both hold six entries.
    data = spec_to_dict(NetworkSpec.build(3, 2))
    with pytest.raises(ValueError, match=r"'w_ax'.*shape \(2, 3\), expected \(3, 2\)"):
        spec_from_dict(data | {"w_ax": [[0.0] * 3] * 2})


@pytest.mark.parametrize("dt", [0.0, -1.0, np.nan, np.inf, 1j, True])
@pytest.mark.parametrize("engine", ["rate", "pfc", "thalamic", "bank"])
def test_every_step_function_rejects_a_bad_dt(engine, dt):
    spec = NetworkSpec.build(2, 1)
    state = CircuitState.zeros(2)
    run = {
        "rate": lambda: step(spec, SimState.zeros(spec), np.zeros(1), dt),
        "pfc": lambda: pfc_step(spec, CircuitParams(), state, np.zeros(1), dt),
        "thalamic": lambda: thalamic_step(spec, CircuitParams(), state, np.zeros(1),
                                          np.zeros(2), np.zeros(2), dt),
        "bank": lambda: prediction_step(PredictorSpec((1.0,)), np.zeros(1), 0.0,
                                        0.0, 0.0, dt),
    }[engine]
    with pytest.raises(ValueError, match="^dt must be positive and finite"):
        run()
