"""CSV and SVG export round-trips."""

import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from sampling import sampled

import oscint.output
from oscint.circuit import CircuitParams, CircuitTrajectory, simulate_circuit
from oscint.dynamics import simulate
from oscint.model import NetworkSpec, SampledRecord, Trajectory, grid_stride
from oscint.output import (
    _BLOCK_CELLS,
    plot_series,
    write_circuit_csv,
    write_csv,
    write_prediction_csv,
    write_svg_lines,
    write_trajectory_csv,
)
from oscint.predict import (
    ModulatorSchedule,
    PredictionResult,
    PredictorSpec,
    predict_series,
)


def read_trajectory_csv(path):
    """Parse a trajectory CSV back into named arrays (t, y, a, b)."""
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    cols = {name: data[:, i] for i, name in enumerate(header)}
    n = (len(header) - 1) // 4
    y = np.empty((data.shape[0], n), dtype=np.complex128)
    a = np.empty((data.shape[0], n))
    b = np.empty((data.shape[0], n))
    for j in range(n):
        y.real[:, j] = cols[f"re_y_{j}"]
        y.imag[:, j] = cols[f"im_y_{j}"]
        a[:, j] = cols[f"a_{j}"]
        b[:, j] = cols[f"b_{j}"]
    return {"t": cols["t"], "y": y, "a": a, "b": b}


@pytest.fixture()
def small_trajectory():
    rng = np.random.default_rng(5)
    spec = NetworkSpec.build(
        2, 1,
        w_yy=rng.standard_normal((2, 2)) * 0.3 + 0.1j * rng.standard_normal((2, 2)),
        w_zx=rng.standard_normal((2, 1)),
        w_ax=np.ones((2, 1)), w_bx=np.ones((2, 1)),
    )
    x = sampled(lambda t: np.array([np.sin(0.7 * t)]), 0.0, 30.0, 0.5)
    return simulate(spec, x, 0.0, 30.0, dt=0.5)


def test_trajectory_csv_round_trip_is_exact(tmp_path, small_trajectory):
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, small_trajectory)
    back = read_trajectory_csv(path)
    assert np.array_equal(back["t"], small_trajectory.times)
    assert np.array_equal(back["y"], small_trajectory.y)
    assert np.array_equal(back["a"], small_trajectory.a)
    assert np.array_equal(back["b"], small_trajectory.b)


def test_trajectory_csv_write_read_write_is_byte_identical(tmp_path, small_trajectory):
    first = tmp_path / "one.csv"
    second = tmp_path / "two.csv"
    write_trajectory_csv(first, small_trajectory)
    back = read_trajectory_csv(first)
    clone = small_trajectory
    clone.y = back["y"]
    clone.a = back["a"]
    clone.b = back["b"]
    write_trajectory_csv(second, clone)
    assert first.read_bytes() == second.read_bytes()


def test_trajectory_csv_header_layout(tmp_path, small_trajectory):
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, small_trajectory)
    header = path.read_text().splitlines()[0].split(",")
    assert header == ["t",
                      "re_y_0", "im_y_0", "a_0", "b_0",
                      "re_y_1", "im_y_1", "a_1", "b_1"]


def test_circuit_csv_layout_and_values(tmp_path):
    spec = NetworkSpec.build(1, 1, w_zx=np.array([[1.0]]),
                             w_ax=np.ones((1, 1)), w_bx=np.ones((1, 1)))
    traj = simulate_circuit(spec, CircuitParams(),
                            sampled(lambda t: np.array([1.0]), 0.0, 2.0, 0.01),
                            0.0, 2.0, dt=0.01, record_stride=10)
    path = tmp_path / "circuit.csv"
    write_circuit_csv(path, traj)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[1:] == ["v_plus_0", "v_minus_0", "va_plus_0", "va_minus_0",
                          "vb_plus_0", "vb_minus_0", "a_0", "b_0"]
    assert len(lines) == 1 + traj.n_samples
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(2.0)
    assert last[1] == pytest.approx(traj.v[-1, 0, 0])


def test_prediction_csv_channel_labels(tmp_path):
    pspec = PredictorSpec((2.0, 8.0))
    sched = ModulatorSchedule(((-10.0, 0.1, 0.1), (0.0, 0.0, 0.0)))
    result = predict_series(pspec, np.ones(20), sched, horizon=5.0, dt=0.5)
    path = tmp_path / "pred.csv"
    write_prediction_csv(path, result)
    header = path.read_text().splitlines()[0].split(",")
    assert header == ["t", "re_y_2hz", "im_y_2hz", "re_y_8hz", "im_y_8hz",
                      "readout", "quadrature"]
    data = np.array([[float(v) for v in line.split(",")]
                     for line in path.read_text().splitlines()[1:]])
    assert np.array_equal(data[:, -2], result.readout)


def test_prediction_csv_rejects_label_count_mismatch():
    # A bank record carries its channel labels, so a mismatch is refused
    # when the record is built, before any CSV could be written.
    with pytest.raises(ValueError, match="1 frequency labels for 3 channels"):
        _prediction_record(4, n_channels=3, freqs=(2.0,))
    with pytest.raises(ValueError, match="4 frequency labels for 3 channels"):
        _prediction_record(4, n_channels=3, freqs=(2.0, 4.0, 8.0, 16.0))


# Values whose %.17g text is easy to get wrong: signed zero, non-finite,
# the smallest subnormal, a value near the largest double.
_SPECIAL = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7e308, 0.1, -1.0 / 3.0])


def _values(rng, shape):
    """Random doubles over many magnitudes, with every special value present."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    flat = values.reshape(-1)
    k = min(flat.size, _SPECIAL.size)
    flat[:k] = rng.permutation(_SPECIAL)[:k]
    return values


def _complex_values(rng, shape):
    values = np.empty(shape, dtype=np.complex128)
    values.real = _values(rng, shape)
    values.imag = _values(rng, shape)
    return values


def _times(rows):
    return np.arange(rows) * 0.25 - 3.0


def _trajectory_record(rows, n=2):
    rng = np.random.default_rng(rows)
    return Trajectory(dt=0.25, times=_times(rows), x=np.zeros((rows, 1)),
                      a=_values(rng, (rows, n)), b=_values(rng, (rows, n)),
                      y=_complex_values(rng, (rows, n)))


def _circuit_record(rows, n=2):
    rng = np.random.default_rng(rows + 1)
    return CircuitTrajectory(dt=0.25, times=_times(rows),
                             v=_values(rng, (rows, 2, n)), va=_values(rng, (rows, 2, n)),
                             vb=_values(rng, (rows, 2, n)),
                             a=_values(rng, (rows, n)), b=_values(rng, (rows, n)))


def _prediction_record(rows, n_channels=2, freqs=(2.0, 8.5)):
    rng = np.random.default_rng(rows + 2)
    return PredictionResult(dt=0.25, times=_times(rows),
                            y=_complex_values(rng, (rows, n_channels)),
                            readout=_values(rng, rows), quadrature=_values(rng, rows),
                            freqs_hz=freqs)


def _reference_csv(header, columns):
    """The CSV text formatted one cell at a time, independently of the writer."""
    lines = [",".join(header)]
    for i in range(len(columns[0])):
        lines.append(",".join("%.17g" % float(col[i]) for col in columns))
    return ("\n".join(lines) + "\n").encode()


def _trajectory_expected(traj):
    header, columns = ["t"], [traj.times]
    for j in range(traj.y.shape[1]):
        header += [f"re_y_{j}", f"im_y_{j}", f"a_{j}", f"b_{j}"]
        columns += [traj.y[:, j].real, traj.y[:, j].imag, traj.a[:, j], traj.b[:, j]]
    return _reference_csv(header, columns)


def _circuit_expected(traj):
    header, columns = ["t"], [traj.times]
    for j in range(traj.a.shape[1]):
        for name, stack in (("v", traj.v), ("va", traj.va), ("vb", traj.vb)):
            header += [f"{name}_plus_{j}", f"{name}_minus_{j}"]
            columns += [stack[:, 0, j], stack[:, 1, j]]
        header += [f"a_{j}", f"b_{j}"]
        columns += [traj.a[:, j], traj.b[:, j]]
    return _reference_csv(header, columns)


def _prediction_expected(result):
    header, columns = ["t"], [result.times]
    for j, f in enumerate(result.freqs_hz):
        header += [f"re_y_{f:g}hz", f"im_y_{f:g}hz"]
        columns += [result.y[:, j].real, result.y[:, j].imag]
    header += ["readout", "quadrature"]
    columns += [result.readout, result.quadrature]
    return _reference_csv(header, columns)


_WRITERS = {
    # name: (columns per row, record builder, writer, reference)
    "trajectory": (9, _trajectory_record, write_trajectory_csv, _trajectory_expected),
    "circuit": (17, _circuit_record, write_circuit_csv, _circuit_expected),
    "prediction": (7, _prediction_record, write_prediction_csv, _prediction_expected),
}
# write_csv picks the same layout from the record's type.
_WRITERS |= {f"write_csv-{kind}": (n_columns, build, write_csv, expected)
             for kind, (n_columns, build, _, expected) in _WRITERS.items()}


@pytest.mark.parametrize("kind", sorted(_WRITERS))
@pytest.mark.parametrize("rows_from_block", [
    lambda block: 1,
    lambda block: block - 1,
    lambda block: block,
    lambda block: block + 1,
    lambda block: 3 * block + 5,
], ids=["one", "block-1", "block", "block+1", "multi"])
def test_streamed_csv_matches_per_cell_reference(tmp_path, kind, rows_from_block):
    n_columns, build, write, expected = _WRITERS[kind]
    rows = rows_from_block(max(1, _BLOCK_CELLS // n_columns))
    record = build(rows)
    path = tmp_path / f"{kind}.csv"
    write(path, record)
    text = path.read_bytes()
    assert text.count(b"\n") == rows + 1
    assert text.split(b"\n", 1)[0].count(b",") == n_columns - 1
    assert text == expected(record)


@pytest.mark.parametrize("rows_from_block", [
    lambda block: 1,
    lambda block: block - 1,
    lambda block: block + 1,
    lambda block: 3 * block + 5,
], ids=["one", "block-1", "block+1", "multi"])
def test_shared_gain_views_match_per_cell_reference(tmp_path, rows_from_block):
    # a and b as simulate returns gains every neuron shares: read-only
    # broadcast views of one column each, so each is 3 columns of one memory.
    n = 3
    rows = rows_from_block(_BLOCK_CELLS // (1 + 4 * n))
    record = _trajectory_record(rows, n=n)
    record.a = np.broadcast_to(record.a[:, :1], (rows, n))
    record.b = np.broadcast_to(record.b[:, 1:2], (rows, n))
    path = tmp_path / "shared.csv"
    write_trajectory_csv(path, record)
    assert path.read_bytes() == _trajectory_expected(record)


def test_simulated_shared_gains_match_per_cell_reference(tmp_path, small_trajectory):
    assert small_trajectory.a.strides[1] == small_trajectory.b.strides[1] == 0
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, small_trajectory)
    assert path.read_bytes() == _trajectory_expected(small_trajectory)


def _data_pointer(column):
    return column.__array_interface__["data"][0]


@pytest.mark.parametrize("case", ["equal values", "other strides", "other dtype"])
def test_columns_of_other_memory_or_layout_are_formatted_apart(tmp_path, case):
    # Equal values in different memory; then columns that share a data
    # pointer but not strides, or not dtype, and so hold different values.
    rows = 2 * (_BLOCK_CELLS // 9) + 7
    record = _trajectory_record(rows)
    if case == "equal values":
        record.b = record.a.copy()
    elif case == "other strides":
        base = _values(np.random.default_rng(9), (2 * rows, 2))
        record.a, record.b = base[:rows], base[::2]
        assert _data_pointer(record.a[:, 1]) == _data_pointer(record.b[:, 1])
    else:
        record.a = record.y.real.view(np.int64)
        assert _data_pointer(record.a[:, 1]) == _data_pointer(record.y.real[:, 1])
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, record)
    assert path.read_bytes() == _trajectory_expected(record)


def _every(record, stride):
    """``record`` with every ``stride``-th sample of each array field."""
    return replace(record, dt=record.dt * stride, **{
        f.name: getattr(record, f.name)[::stride] for f in fields(record)
        if isinstance(getattr(record, f.name), np.ndarray)})


def _shared_gain_record(rows):
    # a and b as simulate returns shared gains: broadcast views of one column.
    record = _trajectory_record(rows, n=3)
    record.a = np.broadcast_to(record.a[:, :1], (rows, 3))
    record.b = np.broadcast_to(record.b[:, 1:2], (rows, 3))
    return record


_STRIDED = {kind: _WRITERS[kind] for kind in ("trajectory", "circuit", "prediction")}
_STRIDED["shared-gains"] = (13, _shared_gain_record, write_trajectory_csv,
                            _trajectory_expected)


@pytest.mark.parametrize("stride", [1, 2, 10])
@pytest.mark.parametrize("kind", sorted(_STRIDED))
@pytest.mark.parametrize("rows_from_block", [
    lambda block: 1,
    lambda block: block - 1,
    lambda block: block + 1,
    lambda block: 2 * block + 1,
], ids=["one", "block-1", "block+1", "multi"])
def test_strided_csv_matches_per_cell_reference(tmp_path, kind, rows_from_block, stride):
    # ``written`` rows on the grid: a record of (written - 1) * stride steps.
    n_columns, build, write, expected = _STRIDED[kind]
    written = rows_from_block(max(1, _BLOCK_CELLS // n_columns))
    record = build((written - 1) * stride + 1)
    path = tmp_path / f"{kind}.csv"
    write(path, record, stride)
    text = path.read_bytes()
    assert text.count(b"\n") == written + 1
    assert text == expected(_every(record, stride))
    assert text.rsplit(b"\n", 2)[1].startswith(b"%.17g," % record.times[-1])


@pytest.mark.parametrize("kind", ["trajectory", "circuit", "prediction"])
def test_write_csv_passes_the_stride_on(tmp_path, kind):
    _, build, write, _ = _WRITERS[kind]
    record = build(41)
    write(tmp_path / "direct.csv", record, 10)
    write_csv(tmp_path / "picked.csv", record, 10)
    assert (tmp_path / "picked.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()
    assert (tmp_path / "picked.csv").read_bytes().count(b"\n") == 6


@pytest.mark.parametrize("kind", sorted(_WRITERS))
@pytest.mark.parametrize("stride", [0, -1, 2.5, 3, np.float64(2.0), True])
def test_stride_off_the_step_count_is_rejected(tmp_path, kind, stride):
    # 21 rows are 20 steps: 3 does not divide them, 2.5, 2.0 and True are no
    # strides.
    _, build, write, _ = _WRITERS[kind]
    path = tmp_path / f"{kind}.csv"
    with pytest.raises(ValueError, match="divides the 20 steps"):
        write(path, build(21), stride)
    assert list(tmp_path.iterdir()) == []


def _grid(dt, span):
    return SampledRecord(dt=dt, times=dt * np.arange(round(span / dt) + 1))


@pytest.mark.parametrize("dt, span, stride", [
    (1.0, 3300.0, 1),       # fig2, fig3
    (1.0, 3100.0, 1),       # fig4
    (0.02, 3200.0, 50),     # fig5
    (0.1, 3500.0, 10),      # fig6
    (0.1, 3200.0, 10),      # fig7
    (0.5, 3200.0, 2),       # fig8
    (0.01, 1600.0, 100),    # fig9's circuit step, were it recorded every step
    (0.1, 6000.0, 10),      # fig10
    (2.0, 100.0, 1),        # steps longer than the grid
    (1.5, 3.0, 1),
    (0.3, 3000.0, 2),       # 10 000 steps: 3 does not divide them
    (0.1, 1.3, 1),          # 13 steps, a prime above 1 ms / dt
    (0.1, 0.7, 7),          # 7 steps, all under 1 ms
    (0.1, 0.0, 1),          # one sample
    (1e-3 * (1 + 1e-12), 1.0, 1000),    # 1 ms / dt within the slack
])
def test_artifact_stride_is_the_coarsest_grid_within_1_ms(dt, span, stride):
    record = _grid(dt, span)
    assert grid_stride(record.n_samples - 1, record.dt) == stride
    assert (record.n_samples - 1) % stride == 0
    assert stride == 1 or stride * dt <= 1.0 * (1 + 1e-9)


def test_reader_round_trips_special_values(tmp_path):
    traj = _trajectory_record(40)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    back = read_trajectory_csv(path)
    pairs = [(back["t"], traj.times), (back["a"], traj.a), (back["b"], traj.b),
             (back["y"].real, traj.y.real), (back["y"].imag, traj.y.imag)]
    for got, want in pairs:
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class _FailAfterFirstBlock(np.ndarray):
    """Array whose row slices past the first block raise, as a full disk would."""

    def __getitem__(self, key):
        if isinstance(key, slice) and key.start:
            raise OSError("no space left on device")
        return super().__getitem__(key)


@pytest.mark.parametrize("existing", [True, False])
def test_failed_write_keeps_existing_file_and_leaves_no_temporary(tmp_path, existing):
    rows = 3 * (_BLOCK_CELLS // 9)
    traj = _trajectory_record(rows)
    traj.a = traj.a.view(_FailAfterFirstBlock)
    path = tmp_path / "traj.csv"
    if existing:
        path.write_bytes(b"t\n0\n")
    with pytest.raises(OSError, match="no space left"):
        write_trajectory_csv(path, traj)
    assert [p.name for p in tmp_path.iterdir()] == (["traj.csv"] if existing else [])
    if existing:
        assert path.read_bytes() == b"t\n0\n"


def test_write_replaces_existing_file(tmp_path, small_trajectory):
    path = tmp_path / "traj.csv"
    path.write_text("stale\n" * 100_000)
    write_trajectory_csv(path, small_trajectory)
    assert path.read_bytes() == _trajectory_expected(small_trajectory)
    assert [p.name for p in tmp_path.iterdir()] == ["traj.csv"]


def test_streamed_write_memory_is_bounded_by_a_block(tmp_path, monkeypatch):
    # Blocks of 2**12 cells: 401 columns stream 10 rows at a time.
    monkeypatch.setattr(oscint.output, "_BLOCK_CELLS", 1 << 12)
    rng = np.random.default_rng(0)
    rows, n = 1_000, 100
    traj = Trajectory(dt=0.25, times=_times(rows), x=np.zeros((rows, 1)),
                      a=rng.standard_normal((rows, n)), b=rng.standard_normal((rows, n)),
                      y=rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n)))
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        write_trajectory_csv(path, traj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = path.stat().st_size
    path.unlink()
    # At about 20 bytes a cell the file spans ~98 blocks; written as one
    # block, the record peaks at over 3 times its size.
    assert written > 50 * 20 * oscint.output._BLOCK_CELLS
    assert peak < written / 8, (peak, written)


@pytest.mark.parametrize("n, labels", [
    (100, [f"re_y_{j}" for j in range(0, 100, 12)]),  # every 12th unit: 9 traces
    (16, [f"re_y_{j}" for j in range(0, 16, 2)]),     # every 2nd unit: 8 traces
    (12, [f"re_y_{j}" for j in range(0, 12, 2)]),     # 12 > 10 colours: 6 traces
    (22, [f"re_y_{j}" for j in range(0, 22, 3)]),     # 11 > 10 colours: 8 traces
])
def test_plot_series_draws_every_kth_unit(n, labels):
    traj = _trajectory_record(5, n=n)
    series = plot_series(traj)
    assert list(series) == labels
    for label, values in series.items():
        assert np.array_equal(values, traj.y[:, int(label[5:])].real, equal_nan=True)


def test_plot_series_draws_y_net_of_every_kth_circuit_unit():
    record = _circuit_record(5, n=16)
    series = plot_series(record)
    assert list(series) == [f"y_net_{j}" for j in range(0, 16, 2)]
    for label, values in series.items():
        assert np.array_equal(values, record.y_net[:, int(label[6:])], equal_nan=True)


def test_plot_series_draws_bank_channels_and_readout():
    result = _prediction_record(5)
    series = plot_series(result)
    assert list(series) == ["re_y_2hz", "re_y_8.5hz", "readout"]
    assert np.array_equal(series["re_y_8.5hz"], result.y[:, 1].real, equal_nan=True)
    assert np.array_equal(series["readout"], result.readout, equal_nan=True)


def test_plot_series_draws_every_kth_of_many_bank_channels():
    # 12 channels and the readout would need 13 colours: every 2nd channel.
    freqs = tuple(float(f) for f in range(1, 13))
    series = plot_series(_prediction_record(5, n_channels=12, freqs=freqs))
    assert list(series) == [f"re_y_{f:g}hz" for f in freqs[::2]] + ["readout"]


def test_svg_contains_polylines_and_labels(tmp_path):
    path = tmp_path / "plot.svg"
    x = np.linspace(0.0, 10.0, 50)
    write_svg_lines(path, x, {"first": np.sin(x), "second": np.cos(x)},
                    title="demo", y_label="signal")
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 2
    assert "demo" in text
    assert "first" in text and "second" in text
    assert "t (ms)" in text


def test_svg_handles_constant_series(tmp_path):
    path = tmp_path / "flat.svg"
    x = np.arange(5.0)
    write_svg_lines(path, x, {"flat": np.zeros(5)})
    text = path.read_text()
    assert "<polyline" in text
    assert "NaN" not in text and "nan" not in text


def _points_formatted_as_before(x, series):
    """Each polyline's points as the plotter formatted them before: an
    f-string over NumPy scalars, on its 860 x 420 layout."""
    plot_w, plot_h = 860 - 64 - 150, 420 - 34 - 46
    all_y = np.concatenate(list(series.values()))
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    x_lo, x_hi = float(x.min()), float(x.max())
    stride = max(1, len(x) // 2000)
    vx = 64 + (x[::stride] - x_lo) / (x_hi - x_lo) * plot_w
    return [" ".join(f"{a:.2f},{b:.2f}" for a, b in
                     zip(vx, 34 + (y_hi - v[::stride]) / (y_hi - y_lo) * plot_h))
            for v in series.values()]


def test_svg_points_are_formatted_as_before(tmp_path):
    rng = np.random.default_rng(4)
    x = np.arange(4500) * 0.1 - 3.0
    series = {"walk": np.cumsum(rng.standard_normal(4500)),
              "steps": np.round(rng.uniform(-2.0, 2.0, 4500), 3),
              "zero": np.zeros(4500)}
    path = tmp_path / "plot.svg"
    write_svg_lines(path, x, series)
    points = re.findall(r'points="([^"]*)"', path.read_text())
    assert points == _points_formatted_as_before(x, series)
