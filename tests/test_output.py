"""CSV and SVG export round-trips."""

import numpy as np
import pytest

from oscint.circuit import CircuitParams, simulate_circuit
from oscint.dynamics import simulate
from oscint.model import NetworkSpec
from oscint.output import (
    read_trajectory_csv,
    write_circuit_csv,
    write_prediction_csv,
    write_svg_lines,
    write_trajectory_csv,
)
from oscint.predict import ModulatorSchedule, PredictorSpec, predict_series


@pytest.fixture()
def small_trajectory():
    rng = np.random.default_rng(5)
    spec = NetworkSpec.build(
        2, 1,
        w_yy=rng.standard_normal((2, 2)) * 0.3 + 0.1j * rng.standard_normal((2, 2)),
        w_zx=rng.standard_normal((2, 1)),
        w_ax=np.ones((2, 1)), w_bx=np.ones((2, 1)),
    )
    return simulate(spec, lambda t: np.array([np.sin(0.7 * t)]), 0.0, 30.0, dt=0.5)


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
    traj = simulate_circuit(spec, CircuitParams(), lambda t: np.array([1.0]),
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
    write_prediction_csv(path, result, pspec.freqs_hz)
    header = path.read_text().splitlines()[0].split(",")
    assert header == ["t", "re_y_2hz", "im_y_2hz", "re_y_8hz", "im_y_8hz",
                      "readout", "quadrature"]
    data = np.array([[float(v) for v in line.split(",")]
                     for line in path.read_text().splitlines()[1:]])
    assert np.array_equal(data[:, -2], result.readout)


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
