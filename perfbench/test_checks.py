"""Each output check accepts good output and rejects a corrupted copy.

    python3 -m pytest perfbench/test_checks.py

Good output comes from cheap presets (fig2, fig10) or from arrays built
here; each corruption is the smallest change the check exists to catch.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from oscint import cli, run_scenario  # noqa: E402
from spans import Tracer  # noqa: E402

DELAY = (1500.0, 3000.0)


@pytest.fixture(scope="module")
def fig2():
    return run_scenario("fig2")


def _propagation(result, y):
    traj, spec = result.trajectory, result.extras["spec"]
    return checks.gates_closed_propagation(spec.w_yy, spec.tau_y, traj.times,
                                           traj.x, traj.a, traj.b, y, DELAY)


def test_propagation_accepts_the_integrator(fig2):
    assert _propagation(fig2, fig2.trajectory.y) == []


def test_propagation_rejects_a_perturbed_delay_sample(fig2):
    y = fig2.trajectory.y.copy()
    y[fig2.trajectory.sample_index(2222.0), 3] += 1e-9
    assert _propagation(fig2, y)


def test_propagation_rejects_open_gates(fig2):
    traj, spec = fig2.trajectory, fig2.extras["spec"]
    assert checks.gates_closed_propagation(spec.w_yy, spec.tau_y, traj.times,
                                           traj.x, traj.a, traj.b, traj.y,
                                           (0.0, 3000.0))


def test_euler_reference_matches_the_integrator(fig2):
    traj = fig2.trajectory
    y_ref = checks.euler_reference(fig2.extras["spec"], traj.x, 1.0)
    assert np.abs(y_ref - traj.y).max() < 1e-12


def test_batch_check_rejects_a_rising_energy_and_a_wrong_series(fig2):
    traj = fig2.trajectory
    y_ref = checks.euler_reference(fig2.extras["spec"], traj.x, 1.0)
    falling = np.geomspace(1.0, 1e-6, 50)
    assert checks.batch_descent(falling, traj.times, traj.y, y_ref) == []

    rising = falling.copy()
    rising[30] = rising[29] * (1 + 1e-12)
    assert checks.batch_descent(rising, traj.times, traj.y, y_ref)

    y = traj.y.copy()
    y[traj.sample_index(2300.0), 0] += 2e-4
    assert checks.batch_descent(falling, traj.times, y, y_ref)


def _circuit_output():
    times = np.arange(0.0, 1601.0)
    y_net = np.zeros((len(times), 8))
    delay = (times >= 350.0) & (times <= 1350.0)
    y_net[delay, :2] = checks.CUE_2D
    gains = np.where(times < 250.0, 0.5, 0.0)[:, None] * np.ones(8)
    w_ry = np.eye(2, 8)
    return times, y_net, gains, gains.copy(), w_ry


def test_circuit_check_accepts_a_held_cue():
    assert checks.circuit_memory(*_circuit_output(), gain_level=0.5) == []


@pytest.mark.parametrize("where, column, change", [
    (900, 1, 2e-3),       # delay readout off the cue
    (1580, 4, 2e-3),      # activity left after the reset
])
def test_circuit_check_rejects_a_bad_response(where, column, change):
    times, y_net, a, b, w_ry = _circuit_output()
    y_net[where, column] += change
    assert checks.circuit_memory(times, y_net, a, b, w_ry, gain_level=0.5)


def test_circuit_check_rejects_an_unsettled_gain():
    times, y_net, a, b, w_ry = _circuit_output()
    b[200, 5] = 0.498
    assert checks.circuit_memory(times, y_net, a, b, w_ry, gain_level=0.5)


SWEPT = ["fig2", "fig10"]


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["--out", str(out), "sweep", "--scenarios", ",".join(SWEPT)])
    return out, code, stdout.getvalue()


def _corrupted(sweep_dir, tmp_path, edit):
    out, code, stdout = sweep_dir
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    edit(copy)
    return checks.sweep_outputs(copy, SWEPT, code, stdout)


def test_sweep_check_accepts_the_cli_output(sweep_dir):
    out, code, stdout = sweep_dir
    assert checks.sweep_outputs(out, SWEPT, code, stdout) == []


def test_sweep_check_rejects_exit_status_and_missing_pass_line(sweep_dir):
    out, _, stdout = sweep_dir
    assert checks.sweep_outputs(out, SWEPT, 1, stdout)
    assert checks.sweep_outputs(out, SWEPT, 0, stdout.replace("PASS fig10", "FAIL fig10"))


def _truncate_mid_line(d):
    path = d / "fig2_trajectory.csv"
    text = path.read_text()
    path.write_text(text[: len(text) // 2 + 7])


def _truncate_at_line_end(d):
    path = d / "fig2_trajectory.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-100]))


def _rename_column(d):
    path = d / "fig2_trajectory.csv"
    path.write_text(path.read_text().replace("im_y_3", "im_y_x", 1))


def _bend_time_grid(d):
    path = d / "fig2_trajectory.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[500] = "499.5" + lines[500][lines[500].index(","):]
    path.write_text("".join(lines))


def _fig10_rows(d):
    path = d / "fig10_trajectory.csv"
    lines = path.read_text().splitlines()
    return path, lines[0].split(","), [line.split(",") for line in lines[1:]]


def _fig10_write(path, header, rows):
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")


def _readout_not_sum(d):
    path, header, rows = _fig10_rows(d)
    j = header.index("readout")
    rows[1000][j] = repr(float(rows[1000][j]) + 1e-9)
    _fig10_write(path, header, rows)


def _magnitude_drift(d):
    # Scale the quadrature part where it is largest, so |y| must move; the
    # readout column sums the in-phase parts only and stays consistent.
    path, header, rows = _fig10_rows(d)
    j = header.index("im_y_8hz")
    free = [i for i, r in enumerate(rows) if 0.0 <= float(r[0]) <= 2500.0]
    i = max(free, key=lambda i: abs(float(rows[i][j])))
    rows[i][j] = repr(float(rows[i][j]) * 1.001)
    _fig10_write(path, header, rows)


def _break_svg(d):
    path = d / "fig10_y.svg"
    path.write_text(path.read_text().replace("</svg>", ""))


@pytest.mark.parametrize("edit", [
    _truncate_mid_line,
    _truncate_at_line_end,
    _rename_column,
    _bend_time_grid,
    _readout_not_sum,
    _magnitude_drift,
    _break_svg,
], ids=["truncated-mid-line", "truncated-at-line-end", "renamed-column",
        "uneven-time-grid", "readout-not-sum", "magnitude-drift", "broken-svg"])
def test_sweep_check_rejects_a_corrupted_artifact(sweep_dir, tmp_path, edit):
    assert _corrupted(sweep_dir, tmp_path, edit)


def test_tracer_self_time_and_restore():
    class Module:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return sum(Module.inner(i) for i in range(x))

    tracer = Tracer()
    original = Module.inner
    tracer.patch(Module, "inner", "inner", hot=True)
    tracer.patch(Module, "outer", "outer")
    assert Module.outer(1000) == sum(range(1, 1001))
    tracer.restore()
    assert Module.inner is original
    total, own = tracer.totals(), tracer.self_times()
    assert tracer.tallies[("inner", 0)][0] == 1000
    assert own["outer"] == pytest.approx(total["outer"] - total["inner"])


def test_metric_names_agree_with_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        run.PER_LAYER
    assert set(layers.metrics(Tracer())) | {"trace.overhead_s"} == set(run.PER_LAYER)
