"""Command-line interface: artifacts, exit codes, report text."""

import json
from concurrent.futures import Future

import numpy as np
import pytest

from oscint import cli
from oscint.batch import BatchDivergenceError
from oscint.config import save_spec, spec_to_dict
from oscint.model import DivergenceError, NetworkSpec


def test_run_scenario_writes_artifacts(tmp_path, capsys):
    code = cli.main(["--out", str(tmp_path), "run", "--scenario", "fig2"])
    assert code == 0
    assert (tmp_path / "fig2_trajectory.csv").exists()
    assert (tmp_path / "fig2_report.txt").exists()
    assert (tmp_path / "fig2_y.svg").exists()
    report = (tmp_path / "fig2_report.txt").read_text()
    assert "[PASS]" in report
    assert "[FAIL]" not in report
    assert "all assertions passed" in report
    out = capsys.readouterr().out
    assert "scenario: fig2" in out


def test_run_no_plot_skips_svg(tmp_path):
    code = cli.main(["--out", str(tmp_path), "run", "--scenario", "fig4",
                     "--no-plot"])
    assert code == 0
    assert (tmp_path / "fig4_trajectory.csv").exists()
    assert not (tmp_path / "fig4_y.svg").exists()


def test_run_unknown_scenario_exits_2(tmp_path, capsys):
    code = cli.main(["--out", str(tmp_path), "run", "--scenario", "nope"])
    assert code == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_run_without_target_exits_2(tmp_path, capsys):
    code = cli.main(["--out", str(tmp_path), "run"])
    assert code == 2
    assert "--scenario or --spec" in capsys.readouterr().err


def test_out_env_variable_sets_default_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("OSCINT_OUT", str(tmp_path / "env_out"))
    code = cli.main(["run", "--scenario", "fig4", "--no-plot"])
    assert code == 0
    assert (tmp_path / "env_out" / "fig4_trajectory.csv").exists()


def test_run_spec_file(tmp_path):
    spec = NetworkSpec.build(
        3, 1,
        w_yy=np.array([[0.5, 0.0, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.1]]),
        c_z=np.array([0.2, 0.0, 0.0]),
        c_b=np.ones(3),
    )
    path = tmp_path / "net.json"
    save_spec(spec, path)
    code = cli.main(["--out", str(tmp_path), "run", "--spec", str(path),
                     "--duration", "50", "--dt", "0.5"])
    assert code == 0
    assert (tmp_path / "net_trajectory.csv").exists()
    assert (tmp_path / "net_y.svg").exists()


def test_analyze_damped_pair_reports_frequency(capsys):
    code = cli.main(["analyze", "--constructor", "ei-pair",
                     "--tau", "10,12.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "stability: stable-oscillation" in out
    assert "12.33" in out


def test_analyze_synfire_ring(capsys):
    code = cli.main(["analyze", "--constructor", "synfire", "--n", "100"])
    assert code == 0
    out = capsys.readouterr().out
    assert "+-0.0628" in out


def test_analyze_identity_is_sustained(capsys):
    code = cli.main(["analyze", "--constructor", "identity", "--n", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "stability: sustained" in out
    assert "sustained dimensionality: 5" in out


def test_analyze_tau_count_mismatch_exits_2(capsys):
    code = cli.main(["analyze", "--constructor", "center-surround", "--n", "8",
                     "--tau", "10,12.5"])
    assert code == 2
    assert "tau values" in capsys.readouterr().err


def test_analyze_without_target_exits_2(capsys):
    code = cli.main(["analyze"])
    assert code == 2
    assert "--constructor or --spec" in capsys.readouterr().err


def test_analyze_rejects_nonpositive_tau():
    with pytest.raises(SystemExit):
        cli.main(["analyze", "--constructor", "identity", "--tau", "10,-5"])


def test_sweep_runs_selected_scenarios(tmp_path, capsys):
    code = cli.main(["--out", str(tmp_path), "sweep",
                     "--scenarios", "fig2,fig4", "--no-plot"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS fig2: ok" in out
    assert "PASS fig4: ok" in out
    assert (tmp_path / "fig2_trajectory.csv").exists()
    assert (tmp_path / "fig4_trajectory.csv").exists()


def test_sweep_unknown_scenario_exits_2(tmp_path, capsys):
    code = cli.main(["--out", str(tmp_path), "sweep", "--scenarios", "bogus"])
    assert code == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_run_off_grid_dt_exits_2(tmp_path, capsys):
    code = cli.main(["--out", str(tmp_path), "run", "--scenario", "fig2",
                     "--dt", "0.7"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "whole number of steps" in err
    assert len(err.strip().splitlines()) == 1


def _spec_json(tmp_path, data) -> str:
    path = tmp_path / "net.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


@pytest.mark.parametrize("case, message", [
    ("missing file", "No such file"),
    ("malformed json", "Expecting"),
    ("missing key", "missing key(s): tau_b"),
    ("unknown key", "unknown key(s): extra"),
])
def test_run_bad_spec_exits_2(tmp_path, capsys, case, message):
    data = spec_to_dict(NetworkSpec.build(2, 1))
    if case == "missing file":
        path = str(tmp_path / "absent.json")
    elif case == "malformed json":
        path = _spec_json(tmp_path, "{not json")
    elif case == "missing key":
        del data["tau_b"]
        path = _spec_json(tmp_path, data)
    else:
        path = _spec_json(tmp_path, data | {"extra": 1})
    code = cli.main(["--out", str(tmp_path), "run", "--spec", path])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert len(err.strip().splitlines()) == 1


def test_run_unwritable_out_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = cli.main(["--out", str(blocker / "out"), "run", "--scenario", "fig4",
                     "--no-plot"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_run_divergent_spec_exits_1(tmp_path, capsys):
    # Recurrent weight 1000 grows the response ~100-fold per step.
    spec = NetworkSpec.build(1, 1, w_yy=np.array([[1e3]]), c_yhat=np.ones(1))
    path = tmp_path / "blowup.json"
    save_spec(spec, path)
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["--out", str(tmp_path), "run", "--spec", str(path),
                         "--duration", "1000", "--no-plot"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite state")
    assert len(err.strip().splitlines()) == 1


def test_run_scenario_divergence_exits_1(tmp_path, capsys, monkeypatch):
    def diverge(name, **_):
        raise BatchDivergenceError("energy rose for 10 consecutive sweeps")

    monkeypatch.setattr(cli, "run_scenario", diverge)
    code = cli.main(["--out", str(tmp_path), "run", "--scenario", "fig3"])
    assert code == 1
    assert capsys.readouterr().err == "error: energy rose for 10 consecutive sweeps\n"


def test_sweep_reports_divergence_as_fail(tmp_path, capsys, monkeypatch):
    real = cli.run_scenario

    def run(name, **kwargs):
        if name == "fig4":
            raise DivergenceError("non-finite state at t = 3 ms")
        return real(name, **kwargs)

    monkeypatch.setattr(cli, "run_scenario", run)
    code = cli.main(["--out", str(tmp_path), "sweep",
                     "--scenarios", "fig2,fig4", "--no-plot"])
    assert code == 1
    out = capsys.readouterr().out
    assert "PASS fig2: ok" in out
    assert "FAIL fig4: non-finite state at t = 3 ms" in out


def test_sweep_unwritable_out_reports_fail(tmp_path, capsys, monkeypatch):
    def no_pool(*_):
        raise AssertionError("a serial sweep must start no worker process")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = cli.main(["--out", str(blocker / "out"), "sweep",
                     "--scenarios", "fig2,fig4", "--no-plot"])
    assert code == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split(":")[0] for line in lines] == ["FAIL fig2", "FAIL fig4"]
    assert all("Not a directory" in line for line in lines)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count and runs
    each submitted call in this process, starting nothing."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("workers, scenarios, cpus, expected", [
    (10_000, "fig2,fig4", 8, [2]),          # clamped to the scenario count
    (10_000, "fig2,fig4,fig7", 2, [2]),     # clamped to the core count
    (3, "fig2,fig4,fig7,fig8", 8, [3]),     # as asked
    (4, "fig2,fig4", 1, []),                # one core: no pool at all
])
def test_sweep_clamps_workers(tmp_path, capsys, monkeypatch,
                              workers, scenarios, cpus, expected):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(cli, "_sweep_one", lambda name, *_: (name, True, "ok"))
    code = cli.main(["--out", str(tmp_path), "sweep", "--scenarios", scenarios,
                     "--workers", str(workers)])
    assert code == 0
    assert _RecordingPool.sizes == expected
    assert capsys.readouterr().out.count("PASS") == len(scenarios.split(","))
