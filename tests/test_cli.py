"""Command-line interface: artifacts, exit codes, report text."""

import json
import os
import re
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import oscint
from oscint import cli, output
from oscint.batch import BatchDivergenceError
from oscint.config import save_spec, spec_to_dict
from oscint.model import DivergenceError, NetworkSpec
from oscint.scenarios import run_scenario


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


def test_spec_svg_gives_every_trace_its_own_colour(tmp_path):
    # 12 units would draw 12 traces, two more than the palette's colours.
    rng = np.random.default_rng(5)
    spec = NetworkSpec.build(12, 1, w_yy=0.5 * np.eye(12),
                             c_z=rng.standard_normal(12), c_b=np.ones(12))
    path = tmp_path / "twelve.json"
    save_spec(spec, path)
    code = cli.main(["--out", str(tmp_path), "run", "--spec", str(path),
                     "--duration", "20", "--dt", "0.5"])
    assert code == 0
    strokes = re.findall(r'<polyline fill="none" stroke="([^"]+)"',
                         (tmp_path / "twelve_y.svg").read_text())
    assert 0 < len(strokes) <= 10
    assert len(set(strokes)) == len(strokes)


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


def test_run_spec_file_scales_tau_before_the_run(tmp_path, monkeypatch):
    # tau_y = 5 ms admits dt <= 0.5 ms; scaled by 2 it admits dt = 1 ms.
    path = tmp_path / "net.json"
    save_spec(NetworkSpec.build(2, 1, tau_y=5.0, c_z=np.array([0.2, 0.0]),
                                c_b=np.ones(2)), path)
    args = ["--out", str(tmp_path), "run", "--spec", str(path),
            "--duration", "20", "--dt", "1", "--no-plot"]
    assert cli.main(args) == 2
    ran = []
    simulate = cli.simulate
    monkeypatch.setattr(cli, "simulate",
                        lambda spec, *rest: ran.append(spec) or simulate(spec, *rest))
    assert cli.main(args + ["--tau-scale", "2"]) == 0
    assert np.array_equal(ran[0].tau_y, [10.0, 10.0])
    assert (tmp_path / "net_trajectory.csv").exists()


@pytest.mark.parametrize("args, message", [
    (["run", "--scenario", "fig2", "--spec", "{spec}"], "--scenario or --spec"),
    (["analyze", "--constructor", "synfire", "--spec", "{spec}"],
     "--constructor or --spec"),
    (["sweep", "--scenarios", ""], "names no scenario"),
    (["sweep", "--scenarios", "fig4", "--workers", "-3"], "at least 1"),
], ids=["run-both", "analyze-both", "sweep-empty", "sweep-negative-workers"])
def test_contradictory_or_empty_target_exits_2(tmp_path, capsys, args, message):
    spec_path = tmp_path / "net.json"
    save_spec(NetworkSpec.build(2, 1), spec_path)
    out = tmp_path / "out"
    code = cli.main(["--out", str(out)]
                    + [arg.format(spec=spec_path) for arg in args])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == "" and not out.exists()


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


def test_analyze_lists_tied_eigenvalues_by_imaginary_part(capsys):
    # fig6's matrix: ten sustained eigenvalues, all with real part 1 up to
    # rounding noise.
    code = cli.main(["--seed", "11", "analyze", "--constructor", "random-spectral",
                     "--n", "100", "--d", "10", "--imag-std", "0.05"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("leading eigenvalues of the recurrent matrix (top 10):") + 1
    lam = [complex(line.replace(" ", "").replace("i", "j"))
           for line in lines[start:start + 10]]
    assert all(v.real == 1.0 for v in lam)
    assert all(u.imag > v.imag for u, v in zip(lam, lam[1:]))
    assert f"top oscillatory pair imag: +-{lam[0].imag:.4f}" in lines


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


@pytest.mark.parametrize("args, message", [
    (["--spec", "/nonexistent/net.json"], "No such file"),
    (["--constructor", "random-spectral", "--n", "4", "--d", "10"], "d must"),
    (["--constructor", "center-surround", "--n", "0"], "n >= 3"),
    (["--constructor", "synfire", "--n", "-3"], "n >= 2"),
    (["--constructor", "identity", "--n", "0"], "n >= 1"),
])
def test_analyze_bad_input_exits_2(capsys, args, message):
    code = cli.main(["analyze", *args])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert len(err.strip().splitlines()) == 1


def test_analyze_rejects_nonpositive_tau():
    with pytest.raises(SystemExit):
        cli.main(["analyze", "--constructor", "identity", "--tau", "10,-5"])


@pytest.mark.parametrize("args, message", [
    (["run", "--scenario", "fig2", "--duration", "inf"], "--duration"),
    (["run", "--scenario", "fig2", "--dt", "nan"], "--dt"),
    (["run", "--scenario", "fig2", "--tau-scale", "inf"], "--tau-scale"),
    (["sweep", "--scenarios", "fig2", "--dt", "inf"], "--dt"),
    (["analyze", "--constructor", "identity", "--tau", "inf"], "--tau"),
    (["analyze", "--constructor", "identity", "--tau", "10,nan"], "--tau"),
    (["analyze", "--constructor", "random-spectral", "--imag-std", "nan"],
     "imag_std"),
    (["analyze", "--constructor", "random-spectral", "--imag-std", "inf"],
     "imag_std"),
], ids=["run-duration-inf", "run-dt-nan", "run-tau-scale-inf", "sweep-dt-inf",
        "analyze-tau-inf", "analyze-tau-nan", "analyze-imag-std-nan",
        "analyze-imag-std-inf"])
def test_non_finite_number_exits_2(tmp_path, capsys, args, message):
    # argparse rejects a bad flag value by exiting 2 itself; a value that
    # reaches the library is rejected there and the command returns 2.
    try:
        code = cli.main(["--out", str(tmp_path / "out"), *args])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and "finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["run", "--scenario", "fig2", "--dt", "nan"],
    ["run", "--scenario", "fig2", "--dt", "-1"],
    ["analyze", "--constructor", "synfire", "--tau", "inf"],
    ["sweep", "--workers", "x"],
    [],
    ["run", "--scenario", "fig2", "--bogus"],
], ids=["dt-nan", "dt-negative", "tau-inf", "workers-not-int", "no-subcommand",
        "unknown-flag"])
def test_argument_error_is_one_error_line(tmp_path, capsys, args):
    # What argparse rejects reads like what a command rejects: exit 2 and
    # one "error:" line, without a usage line.
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path / "out"), *args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("args, message", [
    (["--bogus"], "unrecognized arguments: --bogus"),
    (["--bogus", "run", "--scenario", "fig2"], "unrecognized arguments: --bogus"),
    (["run", "--scenario", "fig2", "--bogus"], "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: subcommand"),
    (["analyze", "--constructor", "identity", "--tau", "10,abc"],
     "argument --tau: bad tau list '10,abc'"),
], ids=["flag-alone", "flag-before-subcommand", "flag-after-subcommand",
        "no-subcommand", "tau-not-a-number"])
def test_argument_error_names_what_is_wrong(tmp_path, capsys, args, message):
    # An unknown flag is named wherever it stands, also with no subcommand.
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path / "out"), *args])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_sweep_runs_selected_scenarios(tmp_path, capsys):
    code = cli.main(["--out", str(tmp_path), "sweep",
                     "--scenarios", "fig2,fig4", "--no-plot"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS fig2: ok" in out
    assert "PASS fig4: ok" in out
    assert (tmp_path / "fig2_trajectory.csv").exists()
    assert (tmp_path / "fig4_trajectory.csv").exists()


def test_run_reset_window_past_the_run_is_skipped(tmp_path, capsys):
    # At twice the time constants fig2's reset window starts after its run
    # ends: the check is reported skipped, not a traceback.
    code = cli.main(["--out", str(tmp_path), "run", "--scenario", "fig2",
                     "--tau-scale", "2", "--no-plot"])
    out = capsys.readouterr().out
    assert "[SKIP] reset clears activity: reset window outside run" in out
    assert code == 0


def test_sweep_tau_scale_prints_one_line_per_preset(tmp_path, capsys):
    cli.main(["--out", str(tmp_path), "sweep", "--scenarios", "fig2,fig4",
              "--tau-scale", "2", "--no-plot"])
    lines = capsys.readouterr().out.strip().splitlines()
    heads = [line.split(":")[0].split() for line in lines]
    assert [name for _, name in heads] == ["fig2", "fig4"]
    assert all(status in ("PASS", "FAIL") for status, _ in heads)


def test_ignored_override_exits_2_in_run_and_fails_in_sweep(tmp_path, capsys):
    code = cli.main(["--out", str(tmp_path), "run", "--scenario", "fig9",
                     "--tau-scale", "2"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: fig9 does not use the override(s) tau_scale\n")
    code = cli.main(["--out", str(tmp_path), "sweep", "--scenarios", "fig10",
                     "--tau-scale", "2"])
    assert code == 1
    assert capsys.readouterr().out == (
        "FAIL fig10: fig10 does not use the override(s) tau_scale\n")


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


def test_run_off_grid_schedule_boundary_exits_2(tmp_path):
    # At dt 0.3 fig10's gain step (2500 ms) is off the step grid.  Run in a
    # subprocess with a timeout, since the bank once looped forever here.
    src = str(Path(oscint.__file__).resolve().parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "oscint.cli", "--out", str(tmp_path), "run",
         "--scenario", "fig10", "--dt", "0.3", "--no-plot"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "whole number of steps" in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_package_imports_without_scipy():
    src = str(Path(oscint.__file__).resolve().parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, oscint, oscint.cli; print(sorted("
         "m for m, mod in sys.modules.items() "
         "if mod is not None and m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


def test_run_spec_with_a_fractional_count_exits_2(tmp_path, capsys):
    # It used to run a 2-unit network, the count truncated to 2.
    data = spec_to_dict(NetworkSpec.build(2, 1)) | {"n_neurons": 2.7}
    code = cli.main(["--out", str(tmp_path), "run", "--spec", _spec_json(tmp_path, data),
                     "--no-plot"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n_neurons must be a whole number" in err
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


def _address_space_4gb():
    """Caps the child's address space, so an allocation larger than that is
    refused on any host, whatever its overcommit policy."""
    import resource
    resource.setrlimit(resource.RLIMIT_AS,
                       (4 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))


@pytest.mark.parametrize("target", ["scenario", "spec"])
def test_run_too_long_to_hold_exits_2(tmp_path, target):
    # 1e13 ms asks for a 72.8 TiB array, which NumPy refuses before it
    # touches memory; the capped address space makes that hold everywhere.
    spec_path = tmp_path / "net.json"
    save_spec(NetworkSpec.build(2, 1), spec_path)
    args = (["--scenario", "fig2"] if target == "scenario"
            else ["--spec", str(spec_path)])
    src = str(Path(oscint.__file__).resolve().parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "oscint.cli", "--out", str(tmp_path / "out"),
         "run", *args, "--duration", "1e13", "--no-plot"],
        capture_output=True, text=True, timeout=60, env=env,
        preexec_fn=_address_space_4gb)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: not enough memory")
    assert "Unable to allocate" in lines[0]


def test_analyze_too_large_to_hold_exits_2(tmp_path):
    # A 100 000-unit ring is a 74.5 GiB matrix, over the child's 4 GiB.
    src = str(Path(oscint.__file__).resolve().parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "oscint.cli", "analyze",
         "--constructor", "center-surround", "--n", "100000"],
        capture_output=True, text=True, timeout=60, env=env,
        preexec_fn=_address_space_4gb)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: not enough memory")
    assert "Unable to allocate" in lines[0] and proc.stdout == ""


def test_run_too_many_samples_to_index_exits_2(tmp_path, capsys):
    code = cli.main(["--out", str(tmp_path / "out"), "run", "--scenario", "fig2",
                     "--dt", "1e-300", "--duration", "1", "--no-plot"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("error: span 1 ms at dt = 1e-300 is 1e+300 steps, more "
                   "samples than an array can index\n")


def test_sweep_reports_memory_error_as_fail(tmp_path, capsys, monkeypatch):
    real = cli.run_scenario

    def run(name, **kwargs):
        if name == "fig4":
            raise MemoryError("Unable to allocate 72.8 TiB")
        return real(name, **kwargs)

    monkeypatch.setattr(cli, "run_scenario", run)
    code = cli.main(["--out", str(tmp_path), "sweep",
                     "--scenarios", "fig2,fig4", "--no-plot"])
    assert code == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["PASS fig2: ok", "FAIL fig4: not enough memory for this "
                     "run: Unable to allocate 72.8 TiB"]


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


def _csv_lines(path):
    return path.read_text().splitlines()


def test_run_writes_the_csv_on_a_1_ms_grid_unless_asked_for_every_step(tmp_path):
    # fig7 steps 0.1 ms over 3200 ms: the default CSV keeps every 10th step.
    full, grid = tmp_path / "full", tmp_path / "grid"
    assert cli.main(["--out", str(full), "run", "--scenario", "fig7",
                     "--full-resolution"]) == 0
    assert cli.main(["--out", str(grid), "run", "--scenario", "fig7"]) == 0
    full_lines = _csv_lines(full / "fig7_trajectory.csv")
    grid_lines = _csv_lines(grid / "fig7_trajectory.csv")
    assert len(full_lines) == 32_002 and len(grid_lines) == 3_202
    assert grid_lines == full_lines[:1] + full_lines[1::10]
    assert grid_lines[-1] == full_lines[-1] and grid_lines[-1].startswith("3200,")
    # Every step is the library writer's full record; the plot and the
    # report read the whole record either way.
    direct = tmp_path / "direct.csv"
    output.write_csv(direct, run_scenario("fig7").trajectory)
    assert (full / "fig7_trajectory.csv").read_bytes() == direct.read_bytes()
    for name in ("fig7_y.svg", "fig7_report.txt"):
        assert (grid / name).read_bytes() == (full / name).read_bytes()


@pytest.mark.parametrize("flags", [[], ["--full-resolution"]],
                         ids=["grid", "full-resolution"])
def test_sweep_in_workers_writes_what_a_serial_sweep_writes(tmp_path, capsys, flags):
    outs = {}
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert cli.main(["--out", str(out), "sweep", "--scenarios", "fig2,fig7",
                         "--workers", workers, *flags]) == 0
        outs[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(outs["1"]) == 6 and outs["1"] == outs["2"]
    lines = outs["1"]["fig7_trajectory.csv"].count(b"\n")
    assert lines == (32_002 if flags else 3_202)
