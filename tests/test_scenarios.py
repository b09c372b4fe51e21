"""Preset scenario catalog: determinism, self-checks, override plumbing."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import oscint.circuit
import oscint.model
import oscint.scenarios
from blas import blas_thread_count, blas_threads, needs_openblas
from oscint.model import Trajectory, readout_series
from oscint.predict import PredictionResult
from oscint.scenarios import (
    _PRESETS,
    SCENARIO_NAMES,
    Pulse,
    pulse_series,
    run_scenario,
)


def _assert_checks_pass(result):
    ran = [c for c in result.assertions if not c.skipped]
    assert ran, "every check was skipped"
    failed = [c for c in ran if not c.passed]
    assert not failed, "; ".join(f"{c.name}: {c.detail}" for c in failed)


def _pulse_reference(n_channels, pulses, t_start, n_steps, dt):
    """The pulses summed one sample at a time, at t = t_start + i*dt."""
    rows = []
    for i in range(n_steps + 1):
        t = t_start + i * dt
        x = np.zeros(n_channels)
        for p in pulses:
            if p.t_on <= t < p.t_off:
                x[p.channel] += p.value
        rows.append(x)
    return np.array(rows)


_PULSES = [
    Pulse(0, 1.0, 3.0, 2.5),
    Pulse(1, 0.5, 2.5, 1.0),        # overlaps the next on channel 1
    Pulse(1, 1.5, 4.0, -0.75),
    Pulse(2, -5.0, 0.0, 3.0),       # starts before the series
    Pulse(2, 9.0, 12.0, 1.0),       # lies past it
    Pulse(0, 2.0, 2.0, 7.0),        # empty
]


@pytest.mark.parametrize("t_start, t_stop, dt", [
    (-1.0, 4.0, 0.5), (0.0, 5.0, 0.1), (0.3, 4.0, 0.02), (-2.0, 6.0, 0.01),
])
def test_pulse_series_matches_per_sample_sum(t_start, t_stop, dt):
    n_steps = int(round((t_stop - t_start) / dt))
    want = _pulse_reference(3, _PULSES, t_start, n_steps, dt)
    got = pulse_series(3, _PULSES, t_start, t_stop, dt)
    assert got.shape == (n_steps + 1, 3) and got.dtype == np.float64
    assert np.array_equal(got, want)


def test_pulse_series_edges_and_overlap():
    x = pulse_series(3, _PULSES, -1.0, 4.0, 0.5)     # t = -1, -0.5, ..., 4
    # t == t_on is inside a pulse, t == t_off is not.
    assert x[4, 0] == 2.5 and x[3, 0] == 0.0        # t = 1 on, 0.5 off
    assert x[8, 0] == 0.0 and x[7, 0] == 2.5        # t = 3 off, 2.5 on
    # Overlapping pulses on one channel add, negative values included.
    assert x[5, 1] == 1.0 - 0.75 and x[7, 1] == -0.75 and x[2, 1] == 0.0
    assert np.array_equal(x[:, 2], [3.0, 3.0] + [0.0] * 9)


def test_pulse_series_rejects_off_grid_span():
    with pytest.raises(ValueError, match="whole number of steps"):
        pulse_series(2, _PULSES, 0.0, 1.05, 0.1)


@pytest.mark.parametrize("channel", [-1, 5])
def test_pulse_series_rejects_a_channel_outside_the_series(channel):
    # NumPy indexing would send -1 to the last channel and 5 to an IndexError.
    with pytest.raises(ValueError, match=f"pulse channel {channel} is outside"):
        pulse_series(2, [Pulse(channel, 0.0, 1.0, 1.0)], 0.0, 2.0, 0.5)


def test_catalog_lists_every_preset():
    assert SCENARIO_NAMES == (
        "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    )


def test_unknown_scenario_raises():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("nope")


def test_unknown_override_raises():
    with pytest.raises(TypeError):
        run_scenario("fig2", bogus=1)


def test_fig2_passes_and_is_deterministic():
    first = run_scenario("fig2")
    second = run_scenario("fig2")
    _assert_checks_pass(first)
    assert isinstance(first.trajectory, Trajectory)
    assert first.description
    assert np.array_equal(first.trajectory.y, second.trajectory.y)
    spec = first.extras["spec"]
    assert np.array_equal(readout_series(spec, first.trajectory.y),
                          readout_series(spec, second.trajectory.y))


def test_fig4_remapping_passes():
    result = run_scenario("fig4")
    _assert_checks_pass(result)
    assert result.extras["kappa"] > 0


def test_fig5_oscillatory_memory_passes_at_coarser_step():
    result = run_scenario("fig5", dt=0.03, duration=3000.0)
    _assert_checks_pass(result)
    assert result.extras["expected_hz"] == pytest.approx(1.0)


def test_fig6_random_spectrum_memory_passes():
    result = run_scenario("fig6")
    _assert_checks_pass(result)
    assert result.extras["request"].n == 100


def test_fig7_damped_pair_passes():
    result = run_scenario("fig7")
    _assert_checks_pass(result)
    assert result.extras["report"].stability == "stable-oscillation"


def test_fig7_tau_scale_rescales_frequency():
    result = run_scenario("fig7", tau_scale=2.0)
    _assert_checks_pass(result)
    freqs = result.extras["report"].frequencies_hz
    assert freqs.max() == pytest.approx(6.16404444, abs=1e-6)


def test_fig8_superposition_passes():
    result = run_scenario("fig8")
    _assert_checks_pass(result)


def test_fig9_circuit_passes_at_coarser_step():
    result = run_scenario("fig9", dt=0.05, duration=1360.0)
    _assert_checks_pass(result)
    assert 3.3 < result.extras["encode_scale"] < 3.9


@pytest.mark.parametrize("dt", [0.4, 0.08])
def test_fig9_records_on_the_1_ms_grid_at_any_step(dt):
    # round(1 ms / dt), fig9's own stride once, divides neither the 1375 nor
    # the 6875 steps of its 550 ms calibration run at these steps.
    result = run_scenario("fig9", dt=dt)
    _assert_checks_pass(result)
    assert result.trajectory.dt == pytest.approx(0.8)


@pytest.mark.parametrize("name, decompositions", [
    ("fig4", [("eig", (16, 16)), ("eigvals", (8, 8))]),
    ("fig6", [("eig", (100, 100))] * 2 + [("eigvals", (100, 100))]),
    ("fig8", [("eig", (100, 100))] * 2),
])
def test_each_spec_decomposes_its_w_yy_once(monkeypatch, name, decompositions):
    # fig4's five pieces share one spec and fig8's three runs another, so the
    # scan's eigenbasis is formed once per spec; fig6 counts its sustained
    # dimensions from one eigvals.  The rest are the encoders' eig (fig6,
    # fig8) and center_surround's rescale (fig4).
    calls = []

    def counted(kind, real):
        def wrapper(a, *args, **kwargs):
            calls.append((kind, np.shape(a)))
            return real(a, *args, **kwargs)
        return wrapper

    for kind in ("eig", "eigvals"):
        monkeypatch.setattr(np.linalg, kind, counted(kind, getattr(np.linalg, kind)))
    assert run_scenario(name).all_passed
    assert sorted(calls) == sorted(decompositions)


def test_fig10_continuation_passes():
    result = run_scenario("fig10")
    _assert_checks_pass(result)
    assert isinstance(result.trajectory, PredictionResult)


@pytest.mark.parametrize("name, override", [
    ("fig9", "tau_scale"),
    ("fig10", "tau_scale"),
    *[(name, "tau_y") for name in SCENARIO_NAMES if name != "fig7"],
])
def test_ignored_override_raises(name, override):
    # Rejected before anything runs: these presets would silently ignore it.
    value = 2.0 if override == "tau_scale" else (10.0, 12.5)
    with pytest.raises(ValueError, match=f"{name} does not use .*{override}"):
        run_scenario(name, **{override: value})


def test_fig3_passes_tau_scale_to_its_reference():
    result = run_scenario("fig3", duration=300.0, tau_scale=2.0)
    assert np.all(result.extras["spec"].tau_y == 20.0)
    assert np.array_equal(result.extras["problem"].x_series,
                          result.extras["incremental"].x)


def test_fig4_passes_under_tau_scale():
    # The discharge coupling is calibrated at the scaled tau_y.
    _assert_checks_pass(run_scenario("fig4", tau_scale=2.0))


@pytest.mark.parametrize("tau_y", [(10.0,), (10.0, 12.0, 13.0)])
def test_fig7_rejects_a_tau_y_that_is_not_a_pair(monkeypatch, tau_y):
    # Rejected before any step: the pair sets both units' time constants.
    def no_run(*args, **kwargs):
        raise AssertionError("simulate was called")
    monkeypatch.setattr(oscint.scenarios, "simulate", no_run)
    with pytest.raises(ValueError, match="fig7 takes two tau_y values"):
        run_scenario("fig7", tau_y=tau_y)


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_tau_scale_raises(value):
    with pytest.raises(ValueError, match="tau_scale must be positive and finite"):
        run_scenario("fig2", tau_scale=value)


@pytest.mark.parametrize("name", ["fig2", "fig9"])
@pytest.mark.parametrize("override", ["dt", "duration"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_dt_or_duration_raises(name, override, value):
    # fig9 derives its record stride from dt; the span check comes first.
    with pytest.raises(ValueError, match="must be finite"):
        run_scenario(name, **{override: value})


def test_readme_preset_table_matches_the_descriptions():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Scenario presets", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip("|").split("|") for line in section.splitlines()
            if line.startswith("| fig")]
    assert {name.strip(): text.strip() for name, text in rows} == {
        name: preset.description for name, preset in _PRESETS.items()}


def test_unknown_override_raises_even_when_none():
    with pytest.raises(TypeError):
        run_scenario("fig2", bogus=None)


def test_fig9_runs_on_the_circuit_block_path(monkeypatch):
    # fig9's gains never read y, so neither step function may be called.
    def stepped(*args, **kwargs):
        raise AssertionError("fig9 fell back to the circuit step loop")

    monkeypatch.setattr(oscint.circuit, "pfc_step", stepped)
    monkeypatch.setattr(oscint.circuit, "thalamic_step", stepped)
    result = run_scenario("fig9", duration=50.0)
    assert result.trajectory.n_samples == 51


@needs_openblas
def test_preset_builds_on_one_blas_thread(monkeypatch):
    preset, seen = _PRESETS["fig2"], []

    def build(ov):
        seen.append(blas_thread_count())
        return preset.build(ov)

    monkeypatch.setitem(_PRESETS, "fig2", dataclasses.replace(preset, build=build))
    with blas_threads(2):
        run_scenario("fig2")
    assert seen == [1]


@needs_openblas
def test_run_scenario_restores_the_blas_thread_count():
    with blas_threads(2):
        run_scenario("fig2")
        assert blas_thread_count() == 2
        with pytest.raises(ValueError, match="whole number of steps"):
            run_scenario("fig10", dt=0.3)
        assert blas_thread_count() == 2


@needs_openblas
@pytest.mark.parametrize("name", ["fig2", "fig7"])
def test_presets_give_the_same_arrays_without_the_blas_limiter(monkeypatch, name):
    limited = run_scenario(name).trajectory
    # Set two threads before the stub, which blas_threads would see too.
    with blas_threads(2):
        monkeypatch.setattr(oscint.model, "_openblas_thread_calls", lambda: None)
        free = run_scenario(name).trajectory
    for field in ("times", "x", "y", "a", "b"):
        assert np.array_equal(getattr(free, field), getattr(limited, field)), field
