"""Preset scenario catalog: determinism, self-checks, override plumbing."""

import numpy as np
import pytest

import oscint.circuit
from oscint.scenarios import SCENARIO_NAMES, run_scenario


def _assert_checks_pass(result):
    ran = [c for c in result.assertions if not c.skipped]
    assert ran, "every check was skipped"
    failed = [c for c in ran if not c.passed]
    assert not failed, "; ".join(f"{c.name}: {c.detail}" for c in failed)


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
    assert first.kind == "rate"
    assert first.description
    assert np.array_equal(first.trajectory.y, second.trajectory.y)
    assert np.array_equal(first.trajectory.readout, second.trajectory.readout)


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


def test_fig10_continuation_passes():
    result = run_scenario("fig10")
    _assert_checks_pass(result)
    assert result.kind == "prediction"


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


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_tau_scale_raises(value):
    with pytest.raises(ValueError, match="tau_scale must be positive and finite"):
        run_scenario("fig2", tau_scale=value)


def test_fig9_runs_on_the_circuit_block_path(monkeypatch):
    # fig9's gains never read y, so neither step function may be called.
    def stepped(*args, **kwargs):
        raise AssertionError("fig9 fell back to the circuit step loop")

    monkeypatch.setattr(oscint.circuit, "pfc_step", stepped)
    monkeypatch.setattr(oscint.circuit, "thalamic_step", stepped)
    result = run_scenario("fig9", duration=50.0)
    assert result.trajectory.n_samples == 51
