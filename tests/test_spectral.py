"""Eigenvalue analysis, stability classes and frequency measurement."""

import numpy as np
import pytest

from oscint.model import NetworkSpec, readout_series
from oscint.spectral import (
    DECAYING,
    STABLE_OSCILLATION,
    SUSTAINED,
    UNSTABLE,
    analyze,
    classify_stability,
    dominant_frequency,
    effective_matrix,
    magnitude_readout,
    oscillation_frequencies,
    sustained_dimensionality,
)
from oscint.weights import (
    SpectrumRequest,
    center_surround,
    ei_pair,
    eigen_encoder,
    random_spectral,
    synfire,
)


def test_effective_matrix_hand_case():
    wp = effective_matrix(ei_pair(), (10.0, 12.5))
    assert np.allclose(wp, [[0.1, -0.1], [0.16, -0.1]], atol=1e-15)


def test_oscillation_frequency_values():
    # trace 0, det 0.006: eigenvalues +-i sqrt(0.006) -> one positive line
    f = oscillation_frequencies(effective_matrix(ei_pair(), (10.0, 12.5)),
                                tol=1e-6)
    expected = 1000.0 * np.sqrt(0.006) / (2.0 * np.pi)
    assert len(f) == 1
    assert f[0] == pytest.approx(expected, abs=1e-9)
    assert f[0] == pytest.approx(12.3280888812, abs=1e-6)

    f2 = oscillation_frequencies(effective_matrix(ei_pair(), (20.0, 25.0)),
                                 tol=1e-6)
    assert f2[0] == pytest.approx(expected / 2.0, abs=1e-9)


def test_stability_classes():
    assert classify_stability(effective_matrix(ei_pair(), (10.0, 12.5))) \
        == STABLE_OSCILLATION
    assert classify_stability(effective_matrix(ei_pair(), (10.0, 10.0))) \
        == DECAYING
    assert classify_stability(effective_matrix(1.1 * np.eye(2), 10.0)) \
        == UNSTABLE
    assert classify_stability(effective_matrix(np.eye(2), 10.0)) == SUSTAINED
    assert classify_stability(effective_matrix(0.5 * np.eye(2), 10.0)) \
        == DECAYING


def test_equal_time_constants_ei_pair_rings_down():
    ev = np.linalg.eigvals(effective_matrix(ei_pair(), (10.0, 10.0)))
    assert np.allclose(sorted(ev.real), [-0.0125, -0.0125], atol=1e-12)
    assert np.abs(ev.imag).max() == pytest.approx(0.08569568250501305, abs=1e-12)


def test_sustained_dimensionality():
    assert sustained_dimensionality(center_surround(8)) == 2
    assert sustained_dimensionality(np.eye(5)) == 5
    assert sustained_dimensionality(synfire(100)) == 1
    assert sustained_dimensionality(0.9 * np.eye(3)) == 0


@pytest.mark.parametrize("w, tau", [
    (ei_pair(), (10.0, 12.5)),
    (ei_pair(), (10.0, 10.0)),
    (synfire(20), 10.0),
    (center_surround(8), 10.0),
    (random_spectral(SpectrumRequest(n=12, d=3, seed=4)), 10.0),
], ids=["ei_pair-12.5", "ei_pair-10", "synfire", "center_surround", "random_spectral"])
def test_analyze_takes_each_spectrum_once(monkeypatch, w, tau):
    # The report the public functions give one at a time, each from its
    # own spectrum, against analyze's two eigvals calls.
    w_prime = effective_matrix(w, tau)
    want = {"eigenvalues": np.linalg.eigvals(w),
            "eigenvalues_effective": np.linalg.eigvals(w_prime),
            "stability": classify_stability(w_prime),
            "frequencies_hz": oscillation_frequencies(w_prime),
            "dimensionality": sustained_dimensionality(w)}
    calls, real = [], np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a: calls.append(a) or real(a))
    report = analyze(w, tau)
    assert len(calls) == 2
    for name, value in want.items():
        assert np.array_equal(getattr(report, name), value), name


def test_analyze_report_fields():
    report = analyze(ei_pair(), (10.0, 12.5))
    assert report.stability == STABLE_OSCILLATION
    assert report.dimensionality == 0
    assert len(report.eigenvalues) == 2
    assert len(report.eigenvalues_effective) == 2
    assert report.frequencies_hz[0] == pytest.approx(12.3280888812, abs=1e-6)


def test_time_warp_scales_frequencies_exactly():
    base = analyze(ei_pair(), (10.0, 12.5))
    warped = analyze(ei_pair(), (30.0, 37.5))
    assert warped.frequencies_hz[0] == pytest.approx(
        base.frequencies_hz[0] / 3.0, rel=1e-12)


@pytest.mark.parametrize("tau", [float("inf"), float("nan"), (10.0, float("inf")),
                                 0.0])
def test_effective_matrix_rejects_a_bad_time_constant(tau):
    with pytest.raises(ValueError, match="time constants must be positive and finite"):
        effective_matrix(ei_pair(), tau)


def test_magnitude_readout_requires_orthonormal_basis():
    v = np.ones((4, 2), dtype=np.complex128)
    with pytest.raises(ValueError):
        magnitude_readout(v, np.zeros(4, dtype=np.complex128))


def test_linear_and_magnitude_readouts():
    v = eigen_encoder(center_surround(8), 2)
    spec = NetworkSpec.build(8, 1, n_readout=2, w_yy=center_surround(8),
                             w_ry=v.conj().T)
    p = np.array([0.3 - 0.2j, 1.1 + 0.5j])
    y = v @ p
    assert np.abs(readout_series(spec, y[None])[0] - p).max() < 1e-12
    assert np.abs(magnitude_readout(v, y) - np.abs(p)).max() < 1e-12


def test_dominant_frequency_pure_tone():
    dt = 1.0  # ms
    t = np.arange(4000) * dt
    sig = np.sin(2 * np.pi * 7.0 * t / 1000.0)
    assert dominant_frequency(sig, dt) == pytest.approx(7.0, abs=0.25)
    # a constant offset must not win: the mean is removed and DC zeroed
    assert dominant_frequency(sig + 10.0, dt) == pytest.approx(7.0, abs=0.25)


def test_dominant_frequency_resolution_scales_with_window():
    dt = 0.5
    t = np.arange(8000) * dt  # 4 s -> 0.25 Hz bins
    sig = np.cos(2 * np.pi * 12.25 * t / 1000.0)
    assert dominant_frequency(sig, dt) == pytest.approx(12.25, abs=0.25)
