"""Weight-matrix constructors and their spectral guarantees."""

import numpy as np
import pytest

from blas import blas_threads, needs_openblas
from oscint.scenarios import _fig6_request
from oscint.weights import (
    SpectrumRequest,
    center_surround,
    diagonal_oscillators,
    ei_pair,
    eigen_encoder,
    random_spectral,
    rescale_spectrum,
    synfire,
)


def test_center_surround_band_values():
    w = center_surround(8)
    scale = 4.0 + 3.0 * np.sqrt(2.0)  # top ring-harmonic gain of the raw bands
    assert w[0, 0] == pytest.approx(3.0 / scale, abs=1e-13)
    assert w[0, 1] == pytest.approx(2.0 / scale, abs=1e-13)
    assert w[0, 7] == pytest.approx(2.0 / scale, abs=1e-13)
    assert w[0, 3] == pytest.approx(-1.0 / scale, abs=1e-13)
    # circulant: every row is a rotation of the first
    for i in range(8):
        assert np.allclose(w[i], np.roll(w[0], i), atol=1e-15)
    assert np.allclose(w, w.T, atol=1e-15)


def test_center_surround_unit_pair():
    w = center_surround(8)
    ev = np.sort(np.linalg.eigvalsh(w))[::-1]
    assert np.sum(np.abs(ev - 1.0) < 1e-12) == 2
    assert ev[2] == pytest.approx(0.4852813742385703, abs=1e-12)
    assert np.all(ev <= 1.0 + 1e-12)


def test_center_surround_identity_bands():
    # A pure self-connection normalizes to the identity exactly.
    w = center_surround(6, self_w=1.0, flank_w=0.0, surround_w=0.0)
    assert np.allclose(w, np.eye(6), atol=1e-14)


def test_synfire_is_cyclic_shift():
    s = synfire(5)
    assert np.array_equal(np.sort(s.ravel()), np.r_[np.zeros(20), np.ones(5)])
    y = np.zeros(5)
    y[0] = 1.0
    moved = s @ y
    # one unit advances to exactly one neighbour, same direction every row
    assert moved.sum() == 1.0
    j = int(np.argmax(moved))
    assert j != 0
    assert np.allclose(np.linalg.matrix_power(s, 5), np.eye(5), atol=1e-12)


def test_synfire_top_eigen_pair():
    ev = np.linalg.eigvals(synfire(100))
    order = np.argsort(-ev.real)
    top3 = ev[order[:3]]
    assert top3[0] == pytest.approx(1.0 + 0j, abs=1e-9)
    pair = np.sort_complex(top3[1:])
    assert pair[0].real == pytest.approx(np.cos(2 * np.pi / 100), abs=1e-9)
    assert abs(pair[0].imag) == pytest.approx(np.sin(2 * np.pi / 100), abs=1e-9)
    assert np.allclose(np.abs(ev), 1.0, atol=1e-9)  # permutation spectrum


def test_random_spectral_places_requested_eigenvalues():
    req = SpectrumRequest(n=40, d=6, imag_std=0.05, seed=3)
    w = random_spectral(req)
    ev = np.linalg.eigvals(w)
    sustained = np.abs(ev.real - 1.0) < 1e-8
    assert sustained.sum() == 6
    rest = ev[~sustained]
    assert np.all(rest.real < 1.0)
    assert np.all(rest.real >= -1e-8)
    # the imaginary spread applies to every mode
    assert np.abs(ev.imag).max() > 1e-3
    # the construction is normal: conjugation by a unitary basis
    assert np.abs(w @ w.conj().T - w.conj().T @ w).max() < 1e-10


def test_random_spectral_deterministic_per_seed():
    req = SpectrumRequest(n=20, d=3, seed=9)
    assert np.array_equal(random_spectral(req), random_spectral(req))
    other = random_spectral(SpectrumRequest(n=20, d=3, seed=10))
    assert not np.array_equal(random_spectral(req), other)


def test_random_spectral_full_dimension_identity_like():
    # d = n with zero imaginary spread pins every eigenvalue at 1: the
    # conjugation collapses to the identity.
    req = SpectrumRequest(n=8, d=8, imag_std=0.0, seed=0)
    w = random_spectral(req)
    assert np.allclose(w, np.eye(8), atol=1e-10)


def test_ei_pair_values():
    w = ei_pair()
    assert np.array_equal(w, np.array([[2.0, -1.0], [2.0, -0.25]]))


def test_diagonal_oscillators_entry():
    w = diagonal_oscillators([2.0], 10.0)
    assert w.shape == (1, 1)
    assert w[0, 0] == pytest.approx(1.0 + 0.12566370614359174j, abs=1e-15)
    w3 = diagonal_oscillators([0.0, 1.0, 4.0], 10.0)
    assert np.allclose(np.diag(w3).real, 1.0, atol=1e-15)
    assert np.allclose(w3, np.diag(np.diag(w3)), atol=1e-15)
    assert w3[0, 0] == 1.0 + 0j


def test_eigen_encoder_identity():
    enc = eigen_encoder(np.eye(4), 2)
    assert enc.shape == (4, 2)
    assert np.allclose(enc, np.eye(4)[:, :2], atol=1e-12)


def test_eigen_encoder_synfire_conjugate_pair():
    s = synfire(100)
    enc = eigen_encoder(s, 3)
    # column 0: the uniform unit-eigenvalue mode, phase-fixed positive
    assert np.allclose(enc[:, 0], 0.1, atol=1e-10)
    # columns 1 and 2: the conjugate pair, ordered +imag first
    lam = np.exp(2j * np.pi / 100)
    assert np.abs(s @ enc[:, 1] - lam * enc[:, 1]).max() < 1e-10
    assert np.abs(s @ enc[:, 2] - lam.conj() * enc[:, 2]).max() < 1e-10
    assert np.abs(enc[:, 2] - enc[:, 1].conj()).max() < 1e-10
    assert np.allclose(np.linalg.norm(enc, axis=0), 1.0, atol=1e-12)


def test_eigen_encoder_columns_orthonormal_for_symmetric_input():
    w = center_surround(8)
    enc = eigen_encoder(w, 2)
    gram = enc.conj().T @ enc
    assert np.abs(gram - np.eye(2)).max() < 1e-10
    assert np.abs(w @ enc - enc).max() < 1e-10


def test_eigen_encoder_phase_fix_largest_component_real_positive():
    rng = np.random.default_rng(4)
    for seed in range(5):
        w = random_spectral(SpectrumRequest(n=12, d=3, seed=seed))
        enc = eigen_encoder(w, 3)
        for k in range(3):
            col = enc[:, k]
            i = int(np.argmax(np.abs(col)))
            assert col[i].real > 0.0
            assert abs(col[i].imag) < 1e-10 * abs(col[i].real) + 1e-12


def _same_columns(enc, other):
    """Equal up to each column's phase, so the same eigenvectors in the same
    order."""
    return np.abs(np.abs(enc.conj().T @ other) - np.eye(enc.shape[1])).max() < 1e-9


def test_eigen_encoder_orders_tied_real_parts_by_imaginary_part():
    # fig6's ten sustained eigenvalues all have real part 1.
    w = random_spectral(_fig6_request(11))
    enc = eigen_encoder(w, 10)
    lam = np.einsum("ij,ik,kj->j", enc.conj(), w, enc)
    assert np.abs(lam.real - 1.0).max() < 1e-12
    assert np.all(np.diff(lam.imag) < 0)


@pytest.mark.parametrize("kind", ["scaled", "noise"])
def test_eigen_encoder_order_survives_a_rounding_level_perturbation(kind):
    w = random_spectral(_fig6_request(11))
    delta = w if kind == "scaled" else np.random.default_rng(0).standard_normal(w.shape)
    assert _same_columns(eigen_encoder(w, 10), eigen_encoder(w + 1e-15 * delta, 10))


@needs_openblas
def test_eigen_encoder_order_does_not_depend_on_blas_threads():
    w = random_spectral(_fig6_request(11))
    with blas_threads(1):
        one = eigen_encoder(w, 10)
    with blas_threads(2):
        two = eigen_encoder(w, 10)
    assert _same_columns(one, two)


@pytest.mark.parametrize("imag_std", [float("nan"), float("inf"), -0.1])
def test_spectrum_request_rejects_a_bad_imag_std(imag_std):
    with pytest.raises(ValueError, match="imag_std must be finite and >= 0"):
        SpectrumRequest(n=8, d=2, imag_std=imag_std)


def test_eigen_encoder_rank_guard():
    with pytest.raises(ValueError):
        eigen_encoder(np.eye(3), 4)
    with pytest.raises(ValueError):
        eigen_encoder(np.eye(3), 0)


def test_rescale_spectrum():
    w = rescale_spectrum(2.0 * np.eye(3))
    assert np.allclose(w, np.eye(3), atol=1e-14)
    s = synfire(10)
    assert np.allclose(rescale_spectrum(1.5 * s), s, atol=1e-12)
    # already normalized input is a fixed point
    cs = center_surround(8)
    assert np.allclose(rescale_spectrum(cs), cs, atol=1e-12)
    with pytest.raises(ValueError):
        rescale_spectrum(-np.eye(2))
