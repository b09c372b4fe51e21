"""Spectral analysis of recurrent networks.

During a memory delay (both gain populations at zero) the model reduces to
the linear system  dy/dt = diag(1/tau_y) (W - I) y,  so everything about
delay-period behaviour — decay, sustained memory, oscillation frequency,
instability — is read off the spectrum of the effective matrix
W' = diag(1/tau_y)(W - I).  With heterogeneous time constants there is no
eigenvalue-to-eigenvalue correspondence between W and W', so classification
uses only W'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DECAYING = "decaying"
SUSTAINED = "sustained"
STABLE_OSCILLATION = "stable-oscillation"
UNSTABLE = "unstable"

#: |Re(lambda)| window used when counting sustained dimensions.
ANALYSIS_TOL = 1e-6
#: |Re(lambda')| window used when classifying stability.
CLASSIFY_TOL = 1e-3


def effective_matrix(w_yy: np.ndarray, tau_y) -> np.ndarray:
    """Delay-period generator W' = diag(1/tau_y) (W - I), units 1/ms."""
    w = np.asarray(w_yy)
    n = w.shape[0]
    tau = np.broadcast_to(np.asarray(tau_y, dtype=np.float64), (n,))
    if not np.all(np.isfinite(tau) & (tau > 0)):
        raise ValueError("time constants must be positive and finite")
    return (w - np.eye(n)) / tau[:, None]


def oscillation_frequencies(w_prime: np.ndarray, tol: float = CLASSIFY_TOL) -> np.ndarray:
    """Frequencies (Hz) of the marginally stable oscillatory modes.

    Takes every eigenvalue of W' with |Re| <= tol and Im > 0 (one per
    conjugate pair) and converts its imaginary part from rad/ms to Hz.
    """
    return _frequencies(np.linalg.eigvals(np.asarray(w_prime)), tol)


def _frequencies(lam: np.ndarray, tol: float) -> np.ndarray:
    keep = (np.abs(lam.real) <= tol) & (lam.imag > tol)
    return np.sort(lam.imag[keep] * 1000.0 / (2.0 * np.pi))


def classify_stability(w_prime: np.ndarray, tol: float = CLASSIFY_TOL) -> str:
    """Classify delay-period behaviour from the spectrum of W'.

    * any Re > tol            -> unstable
    * max Re within +-tol     -> stable-oscillation if the marginal modes have
                                 nonzero imaginary part, else sustained
    * otherwise               -> decaying
    """
    return _stability(np.linalg.eigvals(np.asarray(w_prime)), tol)


def _stability(lam: np.ndarray, tol: float) -> str:
    max_re = float(lam.real.max())
    if max_re > tol:
        return UNSTABLE
    if max_re >= -tol:
        marginal = lam[np.abs(lam.real) <= tol]
        if np.any(np.abs(marginal.imag) > tol):
            return STABLE_OSCILLATION
        return SUSTAINED
    return DECAYING


def sustained_dimensionality(w_yy: np.ndarray, tol: float = ANALYSIS_TOL) -> int:
    """Number of eigenvalues of W itself with real part within tol of 1.

    For uniform time constants these are exactly the modes W' holds at the
    imaginary axis — the dimensionality of what the network can store without
    decay.
    """
    return _dimensionality(np.linalg.eigvals(np.asarray(w_yy)), tol)


def _dimensionality(lam: np.ndarray, tol: float) -> int:
    return int(np.sum(np.abs(lam.real - 1.0) <= tol))


@dataclass
class SpectralReport:
    """Summary of one recurrent matrix / time-constant pairing."""

    eigenvalues: np.ndarray             # spectrum of W
    eigenvalues_effective: np.ndarray   # spectrum of W', 1/ms
    stability: str
    frequencies_hz: np.ndarray
    dimensionality: int


def analyze(w_yy: np.ndarray, tau_y) -> SpectralReport:
    """Full spectral report for a recurrent matrix with given time constants."""
    w = np.asarray(w_yy)
    lam = np.linalg.eigvals(w)
    lam_prime = np.linalg.eigvals(effective_matrix(w, tau_y))
    return SpectralReport(
        eigenvalues=lam,
        eigenvalues_effective=lam_prime,
        stability=_stability(lam_prime, CLASSIFY_TOL),
        frequencies_hz=_frequencies(lam_prime, CLASSIFY_TOL),
        dimensionality=_dimensionality(lam, ANALYSIS_TOL),
    )


def magnitude_readout(v: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Phase-insensitive readout |V* y|, one magnitude per encoder column,
    of a response (N,) or of one response per column of ``y`` (N, T).

    Invariant under y -> y e^{i phi}, so an oscillating stored pattern reads
    out as a constant.  ValueError unless the columns of ``v`` are
    orthonormal to within 1e-8.
    """
    v = np.asarray(v, dtype=np.complex128)
    if not np.allclose(v.conj().T @ v, np.eye(v.shape[1]), rtol=0.0, atol=1e-8):
        raise ValueError("encoder columns are not orthonormal")
    return np.abs(v.conj().T @ np.asarray(y, dtype=np.complex128))


def dominant_frequency(signal: np.ndarray, dt_ms: float) -> float:
    """Location (Hz) of the largest non-DC peak of the amplitude spectrum.

    The signal is de-meaned and transformed with a rectangular window, so the
    answer is quantized to bins of 1000/(n*dt_ms) Hz.
    """
    sig = np.asarray(signal, dtype=np.float64)
    if sig.ndim != 1 or len(sig) < 4:
        raise ValueError("signal must be a 1-d array with at least 4 samples")
    spectrum = np.abs(np.fft.rfft(sig - sig.mean()))
    spectrum[0] = 0.0
    freqs = np.fft.rfftfreq(len(sig), d=dt_ms / 1000.0)
    return float(freqs[int(np.argmax(spectrum))])
