"""Constructors for recurrent matrices with prescribed spectra.

Everything here is deterministic: the random constructor takes an explicit
seed, and repeated calls with equal arguments return identical matrices.
Matrices are plain ndarrays; pass them to :class:`oscint.model.NetworkSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def center_surround(
    n: int,
    self_w: float = 3.0,
    flank_w: float = 2.0,
    surround_w: float = -1.0,
) -> np.ndarray:
    """Symmetric circulant ring: self-excitation, excitatory flanks, inhibitory
    surround, spectrally rescaled so the top eigenvalue is exactly 1.

    With the default band profile the rescaled weights are
    {0.36396, 0.24264, -0.12132} and, for n = 8, the unit eigenvalue is
    doubly degenerate (the two spatial-frequency-1 modes), so the ring stores
    a two-dimensional pattern without decay.
    """
    if n < 3:
        raise ValueError("center_surround needs n >= 3")
    first_col = np.full(n, surround_w, dtype=np.float64)
    first_col[0] = self_w
    first_col[1] = flank_w
    first_col[-1] = flank_w
    i = np.arange(n)
    return rescale_spectrum(first_col[(i[:, None] - i[None, :]) % n])


def synfire(n: int) -> np.ndarray:
    """Cyclic shift permutation: each unit predicts its successor.

    All eigenvalues lie on the unit circle (the n-th roots of unity); the
    slowest oscillatory pair sits at exp(+-i 2 pi / n).
    """
    if n < 2:
        raise ValueError("synfire needs n >= 2")
    w = np.zeros((n, n), dtype=np.float64)
    w[np.arange(1, n), np.arange(0, n - 1)] = 1.0
    w[0, n - 1] = 1.0
    return w


@dataclass(frozen=True)
class SpectrumRequest:
    """Prescription for :func:`random_spectral`.

    ``d`` eigenvalues get real part exactly 1 (a d-dimensional sustained
    subspace); the remaining ``n - d`` get real parts drawn uniformly from
    [0, 1).  Every eigenvalue receives an independent Gaussian imaginary part
    of scale ``imag_std`` (zero scale gives a purely real spectrum).
    """

    n: int
    d: int
    imag_std: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= self.d <= self.n:
            raise ValueError("d must lie in [0, n]")
        if not (np.isfinite(self.imag_std) and self.imag_std >= 0):
            raise ValueError("imag_std must be finite and >= 0")


def random_spectral(req: SpectrumRequest) -> np.ndarray:
    """Random normal matrix with the requested eigenvalue layout.

    Built as Q diag(lambda) Q*, with Q unitary from the QR decomposition of a
    seeded complex Gaussian matrix, so the prescribed eigenvalues are exact up
    to rounding and the eigenvectors form an orthonormal set.
    """
    rng = np.random.default_rng(req.seed)
    gauss = rng.standard_normal((req.n, req.n)) + 1j * rng.standard_normal(
        (req.n, req.n)
    )
    q, r = np.linalg.qr(gauss)
    # Fix the QR phase ambiguity so the construction is well-defined.
    diag_r = np.diagonal(r).copy()
    diag_r[diag_r == 0] = 1.0
    q = q * (diag_r / np.abs(diag_r))
    real_parts = np.concatenate(
        [np.ones(req.d), rng.uniform(0.0, 1.0, req.n - req.d)]
    )
    imag_parts = (
        rng.normal(0.0, req.imag_std, req.n)
        if req.imag_std > 0
        else np.zeros(req.n)
    )
    lam = real_parts + 1j * imag_parts
    return (q * lam) @ q.conj().T


def ei_pair() -> np.ndarray:
    """Two-unit excitatory/inhibitory motif.

    The excitatory unit drives both; the second unit inhibits.  Whether the
    pair rings, decays or oscillates indefinitely is decided purely by the two
    time constants (see :mod:`oscint.spectral`).
    """
    return np.array([[2.0, -1.0], [2.0, -0.25]])


def diagonal_oscillators(freqs_hz, tau_y: float) -> np.ndarray:
    """Decoupled bank of rotators: w_j = 1 + i * 2 pi * f_j * tau_y / 1000.

    Each diagonal entry makes the corresponding unit rotate at ``f_j`` hertz
    (time constants in ms, hence the /1000) with no amplitude change.
    """
    freqs = np.asarray(freqs_hz, dtype=np.float64)
    if freqs.ndim != 1 or len(freqs) == 0:
        raise ValueError("freqs_hz must be a non-empty 1-d sequence")
    if not (np.isfinite(tau_y) and tau_y > 0):
        raise ValueError("tau_y must be positive and finite")
    cycles_per_ms = freqs / 1000.0
    return np.diag(1.0 + 1j * 2.0 * np.pi * cycles_per_ms * tau_y)


def _eigen_order(vals: np.ndarray) -> np.ndarray:
    """Indices that order eigenvalues by descending real part, ties broken by
    descending imaginary part.

    Real parts are compared rounded to multiples of 1e-9·max(1, max|λ|), so
    rounding noise (sustained eigenvalues at 1 ± 1e-15) leaves the order to
    the imaginary parts.
    """
    tol = 1e-9 * max(1.0, float(np.abs(vals).max()))
    return np.lexsort((-vals.imag, -np.round(vals.real / tol)))


def eigen_encoder(w_yy: np.ndarray, k: int) -> np.ndarray:
    """Unit-norm eigenvectors of the k leading eigenvalues, as columns.

    Eigenvalues are ordered by :func:`_eigen_order`: descending real part,
    ties (up to rounding noise) broken by descending imaginary part.  Each
    column is normalized and phase-fixed so its largest-magnitude component
    (lowest index on ties) is real and positive, making the result
    deterministic.  Hermitian input goes through the symmetric eigensolver,
    so degenerate subspaces still yield an orthonormal encoder.
    """
    w = np.asarray(w_yy)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("w_yy must be square")
    n = w.shape[0]
    if not 1 <= k <= n:
        raise ValueError("k must lie in [1, n]")
    if np.allclose(w, w.conj().T, rtol=0.0, atol=1e-12):
        vals, vecs = np.linalg.eigh(w)
        vals = vals.astype(np.complex128)
    else:
        vals, vecs = np.linalg.eig(w)
    cols = vecs[:, _eigen_order(vals)[:k]].astype(np.complex128)
    if np.linalg.matrix_rank(cols) < k:
        raise np.linalg.LinAlgError(
            "matrix is defective: fewer than k independent eigenvectors"
        )
    for j in range(k):
        col = cols[:, j]
        col /= np.linalg.norm(col)
        mags = np.abs(col)
        lead = int(np.argmax(np.isclose(mags, mags.max(), rtol=1e-12, atol=0.0)))
        phase = col[lead]
        if np.abs(phase) > 0:
            col *= np.conj(phase) / np.abs(phase)
        cols[:, j] = col
    return cols


def rescale_spectrum(w: np.ndarray) -> np.ndarray:
    """Divide by the largest eigenvalue real part so it becomes exactly 1."""
    w = np.asarray(w)
    top = float(np.max(np.linalg.eigvals(w).real))
    if top <= 0.0:
        raise ValueError(
            f"largest eigenvalue real part is {top:.6g}; rescaling requires > 0"
        )
    return w / top
