"""Third-mode DFT bridge between spatial tensors and per-frequency slices.

``to_freq`` applies the unnormalized DFT along the tube dimension and
returns the ``p`` complex frontal slices that block-diagonalize ``bcirc``.
Real input makes the slices conjugate-symmetric, ``F_{p-k} = conj(F_k)``;
this symmetry is enforced *exactly* by construction: only bins
``k <= p // 2`` are computed, the self-conjugate bins (``k = 0`` and, for
even ``p``, ``k = p/2``) have their imaginary parts zeroed, and the rest
are mirrored.  ``from_freq`` validates the symmetry and inverts through the
half-spectrum transform, so the reconstruction is real by construction
rather than by cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ImaginaryResidual, ShapeError, SymmetryViolation
from .tensor3 import as_tensor3


@dataclass(frozen=True)
class FreqSlices:
    """The ``p`` complex frequency slices of a tensor, stored as ``(m, n, p)``."""

    slices: np.ndarray

    @property
    def m(self):
        return self.slices.shape[0]

    @property
    def n(self):
        return self.slices.shape[1]

    @property
    def p(self):
        return self.slices.shape[2]

    def slice(self, k):
        """Frequency slice ``k`` as an ``(m, n)`` complex matrix."""
        return self.slices[:, :, k]

    def pair_residual(self):
        """Max deviation from ``F_{p-k} = conj(F_k)`` over mirrored pairs."""
        p = self.p
        k = _mirrored_bins(p)
        delta = self.slices[:, :, p - k] - np.conj(self.slices[:, :, k])
        return float(np.max(np.abs(delta), initial=0.0))

    def real_bin_residual(self):
        """Max imaginary magnitude on the self-conjugate bins."""
        worst = float(np.max(np.abs(self.slices[:, :, 0].imag)))
        if self.p % 2 == 0:
            half = self.slices[:, :, self.p // 2].imag
            worst = max(worst, float(np.max(np.abs(half))))
        return worst

    def symmetry_residual(self):
        """Max of the pair and self-conjugate-bin residuals."""
        return max(self.pair_residual(), self.real_bin_residual())


def _mirrored_bins(p):
    """Bins ``k`` with ``0 < k < p - k``, whose conjugates sit at ``p - k``."""
    return np.arange(1, (p - 1) // 2 + 1)


def freq_from_half(half, p):
    """Assemble conjugate-symmetric :class:`FreqSlices` from bins ``0..p//2``.

    The self-conjugate bins are coerced to real, so the result satisfies the
    symmetry exactly.
    """
    half = np.asarray(half, dtype=np.complex128)
    if half.ndim != 3 or half.shape[2] != p // 2 + 1:
        raise ShapeError(
            f"expected {p // 2 + 1} half-spectrum slices, got shape "
            f"{half.shape}")
    m, n, _ = half.shape
    full = np.zeros((m, n, p), dtype=np.complex128)
    full[:, :, :half.shape[2]] = half
    full[:, :, 0] = full[:, :, 0].real
    if p % 2 == 0:
        full[:, :, p // 2] = full[:, :, p // 2].real
    k = _mirrored_bins(p)
    full[:, :, p - k] = np.conj(full[:, :, k])
    return FreqSlices(full)


def to_freq(A):
    """Frequency slices of a real tensor, with exact conjugate symmetry."""
    A = as_tensor3(A)
    return freq_from_half(np.fft.rfft(A, axis=2), A.shape[2])


def from_freq(F, tol=1e-10):
    """Invert :func:`to_freq`, validating the conjugate symmetry.

    Raises :class:`SymmetryViolation` when a mirrored pair mismatches by
    more than ``tol`` (max-abs) and :class:`ImaginaryResidual` when a
    self-conjugate bin carries imaginary mass above ``tol``.  The result is
    computed from bins ``0..p//2`` by the inverse half-spectrum transform,
    so it is exactly real.
    """
    if not isinstance(F, FreqSlices):
        F = FreqSlices(np.asarray(F, dtype=np.complex128))
    residual = F.pair_residual()
    if residual > tol:
        raise SymmetryViolation(
            f"mirrored frequency slices differ by {residual:.3e} "
            f"(tol {tol:.3e})")
    residual = F.real_bin_residual()
    if residual > tol:
        raise ImaginaryResidual(
            f"self-conjugate frequency bins carry imaginary mass "
            f"{residual:.3e} (tol {tol:.3e})")
    p = F.p
    return np.fft.irfft(F.slices[:, :, :p // 2 + 1], n=p, axis=2)


def hermitize_check(F, tol=1e-10):
    """Whether every frequency slice is Hermitian within ``tol`` (max-abs)."""
    if F.m != F.n:
        raise ShapeError(
            f"Hermitian check requires square slices, got {F.m} x {F.n}")
    S = F.slices
    return float(np.max(np.abs(S - S.conj().transpose(1, 0, 2)))) <= tol
