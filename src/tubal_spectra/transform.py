"""Third-mode DFT bridge between spatial tensors and per-frequency slices.

``to_freq`` applies the unnormalized DFT along the tube dimension; its
``p`` complex frontal slices block-diagonalize ``bcirc``.  Real input makes
the slices conjugate-symmetric, ``F_{p-k} = conj(F_k)``, so a
:class:`FreqSlices` stores only bins ``k <= p // 2``, as the one
``(p // 2 + 1, m, n)`` stack that batched ``@``, ``eigh`` and ``svd`` read,
and reads the others as conjugates.  The self-conjugate bins (``k = 0``
and, for even ``p``, ``k = p/2``) have their imaginary parts zeroed, so
the symmetry is exact by construction.  ``from_freq`` inverts with one
inverse half-spectrum transform, so the result is real by construction
rather than by cancellation.  No other fast-path module calls ``rfft`` or
``irfft``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor3 import as_tensor3


@dataclass(frozen=True)
class FreqSlices:
    """The ``p`` frequency slices of a real ``(m, n, p)`` tensor, stored as
    bins ``0..p//2`` in a ``(p // 2 + 1, m, n)`` complex stack ``half``:
    ``half[k]`` is slice ``k``."""

    half: np.ndarray
    p: int


def _mirrored_bins(p):
    """Bins ``k`` with ``0 < k < p - k``, whose conjugates sit at ``p - k``."""
    return np.arange(1, (p - 1) // 2 + 1)


def _real_bins(p):
    """The self-conjugate bins: ``0`` and, for even ``p``, ``p/2``."""
    return [0, p // 2] if p % 2 == 0 else [0]


def _ct(Xh):
    """Per-bin conjugate transpose: the half spectrum of ``X^T``."""
    return Xh.conj().swapaxes(1, 2)


def freq_from_half(half, p):
    """Conjugate-symmetric :class:`FreqSlices` from the stack of bins
    ``0..p//2``.

    The self-conjugate bins are coerced to real, so the result satisfies the
    symmetry exactly.
    """
    # C order: callers pass transposed views, and batched @ reads the stack.
    half = np.array(half, dtype=np.complex128, order="C")
    if half.ndim != 3 or half.shape[0] != p // 2 + 1:
        raise ShapeError(
            f"expected {p // 2 + 1} half-spectrum slices, got shape "
            f"{half.shape}")
    half.imag[_real_bins(p)] = 0.0
    return FreqSlices(half, p)


def to_freq(A):
    """Frequency slices of a real tensor, with exact conjugate symmetry;
    ``ValueError`` if the tensor holds nan or inf or its transform
    overflows."""
    A = as_tensor3(A)
    F = freq_from_half(np.fft.rfft(A, axis=2).transpose(2, 0, 1), A.shape[2])
    if not np.isfinite(F.half).all():
        raise ValueError("frequency spectrum overflows: the transform of "
                         "the tensor is not finite")
    return F


def from_freq(F):
    """Invert :func:`to_freq` by one inverse half-spectrum transform of the
    :class:`FreqSlices` ``F``.

    The result is the ``(p, m, n)`` output of the transform seen as
    ``(m, n, p)``, so its frontal slices are contiguous.
    """
    return np.fft.irfft(F.half, n=F.p, axis=0).transpose(1, 2, 0)


def hermitize_check(F, tol=1e-10):
    """Whether every frequency slice is Hermitian within ``tol`` (max-abs).

    Bins ``0..p//2`` suffice: the conjugate of a slice is Hermitian exactly
    when the slice is.  Kept only because the perfbench tracer binds it.
    """
    S = F.half
    _, m, n = S.shape
    if m != n:
        raise ShapeError(
            f"Hermitian check requires square slices, got {m} x {n}")
    return float(np.max(np.abs(S - _ct(S)))) <= tol
