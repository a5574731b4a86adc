"""Third-mode DFT bridge between spatial tensors and per-frequency slices.

``to_freq`` applies the unnormalized DFT along the tube dimension; its
``p`` complex frontal slices block-diagonalize ``bcirc``.  Real input makes
the slices conjugate-symmetric, ``F_{p-k} = conj(F_k)``, so ``to_freq``
returns only bins ``k <= p // 2``, as one ``(p // 2 + 1, m, n)`` complex
stack that batched ``@``, ``eigh`` and ``svd`` read.  The self-conjugate
bins (``k = 0`` and, for even ``p``, ``k = p/2``) have their imaginary
parts zeroed, so the symmetry is exact by construction.  ``from_freq``
inverts with one ``irfft``, so the result is real by construction rather
than by cancellation.  This module alone knows the bin layout
(``_factor_half``, ``_full_spectrum``, ``_norm``) and calls ``rfft`` and
``irfft``.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor3 import as_tensor3


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
    """The conjugate-symmetric half spectrum from the stack of bins
    ``0..p//2``: a C-ordered complex copy whose self-conjugate bins are
    coerced to real, so that the symmetry holds exactly.
    """
    # C order: to_freq passes a transposed view, and batched @ reads the
    # stack.
    half = np.array(half, dtype=np.complex128, order="C")
    if half.ndim != 3 or half.shape[0] != p // 2 + 1:
        raise ShapeError(
            f"expected {p // 2 + 1} half-spectrum slices, got shape "
            f"{half.shape}")
    half.imag[_real_bins(p)] = 0.0
    return half


def to_freq(A):
    """The half spectrum of a real tensor, with exact conjugate symmetry;
    ``ValueError`` if the tensor holds nan or inf or its transform
    overflows."""
    A = as_tensor3(A)
    half = freq_from_half(np.fft.rfft(A, axis=2).transpose(2, 0, 1),
                          A.shape[2])
    if not np.isfinite(half).all():
        raise ValueError("frequency spectrum overflows: the transform of "
                         "the tensor is not finite")
    return half


def from_freq(half, p):
    """Invert :func:`to_freq` by one inverse half-spectrum transform of the
    stack ``half`` of a tensor with ``p`` frontal slices.

    The result is the ``(p, m, n)`` output of the transform seen as
    ``(m, n, p)``, so its frontal slices are contiguous.
    """
    return np.fft.irfft(half, n=p, axis=0).transpose(1, 2, 0)


def _factor_half(factor, half, p):
    """``factor`` of the half spectrum ``half``, as one stack per output
    over bins ``0..p//2``.

    ``factor`` is called twice: on the self-conjugate bins as one real
    stack, and on the other bins as one complex stack, even when there are
    none (``p <= 2``), so that its complex outputs stay complex.
    """
    real = factor(half[_real_bins(p)].real)
    other = factor(half[_mirrored_bins(p)])
    # Bin order: 0, then the mirrored bins, then p/2 when p is even.
    return [np.concatenate((r[:1], c, r[1:])) for r, c in zip(real, other)]


def _full_spectrum(values, p):
    """Per-bin values ``(p // 2 + 1, c)`` as a ``(c, p)`` array over all
    ``p`` bins: bin ``k`` reads stored bin ``min(k, p - k)``."""
    k = np.arange(p)
    return values[np.minimum(k, p - k)].T


def _norm(half, p, axis=None):
    """``np.linalg.norm`` of the real tensor with half spectrum ``half``,
    after one inverse transform; ``axis=(0, 2)`` gives the norms of its
    lateral slices."""
    return np.linalg.norm(from_freq(half, p), axis=axis)


def hermitize_check(half, tol=1e-10):
    """Whether every frequency slice is Hermitian within ``tol`` (max-abs).

    Bins ``0..p//2`` of the half spectrum ``half`` suffice: the conjugate
    of a slice is Hermitian exactly when the slice is.  Kept only because
    the perfbench tracer binds it.
    """
    _, m, n = half.shape
    if m != n:
        raise ShapeError(
            f"Hermitian check requires square slices, got {m} x {n}")
    return float(np.max(np.abs(half - _ct(half)))) <= tol
