"""The tubal-scalar ring and its circulant-matrix representation.

A *tube* is a length-``p`` vector.  Tubes form a commutative ring under
entrywise addition and the product ``a (*) b = circ(a) @ b``, which is
circular convolution; the multiplicative unity is ``e = (1, 0, ..., 0)``.
``circ(a)`` is the ``p x p`` circulant matrix whose first column is ``a``,
so ``circ`` is a ring homomorphism onto circulant matrices and the DFT
diagonalizes every product.

The DFT convention is numpy's: unnormalized forward transform, inverse
scaled by ``1/p``.  The eigenvalues of ``circ(a)`` are exactly
``np.fft.fft(a)``.

Tubes also act on matrices: ``tube_action(a, X) = X @ circ(a)`` treats each
row of ``X`` as a tube and convolves it with ``a``.  Tube files are read
and written by the one text codec in :mod:`tubal_spectra.tensor3`.
"""

from __future__ import annotations

from itertools import product as _iter_product
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch

#: Sentinel returned by :func:`tube_le` when two tubes are not elementwise
#: comparable in either direction.
INCOMPARABLE = "incomparable"


def as_tube(a):
    """Coerce ``a`` to a 1-D tube array (float64, or complex128 if complex)."""
    a = np.asarray(a)
    if a.ndim != 1 or a.size == 0:
        raise DimensionMismatch(
            f"a tube must be a nonempty 1-D array, got shape {a.shape}")
    if np.iscomplexobj(a):
        return a.astype(np.complex128, copy=False)
    return a.astype(np.float64, copy=False)


def unit_tube(p):
    """The ring unity ``e = (1, 0, ..., 0)`` of length ``p``."""
    e = np.zeros(p)
    e[0] = 1.0
    return e


def circ(a):
    """Circulant matrix of ``a``: entry ``(i, j)`` is ``a[(i - j) % p]``."""
    a = as_tube(a)
    p = a.shape[0]
    idx = (np.arange(p)[:, None] - np.arange(p)[None, :]) % p
    return a[idx]


def _check_same_length(a, b):
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(
            f"tube lengths differ: {a.shape[0]} vs {b.shape[0]}")


def tube_add(a, b):
    """Ring addition (entrywise)."""
    a, b = as_tube(a), as_tube(b)
    _check_same_length(a, b)
    return a + b


def tube_mul(a, b):
    """Ring product ``circ(a) @ b`` (circular convolution, commutative)."""
    a, b = as_tube(a), as_tube(b)
    _check_same_length(a, b)
    return circ(a) @ b


def tube_action(a, X):
    """Act on the rows of ``X``: returns ``X @ circ(a)``.

    ``X`` must be 2-D with ``X.shape[1] == len(a)``.
    """
    a = as_tube(a)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {X.shape}")
    if X.shape[1] != a.shape[0]:
        raise DimensionMismatch(
            f"matrix has {X.shape[1]} columns but the tube has length "
            f"{a.shape[0]}")
    return X @ circ(a)


def tube_transpose(a):
    """Index reversal ``(a_1, a_p, a_{p-1}, ..., a_2)``.

    Satisfies ``circ(tube_transpose(a)) == circ(a).T``.
    """
    a = as_tube(a)
    return np.concatenate([a[:1], a[1:][::-1]])


def tube_le(a, b):
    """Three-valued elementwise comparison.

    Returns ``True`` if ``a <= b`` elementwise, ``False`` if ``b <= a``
    elementwise, and :data:`INCOMPARABLE` otherwise.  Equal tubes compare
    ``True``.
    """
    a, b = as_tube(a), as_tube(b)
    _check_same_length(a, b)
    if np.all(a <= b):
        return True
    if np.all(b <= a):
        return False
    return INCOMPARABLE


def descending_chain(tubes):
    """Three-valued check that each tube dominates the next elementwise.

    ``tubes`` is a ``(c, p)`` stack, one tube per row.  Returns ``True``
    when ``tubes[j + 1] <= tubes[j]`` for every adjacent pair,
    :data:`INCOMPARABLE` when some adjacent pair is not comparable, and
    ``False`` otherwise: the verdicts of :func:`tube_le` on the pairs, from
    one comparison of adjacent rows in each direction.
    """
    tubes = np.asarray(tubes)
    down = np.all(tubes[1:] <= tubes[:-1], axis=-1)
    if down.all():
        return True
    if not (down | np.all(tubes[:-1] <= tubes[1:], axis=-1)).all():
        return INCOMPARABLE
    return False


class SqrtRoot(NamedTuple):
    """One tubal square root, with a flag for elementwise nonnegativity."""

    tube: np.ndarray
    nonnegative: bool


def tubal_sqrt_all(b):
    """Enumerate all real tubal square roots of a real tube ``b``.

    Every root is a conjugate-symmetric choice of branch for the DFT values
    ``sqrt(fft(b))`` (principal square root or its negation, per bin), so
    at most ``2 ** (p // 2 + 1)`` sign patterns are tried.  Candidates whose
    inverse transform has an imaginary part above ``1e-10`` (max-abs), or
    whose defining residual ``max|a (*) a - b|`` exceeds ``1e-10``, are
    discarded; exact duplicates (which arise from zero bins) are removed.
    The ``nonnegative`` flag is ``True`` when every entry is ``>= -1e-10``.
    """
    b = as_tube(b)
    if np.iscomplexobj(b):
        raise ValueError("tubal_sqrt_all expects a real tube")
    p = b.shape[0]
    h = p // 2 + 1
    bh = np.fft.fft(b)
    principal = np.sqrt(bh[:h].astype(np.complex128))
    roots = []
    for signs in _iter_product((1.0, -1.0), repeat=h):
        full = np.zeros(p, dtype=np.complex128)
        full[:h] = np.asarray(signs) * principal
        for k in range(1, (p - 1) // 2 + 1):
            full[p - k] = np.conj(full[k])
        a = np.fft.ifft(full)
        if np.max(np.abs(a.imag)) > 1e-10:
            continue
        a = a.real
        if np.max(np.abs(tube_mul(a, a) - b)) > 1e-10:
            continue
        if any(np.array_equal(a, r.tube) for r in roots):
            continue
        roots.append(SqrtRoot(a, bool(np.all(a >= -1e-10))))
    return roots

