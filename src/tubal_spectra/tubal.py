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

This is the package's lowest module, so the one scale helper,
:func:`unit_scaled`, lives here, and every module above takes its
tolerances from it; :func:`checked_tol` refuses a user's tolerance that is
nan, infinite or negative, where every verdict that reads one reads it.
"""

from __future__ import annotations

import math
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


def unit_scaled(A):
    """``(A * 2^-e, e)``, where ``e`` is the binary exponent of ``max|A|``.

    The scaling is exact, and the scaled entries lie below 1 in magnitude,
    so norms of the scaled tensor neither overflow nor underflow.
    """
    e = math.frexp(float(np.max(np.abs(A))))[1]
    return np.ldexp(A, -e), e


def checked_tol(tol):
    """``tol``, or ``ValueError`` unless it is finite and nonnegative: a
    nan, infinite or negative tolerance would turn every verdict that reads
    it into a wrong label.  ``0`` is valid."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    return tol


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
    """Enumerate all real tubal square roots of a finite real tube ``b``.

    ``a (*) a = b`` is ``fft(a) ** 2 = fft(b)`` bin by bin, so each root
    takes, on every bin ``k <= p // 2`` of ``B = rfft(b)``, one of the two
    square roots of ``B[k]``; bins ``p - k`` follow by conjugate symmetry,
    and ``irfft`` makes the root real by construction.  With ``e`` the
    exponent of :func:`unit_scaled` ``b``, bins within ``1e-10 * 2^e`` of
    zero are zero, and a self-conjugate bin (``0`` and, for even ``p``,
    ``p/2``) below ``-1e-10 * 2^e`` has no real square root, so there is
    no root.  Otherwise there is one root per sign pattern on the nonzero
    bins, ``2 ** k`` for ``k`` of them, all distinct: the sign of bin 0 is
    the most significant, and ``+`` (the principal root) comes first.  A
    root whose residual ``max|a (*) a - b|`` exceeds ``1e-10 * 2^e`` is
    dropped.  The ``nonnegative`` flag is ``True`` when every entry of the
    root is ``>= -1e-10 * 2^e'``, ``e'`` the exponent of the root.
    """
    b = as_tube(b)
    if np.iscomplexobj(b):
        raise ValueError("tubal_sqrt_all expects a real tube")
    if not np.isfinite(b).all():
        raise ValueError("tubal_sqrt_all expects a finite tube: the tube "
                         "holds nan or inf")
    p = b.shape[0]
    tol = np.ldexp(1e-10, unit_scaled(b)[1])
    B = np.fft.rfft(b)
    if (B.real[[0, -1] if p % 2 == 0 else [0]] < -tol).any():
        return []
    B[np.abs(B) <= tol] = 0.0
    principal = np.sqrt(B)
    live = np.flatnonzero(principal)
    roots = []
    for signs in _iter_product((1.0, -1.0), repeat=live.size):
        half = principal.copy()
        half[live] *= signs
        a = np.fft.irfft(half, n=p)
        if np.max(np.abs(tube_mul(a, a) - b)) > tol:
            continue
        floor = np.ldexp(-1e-10, unit_scaled(a)[1])
        roots.append(SqrtRoot(a, bool(np.all(a >= floor))))
    return roots
