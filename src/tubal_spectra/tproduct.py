"""T-product calculus: products, inverses, powers, orthogonality.

``tprod`` is one batched matrix product of the two half-spectrum stacks
from :mod:`tubal_spectra.transform`, bin by bin, which equals the defining
block-circulant product ``fold(bcirc(A) @ unfold(B))``; the dense route
lives in :mod:`tubal_spectra.oracle` and the two are compared in the test
suite rather than merged.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, Singular
from .tensor3 import as_matslice, as_tensor3, identity, require_square, transpose
from .transform import FreqSlices, freq_from_half, from_freq, to_freq


def tprod(A, B):
    """T-product ``A * B`` of ``(m, s, p)`` and ``(s, n, p)`` tensors."""
    A, B = as_tensor3(A), as_tensor3(B)
    if A.shape[1] != B.shape[0]:
        raise ShapeError(
            f"inner sizes differ: {A.shape} * {B.shape}")
    if A.shape[2] != B.shape[2]:
        raise ShapeError(
            f"tube lengths differ: {A.shape} * {B.shape}")
    # A product of half spectra is the half spectrum of the product.
    Ch = np.matmul(to_freq(A).half, to_freq(B).half)
    return from_freq(FreqSlices(Ch, A.shape[2]))


def tprod_mat(A, X):
    """Apply ``A`` to a matrix slice: ``A * X`` with ``X`` as ``n x 1 x p``."""
    A = as_tensor3(A)
    X = as_matslice(X)
    if A.shape[1] != X.shape[0] or A.shape[2] != X.shape[1]:
        raise ShapeError(
            f"tensor of shape {A.shape} cannot act on a matrix slice of "
            f"shape {X.shape}")
    return tprod(A, X[:, None, :])[:, 0, :]


def t_inverse(A, tol=1e-12):
    """T-product inverse of a square tensor.

    Inverts each frequency slice for ``k <= p // 2`` and mirrors.  Raises
    :class:`Singular` when a slice's smallest singular value falls at or
    below ``tol`` times its largest (or the slice is zero).
    """
    A = require_square(A)
    F = to_freq(A)
    half = np.empty_like(F.half)
    for k, M in enumerate(F.half):
        sigma = np.linalg.svd(M, compute_uv=False)
        cutoff = tol * float(sigma[0])
        if sigma[0] == 0.0 or float(sigma[-1]) <= cutoff:
            raise Singular(
                f"frequency slice {k} is singular within tolerance "
                f"(sigma_min {float(sigma[-1]):.3e}, cutoff {cutoff:.3e})",
                slice_index=k, sigma_min=float(sigma[-1]),
                sigma_max=float(sigma[0]), cutoff=cutoff)
        half[k] = np.linalg.inv(M)
    return from_freq(freq_from_half(half, F.p))


def t_power(A, k):
    """``k``-fold T-product ``A * A * ... * A`` for integer ``k >= 1``."""
    A = require_square(A)
    if int(k) != k or k < 1:
        raise ValueError(f"power must be a positive integer, got {k!r}")
    out = A.copy()
    for _ in range(int(k) - 1):
        out = tprod(out, A)
    return out


def is_orthogonal(U, tol=1e-10):
    """Whether ``U^T * U`` is the identity tensor within ``tol * sqrt(n p)``."""
    U = require_square(U)
    n, _, p = U.shape
    G = tprod(transpose(U), U)
    return bool(np.linalg.norm(G - identity(n, p)) <= tol * np.sqrt(n * p))
