"""T-product calculus: the product of two tensors, and of a tensor and a
matrix slice.

``tprod`` is one batched matrix product of the two half-spectrum stacks
from :mod:`tubal_spectra.transform`, bin by bin, which equals the defining
block-circulant product ``fold(bcirc(A) @ unfold(B))``; the dense route
lives in :mod:`tubal_spectra.oracle` and the two are compared in the test
suite rather than merged.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor3 import as_matslice, as_tensor3
from .transform import from_freq, to_freq


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
    return from_freq(np.matmul(to_freq(A), to_freq(B)), A.shape[2])


def tprod_mat(A, X):
    """Apply ``A`` to a matrix slice: ``A * X`` with ``X`` as ``n x 1 x p``."""
    A = as_tensor3(A)
    X = as_matslice(X)
    if A.shape[1] != X.shape[0] or A.shape[2] != X.shape[1]:
        raise ShapeError(
            f"tensor of shape {A.shape} cannot act on a matrix slice of "
            f"shape {X.shape}")
    return tprod(A, X[:, None, :])[:, 0, :]
