"""Numpy-only tensor routines for the benchmark's generator and checker.

Nothing here imports ``tubal_spectra``: the checker must not trust the code
it checks.  Products go through a dense block-circulant matrix built here,
so they share no FFT code with the program's fast path.

A tensor is a real ``(m, n, p)`` array with frontal slice ``k`` at
``A[:, :, k]``; the text format is the program's ``T3 1`` format (header,
``m n p`` line, then ``p`` slices of ``m`` rows).
"""

from __future__ import annotations

import numpy as np


def t3_text(A):
    """Serialize ``A`` in the ``T3 1`` format with 17 significant digits."""
    m, n, p = A.shape
    row = " ".join(["%.17g"] * n)
    slices = ("\n".join(row % tuple(r) for r in A[:, :, k].tolist())
              for k in range(p))
    return f"T3 1\n{m} {n} {p}\n" + "\n\n".join(slices) + "\n"


def read_t3(text):
    """Parse a ``T3 1`` block; raises ``ValueError`` on any malformation."""
    tokens = text.split()
    if tokens[:2] != ["T3", "1"] or len(tokens) < 5:
        raise ValueError("expected a 'T3 1' header and a size line")
    m, n, p = (int(t) for t in tokens[2:5])
    values = np.array(tokens[5:], dtype=np.float64)
    if min(m, n, p) <= 0 or values.size != m * n * p:
        raise ValueError(f"expected {m}x{n}x{p} values, found {values.size}")
    return values.reshape(p, m, n).transpose(1, 2, 0)


def transpose(A):
    """Tensor transpose: each slice transposed, slices 2..p reversed."""
    return np.roll(A[:, :, ::-1], 1, axis=2).transpose(1, 0, 2)


def bcirc(A):
    """Dense block-circulant matrix.

    Block ``(i, j)`` is frontal slice ``(i - j) % p``.
    """
    m, n, p = A.shape
    idx = (np.arange(p)[:, None] - np.arange(p)[None, :]) % p
    blocks = A.transpose(2, 0, 1)[idx]          # (p, p, m, n)
    return blocks.transpose(0, 2, 1, 3).reshape(m * p, n * p)


def unfold(A):
    m, n, p = A.shape
    return A.transpose(2, 0, 1).reshape(m * p, n)


def fold(M, p):
    return M.reshape(p, M.shape[0] // p, M.shape[1]).transpose(1, 2, 0)


def tprod(A, B):
    """T-product by the defining dense route ``fold(bcirc(A) @ unfold(B))``."""
    return fold(bcirc(A) @ unfold(B), A.shape[2])


def quadform(A, X):
    """Tube ``F_A(X) = X^T * A * X`` for an ``(n, p)`` matrix slice ``X``.

    ``Y = A * X`` comes from the dense product; component ``r`` of
    ``X^T * Y`` is ``sum_ij X[i, j] Y[i, (j + r) % p]``.
    """
    Y = tprod(A, X[:, None, :])[:, 0, :]
    p = X.shape[1]
    return np.array([float(np.sum(X * np.roll(Y, -r, axis=1)))
                     for r in range(p)])


def min_frequency_eigenvalue(A):
    """Smallest eigenvalue over the Hermitian frequency slices of ``A``."""
    F = np.fft.fft(A, axis=2)
    return float(min(np.linalg.eigvalsh(F[:, :, k]).min()
                     for k in range(A.shape[2])))


def relative(diff, ref):
    """``||diff||_F / max(1, ||ref||_F)``."""
    return float(np.linalg.norm(diff)) / max(1.0, float(np.linalg.norm(ref)))
