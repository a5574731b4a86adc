"""Dense third-order tensors, their block-circulant embedding, and slice plumbing.

A tensor is a real ``(m, n, p)`` array; frontal slice ``k`` is ``A[:, :, k]``.
``bcirc(A)`` is the ``mp x np`` block-circulant matrix whose block ``(i, j)``
is frontal slice ``(i - j) % p``, and ``unfold``/``fold`` stack frontal
slices so that ``A * B = fold(bcirc(A) @ unfold(B))`` defines the T-product.

A *matrix slice* is an ``(n, p)`` matrix identified with an ``n x 1 x p``
tensor: column ``j`` of the matrix is frontal slice ``j`` of the tensor.
``unfold_mat`` flattens it to the length ``n*p`` vector ``bcirc`` acts on,
and ``shift_columns`` implements the cyclic column shift ``X -> X^[k]``.

The tensor transpose reverses the order of frontal slices 2..p and
transposes each one, so that ``bcirc(transpose(A)) == bcirc(A).T``.
"""

from __future__ import annotations

import numpy as np

from .errors import NotBlockCirculant, ShapeError
from .tubal import INCOMPARABLE, tube_le, _fmt


def as_tensor3(A):
    """Coerce ``A`` to a real float64 ``(m, n, p)`` array."""
    try:
        A = np.asarray(A, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"expected a real tensor: {exc}") from exc
    if A.ndim != 3 or min(A.shape) == 0:
        raise ShapeError(
            f"expected a nonempty third-order tensor, got shape {A.shape}")
    return A


def as_matslice(X):
    """Coerce ``X`` to a real float64 ``(n, p)`` matrix slice."""
    try:
        X = np.asarray(X, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"expected a real matrix: {exc}") from exc
    if X.ndim != 2 or min(X.shape) == 0:
        raise ShapeError(
            f"expected a nonempty 2-D matrix, got shape {X.shape}")
    return X


def require_square(A):
    """Validate that the frontal slices of ``A`` are square."""
    A = as_tensor3(A)
    if A.shape[0] != A.shape[1]:
        raise ShapeError(
            f"expected square frontal slices, got shape {A.shape}")
    return A


def bcirc(A):
    """Block-circulant embedding of ``A`` (an ``mp x np`` matrix)."""
    A = as_tensor3(A)
    m, n, p = A.shape
    idx = (np.arange(p)[:, None] - np.arange(p)[None, :]) % p
    # A[:, :, idx][a, b, i, j] is entry (a, b) of block (i, j).
    return A[:, :, idx].transpose(2, 0, 3, 1).reshape(m * p, n * p)


def bcirc_inv(M, p, tol=1e-10):
    """Recover a tensor from its block-circulant embedding.

    ``p`` fixes the block grid.  Raises :class:`NotBlockCirculant` when the
    matrix deviates from the block circulant rebuilt from its first block
    column by more than ``tol`` (max-abs).
    """
    M = np.asarray(M, dtype=np.float64)
    if p <= 0 or M.ndim != 2 or M.shape[0] % p or M.shape[1] % p:
        raise ShapeError(
            f"matrix of shape {M.shape} does not split into a {p} x {p} "
            f"block grid")
    m, n = M.shape[0] // p, M.shape[1] // p
    A = np.empty((m, n, p))
    for k in range(p):
        A[:, :, k] = M[k * m:(k + 1) * m, :n]
    residual = float(np.max(np.abs(M - bcirc(A))))
    if residual > tol:
        raise NotBlockCirculant(
            f"matrix deviates from block-circulant structure by "
            f"{residual:.3e} (tol {tol:.3e})")
    return A


def unfold(A):
    """Stack frontal slices vertically into an ``mp x n`` matrix."""
    A = as_tensor3(A)
    m, n, p = A.shape
    return A.transpose(2, 0, 1).reshape(m * p, n)


def fold(M, p):
    """Inverse of :func:`unfold` for a known slice count ``p``."""
    M = np.asarray(M, dtype=np.float64)
    if p <= 0 or M.ndim != 2 or M.shape[0] % p:
        raise ShapeError(
            f"cannot fold a matrix of shape {M.shape} into {p} frontal "
            f"slices")
    m = M.shape[0] // p
    return M.reshape(p, m, M.shape[1]).transpose(1, 2, 0)


def unfold_mat(X):
    """Flatten a matrix slice column-by-column into a length ``n*p`` vector."""
    X = as_matslice(X)
    return X.T.reshape(-1)


def fold_mat(v, p):
    """Inverse of :func:`unfold_mat`: reshape a vector into ``(n, p)``."""
    v = np.asarray(v, dtype=np.float64)
    if p <= 0 or v.ndim != 1 or v.size % p:
        raise ShapeError(
            f"cannot fold a vector of size {v.shape} into {p} columns")
    return v.reshape(p, v.size // p).T


def shift_columns(X, k):
    """Cyclic column shift ``X^[k]`` (columns move right by ``k``)."""
    return np.roll(as_matslice(X), int(k), axis=1)


def transpose(A):
    """Tensor transpose: slice 1 transposed, slices 2..p transposed and reversed."""
    A = as_tensor3(A)
    m, n, p = A.shape
    out = np.empty((n, m, p))
    out[:, :, 0] = A[:, :, 0].T
    for k in range(1, p):
        out[:, :, k] = A[:, :, p - k].T
    return out


def identity(n, p):
    """T-product identity: slice 1 is ``I_n``, the rest are zero."""
    if n <= 0 or p <= 0:
        raise ShapeError(f"identity requires positive sizes, got {n}, {p}")
    E = np.zeros((n, n, p))
    E[:, :, 0] = np.eye(n)
    return E


def is_t_symmetric(A, tol=None):
    """Whether ``A`` equals its tensor transpose within ``tol`` (max-abs).

    With ``tol=None`` the tolerance is ``1e-10 * max|A|``.
    """
    A = require_square(A)
    if tol is None:
        tol = 1e-10 * float(np.max(np.abs(A)))
    return bool(np.max(np.abs(A - transpose(A))) <= tol)


def is_f_diagonal(S, tol=1e-10):
    """Whether every frontal slice is diagonal within ``tol`` (max-abs)."""
    S = as_tensor3(S)
    m, n, _ = S.shape
    off = ~np.eye(m, n, dtype=bool)
    return bool(np.max(np.abs(S[off, :]), initial=0.0) <= tol)


def is_standard_form(S, tol=1e-10):
    """Three-valued check that an f-diagonal tensor has ordered diagonal tubes.

    Returns ``True`` when each diagonal tube dominates the next elementwise,
    ``False`` when the chain is comparable but violated, and
    :data:`INCOMPARABLE` when some adjacent pair is not elementwise
    comparable.  Raises :class:`ShapeError` if ``S`` is not f-diagonal.
    """
    S = as_tensor3(S)
    if not is_f_diagonal(S, tol):
        raise ShapeError("standard form is defined for f-diagonal tensors")
    r = min(S.shape[0], S.shape[1])
    verdicts = [tube_le(S[j + 1, j + 1, :], S[j, j, :]) for j in range(r - 1)]
    if all(v is True for v in verdicts):
        return True
    if any(v == INCOMPARABLE for v in verdicts):
        return INCOMPARABLE
    return False


# --- text serialization ----------------------------------------------------

def write_tensor3(path, A):
    """Write ``A`` in the tensor text format (``T3 1`` header)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(tensor3_text(A))


def tensor3_text(A):
    """The tensor text serialization as a string."""
    A = as_tensor3(A)
    m, n, p = A.shape
    chunks = [f"T3 1\n{m} {n} {p}"]
    for k in range(p):
        rows = "\n".join(
            " ".join(_fmt(v) for v in A[i, :, k]) for i in range(m))
        chunks.append(rows)
    return "\n\n".join(chunks) + "\n"


def read_tensor3(path):
    """Read a tensor written by :func:`write_tensor3`."""
    with open(path, "r", encoding="ascii") as fh:
        return tensor3_from_text(fh.read(), name=str(path))


def tensor3_from_text(text, name="<string>"):
    """Parse the tensor text serialization."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "T3 1":
        raise ValueError(f"{name}: expected 'T3 1' header")
    try:
        m, n, p = (int(tok) for tok in lines[1].split())
    except (IndexError, ValueError) as exc:
        raise ValueError(f"{name}: malformed size line: {exc}") from exc
    if m <= 0 or n <= 0 or p <= 0:
        raise ValueError(f"{name}: sizes must be positive, got {m} {n} {p}")
    rows = lines[2:]
    if len(rows) != m * p:
        raise ValueError(
            f"{name}: expected {m * p} data rows, found {len(rows)}")
    A = np.empty((m, n, p))
    for k in range(p):
        for i in range(m):
            values = rows[k * m + i].split()
            if len(values) != n:
                raise ValueError(
                    f"{name}: slice {k + 1} row {i + 1} has {len(values)} "
                    f"values, expected {n}")
            A[i, :, k] = [float(tok) for tok in values]
    return A


def write_matslice(path, X):
    """Write a matrix slice in the matrix text format (``MAT 1`` header)."""
    X = as_matslice(X)
    n, p = X.shape
    rows = "\n".join(" ".join(_fmt(v) for v in X[i]) for i in range(n))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"MAT 1\n{n} {p}\n{rows}\n")


def read_matslice(path):
    """Read a matrix slice written by :func:`write_matslice`."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh.read().splitlines() if ln.strip()]
    if not lines or lines[0] != "MAT 1":
        raise ValueError(f"{path}: expected 'MAT 1' header")
    try:
        n, p = (int(tok) for tok in lines[1].split())
    except (IndexError, ValueError) as exc:
        raise ValueError(f"{path}: malformed size line: {exc}") from exc
    rows = lines[2:]
    if n <= 0 or p <= 0 or len(rows) != n:
        raise ValueError(f"{path}: expected {n} data rows, found {len(rows)}")
    X = np.empty((n, p))
    for i in range(n):
        values = rows[i].split()
        if len(values) != p:
            raise ValueError(
                f"{path}: row {i + 1} has {len(values)} values, expected {p}")
        X[i] = [float(tok) for tok in values]
    return X
