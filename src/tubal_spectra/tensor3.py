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

Tensors, matrix slices and tubes share one text codec: a header picked by
``ndim`` from ``HEADERS``, a size line, then rows of 17-digit decimals.  Its
reader rejects another kind's header, bad sizes or rows, and non-finite values;
its writer rejects complex and non-finite values.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotBlockCirculant, ShapeError
from .tubal import descending_chain


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


def bcirc_inv(M, p):
    """Recover a tensor from its block-circulant embedding.

    ``p`` fixes the block grid.  Raises :class:`NotBlockCirculant` when the
    matrix deviates from the block circulant rebuilt from its first block
    column by more than ``1e-10`` (max-abs).
    """
    M = np.asarray(M, dtype=np.float64)
    if p <= 0 or M.ndim != 2 or M.shape[0] % p or M.shape[1] % p:
        raise ShapeError(
            f"matrix of shape {M.shape} does not split into a {p} x {p} "
            f"block grid")
    A = fold(M[:, :M.shape[1] // p], p).copy()
    residual = float(np.max(np.abs(M - bcirc(A))))
    if residual > 1e-10:
        raise NotBlockCirculant(
            f"matrix deviates from block-circulant structure by "
            f"{residual:.3e} (tol 1.000e-10)")
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


def unit_scaled(A):
    """``(A * 2^-e, e)``, where ``e`` is the binary exponent of ``max|A|``.

    The scaling is exact, and the scaled entries lie below 1 in magnitude,
    so norms of the scaled tensor neither overflow nor underflow.
    """
    e = math.frexp(float(np.max(np.abs(A))))[1]
    return np.ldexp(A, -e), e


def is_t_symmetric(A, tol=1e-10):
    """Whether ``||A - A^T||_F <= tol * ||A||_F``: the one T-symmetry gate.

    Both norms are taken of :func:`unit_scaled` ``A``, so the verdict does
    not depend on the scale of ``A``.
    """
    A, _ = unit_scaled(require_square(A))
    return bool(np.linalg.norm(A - transpose(A)) <= tol * np.linalg.norm(A))


def is_f_diagonal(S):
    """Whether every frontal slice is diagonal within 1e-10 relative to
    ``max|S|`` (max-abs), so the verdict does not depend on the scale."""
    S = as_tensor3(S)
    m, n, _ = S.shape
    off = ~np.eye(m, n, dtype=bool)
    return bool(np.max(np.abs(S[off, :]), initial=0.0)
                <= 1e-10 * np.max(np.abs(S)))


def is_standard_form(S):
    """Three-valued check that an f-diagonal tensor has ordered diagonal tubes.

    Returns the verdict of :func:`~tubal_spectra.tubal.descending_chain` on
    the diagonal tubes: ``True``, ``False`` or ``"incomparable"``.  Raises
    :class:`ShapeError` if ``S`` is not f-diagonal.
    """
    S = as_tensor3(S)
    if not is_f_diagonal(S):
        raise ShapeError("standard form is defined for f-diagonal tensors")
    j = np.arange(min(S.shape[0], S.shape[1]))
    return descending_chain(S[j, j])


# --- text serialization ----------------------------------------------------

#: Text format header of a tensor, a matrix slice and a tube, by ``ndim``.
HEADERS = {3: "T3 1", 2: "MAT 1", 1: "TUBE 1"}

#: The one number format, 17 significant digits: float64 values round-trip
#: exactly.  The writer and :func:`_fmt` both derive from it.
_FMT = "%.17g"
_fmt = _FMT.__mod__


def tensor3_text(X):
    """The text serialization of a tensor, matrix slice or tube ``X``.

    A tensor's rows come as its frontal slices, each after a blank line.
    The whole file is one :data:`_FMT` template, formatted once.
    """
    X = np.asarray(X)
    if np.iscomplexobj(X):
        raise ValueError("text files store real values only")
    if not np.isfinite(X).all():
        raise ValueError("text files store finite values only")
    if X.ndim not in HEADERS or X.size == 0:
        raise ShapeError(f"no text format for an array of shape {X.shape}")
    blocks = (X.transpose(2, 0, 1) if X.ndim == 3
              else X.reshape(1, -1, X.shape[-1]))
    nblocks, nrows, width = blocks.shape
    sep = "\n\n" if X.ndim == 3 else "\n"
    block = "\n".join([" ".join([_FMT] * width)] * nrows)
    template = (HEADERS[X.ndim] + "\n" + " ".join(map(str, X.shape)) + sep
                + sep.join([block] * nblocks) + "\n")
    return template % tuple(
        blocks.astype(np.float64, copy=False).ravel().tolist())


def write_tensor3(path, X):
    """Write ``X`` in the text format of its kind."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(tensor3_text(X))


def read_tensor3(path, ndim=3):
    """Read an ``ndim``-dimensional array written by :func:`write_tensor3`."""
    with open(path, "r", encoding="ascii") as fh:
        return tensor3_from_text(fh.read(), ndim, name=str(path))


def tensor3_from_text(text, ndim=3, name="<string>"):
    """Parse the text serialization of an ``ndim``-dimensional array.

    Blank lines are ignored; each error is a ``ValueError`` naming ``name``.
    """
    header = HEADERS[ndim]
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines or lines[0] != header:
        raise ValueError(f"{name}: expected {header!r} header")
    try:
        shape = tuple(int(tok) for tok in lines[1].split())
    except (IndexError, ValueError) as exc:
        raise ValueError(f"{name}: malformed size line: {exc}") from exc
    if len(shape) != ndim or min(shape) <= 0:
        raise ValueError(f"{name}: expected {ndim} positive sizes")
    # Rows are n wide in a tensor and p wide in a matrix slice or a tube.
    width = shape[1] if ndim == 3 else shape[-1]
    rows = lines[2:]
    if len(rows) != math.prod(shape) // width:
        raise ValueError(f"{name}: expected {math.prod(shape) // width} data "
                         f"rows, found {len(rows)}")
    tokens = []
    for r, row in enumerate(rows):
        values = row.split()
        if len(values) != width:
            raise ValueError(f"{name}: data row {r + 1} has {len(values)} "
                             f"values, expected {width}")
        tokens += values
    try:
        data = np.array(tokens, dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc
    if not np.isfinite(data).all():
        raise ValueError(f"{name}: non-finite value in data rows")
    if ndim == 3:  # the rows of a tensor are the rows of unfold(A)
        return np.ascontiguousarray(fold(data.reshape(-1, width), shape[2]))
    return data.reshape(shape)
