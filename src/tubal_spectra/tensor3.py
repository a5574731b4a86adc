"""Dense third-order tensors, their block-circulant embedding, and slice plumbing.

A tensor is a real ``(m, n, p)`` array; frontal slice ``k`` is ``A[:, :, k]``.
``bcirc(A)`` is the ``mp x np`` block-circulant matrix whose block ``(i, j)``
is frontal slice ``(i - j) % p``, and ``unfold``/``fold`` stack frontal
slices so that ``A * B = fold(bcirc(A) @ unfold(B))`` defines the T-product.

A *matrix slice* is an ``(n, p)`` matrix identified with an ``n x 1 x p``
tensor: column ``j`` of the matrix is frontal slice ``j`` of the tensor.
``unfold_mat`` flattens it to the length ``n*p`` vector ``bcirc`` acts on,
and ``shift_columns`` implements the cyclic column shift ``X -> X^[k]``.
``as_tensor3`` and ``as_matslice`` share one coercer, and ``form_operands``
is the one check that a matrix slice fits a T-square tensor.

The tensor transpose reverses the order of frontal slices 2..p and
transposes each one, so that ``bcirc(transpose(A)) == bcirc(A).T``.  On
tubes that is the index map ``k -> -k mod p``, one gather.

Tensors, matrix slices and tubes share one text codec: a header picked by
``ndim`` from ``HEADERS``, a size line, then rows of 17-digit decimals.  Its
reader rejects another kind's header, bad sizes or rows, and non-finite values;
its writer rejects complex and non-finite values, in :func:`_body`.

The reader has two paths, and the text picks one.  ASCII text that opens
with the header and size line as the writer writes them, holds at least one
data token, no control character but ``\\n`` and no ``n``, ``N``, ``x``
or ``X``, goes to one ``np.fromstring`` parse into long doubles,
which converts each token with the C library's correctly rounded
``strtold``, and a cast to float64.  The cast rounds a second time, which
can differ from ``float``'s one rounding only where the long double lies
exactly half-way between two doubles.  The result is used if every nonblank
line holds a row's width of values, as many lines as the shape has rows,
all finite, and no value lies on such a midpoint.  Everything else, and
every text ``np.fromstring`` cannot read to its end, goes whole to the
exact reader, which splits lines and tokens with ``str.splitlines`` and
``str.split`` and parses with ``float``: it accepts ``float``'s full grammar
(``1_0.5``) and raises the documented errors.

The writer, :func:`tensor3_text` and :func:`text_rows` (the rows of a 1-D or
2-D array, as the CLI prints its results), has one body builder, :func:`_body`,
and only it picks how values are formatted: with ``%.17g`` one by one below
:data:`_SMALL` values, where that is faster, else in numpy, byte-identical to
``%.17g``.  For a nonzero ``x`` with ``e = floor(log10|x|)``, it forms
``q = |x| * 10^(16 - e)`` in ``[1e16, 1e17)`` as a double-double: Dekker's
exact product of the ``frexp`` mantissa with a table row
``10^s = (hi + lo) * 2^b``, then an exact power-of-two scale.  ``round(q)``
gives the 17 digits; rows where ``log10`` missed by one are rescaled once.
``q`` is within about 1e-14 of exact, so a value whose ``q`` lies within 1e-6
of a half-integer, such as an exact tie that ``%.17g`` rounds to even, is
formatted with ``%.17g`` itself.  Each value then becomes one NUL-padded row
laid out as ``%.17g`` lays it out (fixed notation for exponents -4 to 16, else
exponent notation with a signed exponent of at least two digits; trailing zeros
and a bare point stripped), ending with its separator, and one
``bytes.translate`` drops the padding.  Values go in chunks of
:data:`_CHUNK`, so that no temporary of the arithmetic exceeds about 1 MB.
An array with a zero gets one row array of the widest layout, ``0`` or
``-0`` in every row, and only its nonzero values, chunk by chunk, go
through the arithmetic and are scattered into it.
"""

from __future__ import annotations

import functools
import math
import re

import numpy as np

from .errors import NotBlockCirculant, ShapeError
from .tubal import checked_tol, descending_chain, unit_scaled


def _coerced(X, ndim, noun, kind):
    """``X`` as a nonempty real float64 array of ``ndim`` dimensions, else
    :class:`ShapeError` naming ``noun`` (what ``X`` failed to convert to) or
    ``kind`` (the shape it lacks)."""
    try:
        X = np.asarray(X, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"expected a real {noun}: {exc}") from exc
    if X.ndim != ndim or min(X.shape) == 0:
        raise ShapeError(f"expected a nonempty {kind}, got shape {X.shape}")
    return X


def as_tensor3(A):
    """Coerce ``A`` to a real float64 ``(m, n, p)`` array."""
    return _coerced(A, 3, "tensor", "third-order tensor")


def as_matslice(X):
    """Coerce ``X`` to a real float64 ``(n, p)`` matrix slice."""
    return _coerced(X, 2, "matrix", "2-D matrix")


def require_square(A):
    """Validate that the frontal slices of ``A`` are square."""
    A = as_tensor3(A)
    if A.shape[0] != A.shape[1]:
        raise ShapeError(
            f"expected square frontal slices, got shape {A.shape}")
    return A


def form_operands(A, X):
    """The operands of a T-quadratic form: ``A`` as a T-square ``(n, n,
    p)`` tensor (:func:`require_square`) and ``X`` as an ``(n, p)`` matrix
    slice of its size, else :class:`ShapeError`."""
    A, X = require_square(A), as_matslice(X)
    if X.shape != (A.shape[0], A.shape[2]):
        raise ShapeError(
            f"matrix slice of shape {X.shape} does not match tensor of "
            f"shape {A.shape}")
    return A, X


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
    column by more than ``1e-10 * 2^e`` (max-abs), ``e`` the exponent of
    :func:`unit_scaled` ``M``, so the verdict does not depend on the scale,
    and ``ValueError`` when ``M`` holds nan or inf.
    """
    M = np.asarray(M, dtype=np.float64)
    if p <= 0 or M.ndim != 2 or M.shape[0] % p or M.shape[1] % p:
        raise ShapeError(
            f"matrix of shape {M.shape} does not split into a {p} x {p} "
            f"block grid")
    if not np.isfinite(M).all():
        raise ValueError("bcirc_inv expects a finite matrix: the matrix "
                         "holds nan or inf")
    A = fold(M[:, :M.shape[1] // p], p).copy()
    residual = float(np.max(np.abs(M - bcirc(A))))
    tol = np.ldexp(1e-10, unit_scaled(M)[1])
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
    """Tensor transpose: slice 1 transposed, slices 2..p transposed and reversed.

    One gather, tube index ``k`` from ``-k mod p``, into a new array, which
    is not in C order."""
    A = as_tensor3(A)
    p = A.shape[2]
    return A.transpose(1, 0, 2)[:, :, -np.arange(p) % p]


def identity(n, p):
    """T-product identity: slice 1 is ``I_n``, the rest are zero."""
    if n <= 0 or p <= 0:
        raise ShapeError(f"identity requires positive sizes, got {n}, {p}")
    E = np.zeros((n, n, p))
    E[:, :, 0] = np.eye(n)
    return E


def is_t_symmetric(A, tol=1e-10):
    """Whether ``||A - A^T||_F <= tol * ||A||_F``: the one T-symmetry gate.

    Both norms are taken of :func:`unit_scaled` ``A``, so the verdict does
    not depend on the scale of ``A``.  ``tol`` must be finite and
    nonnegative (:func:`~tubal_spectra.tubal.checked_tol`), else
    ``ValueError``.
    """
    A, _ = unit_scaled(require_square(A))
    tol = checked_tol(tol)
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
#: exactly.  :func:`_fmt` formats CLI scalars with it, and the writer arrays
#: of fewer than :data:`_SMALL` values.  On larger ones it computes the same
#: bytes in numpy and uses it only within 1e-6 of a rounding tie.
_FMT = "%.17g"
_fmt = _FMT.__mod__


_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into 26-bit halves


@functools.cache
def _pow10():
    """``(hi, hh, hl, lo, b)`` in row ``e + 325`` for the decimal exponents
    ``e`` of every finite nonzero float64, -324..308, and one more on each
    side: with ``s = 16 - e``, ``10^s = (hi + lo) * 2^b`` within ``2^-106``
    relative, ``hi`` in ``[1, 2]``, ``|lo| <= ulp(hi) / 2`` and ``hi = hh +
    hl`` split into 26-bit halves.  Built once, from integer arithmetic."""
    rows = []
    for s in range(16 + 325, 16 - 310, -1):
        N = 10 ** abs(s)
        if s >= 0:  # R = round(10^s * 2^(105 - b)), 2^b <= 10^s < 2^(b + 1)
            b = N.bit_length() - 1
            R = N << (105 - b) if b <= 105 else (N >> (b - 106)) + 1 >> 1
        else:
            b = -N.bit_length()
            R = ((1 << (106 - b)) // N + 1) >> 1
        hi = float(R)
        rows.append((math.ldexp(hi, -105), math.ldexp(R - int(hi), -105), b))
    hi, lo, b = map(np.array, zip(*rows))
    hh = hi * _SPLIT - (hi * _SPLIT - hi)
    table = hi, hh, hi - hh, lo, b.astype(np.int32)  # ldexp is fast on int32
    for col in table:
        col.flags.writeable = False  # shared by every call
    return table


def _scaled(a, e):
    """``a * 10^(16 - e)`` as a double-double ``(hi, lo)``, ``|lo| <=
    ulp(hi) / 2``, within ``2^-104`` relative, for positive finite ``a``."""
    row = (e + 325).astype(np.intp)
    hi, hh, hl, lo, b = (col[row] for col in _pow10())
    f, E = np.frexp(a)
    c = f * _SPLIT
    fh = c - (c - f)
    fl = f - fh
    p = f * hi  # f * hi == p + err exactly (Dekker)
    err = ((fh * hh - p) + fh * hl + fl * hh) + fl * hl
    t = err + f * lo
    q = p + t
    return np.ldexp(q, E + b), np.ldexp(t - (q - p), E + b)


def _decimal(a):
    """``(D, e, tie)`` for positive finite ``a``: ``a`` rounded to 17
    significant digits is ``D * 10^(e - 16)`` with ``10^16 <= D < 10^17``,
    except where ``tie`` marks a rounding too close to call."""
    e = np.floor(np.log10(a)).astype(np.int32)
    hi, lo = _scaled(a, e)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    off = np.flatnonzero(low | high)  # log10 missed by one
    if off.size:
        e[off] += np.where(high[off], 1, -1)
        hi[off], lo[off] = _scaled(a[off], e[off])
    r = np.rint(lo)
    tie = np.abs(lo - r) > 0.5 - 1e-6
    D = hi.astype(np.int64) + r.astype(np.int64)
    carry = D == 10 ** 17
    return np.where(carry, 10 ** 16, D), e + carry, tie


# Columns of a value's source row in _number_rows: the sign, 17 digits and
# the separator; then, as one 8-byte word, a point, a zero, an "e", the
# exponent's sign and three digits, and a NUL.
_SIGN, _DIGITS, _SEP = 0, 1, 18
_POINT, _ZERO, _E, _EXP, _NUL = 24, 25, 26, 27, 31
_SRC_WIDTH = 32
_TAIL = np.frombuffer(b".0e+000\0", np.uint64)
#: The two ASCII digits of 0..99, as one ``uint16`` each, in memory order.
_PAIRS = np.frombuffer("".join(map("{:02d}".format, range(100))).encode(),
                       dtype=np.uint16)
_CHUNK = 4096  # values per pass


@functools.cache
def _layouts():
    """``(index, length)``: per code ``17 * layout + nz - 1``, the source
    columns of the text of a value with ``nz`` significant digits (trailing
    zeros stripped), then its separator, padded with ``_NUL``; and their
    number.  Layouts 0-20 are fixed notation for exponents -4..16, 21 and
    22 exponent notation with two and three exponent digits."""
    rows = []
    for layout in range(23):
        for nz in range(1, 18):
            digits = list(range(_DIGITS, _DIGITS + nz))
            x = layout - 4
            if layout > 20:
                body = digits[:1] + ([_POINT] + digits[1:]) * (nz > 1)
                body += [_E, _EXP] + [_EXP + 1] * (layout == 22)
                body += [_EXP + 2, _EXP + 3]
            elif x >= 0:  # digits 0..x are the integer part, zeros kept
                body = list(range(_DIGITS, _DIGITS + x + 1))
                body += ([_POINT] + digits[x + 1:]) * (nz > x + 1)
            else:
                body = [_ZERO, _POINT] + [_ZERO] * (-x - 1) + digits
            rows.append([_SIGN] + body + [_SEP, _SEP + 1])
    length = np.array(list(map(len, rows)))
    index = np.array([r + [_NUL] * (length.max() - len(r)) for r in rows],
                     dtype=np.intp)
    for col in index, length:
        col.flags.writeable = False  # shared by every call
    return index, length


def _number_rows(x, sep):
    """The text of each nonzero ``x`` followed by its two-byte separator
    ``sep``, one NUL-padded ``uint8`` row per value."""
    n = x.size
    D, e, tie = _decimal(np.abs(x))
    src = np.empty((n, _SRC_WIDTH), np.uint8)
    words = src.view(np.uint16)  # digits 2k + 1 and 2k + 2 are word k + 1
    src[:, _SIGN] = (x < 0) * np.uint8(ord("-"))
    top = D // 10 ** 16
    src[:, _DIGITS] = top + ord("0")
    # The other 16 digits in two halves of 8, two digits at a time.
    halves = np.empty((2, n), np.int64)
    halves[1] = D - top * 10 ** 16
    halves[0] = halves[1] // 10 ** 8
    halves[1] -= halves[0] * 10 ** 8
    for k, scale in enumerate((10 ** 6, 10 ** 4, 100, 1)):
        q = halves // scale
        halves -= q * scale
        words[:, k + 1], words[:, k + 5] = np.take(_PAIRS, q)
    words[:, _SEP // 2] = sep.view(np.uint16)[:, 0]
    src.view(np.uint64)[:, _POINT // 8] = _TAIL
    nz = np.full(n, 17)
    z = np.flatnonzero(src[:, _DIGITS + 16] == ord("0"))
    nz[z] = 17 - np.argmax(src[z, _DIGITS + 16:_SIGN:-1] != ord("0"), axis=1)
    fixed = (e >= -4) & (e <= 16)
    sci = np.flatnonzero(~fixed)
    if sci.size:
        es = np.abs(e[sci])
        src[sci, _EXP] = np.where(e[sci] < 0, ord("-"), ord("+"))
        src[sci, _EXP + 1] = es // 100 + ord("0")
        src[sci, _EXP + 2] = es // 10 % 10 + ord("0")
        src[sci, _EXP + 3] = es % 10 + ord("0")
    layout = np.where(fixed, e + 4, np.where(np.abs(e) >= 100, 22, 21))
    code = 17 * layout + nz - 1
    index, length = _layouts()
    code[tie] = length.argmax()  # the widest row, written over below
    width = length[code].max(initial=0)
    index = np.take(index[:, :width], code, axis=0)
    index += np.arange(0, n * _SRC_WIDTH, _SRC_WIDTH)[:, None]
    rows = src.ravel().take(index)
    for i in np.flatnonzero(tie):
        text = (_FMT % x[i]).encode("ascii") + sep[i].tobytes()
        rows[i] = 0
        rows[i, :len(text)] = np.frombuffer(text, np.uint8)
    return rows


def _text_rows(x, sep):
    """The rows of :func:`_number_rows` for every ``x``: in blocks of
    :data:`_CHUNK` values if no value is zero, else as one array of rows as
    wide as the widest layout.  Its zeros are written as ``0`` or ``-0``
    without the arithmetic, and its nonzero values are formatted in chunks
    of :data:`_CHUNK`, however sparse they are, and scattered into it."""
    if np.count_nonzero(x) == x.size:
        for i in range(0, x.size, _CHUNK):
            yield _number_rows(x[i:i + _CHUNK], sep[i:i + _CHUNK])
        return
    rows = np.zeros((x.size, _layouts()[0].shape[1]), np.uint8)
    rows[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    rows[:, 1] = ord("0")
    rows[:, 2:4] = sep
    nonzero = np.flatnonzero(x)
    for a in range(0, nonzero.size, _CHUNK):
        at = nonzero[a:a + _CHUNK]
        number = _number_rows(x[at], sep[at])
        rows[at, :number.shape[1]] = number
    yield rows


def tensor3_text(X):
    """The text serialization of a tensor, matrix slice or tube ``X``.

    A tensor's rows come as its frontal slices, each after a blank line.
    Values are formatted as :data:`_FMT` does (see :func:`_body`).
    """
    X = np.asarray(X)
    if X.ndim not in HEADERS or X.size == 0:
        raise ShapeError(f"no text format for an array of shape {X.shape}")
    return (HEADERS[X.ndim] + "\n" + " ".join(map(str, X.shape))
            + ("\n\n" if X.ndim == 3 else "\n") + _body(X))


def text_rows(X):
    """The rows of a nonempty 1-D or 2-D array ``X``, as
    :func:`tensor3_text` writes the body of a TUBE or MAT: each row its
    values, space-separated.  A complex value, nan or inf raises
    ``ValueError``, as :func:`tensor3_text` does."""
    return _body(np.asarray(X)).split("\n")[:-1]


#: Below this many values, ``_FMT %`` per value beats the numpy kernel and
#: its fixed cost.  On a 2-CPU x86_64 host, one pinned CPU, ``%`` took 0.78
#: of the kernel's time at 192 values, 1.00 at 256 and 1.18 at 288 and 320.
_SMALL = 256


def _body(X):
    """The data rows of ``X``: values space-separated, each row ended by a
    newline and each tensor slice but the last by a blank line.  The one
    choice of formatter: ``_FMT %`` per value below :data:`_SMALL` values,
    else numpy, in chunks of :data:`_CHUNK`.  Both writers' one check of
    values: a complex array, nan or inf raises ``ValueError``."""
    if np.iscomplexobj(X):
        raise ValueError("text files store real values only")
    if not np.isfinite(X).all():
        raise ValueError("text files store finite values only")
    blocks = (X.transpose(2, 0, 1) if X.ndim == 3
              else X.reshape(1, -1, X.shape[-1]))
    if blocks.size < _SMALL:
        return "\n".join("".join(" ".join(map(_fmt, row)) + "\n"
                                 for row in rows) for rows in blocks.tolist())
    values = np.ascontiguousarray(blocks, dtype=np.float64).ravel()
    # Each value's separator: a space, a newline at the end of a row, and a
    # blank line after each tensor slice but the last.
    sep = np.zeros(blocks.shape + (2,), np.uint8)
    sep[..., 0] = ord(" ")
    sep[..., -1, 0] = ord("\n")
    sep[:-1, -1, -1, 1] = ord("\n")
    sep = sep.reshape(-1, 2)
    # map() lets each block go once written; a generator expression's loop
    # variable would hold it while the next one is built, which is slower.
    body = b"".join(map(np.ndarray.tobytes, _text_rows(values, sep)))
    return body.translate(None, b"\0").decode("ascii")


def write_tensor3(path, X):
    """Write ``X`` in the text format of its kind; ``X`` is formatted
    before ``path`` is opened, so a refused ``X`` leaves the file as it
    was."""
    text = tensor3_text(X)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def read_tensor3(path, ndim=3):
    """Read an ``ndim``-dimensional array written by :func:`write_tensor3`."""
    with open(path, "r", encoding="ascii") as fh:
        return tensor3_from_text(fh.read(), ndim, name=str(path))


#: The header and size line of each kind as :func:`tensor3_text` writes
#: them, with the sizes as groups, followed by at least one data token.
_WRITTEN = {ndim: re.compile(re.escape(header) + "\n"
                             + " ".join(["([1-9][0-9]*)"] * ndim)
                             + "\n(?=[ \t\n]*[^ \t\n])")
            for ndim, header in HEADERS.items()}


def _plain(raw, breaks):
    """Whether the ASCII bytes ``raw`` hold no control character but their
    ``breaks`` line breaks, ``\\n`` (``\\r``, ``\\v`` and ``\\f`` break
    lines for the exact reader but only split tokens for ``strtold``), and
    no ``n``, ``N``, ``x`` or ``X``, so that no ``nan``, ``inf`` or hex
    float reaches ``strtold``."""
    return (not any(c in raw for c in b"nNxX")
            and np.count_nonzero(np.frombuffer(raw, np.uint8) < 32) == breaks)


def tensor3_from_text(text, ndim=3, name="<string>"):
    """Parse the text serialization of an ``ndim``-dimensional array.

    Blank lines are ignored; each error is a ``ValueError`` naming ``name``.
    ASCII text with :func:`tensor3_text`'s header and size line that
    :func:`_plain` passes is read by :func:`_read_long`, which rounds each
    token as ``float`` does.  Any other text, and any that it cannot read to
    its end or reads to the wrong rows, a non-finite value or a double
    midpoint, goes whole to the exact reader, :func:`_read_text`.
    """
    head = text.isascii() and _WRITTEN[ndim].match(text)
    if head:
        shape = tuple(map(int, head.groups()))
        # The body from the size line's line break on, so a break opens it.
        data = _read_long(text[head.end() - 1:].encode("ascii"), shape)
        if data is not None:
            return _shaped(data, shape)
    return _read_text(text, ndim, name)


def _read_long(body, shape):
    """The values of the data rows ``body``, which opens with a line break,
    as ``float`` reads them, or ``None`` where the exact reader must decide.

    One ``np.fromstring`` parses every token to a long double with the C
    library's correctly rounded ``strtold``, with a ``nan`` token in place
    of each line break: :func:`_plain` text holds no ``nan`` of its own, so
    the NaNs count the tokens on each line.  Every line break must be read,
    and as many lines as the shape has rows must hold a row's width and the
    others none.  The cast to float64 is then ``float``'s value unless
    :func:`_ties` finds a double midpoint, and then the exact reader reads
    the whole text.  The installed numpy raises ``ValueError`` on text that
    ``fromstring`` cannot read to its end; a numpy that warns instead
    returns a short array, which misses the last line break.
    """
    if not body.endswith(b"\n"):
        body += b"\n"
    marked = body.replace(b"\n", b" nan ")
    breaks = (len(marked) - len(body)) // 4
    if not _plain(body, breaks):
        return None
    try:
        ld = np.fromstring(marked, np.longdouble, sep=" ")
    except ValueError:
        return None
    with np.errstate(over="ignore"):  # out of range casts to inf, rejected
        d = ld.astype(np.float64)
        nan = np.isnan(d)
        at = np.flatnonzero(nan)  # the first value and the last are breaks
        width = _row_width(shape)
        size = np.count_nonzero(np.diff(at) == width + 1) * width
        if (at.size != breaks or size != math.prod(shape)
                or size != d.size - at.size):
            return None
        values = ~nan  # long double arithmetic on NaNs is slow
        d, ld = d[values], ld[values]
        if not np.isfinite(d).all() or _ties(ld, d).size:
            return None
    return d


def _ties(ld, d):
    """Where ``d``, finite, is ``ld`` cast to float64 and may not be the
    decimal that ``ld`` rounds rounded to float64: :func:`_read_long` gives
    a text with any such value to the exact reader.

    ``ld`` is the decimal ``v`` correctly rounded to the long double, whose
    grid holds every midpoint between two doubles.  Unless ``ld`` is such a
    midpoint, no midpoint lies between ``v`` and ``ld``, so both round to
    the same double (Figueroa, "When is double rounding innocuous?", 1995).
    ``ld`` is one where ``|ld - d|`` is half of ``np.spacing(|d|)``, or a
    quarter of it below a power of two.  ``2 * (ld - d)``, exact in long
    double, is then a power of two of at least ``2^-1074``, exact in
    float64 too, subnormals and underflow to zero included, and above
    ``|d| * 2^-54``: a float64 filter on that bound leaves few values to
    test.  Where long double is float64, ``ld - d`` is zero.  ``np.spacing``
    of the largest doubles overflows: call it with overflow ignored.
    """
    a = np.abs(d)
    twice = 2 * (ld - d)
    near = np.flatnonzero(np.abs(twice.astype(np.float64)) > a * 2.0 ** -54)
    off, a = np.abs(twice[near]), a[near]
    ulp = np.spacing(a)
    pow2 = a == ulp * 2.0 ** 52
    return near[(off == ulp) | ((off + off == ulp) & pow2)]


def _row_width(shape):
    """Rows are ``n`` wide in a tensor and ``p`` wide in a matrix slice or
    a tube."""
    return shape[1] if len(shape) == 3 else shape[-1]


def _shaped(data, shape):
    """The array of ``shape`` whose data rows, in file order, are ``data``."""
    if len(shape) == 3:  # the rows of a tensor are the rows of unfold(A)
        return np.ascontiguousarray(
            fold(data.reshape(-1, shape[1]), shape[2]))
    return data.reshape(shape)


def _read_text(text, ndim, name):
    """The exact reader: :func:`tensor3_from_text` for any text, with
    ``str.splitlines`` and ``str.split`` for lines and tokens, and ``float``
    for numbers, its full grammar included."""
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
    width = _row_width(shape)
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
    return _shaped(data, shape)
