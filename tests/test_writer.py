"""The text writer against ``%.17g``, each value and each separator.

``tensor3_text`` formats fewer than ``_SMALL`` values with ``_FMT %`` and
more in numpy (see the ``tensor3`` docstring).  Each test splits the
writer's text into values and separators and compares every value with
``_FMT % x`` and every separator with the layout of its kind: fixed value
sets, constructed rounding ties, a hypothesis property, a tensor with
special values on its chunk boundaries and sparse arrays whose nonzero
values span chunks, each on both sides of ``_SMALL``.
An array below ``_SMALL`` is also written with the cutoff patched to 0, so
that the numpy kernel keeps its small inputs, and ``text_rows`` must give
the rows of every matrix and tube.  The table of powers of ten is checked
exactly with ``fractions``, which the package itself does not import.
"""

import contextlib
import re
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from tubal_spectra import tensor3
from tubal_spectra.tensor3 import _FMT, _SMALL, HEADERS, tensor3_text

_SEPARATOR = re.compile(r"(\n\n|\n| )")


def _pieces(text, shape):
    """``(values, separators)`` of a writer's text of an array of ``shape``."""
    head = (HEADERS[len(shape)] + "\n" + " ".join(map(str, shape))
            + ("\n\n" if len(shape) == 3 else "\n"))
    assert text.startswith(head)
    parts = _SEPARATOR.split(text[len(head):])
    assert parts[-1] == ""
    return parts[:-1:2], parts[1::2]


def _expected(X):
    """``(values, separators)`` of ``X`` written one value at a time: each
    value is ``_FMT % x``, rows end with a newline, and each tensor slice
    but the last with a blank line."""
    blocks = (X.transpose(2, 0, 1) if X.ndim == 3
              else X.reshape(1, -1, X.shape[-1]))
    sep = np.full(blocks.shape, " ", dtype=object)
    sep[:, :, -1] = "\n"
    sep[:-1, -1, -1] = "\n\n"
    return [_FMT % x for x in blocks.ravel().tolist()], sep.ravel().tolist()


def _assert_writes_fmt(X):
    """``tensor3_text(X)`` is ``X`` written as ``_FMT`` does, by the path its
    size picks and, below ``_SMALL`` values, by the numpy kernel too; and
    ``text_rows(X)`` gives the data rows of a matrix or a tube."""
    want_values, want_seps = _expected(X)
    paths = [contextlib.nullcontext()]
    if X.size < _SMALL:
        paths.append(mock.patch.object(tensor3, "_SMALL", 0))
    for path in paths:
        with path:
            text = tensor3_text(X)
            rows = tensor3.text_rows(X) if X.ndim < 3 else None
        values, seps = _pieces(text, X.shape)
        assert values == want_values
        assert seps == want_seps
        if rows is not None:
            assert rows == text.split("\n")[2:-1]


def _ulp_steps(v, steps):
    """The float64 values ``steps`` units in the last place from ``v > 0``."""
    return (np.float64(v).view(np.int64) + steps).view(np.float64)


def _fixed_values():
    """About 10^5 finite values: random bit patterns, subnormals, powers of
    ten with their neighbours, values around each switch of notation and
    of exponent width, the extremes, and random normals, integers and
    dyadic fractions, each with a random sign."""
    rng = np.random.default_rng(20261024)
    bits = np.frombuffer(rng.bytes(8 * 60000), np.float64)
    subnormal = rng.integers(1, 2 ** 52, 5000, dtype=np.uint64).view(
        np.float64)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    switches = [_ulp_steps(v, np.arange(-20, 21))
                for v in (1e-5, 1e-4, 1e16, 1e17, 1e-100, 1e100)]
    extremes = [5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                1.7976931348623157e308]
    normal = rng.standard_normal(20000) * 10.0 ** rng.uniform(-30, 30, 20000)
    integer = rng.integers(-2 ** 60, 2 ** 60, 5000).astype(np.float64)
    dyadic = (rng.integers(-2 ** 50, 2 ** 50, 10000)
              / 2.0 ** rng.integers(0, 70, 10000))
    values = np.concatenate([
        bits[np.isfinite(bits)], subnormal, tens, np.nextafter(tens, 0.0),
        np.nextafter(tens, np.inf), *switches, normal, integer, dyadic])
    values *= rng.choice([-1.0, 1.0], values.size)
    return np.concatenate([[0.0, -0.0], extremes, np.negative(extremes),
                           values])


FIXED = _fixed_values()


def _ties():
    """Dyadic values ``odd / 2^k`` whose exact decimal expansion has 18
    significant digits, the last a 5: ``%.17g`` rounds them half to even."""
    rng = np.random.default_rng(20261025)
    ties = []
    for k in range(2, 26):
        # odd / 2^k lies in [10^(17 - k), 10^(18 - k)) and odd < 2^53.
        low = -(-2 ** k * 10 ** 17 // 10 ** k)
        high = min(2 ** k * 10 ** 18 // 10 ** k, 2 ** 53)
        odd = rng.integers(low // 2, (high - 1) // 2, 40) * 2 + 1
        ties += [int(m) / 2 ** k for m in odd if low <= m < high]
    return np.array(ties) * rng.choice([-1.0, 1.0], len(ties))


TIES = _ties()


def test_fixed_values_match_fmt():
    assert FIXED.size >= 10 ** 5
    assert np.isfinite(FIXED).all()
    assert np.signbit(FIXED[FIXED == 0]).any()
    assert (np.abs(FIXED) < 2.2250738585072014e-308).sum() > 5000
    _assert_writes_fmt(FIXED)                   # one long TUBE row
    _assert_writes_fmt(FIXED[:-(FIXED.size % 7) or None].reshape(-1, 7))
    # On both sides of the cutoff: zeros, subnormals and extremes lead.
    _assert_writes_fmt(FIXED[:_SMALL - 1])
    _assert_writes_fmt(FIXED[:_SMALL].reshape(-1, _SMALL // 4, 2))


def test_rounding_ties_go_half_to_even():
    digits = [Decimal(x).as_tuple().digits for x in TIES]
    assert len(TIES) > 500
    assert all(len(d) == 18 and d[-1] == 5 for d in digits)
    _assert_writes_fmt(TIES)
    _assert_writes_fmt(TIES[:_SMALL - 1])
    _assert_writes_fmt(TIES[:_SMALL].reshape(-1, 4))
    text = tensor3_text(np.array([1000000000000000.25, 1000000000000000.75]))
    assert text == "TUBE 1\n2\n1000000000000000.2 1000000000000000.8\n"


def _shapes(size):
    """Every shape of one to three dimensions with ``size`` values."""
    sides = [d for d in range(1, size + 1) if size % d == 0]
    return ([(size,)] + [(d, size // d) for d in sides]
            + [(d, e, size // (d * e)) for d in sides for e in sides
               if size % (d * e) == 0])


#: Small shapes, and every shape of _SMALL - 1 and of _SMALL values.
SHAPES = (array_shapes(min_dims=1, max_dims=3, max_side=6)
          | st.sampled_from(_shapes(_SMALL - 1) + _shapes(_SMALL)))


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, SHAPES,
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_any_finite_array_is_written_as_fmt(X):
    _assert_writes_fmt(X)


def test_values_on_chunk_boundaries():
    # Slices of m x n values, so that the chunks split rows and slices, a
    # size that is no multiple of the chunk, and a tie and a -0.0 as the
    # last value of one chunk and the first of the next.
    chunk = tensor3._CHUNK
    m, n = 3, 7
    p = -(-(2 * chunk + 100) // (m * n))
    assert (m * n * p) % chunk
    blocks = np.random.default_rng(20261026).standard_normal((p, m, n))
    flat = blocks.reshape(-1)
    flat[[chunk - 1, chunk, 2 * chunk - 1, 2 * chunk]] = [
        1000000000000000.25, -0.0, -0.0, -1000000000000000.75]
    X = blocks.transpose(1, 2, 0)  # frontal slice k is blocks[k]
    _assert_writes_fmt(X)
    values, _ = _pieces(tensor3_text(X), X.shape)
    assert values[chunk - 1:chunk + 1] == ["1000000000000000.2", "-0"]
    assert values[2 * chunk - 1:2 * chunk + 1] == ["-0", "-1000000000000000.8"]


def test_sparse_values_on_chunk_boundaries():
    # With a zero among them, only the nonzero values are formatted, in
    # chunks of _CHUNK, and their rows scattered among the zeros' rows: a
    # zero run longer than a chunk, nonzeros over three chunks with a tie
    # closing the first and a -0.0 between it and the next, and arrays of
    # zeros alone or with one nonzero, on both sides of _SMALL.
    chunk = tensor3._CHUNK
    v = np.random.default_rng(20261027).standard_normal(2 * chunk + 10)
    v[chunk - 1] = 1000000000000000.25
    lead = np.zeros(chunk + 100)
    lead[[0, chunk - 1, chunk]] = -0.0
    x = np.concatenate([lead, v[:chunk], [-0.0], v[chunk:2 * chunk],
                        [0.0, -0.0], v[2 * chunk:], np.zeros(5)])
    nonzero = np.flatnonzero(x)
    edge = nonzero[chunk - 1] + 1
    assert nonzero.size > 2 * chunk and x[edge] == 0 and np.signbit(x[edge])
    _assert_writes_fmt(x)
    _assert_writes_fmt(x[:31 * 400].reshape(-1, 31))
    _assert_writes_fmt(x[:12 * 13 * 79].reshape(12, 13, 79))
    zeros = np.zeros((6, 6, 8))
    zeros[::2] = -0.0
    one = np.zeros((24, 24, 16))
    one[3, 5, 7] = -2.5e-300
    for X in (zeros, one, zeros[:2, :3, 0], one[2:4, 4:7, 7]):
        assert np.count_nonzero(X) <= 1
        _assert_writes_fmt(X)


def test_power_of_ten_table_is_exact_to_2_pow_minus_104():
    hi, hh, hl, lo, b = tensor3._pow10()
    assert hi.size == 635  # decimal exponents -325..309
    assert np.array_equal(hh + hl, hi)
    assert ((1 <= hi) & (hi <= 2)).all()
    for row in range(hi.size):
        exact = Fraction(10) ** (16 - (row - 325))
        approx = (Fraction(hi[row]) + Fraction(lo[row])) * Fraction(2) ** int(
            b[row])
        assert abs(approx - exact) <= exact / 2 ** 104, row
