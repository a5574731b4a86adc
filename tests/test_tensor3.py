"""Tensor plumbing: block circulants, folds, transpose, checks, text files."""

import numpy as np
import pytest

from helpers import random_tensor, random_tsym
from tubal_spectra.errors import NotBlockCirculant, ShapeError
from tubal_spectra.tensor3 import (HEADERS, bcirc, bcirc_inv, fold,
                                   fold_mat, identity, is_f_diagonal,
                                   is_standard_form, is_t_symmetric,
                                   read_tensor3, shift_columns,
                                   tensor3_from_text, tensor3_text,
                                   transpose, unfold, unfold_mat,
                                   write_tensor3)
from tubal_spectra.tubal import INCOMPARABLE

RNG = np.random.default_rng(20260814)


def test_bcirc_block_layout():
    A = random_tensor(RNG, 2, 3, 4)
    M = bcirc(A)
    assert M.shape == (8, 12)
    for i in range(4):
        for j in range(4):
            block = M[2 * i:2 * (i + 1), 3 * j:3 * (j + 1)]
            assert np.array_equal(block, A[:, :, (i - j) % 4])


def _bcirc_loop(A):
    """Block-by-block reference for the gather-based ``bcirc``."""
    m, n, p = A.shape
    M = np.zeros((m * p, n * p))
    for i in range(p):
        for j in range(p):
            M[i * m:(i + 1) * m, j * n:(j + 1) * n] = A[:, :, (i - j) % p]
    return M


@pytest.mark.parametrize("shape", [(2, 3, 4), (3, 2, 5), (4, 4, 1),
                                   (2, 5, 1), (3, 2, 2), (1, 1, 2),
                                   (3, 3, 7)])
def test_bcirc_matches_loop_reference(shape):
    A = random_tensor(np.random.default_rng(sum(shape)), *shape)
    M = bcirc(A)
    assert M.shape == (shape[0] * shape[2], shape[1] * shape[2])
    assert M.flags.c_contiguous and M.flags.writeable
    assert np.array_equal(M, _bcirc_loop(A))


def test_bcirc_inv_roundtrip_and_rejection():
    A = random_tensor(RNG, 3, 2, 5)
    assert np.array_equal(bcirc_inv(bcirc(A), 5), A)
    M = bcirc(A)
    M[0, 3] += 1e-4
    with pytest.raises(NotBlockCirculant):
        bcirc_inv(M, 5)
    with pytest.raises(ShapeError):
        bcirc_inv(np.zeros((7, 4)), 2)


def test_fold_unfold_roundtrip():
    A = random_tensor(RNG, 4, 2, 3)
    M = unfold(A)
    assert M.shape == (12, 2)
    assert np.array_equal(M[:4], A[:, :, 0])
    assert np.array_equal(fold(M, 3), A)
    with pytest.raises(ShapeError):
        fold(np.zeros((7, 2)), 3)


def test_matslice_fold_roundtrip():
    X = RNG.standard_normal((4, 3))
    v = unfold_mat(X)
    assert v.shape == (12,)
    assert np.array_equal(v[:4], X[:, 0])  # column-by-column stacking
    assert np.array_equal(fold_mat(v, 3), X)
    with pytest.raises(ShapeError):
        fold_mat(np.zeros(10), 3)


def test_matslice_is_lateral_tensor():
    # A matrix slice and its n x 1 x p embedding have the same unfolding.
    X = RNG.standard_normal((3, 5))
    assert np.array_equal(unfold(X[:, None, :])[:, 0], unfold_mat(X))


def test_shift_columns_cycles():
    X = RNG.standard_normal((2, 4))
    assert np.array_equal(shift_columns(X, 0), X)
    assert np.array_equal(shift_columns(X, 1)[:, 1], X[:, 0])
    assert np.array_equal(shift_columns(X, 4), X)
    assert np.array_equal(shift_columns(shift_columns(X, 3), 1), X)


def test_shifted_slices_are_bcirc_columns():
    # Column k*n + j of bcirc(U) is the unfolded k-shift of lateral slice j.
    U = random_tensor(RNG, 3, 3, 4)
    M = bcirc(U)
    for j in range(3):
        for k in range(4):
            col = M[:, k * 3 + j]
            assert np.allclose(
                col, unfold_mat(shift_columns(U[:, j, :], k)), atol=0)


def test_transpose_matches_bcirc_transpose():
    A = random_tensor(RNG, 4, 3, 5)
    assert np.array_equal(bcirc(transpose(A)), bcirc(A).T)
    assert np.array_equal(transpose(transpose(A)), A)


def test_identity_slices():
    E = identity(3, 4)
    assert np.array_equal(E[:, :, 0], np.eye(3))
    assert np.max(np.abs(E[:, :, 1:])) == 0.0
    assert np.array_equal(bcirc(E), np.eye(12))
    with pytest.raises(ShapeError):
        identity(0, 3)


def test_t_symmetry_check():
    S = random_tsym(RNG, 4, 3)
    assert is_t_symmetric(S)
    S2 = S.copy()
    S2[0, 1, 1] += 1e-3
    assert not is_t_symmetric(S2)
    assert is_t_symmetric(S2, tol=1.0)
    with pytest.raises(ShapeError):
        is_t_symmetric(random_tensor(RNG, 2, 3, 2))


@pytest.mark.parametrize("value", [1.7e308, 2e-323])
def test_t_symmetry_gate_survives_overflow_and_underflow(value):
    # Unscaled, ||A - A^T||_F and ||A||_F are both inf at the top and both
    # 0 at the bottom, and the flipped tensor would pass.
    A = np.full((2, 2, 3), value)
    A[0, 1, 1] = -value
    assert not is_t_symmetric(A)
    assert is_t_symmetric(0.5 * A + 0.5 * transpose(A))


def test_f_diagonal_and_standard_form():
    S = np.zeros((3, 3, 2))
    S[0, 0, :] = [5.0, 1.0]
    S[1, 1, :] = [3.0, 0.5]
    S[2, 2, :] = [1.0, 0.2]
    assert is_f_diagonal(S)
    assert is_standard_form(S) is True
    S[1, 1, :] = [3.0, 2.0]  # incomparable with (5, 1)
    assert is_standard_form(S) == INCOMPARABLE
    S[1, 1, :] = [6.0, 2.0]  # dominates (5, 1): comparable but misordered
    assert is_standard_form(S) is False
    S[0, 1, 0] = 1.0
    assert not is_f_diagonal(S)
    with pytest.raises(ShapeError):
        is_standard_form(S)


@pytest.mark.parametrize("scale", [-1000, 0, 1000])
def test_f_diagonal_tolerance_is_relative(scale):
    # Off-diagonal entries are measured against max|S|, at every scale.
    S = np.zeros((3, 3, 2))
    S[0, 0, :] = [4.0, 1.0]
    S[1, 1, :] = [3.0, 0.5]
    S[0, 1, 1] = 0.5e-10 * 4.0
    assert is_f_diagonal(np.ldexp(S, scale))
    assert is_standard_form(np.ldexp(S, scale)) is True
    S[0, 1, 1] = 2e-10 * 4.0
    assert not is_f_diagonal(np.ldexp(S, scale))
    assert is_f_diagonal(np.zeros((2, 3, 2)))


def test_rectangular_f_diagonal():
    S = np.zeros((2, 4, 3))
    S[0, 0, :] = 1.0
    S[1, 1, :] = 0.5
    assert is_f_diagonal(S)
    assert is_standard_form(S) is True


# One array of each kind: a tensor, a matrix slice and a tube.  Their own
# generator leaves RNG's draws for the other tests unchanged.
_KIND_RNG = np.random.default_rng(20261018)
KINDS = {"T3": _KIND_RNG.standard_normal((3, 2, 4)) * 1e4,
         "MAT": _KIND_RNG.standard_normal((5, 3)) / 1e7,
         "TUBE": _KIND_RNG.standard_normal(7) * 1e3}


@pytest.mark.parametrize("kind", KINDS)
def test_text_file_roundtrip(tmp_path, kind):
    X = KINDS[kind]
    path = tmp_path / "x.txt"
    write_tensor3(path, X)
    assert np.array_equal(read_tensor3(path, X.ndim), X)


@pytest.mark.parametrize("X, text", [
    (np.arange(8.0).reshape(2, 2, 2) / 4 - 1,
     "T3 1\n2 2 2\n\n-1 -0.5\n0 0.5\n\n-0.75 -0.25\n0.25 0.75\n"),
    (np.array([[0.1, -0.0, 3.0], [1e-300, 2.5e20, -7.0]]),
     "MAT 1\n2 3\n0.10000000000000001 -0 3\n1e-300 2.5e+20 -7\n"),
    (np.array([1.0, -2.0, 1 / 3]),
     "TUBE 1\n3\n1 -2 0.33333333333333331\n"),
], ids=["T3", "MAT", "TUBE"])
def test_text_writer_bytes(X, text):
    assert tensor3_text(X) == text
    assert np.array_equal(tensor3_from_text(text, X.ndim), X)


@pytest.mark.parametrize("kind", KINDS)
def test_text_writer_rejects_complex(kind):
    with pytest.raises(ValueError, match="real"):
        tensor3_text(KINDS[kind] * (1 + 1j))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_text_writer_rejects_non_finite(kind, value):
    X = KINDS[kind].copy()
    X.flat[-1] = value
    with pytest.raises(ValueError, match="finite"):
        tensor3_text(X)


def test_header_must_match_expected_kind(tmp_path):
    path = tmp_path / "x.mat"
    write_tensor3(path, np.ones((2, 2)))
    with pytest.raises(ValueError, match="'T3 1' header"):
        read_tensor3(path)
    with pytest.raises(ValueError, match="'TUBE 1' header"):
        read_tensor3(path, 1)
    assert np.array_equal(read_tensor3(path, 2), np.ones((2, 2)))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
def test_text_reader_rejects_non_finite(tmp_path, kind, token):
    X = KINDS[kind]
    path = tmp_path / "x.txt"
    text = tensor3_text(X)
    path.write_text(text[:text.rindex(" ")] + f" {token}\n")
    with pytest.raises(ValueError, match="non-finite") as err:
        read_tensor3(path, X.ndim)
    assert str(path) in str(err.value)


def test_tensor_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.t3"
    path.write_text("T3 1\n2 2 1\n1.0 2.0\n")
    with pytest.raises(ValueError):
        read_tensor3(path)
    path.write_text("T3 2\n1 1 1\n1.0\n")
    with pytest.raises(ValueError):
        read_tensor3(path)
    path.write_text("T3 1\n1 2 1\n1.0 2.0 3.0\n")
    with pytest.raises(ValueError):
        read_tensor3(path)
    # Rows too few, too wide, ragged with the right total, a size line of
    # another kind, a zero size and a token that is not a number.
    for text in ("MAT 1\n2 2\n1 2\n", "MAT 1\n1 2\n1 2 3\n",
                 "MAT 1\n2 2\n1 2 3\n4\n", "MAT 1\n1 2 1\n1 2\n",
                 "MAT 1\n0 2\n", "MAT 1\n1 2\n1 x\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match=str(path)):
            read_tensor3(path, 2)
    # Two spaces in each row and the right token total, and a tab that
    # makes up for a bad last token: a count of spaces or of all tokens
    # accepts these.
    for text, row, count in (("MAT 1\n2 3\n1  2\n3 4\t5 6\n", 1, 2),
                             ("MAT 1\n2 3\n1 \t 2\n1 2 3\t4\n", 1, 2),
                             ("MAT 1\n2 2\n1 2\t3\n4 x\n", 1, 3)):
        path.write_text(text)
        with pytest.raises(ValueError,
                           match=f"data row {row} has {count} values"):
            read_tensor3(path, 2)


# The codec corpus: zeros of both signs, the smallest subnormal and normal,
# the largest finite values, values with no short decimal form, integers,
# exponents near +-300, then random finite bit patterns.
_EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
         1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3,
         -2 / 3, 1.0, -7.0, 2.0 ** 53, 12345678.0, -1e16, 1e300, -1e-300,
         1.2345678901234567e300, -9.87654321e-300]
_BITS = np.frombuffer(np.random.default_rng(20261019).bytes(8 * 4096),
                      dtype=np.float64)
CORPUS = np.concatenate([_EDGE, _BITS[np.isfinite(_BITS)]])[:4032]


def _f_diagonal(m, n, p):
    S = np.zeros((m, n, p))
    j = np.arange(min(m, n))
    S[j, j] = CORPUS[-j.size * p:].reshape(-1, p)
    return S


CODEC_ARRAYS = {
    "T3": CORPUS.reshape(14, 16, 18), "MAT": CORPUS.reshape(63, 64),
    "TUBE": CORPUS, "T3-1x1x1": CORPUS[2:3].reshape(1, 1, 1),
    "T3-width-1": CORPUS[:40].reshape(8, 1, 5),
    "MAT-width-1": CORPUS[:40].reshape(40, 1), "TUBE-1": CORPUS[5:6],
    "T3-f-diagonal": _f_diagonal(6, 6, 5),
    "T3-f-diagonal-wide": _f_diagonal(4, 7, 3),
}


def _reference_text(X):
    """The text format written one value at a time with ``"{:.17g}"``."""
    fmt = "{:.17g}".format
    head = HEADERS[X.ndim] + "\n" + " ".join(map(str, X.shape))
    if X.ndim == 3:
        slices = [X[:, :, k].tolist() for k in range(X.shape[2])]
        return head + "".join("\n\n" + "\n".join(" ".join(map(fmt, row))
                                               for row in rows)
                              for rows in slices) + "\n"
    rows = X.reshape(-1, X.shape[-1]).tolist()
    return head + "".join("\n" + " ".join(map(fmt, row))
                          for row in rows) + "\n"


def _bits(X):
    return np.ascontiguousarray(X, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("name", CODEC_ARRAYS)
def test_text_writer_matches_per_value_reference(name):
    X = CODEC_ARRAYS[name]
    text = tensor3_text(X)
    assert text == _reference_text(X)
    back = tensor3_from_text(text, X.ndim)
    assert back.shape == X.shape
    assert np.array_equal(_bits(back), _bits(X))


def test_reader_matches_float_on_hand_written_forms():
    # Halfway and overflow-edge forms as well: the reader rounds as float.
    tokens = ["1", "1E5", "1.e5", "+.5e-3", "00012", "-0", "-.0", "1e-400",
              "2.4703282292062327e-324", "2.4703282292062328e-324",
              "1.7976931348623158e308", "0.1000000000000000055511151231257827",
              "1_0.5"]
    text = f"TUBE 1\n{len(tokens)}\n" + " ".join(tokens) + "\n"
    assert np.array_equal(_bits(tensor3_from_text(text, 1)),
                          _bits([float(t) for t in tokens]))


def test_reader_names_the_file_in_float_errors(tmp_path):
    path = tmp_path / "nan.tube"
    path.write_text("TUBE 1\n2\nnan(123) 1\n")
    with pytest.raises(ValueError) as err:
        read_tensor3(path, 1)
    assert str(err.value) == (f"{path}: could not convert string to float: "
                              f"'nan(123)'")


@pytest.mark.parametrize("token", ["0x10", "0x1p3", "1d5", "1,5"])
def test_reader_rejects_what_float_rejects(token):
    # Each token is parsed as Python's float parses it, with its message.
    with pytest.raises(ValueError) as expected:
        float(token)
    with pytest.raises(ValueError) as err:
        tensor3_from_text(f"TUBE 1\n2\n1 {token}\n", 1)
    assert str(err.value) == f"<string>: {expected.value}"


def test_shape_validation():
    with pytest.raises(ShapeError):
        unfold(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        bcirc(np.zeros((2, 0, 2)))
