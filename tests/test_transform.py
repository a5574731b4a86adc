"""Frequency transform: round trips, block diagonalization, half-spectrum
layout, the Hermitian gate."""

import ast
from pathlib import Path

import numpy as np
import pytest

from helpers import random_tensor
from tubal_spectra import spectral as spectral_module
from tubal_spectra import tproduct as tproduct_module
from tubal_spectra import tsvd as tsvd_module
from tubal_spectra.errors import ShapeError
from tubal_spectra.tensor3 import bcirc, identity, transpose
from tubal_spectra.transform import (_factor_half, freq_from_half,
                                     from_freq, hermitize_check, to_freq)
from tubal_spectra.spectral import ted
from tubal_spectra.tproduct import tprod
from tubal_spectra.tsvd import tsvd

RNG = np.random.default_rng(20260814)


def test_roundtrip():
    A = random_tensor(RNG, 3, 4, 5)
    B = from_freq(to_freq(A), A.shape[2])
    assert np.allclose(B, A, atol=1e-13)
    assert B.dtype == np.float64


def full_spectrum(half, p):
    """All ``p`` slices of the half spectrum ``half`` as an ``(m, n, p)``
    array: slice ``k`` is ``half[k]``, and slice ``p - k`` its conjugate."""
    return np.stack([half[k] if k <= p // 2 else np.conj(half[p - k])
                     for k in range(p)], axis=2)


def test_symmetry_is_exact_by_construction():
    for p in (1, 2, 3, 4, 5, 8):
        A = random_tensor(RNG, 2, 3, p)
        F = to_freq(A)
        assert not F[0].imag.any()
        if p % 2 == 0:
            assert not F[p // 2].imag.any()
        assert np.allclose(full_spectrum(F, p), np.fft.fft(A, axis=2),
                           atol=1e-12)


def test_freq_slices_store_the_half_spectrum():
    # Only bins 0..p//2 are stored, bin-major, and the inverse is one irfft
    # along the bin axis.
    for m, n, p in ((2, 3, 1), (3, 3, 2), (2, 2, 3), (3, 2, 4), (2, 4, 7),
                    (3, 3, 8)):
        A = random_tensor(RNG, m, n, p)
        F = to_freq(A)
        assert F.dtype == np.complex128
        assert F.shape == (p // 2 + 1, m, n)
        assert F.flags.c_contiguous
        X = np.fft.irfft(F, n=p, axis=0)
        assert from_freq(F, p).tobytes() == X.transpose(1, 2, 0).tobytes()
        # to_freq passes a transposed half spectrum; it is stored in C
        # order, and the inverse is the transform's own output, with no
        # copy: its frontal slices are contiguous.
        G = freq_from_half(F.transpose(0, 2, 1), p)
        assert G.flags.c_contiguous
        assert from_freq(G, p).transpose(2, 0, 1).flags.c_contiguous


def test_half_spectrum_is_rfft_bit_for_bit():
    # Bins 0..p//2 of to_freq equal rfft(A), signs of zeros included, so
    # callers may use them in place of a second transform.
    rng = np.random.default_rng(36)
    for m, n, p in ((3, 3, 1), (3, 2, 2), (4, 4, 5), (2, 5, 8), (6, 6, 32)):
        A = random_tensor(rng, m, n, p)
        half = to_freq(A)
        assert (half.tobytes()
                == np.fft.rfft(A, axis=2).transpose(2, 0, 1).tobytes())


def test_matches_explicit_dft_block_diagonalization():
    # (F_p (x) I_m) bcirc(A) (F_p^H (x) I_n) is block diagonal with the
    # frequency slices on the diagonal, for the unnormalized DFT matrix
    # W[k, t] = exp(-2 pi i k t / p) and F_p = W / sqrt(p).
    A = random_tensor(RNG, 2, 3, 4)
    m, n, p = A.shape
    W = np.exp(-2j * np.pi * np.outer(np.arange(p), np.arange(p)) / p)
    Fm = np.kron(W / np.sqrt(p), np.eye(m))
    Fn = np.kron(W / np.sqrt(p), np.eye(n))
    blockdiag = Fm @ bcirc(A) @ Fn.conj().T
    S = full_spectrum(to_freq(A), p)
    for i in range(p):
        for j in range(p):
            block = blockdiag[i * m:(i + 1) * m, j * n:(j + 1) * n]
            if i == j:
                assert np.allclose(block, S[:, :, i], atol=1e-12)
            else:
                assert np.max(np.abs(block)) <= 1e-12


def test_linearity_and_product_theorem():
    A = random_tensor(RNG, 3, 3, 4)
    B = random_tensor(RNG, 3, 2, 4)
    FA, FB = to_freq(A), to_freq(B)
    FS = to_freq(2.0 * A + transpose(transpose(A)))
    FP = to_freq(tprod(A, B))
    assert np.allclose(FS, 3.0 * FA, atol=1e-12)
    assert np.allclose(FP, FA @ FB, atol=1e-12)


def test_identity_frequency_slices_are_exact():
    for p in range(1, 9):
        F = to_freq(identity(3, p))
        for k in range(p // 2 + 1):
            assert np.array_equal(F[k], np.eye(3).astype(complex))


def _with_entry(value):
    A = identity(2, 2)
    A[0, 0, 0] = value
    return A


def _tprod_square(A):
    return tprod(A, A)


@pytest.mark.parametrize("decompose", [ted, tsvd, _tprod_square],
                         ids=["ted", "tsvd", "tprod"])
@pytest.mark.parametrize("A", [_with_entry(np.nan), _with_entry(np.inf),
                               np.full((2, 2, 2), 1.7e308)],
                         ids=["nan", "inf", "overflow"])
def test_non_finite_spectrum_is_one_value_error(decompose, A):
    # One gate in to_freq: before it, ted called these tensors
    # NotTSymmetric, tsvd raised LinAlgError (a ValueError subclass) or
    # returned a nan reconstruction, and tprod returned nan.
    with np.errstate(all="ignore"), pytest.raises(ValueError) as info:
        decompose(A)
    assert type(info.value) is ValueError
    assert "frequency spectrum overflows" in str(info.value)


def test_freq_from_half_mirrors_and_realifies():
    # Bins lead: a (bins, m, n) stack with m != n, so no other axis order
    # passes the shape check.
    half = RNG.standard_normal((3, 2, 5)) + 1j * RNG.standard_normal((3, 2, 5))
    given = half.copy()
    F = freq_from_half(half, 4)
    assert np.array_equal(half, given)  # the caller's array is not changed
    assert np.array_equal(F[1], half[1])
    assert np.array_equal(F[0], half[0].real)
    assert np.array_equal(F[2], half[2].real)
    with pytest.raises(ShapeError):
        freq_from_half(half, 7)
    with pytest.raises(ShapeError):
        freq_from_half(half.transpose(1, 2, 0), 4)


def test_factor_half_keeps_bin_order_and_complex_vectors():
    # The real and the complex stack come back in bin order, and vector
    # stacks stay complex128 when every bin is self-conjugate (p <= 2).
    from helpers import random_tsym
    for p in range(1, 9):
        F = to_freq(random_tsym(RNG, 3, p))
        w, V = _factor_half(np.linalg.eigh, F, p)
        assert (w.dtype, V.dtype) == (np.float64, np.complex128)
        assert w.shape == (p // 2 + 1, 3)
        for k in range(p // 2 + 1):
            wk, Vk = np.linalg.eigh(F[k].real if k in (0, p / 2) else F[k])
            assert np.array_equal(w[k], wk) and np.array_equal(V[k], Vk)


def test_hermitize_check():
    from helpers import random_tsym
    S = random_tsym(RNG, 3, 4)
    assert hermitize_check(to_freq(S), tol=1e-12)
    A = random_tensor(RNG, 3, 3, 4)
    assert not hermitize_check(to_freq(A), tol=1e-10)
    with pytest.raises(ShapeError):
        hermitize_check(to_freq(random_tensor(RNG, 2, 3, 2)))


def test_vectorized_checks_match_slice_loops():
    # freq_from_half and hermitize_check are single array expressions;
    # they agree with per-slice loops bit for bit.
    for p in (1, 2, 3, 4, 7, 8):
        h = p // 2 + 1
        half = (RNG.standard_normal((h, 3, 3))
                + 1j * RNG.standard_normal((h, 3, 3)))
        F = freq_from_half(half, p)
        full = np.zeros((3, 3, p), dtype=np.complex128)
        full[:, :, :h] = half.transpose(1, 2, 0)
        full[:, :, 0] = full[:, :, 0].real
        if p % 2 == 0:
            full[:, :, p // 2] = full[:, :, p // 2].real
        for k in range(1, (p - 1) // 2 + 1):
            full[:, :, p - k] = np.conj(full[:, :, k])
        assert np.array_equal(full_spectrum(F, p), full)

        herm = 0.0
        for k in range(p):
            M = full[:, :, k]
            herm = max(herm, float(np.max(np.abs(M - M.conj().T))))
        assert hermitize_check(F, herm)
        assert not hermitize_check(F, float(np.nextafter(herm, 0.0)))


def test_transform_is_the_only_fast_path_fft():
    # The half-spectrum layout belongs to transform: the fast-path modules
    # reach rfft and irfft only through to_freq and from_freq.
    for module in (spectral_module, tproduct_module, tsvd_module):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert "fft" not in (node.module or "").split("."), \
                    ast.dump(node)
                assert "fft" not in {a.name for a in node.names}
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    assert "fft" not in alias.name.split("."), alias.name
            elif isinstance(node, ast.Attribute):
                assert node.attr != "fft", (module.__name__, ast.dump(node))


def test_symmetry_is_decided_in_one_place():
    # is_t_symmetric is the one T-symmetry gate: no module but transform,
    # which defines it, names the frequency-domain hermitize_check.
    package = Path(spectral_module.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "transform.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None)}
            assert "hermitize_check" not in names, (path.name, ast.dump(node))
