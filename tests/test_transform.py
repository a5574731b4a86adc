"""Frequency transform: round trips, block diagonalization, symmetry gates."""

import numpy as np
import pytest

from helpers import random_tensor
from tubal_spectra.errors import (ImaginaryResidual, ShapeError,
                                  SymmetryViolation)
from tubal_spectra.tensor3 import bcirc, identity, transpose
from tubal_spectra.transform import (FreqSlices, freq_from_half, from_freq,
                                     hermitize_check, to_freq)
from tubal_spectra.tproduct import tprod

RNG = np.random.default_rng(20260814)


def test_roundtrip():
    A = random_tensor(RNG, 3, 4, 5)
    B = from_freq(to_freq(A))
    assert np.allclose(B, A, atol=1e-13)
    assert B.dtype == np.float64


def test_symmetry_is_exact_by_construction():
    for p in (1, 2, 3, 4, 5, 8):
        A = random_tensor(RNG, 2, 3, p)
        F = to_freq(A)
        assert F.symmetry_residual() == 0.0


def test_half_spectrum_is_rfft_bit_for_bit():
    # Bins 0..p//2 of to_freq equal rfft(A), signs of zeros included, so
    # callers may use them in place of a second transform.
    rng = np.random.default_rng(36)
    for m, n, p in ((3, 3, 1), (3, 2, 2), (4, 4, 5), (2, 5, 8), (6, 6, 32)):
        A = random_tensor(rng, m, n, p)
        half = to_freq(A).slices[:, :, :p // 2 + 1]
        assert half.tobytes() == np.fft.rfft(A, axis=2).tobytes()


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
    F = to_freq(A)
    for i in range(p):
        for j in range(p):
            block = blockdiag[i * m:(i + 1) * m, j * n:(j + 1) * n]
            if i == j:
                assert np.allclose(block, F.slice(i), atol=1e-12)
            else:
                assert np.max(np.abs(block)) <= 1e-12


def test_linearity_and_product_theorem():
    A = random_tensor(RNG, 3, 3, 4)
    B = random_tensor(RNG, 3, 2, 4)
    FA, FB = to_freq(A), to_freq(B)
    FS = to_freq(2.0 * A + transpose(transpose(A)))
    assert np.allclose(FS.slices, 3.0 * FA.slices, atol=1e-12)
    FP = to_freq(tprod(A, B))
    for k in range(4):
        assert np.allclose(FP.slice(k), FA.slice(k) @ FB.slice(k),
                           atol=1e-12)


def test_identity_frequency_slices_are_exact():
    for p in range(1, 9):
        F = to_freq(identity(3, p))
        for k in range(p):
            assert np.array_equal(F.slice(k), np.eye(3).astype(complex))


def test_from_freq_rejects_symmetry_violations():
    A = random_tensor(RNG, 2, 2, 5)
    F = to_freq(A)
    bad = F.slices.copy()
    bad[0, 0, 1] += 1e-6
    with pytest.raises(SymmetryViolation):
        from_freq(FreqSlices(bad))
    assert np.allclose(from_freq(FreqSlices(bad), tol=1e-3), A, atol=1e-5)


def test_from_freq_rejects_imaginary_mass_on_real_bins():
    A = random_tensor(RNG, 2, 2, 4)
    bad = to_freq(A).slices.copy()
    bad[1, 1, 0] += 1e-6j
    with pytest.raises(ImaginaryResidual):
        from_freq(FreqSlices(bad))
    bad = to_freq(A).slices.copy()
    bad[0, 1, 2] += 1e-6j  # p // 2 bin for p = 4
    with pytest.raises(ImaginaryResidual):
        from_freq(FreqSlices(bad))


def test_freq_from_half_mirrors_and_realifies():
    half = RNG.standard_normal((2, 2, 3)) + 1j * RNG.standard_normal((2, 2, 3))
    F = freq_from_half(half, 4)
    assert F.symmetry_residual() == 0.0
    assert np.array_equal(F.slice(3), np.conj(F.slice(1)))
    assert np.max(np.abs(F.slice(0).imag)) == 0.0
    assert np.max(np.abs(F.slice(2).imag)) == 0.0
    with pytest.raises(ShapeError):
        freq_from_half(half, 7)


def test_hermitize_check():
    from helpers import random_tsym
    S = random_tsym(RNG, 3, 4)
    assert hermitize_check(to_freq(S), tol=1e-12)
    A = random_tensor(RNG, 3, 3, 4)
    assert not hermitize_check(to_freq(A), tol=1e-10)
    with pytest.raises(ShapeError):
        hermitize_check(to_freq(random_tensor(RNG, 2, 3, 2)))


def test_vectorized_checks_match_slice_loops():
    # freq_from_half, pair_residual and hermitize_check are single array
    # expressions; their results equal the per-slice loops bit for bit.
    for p in (1, 2, 3, 4, 7, 8):
        h = p // 2 + 1
        half = (RNG.standard_normal((3, 3, h))
                + 1j * RNG.standard_normal((3, 3, h)))
        F = freq_from_half(half, p)
        full = np.zeros((3, 3, p), dtype=np.complex128)
        full[:, :, :h] = half
        full[:, :, 0] = full[:, :, 0].real
        if p % 2 == 0:
            full[:, :, p // 2] = full[:, :, p // 2].real
        for k in range(1, (p - 1) // 2 + 1):
            full[:, :, p - k] = np.conj(full[:, :, k])
        assert np.array_equal(F.slices, full)

        raw = FreqSlices(RNG.standard_normal((3, 3, p))
                         + 1j * RNG.standard_normal((3, 3, p)))
        worst = 0.0
        for k in range(1, (p - 1) // 2 + 1):
            delta = raw.slice(p - k) - np.conj(raw.slice(k))
            worst = max(worst, float(np.max(np.abs(delta))))
        assert raw.pair_residual() == worst

        herm = 0.0
        for k in range(p):
            M = raw.slice(k)
            herm = max(herm, float(np.max(np.abs(M - M.conj().T))))
        assert hermitize_check(raw, herm)
        assert not hermitize_check(raw, float(np.nextafter(herm, 0.0)))
