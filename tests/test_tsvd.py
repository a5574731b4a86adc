"""TSVD invariants, singular pairs, and Gram consistency."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (exactly_scaled, near_tsym, random_tensor,
                     record_finding, tsvd_by_loop)
from tubal_spectra.errors import ShapeError
from tubal_spectra.oracle import oracle_quadform_matrices, oracle_tprod
from tubal_spectra.spectral import (_symmetric_part, classify_ted, exact_psd,
                                    ted)
from tubal_spectra.tensor3 import (bcirc, identity, is_f_diagonal, transpose,
                                   unit_scaled)
from tubal_spectra.tproduct import tprod
from tubal_spectra import tsvd as tsvd_module
from tubal_spectra.tsvd import gram_consistency, singular_pairs, tsvd
from tubal_spectra.tubal import tube_mul, tube_transpose, unit_tube

RNG = np.random.default_rng(20260814)


def test_tsvd_invariants_random():
    for _ in range(8):
        m = int(RNG.integers(1, 7))
        n = int(RNG.integers(1, 7))
        p = int(RNG.integers(1, 7))
        A = random_tensor(RNG, m, n, p)
        R = tsvd(A)
        assert R.reconstruction <= 1e-10
        assert R.orthogonality_u <= 1e-10
        assert R.orthogonality_v <= 1e-10
        assert R.pair_max <= 1e-9
        for Q in (R.u, R.v):  # dense check: bcirc(Q) is orthogonal
            Qc = bcirc(Q)
            assert np.allclose(Qc.T @ Qc, np.eye(Qc.shape[1]), atol=1e-10)
        assert is_f_diagonal(R.s)
        assert R.singular_tuples.shape == (min(m, n), p)
        # frequency singular values nonnegative and descending
        sv = R.frequency_singular_values
        assert np.min(sv) >= 0.0
        assert np.all(sv[1:, :] <= sv[:-1, :] + 1e-12)


def test_tsvd_batched_core_matches_per_slice_loop():
    # Tall, wide and square; p = 1, p = 2, odd and even p; identity.
    rng = np.random.default_rng(41)
    shapes = ((5, 3, 4), (3, 5, 4), (4, 4, 1), (6, 2, 2), (2, 6, 2),
              (1, 5, 3), (5, 1, 3), (7, 4, 7), (4, 7, 8), (3, 3, 6))
    cases = [random_tensor(rng, *shape) for shape in shapes]
    cases += [identity(3, 1), identity(4, 4), identity(3, 5)]
    for A in cases:
        R = tsvd(A)
        u, s, v, tuples, freq, right, left = tsvd_by_loop(A)
        assert np.array_equal(R.u, u), A.shape
        assert np.array_equal(R.s, s), A.shape
        assert np.array_equal(R.v, v), A.shape
        assert np.array_equal(R.singular_tuples, tuples), A.shape
        assert np.array_equal(R.frequency_singular_values, freq), A.shape
        # One residual per singular tuple and side stands for all p shifts.
        r = min(A.shape[:2])
        assert R.pair_right.shape == R.pair_left.shape == (r,)
        assert np.max(np.abs(R.pair_right[:, None] - right)) <= 1e-14, A.shape
        assert np.max(np.abs(R.pair_left[:, None] - left)) <= 1e-14, A.shape
        assert R.pair_max == float(max(R.pair_right.max(),
                                       R.pair_left.max()))


def test_singular_tuples_are_reversed_diagonal_tubes():
    A = random_tensor(RNG, 4, 3, 5)
    R = tsvd(A)
    for j in range(3):
        assert np.array_equal(R.singular_tuples[j],
                              tube_transpose(R.s[j, j, :]))
    # first components carry the spectral mass but spatial entries of the
    # tuples need not be nonnegative
    assert np.all(R.singular_tuples[:, 0] >= 0.0)


def test_spatial_entries_of_singular_tuples_reported():
    neg = 0
    runs = 20
    for _ in range(runs):
        A = random_tensor(RNG, int(RNG.integers(1, 6)),
                          int(RNG.integers(1, 6)), int(RNG.integers(2, 6)))
        R = tsvd(A)
        if R.singular_tuples.size and float(R.singular_tuples.min()) < 0.0:
            neg += 1
    record_finding(
        f"singular tuples with some negative spatial entry: {neg}/{runs} "
        f"runs (frequency singular values are always nonnegative; spatial "
        f"entries are their inverse transform and can dip below zero)")


def test_identity_tsvd():
    R = tsvd(identity(3, 4))
    assert np.array_equal(R.singular_tuples, np.tile(unit_tube(4), (3, 1)))
    assert R.reconstruction <= 1e-12


def test_transpose_swaps_factors():
    A = random_tensor(RNG, 5, 3, 4)
    R = tsvd(A)
    Rt = tsvd(transpose(A))
    assert np.allclose(Rt.singular_tuples, R.singular_tuples, atol=1e-10)
    assert np.allclose(Rt.frequency_singular_values,
                       R.frequency_singular_values, atol=1e-10)


def test_orthogonal_invariance_of_singular_tuples():
    from helpers import random_tsym
    A = random_tensor(RNG, 4, 3, 5)
    Q = ted(random_tsym(RNG, 4, 5)).u  # an orthogonal tensor
    R1 = tsvd(A)
    R2 = tsvd(tprod(Q, A))
    assert np.allclose(R1.singular_tuples, R2.singular_tuples, atol=1e-9)


def test_p_equal_one_reduces_to_matrix_svd():
    M = RNG.standard_normal((4, 6))
    R = tsvd(M[:, :, None])
    sig = np.linalg.svd(M, compute_uv=False)
    assert np.allclose(R.singular_tuples[:, 0], sig, atol=1e-12)


def test_zero_tensor():
    R = tsvd(np.zeros((3, 2, 4)))
    assert np.max(np.abs(R.singular_tuples)) == 0.0
    assert R.reconstruction == 0.0
    assert R.pair_max == 0.0


def test_singular_pairs_selector():
    A = random_tensor(RNG, 4, 3, 5)
    R = tsvd(A)
    for j in (1, 2, 3):
        s, Xs, Ys = singular_pairs(R, j)
        assert np.array_equal(s, R.singular_tuples[j - 1])
        assert len(Xs) == 5 and len(Ys) == 5
        assert np.array_equal(Xs[0], R.v[:, j - 1, :])
        assert np.array_equal(Ys[0], R.u[:, j - 1, :])
    with pytest.raises(IndexError):
        singular_pairs(R, 0)
    with pytest.raises(IndexError):
        singular_pairs(R, 4)


def _by_name(checks):
    return {c.check: c for c in checks}


def test_gram_consistency_square():
    A = random_tensor(RNG, 4, 4, 3)
    checks = _by_name(gram_consistency(A, tsvd(A)))
    assert all(c.passed is not False for c in checks.values())
    # The Gram eigentuples are the squared singular tuples.
    assert checks["right_gram_eigentuple_match"].residual <= 1e-8
    assert checks["left_gram_eigentuple_match"].residual <= 1e-8
    s0 = tsvd(A).singular_tuples[0]
    e0 = ted(tprod(transpose(A), A)).eigentuples[0]
    square = tube_mul(s0, s0)
    assert np.linalg.norm(e0 - square) <= 1e-8 * np.linalg.norm(square)


def test_gram_consistency_rectangular_pads_with_zero_tuples():
    # Tall case: A^T A is 2 x 2 but A A^T is 6 x 6, so four eigentuples of
    # the left Gram must match the zero tube; the wide case pads the right.
    for m, n in ((6, 2), (2, 5)):
        A = random_tensor(RNG, m, n, 3)
        checks = _by_name(gram_consistency(A, tsvd(A)))
        assert all(c.passed is not False for c in checks.values())
        assert checks["left_gram_eigentuple_match"].residual <= 1e-8
        assert checks["right_gram_eigentuple_match"].residual <= 1e-8


def test_gram_consistency_reports_entry_floor_as_info():
    A = random_tensor(RNG, 3, 3, 4)
    checks = gram_consistency(A, tsvd(A))
    assert [c.check for c in checks] == [
        "right_gram_eigentuple_match", "right_gram_frequency_psd_floor",
        "right_gram_eigentuple_entry_floor", "left_gram_eigentuple_match",
        "left_gram_frequency_psd_floor", "left_gram_eigentuple_entry_floor"]
    info = [c for c in checks if c.threshold is None]
    assert len(info) == 2
    assert all(c.passed is None for c in info)
    assert all("gram_eigentuple_entry_floor" in c.check for c in info)
    assert [c.threshold for c in checks if c.threshold is not None] == [
        1e-8, 1e-10, 1e-8, 1e-10]


def test_gram_consistency_checks_the_tsvd_it_is_given():
    # A corrupted singular tuple no longer squares to a Gram eigentuple;
    # the spectra of the Grams themselves stay nonnegative.
    A = random_tensor(RNG, 4, 3, 5)
    R = tsvd(A)
    tuples = R.singular_tuples.copy()
    tuples[0] *= 1.01
    checks = _by_name(gram_consistency(A, replace(R, singular_tuples=tuples)))
    assert not checks["right_gram_eigentuple_match"].passed
    assert not checks["left_gram_eigentuple_match"].passed
    assert checks["right_gram_frequency_psd_floor"].passed
    assert checks["left_gram_frequency_psd_floor"].passed


def test_gram_consistency_requires_canonical_order():
    # Eigentuple j pairs with singular tuple j: correct tuples out of the
    # descending order that ted and tsvd share are a wrong TSVD.
    A = random_tensor(np.random.default_rng(3), 4, 3, 5)
    R = tsvd(A)
    tuples = R.singular_tuples[[1, 0, 2]]
    checks = _by_name(gram_consistency(A, replace(R, singular_tuples=tuples)))
    assert not checks["right_gram_eigentuple_match"].passed
    assert not checks["left_gram_eigentuple_match"].passed
    assert checks["right_gram_eigentuple_match"].residual > 1e-3


def test_gram_consistency_decomposes_each_tensor_once(monkeypatch):
    calls = {"ted": 0, "tsvd": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    A = random_tensor(np.random.default_rng(3), 4, 3, 5)
    R = tsvd(A)
    monkeypatch.setattr(tsvd_module, "ted", counted("ted", ted))
    monkeypatch.setattr(tsvd_module, "tsvd", counted("tsvd", tsvd))
    gram_consistency(A, R)
    # One ted per Gram; the TSVD is the caller's.
    assert calls == {"ted": 2, "tsvd": 0}


@pytest.mark.parametrize("kind, shape, teds", [
    ("T-symmetric", (4, 4, 5), 1), ("general", (4, 4, 5), 2),
    ("rectangular", (4, 3, 5), 2)])
def test_gram_consistency_decomposes_each_distinct_gram_once(
        monkeypatch, kind, shape, teds):
    rng = np.random.default_rng(11)
    A = random_tensor(rng, *shape)
    if kind == "T-symmetric":
        A = 0.5 * A + 0.5 * transpose(A)
        assert transpose(A).tobytes() == A.tobytes()
    R = tsvd(A)
    # Without the reuse, both bit-identical Grams get their own ted.
    with monkeypatch.context() as patch:
        patch.setattr(tsvd_module, "_same_bits", lambda X, Y: False)
        unshared = gram_consistency(A, R)
    grams = []

    def spy(G):
        grams.append(G)
        return ted(G)

    monkeypatch.setattr(tsvd_module, "ted", spy)
    checks = gram_consistency(A, R)
    assert len(grams) == teds
    assert checks == unshared
    if kind == "T-symmetric":
        S, _ = unit_scaled(A)
        assert grams[0].tobytes() == tprod(S, transpose(S)).tobytes()
        assert [replace(c, check=c.check.replace("right", "left"))
                for c in checks[:3]] == checks[3:]


def _one_entry_off(fn, delta):
    """``fn`` with the first entry of its result moved by ``delta``."""
    def off(*args):
        out = np.array(fn(*args), dtype=float)
        out.flat[0] += delta
        return out
    return off


@pytest.mark.parametrize("name, check, delta", [
    ("bcirc_inv", "bcirc_roundtrip", 1e-12),
    ("fold", "fold_roundtrip", 1e-12),
    ("transpose", "transpose_involution", 1e-12),
    ("quadform", "quadform_polarization", 1e-6)])
def test_each_verify_path_check_fails_on_its_own_fault(monkeypatch, name,
                                                       check, delta):
    # The round trips are exact, so a shift far inside the Grams' symmetry
    # gate (which the broken transpose also feeds) fails them.
    G = random_tensor(np.random.default_rng(9), 3, 3, 4)
    A = 0.5 * G + 0.5 * transpose(G)
    assert all(c.passed is not False
               for c in tsvd_module.verify_checks(A, 3))
    monkeypatch.setattr(tsvd_module, name,
                        _one_entry_off(getattr(tsvd_module, name), delta))
    checks = _by_name(tsvd_module.verify_checks(A, 3))
    assert not checks[check].passed
    assert checks[check].residual >= delta / 2


@pytest.mark.parametrize("side", ["right", "left"])
def test_each_gram_psd_floor_fails_on_a_negative_spectrum(monkeypatch,
                                                         side):
    # The Grams of a tall tensor differ, so each has its own verdict,
    # the right one first.
    A = random_tensor(np.random.default_rng(7), 4, 3, 5)
    R = tsvd(A)
    verdicts = []

    def shifted(T, *args):
        verdicts.append(classify_ted(T, *args))
        if len(verdicts) == ("right", "left").index(side) + 1:
            return replace(verdicts[-1], min_frequency_eigenvalue=-1e-6)
        return verdicts[-1]

    monkeypatch.setattr(tsvd_module, "classify_ted", shifted)
    checks = _by_name(gram_consistency(A, R))
    assert len(verdicts) == 2
    other = "left" if side == "right" else "right"
    assert not checks[f"{side}_gram_frequency_psd_floor"].passed
    assert checks[f"{side}_gram_frequency_psd_floor"].residual == 1e-6
    assert checks[f"{other}_gram_frequency_psd_floor"].passed


def test_verify_scales_and_floors_are_pinned():
    # ||dense|| exceeds 1, the squares differ in norm, and both Grams have
    # negative spatial entries, so a min in place of any max moves a value.
    S, _ = unit_scaled(random_tensor(np.random.default_rng(2), 4, 3, 5))
    checks = _by_name(tsvd_module.verify_checks(S, 3))
    B = np.random.default_rng(3).standard_normal((3, 4, 5))
    dense = oracle_tprod(S, B)
    norm = float(np.linalg.norm(dense))
    assert norm > 1.0
    assert checks["tprod_cross_path"].residual == float(
        np.linalg.norm(tprod(S, B) - dense) / norm)

    squares = np.zeros((4, 5))
    for j, t in enumerate(tsvd(S).singular_tuples):
        squares[j] = tube_mul(t, t)
    scale = max(float(np.linalg.norm(t)) for t in squares)
    for side, G in (("right", tprod(transpose(S), S)),
                    ("left", tprod(S, transpose(S)))):
        T = ted(G)
        worst = max(float(np.linalg.norm(row))
                    for row in T.eigentuples - squares[:G.shape[0]])
        assert checks[f"{side}_gram_eigentuple_match"].residual \
            == worst / scale
        floor = -float(T.eigentuples.min())
        assert floor > 0.0
        assert checks[f"{side}_gram_eigentuple_entry_floor"].residual \
            == floor


def test_same_bits_tells_signed_zeros_apart():
    assert tsvd_module._same_bits(np.zeros((2, 2, 1)), np.zeros((2, 2, 1)))
    assert not tsvd_module._same_bits(np.zeros(2), -np.zeros(2))
    assert not tsvd_module._same_bits(np.zeros((2, 3, 1)),
                                      np.zeros((3, 2, 1)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(
    [(1, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 8), (6, 8), (8, 8), (4, 16)]),
    st.sampled_from([0.0, 1e-13, 1e-11]))
def test_polarization_matrices_fold_bit_for_bit(seed, shape, ratio):
    # (A + A^T) / 2 is exactly T-symmetric, so M_r and M_{p-r} are one
    # matrix, and verify's cross-path residual from the folded half equals
    # the one from all p matrices.
    n, p = shape
    A = near_tsym(np.random.default_rng(seed), n, p, ratio)
    M = oracle_quadform_matrices(_symmetric_part(A))
    for r in range(p):
        assert M[r].tobytes() == M[-r % p].tobytes()

    [check] = [c for c in tsvd_module.verify_checks(A, 3)
               if c.check == "exact_psd_cross_path"]
    S, _ = unit_scaled(A)
    T = ted(S)
    lam = float(np.linalg.eigvalsh(
        oracle_quadform_matrices(_symmetric_part(S))).min())
    assert check.residual == abs(exact_psd(S, T).min_eigenvalue - lam) / max(
        1.0, float(np.max(np.abs(T.frequency_eigenvalues))))


def test_shape_errors():
    with pytest.raises(ShapeError):
        tsvd(np.zeros((2, 2)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-1000, 1000),
       st.sampled_from([(3, 3, 4), (2, 4, 3), (4, 4, 4)]))
def test_verify_checks_do_not_depend_on_the_scale(seed, e, shape):
    # Every check runs on unit_scaled(A), the same array for A and
    # ldexp(A, e), so even the residuals agree bit for bit.
    rng = np.random.default_rng(seed)
    m, n, p = shape
    A = random_tensor(rng, m, n, p)
    if m == n:
        A = 0.5 * (A + transpose(A))
    Ae = exactly_scaled(A, e)
    assume(Ae is not None)
    checks = tsvd_module.verify_checks(A, 3)
    assert tsvd_module.verify_checks(Ae, 3) == checks
    assert all(c.passed is not False for c in checks)
