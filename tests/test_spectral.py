"""Eigendecomposition, eigenmatrices, quadratic forms, PSD certification."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (CORE_SHAPES, exactly_scaled, first_components_descend,
                     load_script, near_tsym, random_tensor, random_tsym,
                     record_finding, rel_err, ted_by_loop, tsvd_by_loop)
from tubal_spectra import spectral as spectral_module
from tubal_spectra import tproduct as tproduct_module
from tubal_spectra import tsvd as tsvd_module
from tubal_spectra.errors import (NotBlockCirculant, NotTSymmetric,
                                  ShapeError, TubalError, ZeroMatrix)
from tubal_spectra.oracle import (ELEMENTWISE_PSD, NOT_ELEMENTWISE_PSD,
                                  oracle_psd_exact, oracle_quadform_dense,
                                  oracle_quadform_matrices, oracle_ted_check,
                                  oracle_tprod)
from tubal_spectra.spectral import (SPECTRAL_NOT_PSD, SPECTRAL_PD,
                                    SPECTRAL_PSD, _f_diagonal, _scaled_back,
                                    classify_ted, eigenmatrices,
                                    exact_psd, expand_in_eigenbasis,
                                    extremal_eigentuples, psd_spectral,
                                    quadform, symmetrize, ted,
                                    verify_eigenpair)
from tubal_spectra.tensor3 import (bcirc, bcirc_inv, identity, is_f_diagonal,
                                   is_t_symmetric, shift_columns, transpose,
                                   unfold_mat, unit_scaled)
from tubal_spectra.tproduct import tprod, tprod_mat
from tubal_spectra.transform import _ct, _norm, from_freq, to_freq
from tubal_spectra.tsvd import gram_consistency, tsvd, verify_checks
from tubal_spectra.tubal import (INCOMPARABLE, tube_action, tube_le,
                                 tube_transpose, tubal_sqrt_all, unit_tube)

RNG = np.random.default_rng(20260814)


# --- decomposition invariants ------------------------------------------------

def test_ted_invariants_random():
    for _ in range(10):
        n = int(RNG.integers(1, 7))
        p = int(RNG.integers(1, 7))
        S = random_tsym(RNG, n, p)
        T = ted(S)
        assert T.reconstruction <= 1e-10
        assert T.orthogonality <= 1e-10
        assert T.eigenpair_max <= 1e-9
        assert is_f_diagonal(T.d)
        assert is_t_symmetric(T.d)
        assert first_components_descend(T)
        assert T.eigentuples.shape == (n, p)
        # per-slice descending frequency eigenvalues
        lam = T.frequency_eigenvalues
        assert np.all(lam[1:, :] <= lam[:-1, :] + 1e-12)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["t-symmetric", "gram", "identity"]),
       st.integers(1, 7), st.integers(1, 9), st.integers(0, 2 ** 32 - 1))
def test_first_components_are_sorted_by_construction(kind, n, p, seed):
    # Each first component is the mean of one descending bin entry per
    # frequency, so the order needs no check: random T-symmetric tensors,
    # rank-deficient Grams B * B^T, and c * identity, whose first
    # components tie.
    rng = np.random.default_rng(seed)
    if kind == "t-symmetric":
        A = random_tsym(rng, n, p)
    elif kind == "gram":
        B = random_tensor(rng, n, int(rng.integers(1, max(n, 2))), p)
        A = tprod(B, transpose(B))
    else:
        A = rng.uniform(-5.0, 5.0) * identity(n, p)
    assert first_components_descend(ted(A))


def test_a_column_transform_is_the_column_of_the_transform():
    # exact_psd transforms only its witness column of U: bit for bit the
    # column of the whole transform.
    rng = np.random.default_rng(33)
    for n, p in CORE_SHAPES:
        T = ted(random_tsym(rng, n, p))
        whole = to_freq(T.u)
        for j in range(n):
            column = to_freq(T.u[:, [j], :])[:, :, 0]
            assert column.tobytes() == whole[:, :, j].tobytes(), (n, p, j)


def test_ted_batched_core_matches_per_slice_loop():
    rng = np.random.default_rng(31)
    cases = [random_tsym(rng, n, p) for n, p in CORE_SHAPES]
    cases += [identity(n, p) for n, p in ((3, 1), (3, 4), (4, 5))]
    for A in cases:
        T = ted(A)
        u, d, tuples, freq, pair = ted_by_loop(A)
        assert np.array_equal(T.u, u), A.shape
        assert np.array_equal(T.d, d), A.shape
        assert np.array_equal(T.eigentuples, tuples), A.shape
        assert np.array_equal(T.frequency_eigenvalues, freq), A.shape
        # One residual per eigentuple stands for all p shifts.
        assert T.eigenpair.shape == (A.shape[0],)
        assert np.max(np.abs(T.eigenpair[:, None] - pair)) <= 1e-14, A.shape
        assert T.eigenpair_max == float(T.eigenpair.max())


def test_pair_residuals_match_one_call_per_candidate():
    # Unrelated random candidates, each with its own tube: a residual that
    # evaluated only the first lateral slice, or applied one tube to all of
    # them, would fail here.  The tubes are not their own transposes, so
    # the left side also tells the spectrum of D^T from that of D.
    rng = np.random.default_rng(32)
    for m, n, p, c in ((4, 4, 5, 5), (3, 3, 1, 3), (5, 3, 4, 6),
                       (2, 6, 2, 2), (4, 4, 8, 8)):
        A = rng.standard_normal((m, n, p))
        d = rng.standard_normal((c, p))
        X = rng.standard_normal((n, c, p))
        Y = rng.standard_normal((m, c, p))
        # Diagonal tube j of D is d_j reversed, so Y_j * D_jj = d_j act Y_j.
        D, tuples = _f_diagonal(np.fft.rfft(d, axis=1).conj().T, c, c, p)
        assert np.all(D[~np.eye(c, dtype=bool)] == 0.0)
        assert np.allclose(tuples, d, rtol=0.0, atol=1e-14)
        Af, Xf, Yf, Df = (to_freq(T) for T in (A, X, Y, D))
        got = _norm(Af @ Xf - Yf @ Df, p, (0, 2))
        expected = [float(np.linalg.norm(
            tprod_mat(A, X[:, j, :]) - tube_action(d[j], Y[:, j, :])))
            for j in range(c)]
        assert got.shape == (c,)
        assert np.allclose(got, expected, rtol=1e-14, atol=1e-14)
        got = _norm(_ct(Af) @ Yf - Xf @ _ct(Df), p, (0, 2))
        expected = [float(np.linalg.norm(
            tprod_mat(transpose(A), Y[:, j, :])
            - tube_action(tube_transpose(d[j]), X[:, j, :])))
            for j in range(c)]
        assert np.allclose(got, expected, rtol=1e-14, atol=1e-14)
        assert np.isclose(_norm(Af, p), np.linalg.norm(A), rtol=1e-14)
        if m == n:
            norms = np.linalg.norm(X, axis=(0, 2))
            expected = [verify_eigenpair(A, d[j], X[:, j, :])
                        for j in range(c)]
            assert np.allclose(_norm(Af @ Xf - Xf @ Df, p, (0, 2)) / norms,
                               expected, rtol=1e-14, atol=1e-14)


def test_shifted_residuals_are_constant_across_shifts():
    # The per-shift loop values, computed independently for every k, agree
    # across k: a shift is the action of e_k, which commutes with the
    # t-product and with every tube action and only permutes entries.
    rng = np.random.default_rng(36)
    for n, p in ((3, 1), (4, 4), (5, 7), (6, 16)):
        pair = ted_by_loop(random_tsym(rng, n, p))[4]
        assert np.max(np.ptp(pair, axis=1)) <= 1e-14, (n, p)
    for shape in ((5, 3, 6), (3, 5, 9), (4, 4, 16)):
        right, left = tsvd_by_loop(random_tensor(rng, *shape))[5:]
        assert np.max(np.ptp(right, axis=1)) <= 1e-14, shape
        assert np.max(np.ptp(left, axis=1)) <= 1e-14, shape


def _eigen_residuals(A, U, D):
    """Lateral-slice norms of ``A * U - U * D``, formed as ``ted`` forms
    its eigenpair certificate."""
    Af, Uf, Df = (to_freq(T) for T in (A, U, D))
    return _norm(Af @ Uf - Uf @ Df, A.shape[2], (0, 2))


def test_perturbed_tuple_raises_only_its_own_residual():
    rng = np.random.default_rng(37)
    A = random_tsym(rng, 5, 6)
    T = ted(A)
    base = _eigen_residuals(A, T.u, T.d)
    assert np.max(base) <= 1e-13
    # ted certifies A * 2^-e, and scaling by a power of two is exact.
    assert np.array_equal(np.ldexp(base, -T.scale_exponent)
                          / np.linalg.norm(T.u, axis=(0, 2)),
                          T.eigenpair)
    for j in range(5):
        U = T.u.copy()
        U[:, j, :] += 1e-3 * rng.standard_normal((5, 6))
        D = T.d.copy()
        D[j, j, :] += 1e-3 * rng.standard_normal(6)
        others = np.arange(5) != j
        for got in (_eigen_residuals(A, U, T.d), _eigen_residuals(A, T.u, D)):
            assert got[j] > 1e-6
            assert np.array_equal(got[others], base[others])


def test_ted_and_tsvd_make_no_per_shift_calls(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("per-shift or spatial certificate call")

    for module in (tproduct_module, spectral_module, tsvd_module):
        for name in ("tprod_mat", "verify_eigenpair", "tprod", "transpose",
                     "identity"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    rng = np.random.default_rng(33)
    T = ted(random_tsym(rng, 4, 5))
    R = tsvd(random_tensor(rng, 5, 3, 4))
    assert T.eigenpair_max <= 1e-12
    assert R.pair_max <= 1e-12


@pytest.mark.parametrize("decompose, A, calls", [
    (ted, random_tsym(np.random.default_rng(34), 4, 6), 3),
    (tsvd, random_tensor(np.random.default_rng(35), 5, 3, 7), 4),
], ids=["ted", "tsvd"])
def test_decomposition_transforms_its_input_once(monkeypatch, decompose, A,
                                                 calls):
    # One rfft of unit_scaled(A), the tensor factored (reused from
    # to_freq, see test_transform's test_half_spectrum_is_rfft_bit_for_bit),
    # and one of each returned factor: U, D for ted and U, S, V for tsvd.
    # The spectrum of a transpose is the per-bin conjugate transpose,
    # never a new rfft.
    real = np.fft.rfft
    inputs = []

    def counted(a, *args, **kwargs):
        inputs.append(np.array(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    decompose(A)
    S = unit_scaled(A)[0]
    assert len(inputs) == calls
    assert sum(np.array_equal(a, S) for a in inputs) == 1
    if decompose is tsvd:
        assert not any(np.array_equal(a, transpose(S)) for a in inputs)
    assert not any(np.array_equal(a, b)
                   for i, a in enumerate(inputs) for b in inputs[i + 1:])


def test_certificates_read_the_returned_factors(monkeypatch):
    # Perturb the half spectrum of every factor on its way to the inverse
    # transform (from_freq as bound in spectral and tsvd; the residual
    # spectra reach it through transform._norm).  The certificates must see
    # the perturbation, and each must equal its t-product identity evaluated
    # on the returned factors: A = U * D * U^T and U^T * U = I, A * U - U * D
    # for ted; A = U * S * V^T, U^T * U = I, V^T * V = I, A * V_r - U * S_r
    # and A^T * U_r - V * S_r^T for tsvd.  The pair residuals are those
    # of A * 2^-e, the tensor factored.
    rng = np.random.default_rng(38)
    real = spectral_module.from_freq

    def perturbed(half, p):
        half = np.asarray(half)
        return real(half + 1e-6 * rng.standard_normal(half.shape), p)

    for module in (spectral_module, tsvd_module):
        monkeypatch.setattr(module, "from_freq", perturbed)

    def close(got, expected):
        return np.allclose(got, expected, rtol=1e-7, atol=1e-14)

    def lateral(X):
        return np.linalg.norm(X, axis=(0, 2))

    A = random_tsym(rng, 4, 6)
    T = ted(A)
    U, D = T.u, T.d
    assert T.reconstruction > 1e-8 and T.orthogonality > 1e-8
    assert close(T.reconstruction, np.linalg.norm(
        A - tprod(tprod(U, D), transpose(U))) / np.linalg.norm(A))
    assert close(T.orthogonality, np.linalg.norm(
        tprod(transpose(U), U) - identity(4, 6)))
    assert close(T.eigenpair, np.ldexp(lateral(tprod(A, U) - tprod(U, D)),
                                       -T.scale_exponent) / lateral(U))

    for m, n in ((5, 3), (3, 5)):
        A = random_tensor(rng, m, n, 7)
        R = tsvd(A)
        U, S, V = R.u, R.s, R.v
        assert min(R.reconstruction, R.orthogonality_u,
                   R.orthogonality_v) > 1e-8
        assert close(R.reconstruction, np.linalg.norm(
            A - tprod(tprod(U, S), transpose(V))) / np.linalg.norm(A))
        assert close(R.orthogonality_u, np.linalg.norm(
            tprod(transpose(U), U) - identity(m, 7)))
        assert close(R.orthogonality_v, np.linalg.norm(
            tprod(transpose(V), V) - identity(n, 7)))
        r = min(m, n)
        e = R.scale_exponent
        assert close(R.pair_right,
                     np.ldexp(lateral(tprod(A, V) - tprod(U, S))[:r], -e))
        assert close(R.pair_left, np.ldexp(lateral(
            tprod(transpose(A), U) - tprod(V, transpose(S)))[:r], -e))


def test_ted_rejects_non_symmetric():
    with pytest.raises(NotTSymmetric):
        ted(random_tensor(RNG, 4, 4, 3))
    with pytest.raises(ShapeError):
        ted(random_tensor(RNG, 3, 4, 2))


def test_symmetry_gate_bounds_the_reconstruction():
    # ted factors (A + A^T) / 2, whose distance from A is half of
    # ||A - A^T||_F: just inside the gate, the certificate still holds.
    worst = 0.0
    for n, p in CORE_SHAPES:
        for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            A = scale * near_tsym(RNG, n, p, 0.99e-10)
            T = ted(A)
            worst = max(worst, T.reconstruction)
            checks = {c.check: c for c in oracle_ted_check(A, T)}
            assert checks["reconstruction"].passed
    assert worst <= 0.5e-10 + 1e-14
    record_finding(f"ted reconstruction just inside the symmetry gate "
                   f"(ratio 0.99e-10): worst {worst:.3e}")


def test_identity_eigentuples_are_unit_tubes():
    for p in (1, 2, 3, 4, 5, 6, 8):
        T = ted(identity(3, p))
        assert np.array_equal(T.eigentuples, np.tile(unit_tube(p), (3, 1)))
    # p = 7: the inverse transform of the all-ones spectrum carries ~1e-17
    # roundoff, so equality holds only up to that.
    T7 = ted(identity(3, 7))
    assert np.allclose(T7.eigentuples, np.tile(unit_tube(7), (3, 1)),
                       atol=1e-15)


def test_p_equal_one_reduces_to_matrix_eigendecomposition():
    M = RNG.standard_normal((5, 5))
    M = 0.5 * (M + M.T)
    T = ted(M[:, :, None])
    w = np.linalg.eigvalsh(M)[::-1]
    assert np.allclose(T.eigentuples[:, 0], w, atol=1e-12)
    top, bottom = extremal_eigentuples(T)
    assert np.isclose(top[0], w[0]) and np.isclose(bottom[0], w[-1])


def test_eigentuples_are_reversed_diagonal_tubes():
    S = random_tsym(RNG, 4, 5)
    T = ted(S)
    for j in range(4):
        assert np.array_equal(T.eigentuples[j],
                              tube_transpose(T.d[j, j, :]))


def test_dense_oracle_confirms_ted():
    S = random_tsym(RNG, 5, 4)
    checks = oracle_ted_check(S, ted(S))
    assert all(c.passed for c in checks)


def test_eigenmatrices_and_eigenpair_residuals():
    S = random_tsym(RNG, 4, 3)
    T = ted(S)
    mats = eigenmatrices(T, 2)
    assert len(mats) == 3
    assert np.array_equal(mats[1], shift_columns(T.u[:, 1, :], 1))
    for k, X in enumerate(mats):
        assert verify_eigenpair(S, T.eigentuples[1], X) <= 1e-10
    with pytest.raises(IndexError):
        eigenmatrices(T, 0)
    with pytest.raises(IndexError):
        eigenmatrices(T, 5)
    with pytest.raises(ZeroMatrix):
        verify_eigenpair(S, T.eigentuples[0], np.zeros((4, 3)))


def test_eigenmatrices_gram_is_identity():
    # The n*p shifted eigenmatrices are orthonormal: they are the columns
    # of bcirc(u).
    S = random_tsym(RNG, 3, 4)
    T = ted(S)
    vecs = [unfold_mat(shift_columns(T.u[:, j, :], k))
            for k in range(4) for j in range(3)]
    G = np.array([[float(v @ w) for w in vecs] for v in vecs])
    assert np.max(np.abs(G - np.eye(12))) <= 1e-10


def test_shift_by_identity_multiple():
    S = random_tsym(RNG, 4, 3)
    T = ted(S)
    e = unit_tube(3)
    for lam in (-2.0, 0.5, 3.0):
        T2 = ted(S + lam * identity(4, 3))
        assert np.max(np.abs(T2.eigentuples - (T.eigentuples + lam * e))) \
            <= 1e-10
        # same invariant subspaces: columns align up to sign per slice
        for j in range(4):
            overlap = abs(float(np.sum(T.u[:, j, :] * T2.u[:, j, :])))
            assert overlap >= 1.0 - 1e-8


def test_ordering_probe_is_logged():
    # Elementwise order between consecutive eigentuples routinely fails or
    # is incomparable; the result records it and the extremal bound
    # d_1 >= d_j >= d_n is probed and logged, never silently assumed.
    outcomes = {True: 0, False: 0, INCOMPARABLE: 0}
    violations = 0
    total = 0
    for _ in range(30):
        n = int(RNG.integers(2, 7))
        p = int(RNG.integers(2, 6))
        T = ted(random_tsym(RNG, n, p))
        outcomes[T.elementwise_chain] += 1
        top, bottom = extremal_eigentuples(T)
        for j in range(n):
            total += 1
            dj = T.eigentuples[j]
            if tube_le(dj, top) is not True or tube_le(bottom, dj) is not True:
                violations += 1
    record_finding(
        f"elementwise eigentuple chain over 30 runs: {outcomes[True]} hold, "
        f"{outcomes[False]} fail, {outcomes[INCOMPARABLE]} incomparable; "
        f"extremal bound d_1 >= d_j >= d_n violated for {violations}/{total} "
        f"eigentuples (elementwise order is partial; first components are "
        f"always sorted)")
    assert outcomes[True] + outcomes[False] + outcomes[INCOMPARABLE] == 30


def test_canonical_form_invariant_under_eigen_order_permutation():
    # Permuting each slice's eigenpairs and re-canonicalizing (sort
    # descending, fix phases) reproduces the extremal eigentuples.
    S = random_tsym(RNG, 4, 5)
    T = ted(S)
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        F = to_freq(S)
        p, n = 5, 4
        dhalf = np.zeros((3, n, n), dtype=np.complex128)
        for k in range(3):
            M = F[k]
            H = 0.5 * (M + M.conj().T) if k else 0.5 * (M.real + M.real.T)
            w = np.linalg.eigvalsh(H)
            w = w[rng.permutation(n)]
            w = w[np.argsort(-w, kind="stable")]  # re-canonicalize
            dhalf[k] = np.diag(w)
        D2 = from_freq(dhalf, p)
        d_top = tube_transpose(D2[0, 0, :])
        d_bot = tube_transpose(D2[n - 1, n - 1, :])
        assert np.max(np.abs(d_top - T.eigentuples[0])) <= 1e-10
        assert np.max(np.abs(d_bot - T.eigentuples[-1])) <= 1e-10


def test_zero_tensor():
    T = ted(np.zeros((3, 3, 4)))
    assert np.max(np.abs(T.eigentuples)) == 0.0
    assert T.reconstruction == 0.0
    assert T.orthogonality <= 1e-10


# --- quadratic form ----------------------------------------------------------

def test_quadform_identity_example():
    E = identity(1, 2)
    X = np.array([[1.0, -1.0]])
    assert np.allclose(quadform(E, X), [2.0, -2.0], atol=1e-14)


def test_quadform_first_component_is_classical_form():
    for _ in range(5):
        S = random_tsym(RNG, 4, 3)
        X = RNG.standard_normal((4, 3))
        x = unfold_mat(X)
        assert np.isclose(quadform(S, X)[0], float(x @ bcirc(S) @ x),
                          atol=1e-10)
    E = identity(3, 4)
    X = RNG.standard_normal((3, 4))
    assert np.isclose(quadform(E, X)[0], np.linalg.norm(X) ** 2, atol=1e-12)


def test_quadform_matches_dense_oracle():
    A = random_tensor(RNG, 4, 4, 5)
    X = RNG.standard_normal((4, 5))
    assert np.allclose(quadform(A, X), oracle_quadform_dense(A, X),
                       atol=1e-10)
    with pytest.raises(ShapeError):
        quadform(A, RNG.standard_normal((4, 3)))


def test_quadform_symmetrization_identity():
    # F_{A^T} reverses the tube, so F_{A+A^T} = F_A + reverse(F_A): the
    # first component doubles; the whole tube doubles only for
    # T-symmetric A.
    A = random_tensor(RNG, 3, 3, 4)
    X = RNG.standard_normal((3, 4))
    F = quadform(A, X)
    Fs = quadform(symmetrize(A), X)
    assert np.allclose(Fs, F + tube_transpose(F), atol=1e-11)
    assert np.isclose(F[0], 0.5 * Fs[0], atol=1e-11)
    S = random_tsym(RNG, 3, 4)
    assert np.allclose(quadform(S, X),
                       0.5 * quadform(symmetrize(S), X), atol=1e-11)


def test_symmetrize():
    A = random_tensor(RNG, 3, 3, 4)
    S = symmetrize(A)
    assert np.array_equal(S, transpose(S))
    T = random_tsym(RNG, 3, 4)
    assert np.allclose(symmetrize(T), 2.0 * T, atol=0)
    assert np.array_equal(symmetrize(identity(3, 4)), 2.0 * identity(3, 4))


# --- eigenbasis expansion ----------------------------------------------------

def test_expand_in_eigenbasis():
    S = random_tsym(RNG, 4, 3)
    T = ted(S)
    X = shift_columns(T.u[:, 1, :], 1)
    alpha = expand_in_eigenbasis(T, X)
    expected = np.zeros((4, 3))
    expected[1, 1] = 1.0
    assert np.allclose(alpha, expected, atol=1e-12)

    X = RNG.standard_normal((4, 3))
    alpha = expand_in_eigenbasis(T, X)
    rebuilt = sum(alpha[j, k] * shift_columns(T.u[:, j, :], k)
                  for j in range(4) for k in range(3))
    assert rel_err(rebuilt, X) <= 1e-12
    assert np.isclose(float(np.sum(alpha ** 2)),
                      float(np.linalg.norm(X) ** 2), rtol=1e-12)
    with pytest.raises(ShapeError):
        expand_in_eigenbasis(T, RNG.standard_normal((3, 3)))


def test_expand_in_eigenbasis_matches_per_shift_loop():
    rng = np.random.default_rng(34)
    for n, p in ((1, 1), (3, 2), (4, 5), (5, 8)):
        T = ted(random_tsym(rng, n, p))
        X = rng.standard_normal((n, p))
        alpha = expand_in_eigenbasis(T, X)
        loop = np.array([[float(np.sum(shift_columns(T.u[:, j, :], k) * X))
                          for k in range(p)] for j in range(n)])
        assert np.max(np.abs(alpha - loop)) <= 1e-14
        # Parseval: the shifted eigenmatrices are an orthonormal basis.
        assert abs(float(np.sum(alpha ** 2))
                   - float(np.linalg.norm(X)) ** 2) <= 1e-12 * max(
                       1.0, float(np.linalg.norm(X)) ** 2)


def test_quadform_expansion_with_cross_terms():
    # F_A(X) = sum over j, l, k of alpha[j,l] alpha[j,k] times the tube of
    # (U_j^[l])^T * U_j^[k] * D_j  -- the cross terms (l != k) are shift
    # tubes, not zero, computed here entirely through the dense oracle.
    n, p = 3, 4
    S = random_tsym(RNG, n, p)
    T = ted(S)
    X = RNG.standard_normal((n, p))
    alpha = expand_in_eigenbasis(T, X)
    total = np.zeros(p)
    cross_mass = 0.0
    for j in range(n):
        Dj = tube_transpose(T.eigentuples[j])[None, None, :]  # 1 x 1 x p
        for l in range(p):
            Ul = shift_columns(T.u[:, j, :], l)[:, None, :]
            for k in range(p):
                Uk = shift_columns(T.u[:, j, :], k)[:, None, :]
                g = oracle_tprod(oracle_tprod(transpose(Ul), Uk), Dj)[0, 0, :]
                term = alpha[j, l] * alpha[j, k] * g
                total += term
                if l != k:
                    cross_mass += float(np.linalg.norm(term))
    assert np.allclose(total, quadform(S, X), atol=1e-10)
    assert cross_mass > 1e-6  # the cross terms genuinely contribute


# --- PSD certification -------------------------------------------------------

def test_psd_identity_is_psd_not_pd():
    v = psd_spectral(identity(3, 4))
    assert v.spectral_class == SPECTRAL_PSD
    assert np.allclose(v.smallest_eigentuple, unit_tube(4))
    assert v.min_entry == 0.0
    assert v.min_frequency_eigenvalue >= 1.0 - 1e-12


def test_psd_negative_identity():
    v = psd_spectral(-identity(3, 4))
    assert v.spectral_class == SPECTRAL_NOT_PSD
    assert v.min_frequency_eigenvalue <= -1.0 + 1e-12


def test_psd_definite_case():
    # Diagonal tubes with positive entries AND positive spectra, already
    # descending in every frequency bin, are their own eigentuples: the
    # entrywise criterion certifies PD.
    A = np.zeros((2, 2, 4))
    A[0, 0, :] = [4.0, 1.0, 0.5, 1.0]
    A[1, 1, :] = [2.0, 0.5, 0.25, 0.5]
    v = psd_spectral(A)
    assert v.spectral_class == SPECTRAL_PD
    assert v.min_entry > 0.0
    assert np.array_equal(v.smallest_eigentuple, A[1, 1, :])


def test_psd_shifted_gram_is_frequency_definite():
    # Adding 5 * identity pushes every frequency eigenvalue above 5, but
    # the spatial entries of the eigentuples move only in their first
    # component, so the entrywise class may still refuse to certify.
    S = random_tsym(RNG, 3, 4)
    G = tprod(S, transpose(S)) + 5.0 * identity(3, 4)
    v = psd_spectral(G)
    assert v.min_frequency_eigenvalue >= 5.0 - 1e-9
    if v.spectral_class == SPECTRAL_NOT_PSD:
        assert v.min_entry < -v.tol
    else:
        assert v.min_entry >= -v.tol


def test_psd_zero_tensor_is_psd():
    v = psd_spectral(np.zeros((2, 2, 3)))
    assert v.spectral_class == SPECTRAL_PSD


def test_psd_requires_symmetry_unless_flagged():
    A = random_tensor(RNG, 3, 3, 4)
    with pytest.raises(NotTSymmetric, match="auto_symmetrize=True"):
        psd_spectral(A)
    v = psd_spectral(A, auto_symmetrize=True)
    assert v.spectral_class in (SPECTRAL_PD, SPECTRAL_PSD, SPECTRAL_NOT_PSD)
    w = classify_ted(ted(0.5 * symmetrize(A)))
    assert v.spectral_class == w.spectral_class
    assert np.array_equal(v.smallest_eigentuple, w.smallest_eigentuple)
    assert v.symmetrized and not w.symmetrized
    S = 0.5 * symmetrize(A)
    # The exact answer is that of the classified tensor too.
    ex = v.exact
    assert ex.witness_value == quadform(S, ex.witness)[ex.component - 1]
    assert not psd_spectral(S, auto_symmetrize=True).symmetrized
    # Symmetry is decided by ted's gates, after the finite gate of to_freq:
    # a nan is an overflow, not an unsymmetric tensor.
    N = identity(2, 2)
    N[0, 0, 0] = np.nan
    for auto in (False, True):
        with pytest.raises(ValueError) as info:
            psd_spectral(N, auto_symmetrize=auto)
        assert type(info.value) is ValueError
        assert "frequency spectrum overflows" in str(info.value)


def test_psd_gram_tensors_report():
    # Gram tensors are classically PSD on every frequency slice; their
    # spatial eigentuple entries, however, are routinely negative, so the
    # criterion verdict varies and is reported, not asserted.
    psd_count = 0
    runs = 25
    for _ in range(runs):
        n = int(RNG.integers(1, 5))
        p = int(RNG.integers(1, 5))
        B = random_tensor(RNG, n, n, p)
        G = tprod(transpose(B), B)
        v = psd_spectral(G)
        assert v.min_frequency_eigenvalue >= -1e-10
        if v.spectral_class in (SPECTRAL_PD, SPECTRAL_PSD):
            psd_count += 1
    record_finding(
        f"criterion verdict on random Gram tensors B^T * B: {psd_count}/"
        f"{runs} classified PSD/PD by spatial eigentuple entries; all "
        f"{runs}/{runs} have nonnegative frequency spectra (entrywise "
        f"nonnegativity of squared tubes is not guaranteed)")


def test_classify_ted_is_psd_spectral_on_a_held_decomposition():
    rng = np.random.default_rng(5)
    B = random_tensor(rng, 3, 3, 4)
    for A in (tprod(transpose(B), B), identity(2, 3), -identity(2, 3)):
        for tol in (1e-10, 1e-3):
            held = classify_ted(ted(A), tol)
            fresh = psd_spectral(A, tol=tol)
            assert held.spectral_class == fresh.spectral_class
            assert held.min_entry == fresh.min_entry
            assert (held.min_frequency_eigenvalue
                    == fresh.min_frequency_eigenvalue)
            assert np.array_equal(held.smallest_eigentuple,
                                  fresh.smallest_eigentuple)
            assert held.tol == tol
            T = ted(A)
            assert (classify_ted(T, tol).min_frequency_eigenvalue
                    == T.frequency_eigenvalues.min())


def test_psd_criterion_vs_elementwise_oracle_gap():
    # The criterion says PSD for the identity, yet the form takes values
    # with negative entries: the oracle exhibits a witness.
    E = identity(1, 2)
    v = psd_spectral(E)
    assert v.spectral_class == SPECTRAL_PSD
    ex = oracle_psd_exact(E)
    assert ex.label == "NOT_ELEMENTWISE_PSD"
    w = ex.witness / np.linalg.norm(ex.witness)
    assert np.allclose(np.abs(w), [[1.0, 1.0]] / np.sqrt(2), atol=1e-12)
    value = quadform(E, ex.witness)[ex.component - 1]
    assert value < -1e-10
    # The closed form gives the same answer, with the canonical witness.
    closed = v.exact
    assert (closed.label, closed.component, closed.min_eigenvalue) == (
        ex.label, ex.component, -1.0)
    assert np.allclose(closed.witness, [[1.0, -1.0]] / np.sqrt(2),
                       atol=1e-15)
    assert abs(closed.witness_value + 1.0) <= 1e-15


# --- exact elementwise PSD in closed form ------------------------------------

def _exact_cases(rng, n, p):
    """A T-symmetric, a Gram and a constant-tube PSD tensor of shape
    ``(n, n, p)``."""
    B = random_tensor(rng, n, n, p)
    C = random_tensor(rng, n, n, 1)[:, :, 0]
    return (random_tsym(rng, n, p), tprod(transpose(B), B),
            np.repeat((C @ C.T)[:, :, None], p, axis=2))


@pytest.mark.parametrize("n,p", CORE_SHAPES)
def test_exact_psd_matches_dense_polarization_spectrum(n, p):
    # The closed-form minimum is the smallest eigenvalue of every dense
    # polarization matrix, it is attained by the reported component, and
    # the class is the dense oracle's.
    rng = np.random.default_rng(1000 * n + p)
    for A in _exact_cases(rng, n, p):
        T = ted(A)
        ex = exact_psd(A, T)
        w = np.linalg.eigvalsh(oracle_quadform_matrices(A))
        scale = 1e-12 * max(1.0, float(np.max(np.abs(
            T.frequency_eigenvalues))))
        assert abs(ex.min_eigenvalue - w.min()) <= scale
        assert abs(w[ex.component - 1].min() - w.min()) <= scale
        assert ex.component <= p // 2 + 1  # r and p - r tie exactly
        assert ex.label == oracle_psd_exact(A).label


@pytest.mark.parametrize("n,p", CORE_SHAPES)
def test_exact_psd_witness_attains_the_dense_minimum(n, p):
    rng = np.random.default_rng(2000 * n + p)
    negatives = 0
    for A in (*_exact_cases(rng, n, p), -identity(n, p)):
        ex = exact_psd(A, ted(A))
        if ex.label == ELEMENTWISE_PSD:
            assert ex.witness is None and ex.witness_value is None
            continue
        negatives += 1
        assert ex.witness.shape == (n, p)
        assert abs(np.linalg.norm(ex.witness) - 1.0) <= 1e-14
        dense = oracle_quadform_dense(A, ex.witness)[ex.component - 1]
        scale = 1e-12 * max(1.0, abs(ex.min_eigenvalue))
        assert abs(dense - ex.min_eigenvalue) <= scale
        assert ex.witness_value == quadform(A, ex.witness)[ex.component - 1]
        assert ex.witness_value < -1e-10
    assert negatives >= 1


@pytest.mark.parametrize("p", range(1, 9))
def test_exact_psd_constant_tubes(p):
    # The form is elementwise PSD iff F_0 is PSD and every other bin
    # vanishes, that is iff every tube is constant.
    rng = np.random.default_rng(p)
    C = random_tensor(rng, 3, 3, 1)[:, :, 0]
    A = np.repeat((C @ C.T)[:, :, None], p, axis=2)
    assert psd_spectral(A).exact.label == ELEMENTWISE_PSD
    N = np.repeat(np.diag([1.0, -1.0])[:, :, None], p, axis=2)
    assert exact_psd(N, ted(N)).label == NOT_ELEMENTWISE_PSD
    if p > 1:  # a PSD bin 0 with a nonzero bin k > 0 is not enough
        E = identity(3, p)
        assert exact_psd(E, ted(E)).label == NOT_ELEMENTWISE_PSD


def test_exact_psd_inconsistent_witness_is_an_internal_error(monkeypatch):
    # A witness that does not attain the minimum is reported, not returned.
    monkeypatch.setattr(spectral_module, "quadform",
                        lambda A, X: np.zeros(A.shape[2]))
    with pytest.raises(TubalError, match="internal inconsistency"):
        exact_psd(identity(1, 2), ted(identity(1, 2)))


# (n, p, seed) of scripts/corpus.py's near-threshold tensors at ratio
# 9.9e-11.  The first two raised "internal inconsistency" when the witness
# was evaluated on A, whose antisymmetric part moves components r != 0 by
# about 1e-10 2^e; the third when it was evaluated on the rounded
# 0.5 * A + 0.5 * A^T, which moves the value by an ulp of max|A|, about the
# margin.
NEAR_THRESHOLD = [(3, 3, 1), (4, 5, 20), (3, 4, 71)]
near_threshold = load_script("corpus")._near_threshold


@pytest.mark.parametrize("n,p,seed", NEAR_THRESHOLD)
def test_exact_psd_witness_is_valued_on_the_symmetric_part(n, p, seed):
    A = near_threshold(seed, n, p, 9.9e-11)
    assert is_t_symmetric(A)
    ex = psd_spectral(A).exact
    assert ex.label == NOT_ELEMENTWISE_PSD
    tol = np.ldexp(1e-10, unit_scaled(A)[1])
    S = 0.5 * (A + transpose(A))
    value = quadform(S, ex.witness)[ex.component - 1]
    assert abs(ex.witness_value - value) <= 1e-4 * tol
    assert ex.witness_value < -tol
    assert all(c.passed is not False for c in verify_checks(A, 0))


# --- one power-of-two scale ---------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-1000, 1000),
       st.sampled_from([(1, 1, 1), (3, 3, 4), (4, 4, 5), (2, 5, 3),
                        (5, 2, 6)]))
def test_decompositions_commute_with_power_of_two_scaling(seed, e, shape):
    # ted and tsvd factor unit_scaled(A), which is the same array for A and
    # ldexp(A, e): the factors and residuals agree bit for bit, and the
    # spectra and tuples are the scaled-back ones.
    rng = np.random.default_rng(seed)
    m, n, p = shape
    A = random_tsym(rng, n, p) if m == n else random_tensor(rng, m, n, p)
    Ae = exactly_scaled(A, e)
    assume(Ae is not None)
    results = [(tsvd(A), tsvd(Ae))]
    if m == n:
        results.append((ted(A), ted(Ae)))
    for R, Re in results:
        assert Re.scale_exponent == R.scale_exponent + e
        for name, value in vars(R).items():
            got = getattr(Re, name)
            if name in ("d", "s", "eigentuples", "singular_tuples",
                        "frequency_eigenvalues", "frequency_singular_values"):
                assert np.array_equal(got, np.ldexp(value, e)), name
            elif name != "scale_exponent":
                assert np.array_equal(got, value), name


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-1000, 1000),
       st.sampled_from([(2, 1), (3, 4), (4, 3)]), st.booleans())
def test_psd_classes_do_not_depend_on_the_scale(seed, e, shape, gram):
    rng = np.random.default_rng(seed)
    n, p = shape
    B = random_tensor(rng, n, n, p)
    A = tprod(transpose(B), B) if gram else random_tsym(rng, n, p)
    Ae = exactly_scaled(A, e)
    assume(Ae is not None)
    v, ve = psd_spectral(A), psd_spectral(Ae)
    assert ve.spectral_class == v.spectral_class
    assert ve.exact.label == v.exact.label
    assert ve.exact.component == v.exact.component


def _block_circulant(M):
    try:
        bcirc_inv(M, 2)
    except NotBlockCirculant:
        return False
    return True


def _nearly_block_circulant():
    """A 4 x 4 Gaussian matrix, which is not block circulant at p = 2, and
    ``bcirc`` of a Gaussian tensor with one entry moved by a relative
    2^-50, which is."""
    rng = np.random.default_rng(3)
    M = bcirc(rng.standard_normal((2, 2, 2)))
    M[0, 1] *= 1 + 2.0 ** -50
    return np.stack([rng.standard_normal((4, 4)), M])


@pytest.mark.parametrize("verdict, X, expected", [
    (lambda A: oracle_ted_check(A, ted(A)),
     random_tsym(np.random.default_rng(3), 4, 5), None),
    (lambda A: gram_consistency(A, tsvd(A)),
     random_tensor(np.random.default_rng(3), 4, 3, 5), None),
    (lambda A: oracle_psd_exact(A).label, -identity(2, 3),
     NOT_ELEMENTWISE_PSD),
    (lambda Ms: [_block_circulant(M) for M in Ms], _nearly_block_circulant(),
     [False, True]),
    (lambda bs: [[r.nonnegative for r in tubal_sqrt_all(b)] for b in bs],
     np.array([[2.0, 2.0, 1.0], [-2.0, -2.0, -1.0]]),
     [[True, True, False, False], []]),
], ids=["oracle_ted_check", "gram_consistency", "oracle_psd_exact",
        "bcirc_inv", "tubal_sqrt_all"])
def test_every_verdict_takes_its_inputs_scale(verdict, X, expected):
    # Each verdict reads its tolerances relative to 2^e of unit_scaled(X),
    # so it is the same at every exact power-of-two scale; the certifiers'
    # residuals are those of unit_scaled(X), the same bits at every scale.
    found = verdict(X)
    if expected is None:
        assert all(c.passed is not False for c in found)
    else:
        assert found == expected
    for e in (-100, -40, 34, 100):
        assert verdict(exactly_scaled(X, e)) == found, e


def test_psd_tol_is_relative_to_the_scale():
    # The smallest eigentuple entry of diag(1, -1e-8) sits between -1e-7
    # and -1e-9 at every scale, so the class follows tol alone.
    A = np.zeros((2, 2, 1))
    A[:, :, 0] = np.diag([1.0, -1e-8])
    for scale in (1e-300, 1e-6, 1.0, 1e6, 1e300):
        assert psd_spectral(scale * A, tol=1e-7).spectral_class == \
            SPECTRAL_PSD
        assert psd_spectral(scale * A, tol=1e-9).spectral_class == \
            SPECTRAL_NOT_PSD


def test_psd_thresholds_are_inclusive_as_documented():
    # identity(2, 1) scales by 2^1, so tol = 0.5 puts the bound at 1, the
    # size of every eigentuple entry and eigenvalue: 1 does not exceed 1,
    # and -1 is at least -1.
    below = np.nextafter(0.5, 0.0)
    T = ted(identity(2, 1))
    assert classify_ted(T, 0.5).spectral_class == SPECTRAL_PSD
    assert classify_ted(T, below).spectral_class == SPECTRAL_PD
    N = -identity(2, 1)
    T = ted(N)
    assert classify_ted(T, 0.5).spectral_class == SPECTRAL_PSD
    assert classify_ted(T, below).spectral_class == SPECTRAL_NOT_PSD
    assert exact_psd(N, T, 0.5).label == ELEMENTWISE_PSD
    assert exact_psd(N, T, below).witness_value == -1.0


#: Every library entry point that reads a tolerance, on 3 * identity(3, 4):
#: PSD by its eigentuple entries, of which the smallest is 0, and not
#: elementwise PSD, with exact minimum -3.
_TOL_READERS = {
    "is_t_symmetric": lambda A, tol: is_t_symmetric(A, tol),
    "ted": lambda A, tol: ted(A, tol),
    "psd_spectral": lambda A, tol: psd_spectral(A, tol=tol),
    "classify_ted": lambda A, tol: classify_ted(ted(A), tol),
    "exact_psd": lambda A, tol: exact_psd(A, ted(A), tol),
}


@pytest.mark.parametrize("name", _TOL_READERS)
@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_tolerances_refuse_nan_inf_and_negative(name, tol):
    # nan read as NOT_PSD_BY_CRITERION and NotTSymmetric, -1 as PD and inf
    # as ELEMENTWISE_PSD below a minimum of -3.
    with pytest.raises(ValueError, match="finite and nonnegative"):
        _TOL_READERS[name](3 * identity(3, 4), tol)


def test_a_zero_tolerance_is_valid():
    for read in _TOL_READERS.values():
        read(3 * identity(3, 4), 0.0)
    v = psd_spectral(3 * identity(3, 4), tol=0.0)
    assert (v.spectral_class, v.exact.label) == (SPECTRAL_PSD,
                                                 NOT_ELEMENTWISE_PSD)


def test_exact_psd_of_huge_constant_tubes_is_elementwise_psd():
    # Every polarization matrix of a constant-tube tensor is c J, so the
    # form is elementwise PSD; at 1e300 the roundoff minimum is about
    # -1e285, which an absolute tolerance called an inconsistent witness.
    v = psd_spectral(np.full((3, 3, 4), 1e300))
    assert (v.spectral_class, v.exact.label) == (SPECTRAL_PSD,
                                                 ELEMENTWISE_PSD)
    assert v.exact.witness is None


def test_scaled_back_raises_when_any_one_array_overflows():
    # The overflowing array holds a finite entry too, so neither "every
    # array" nor "every entry" may be weakened to "some".
    fits, overflows = np.ones(2), np.array([1.0, 2.0 ** 1000])
    with np.errstate(over="ignore"):
        for arrays in ((overflows, fits, fits), (fits, fits, overflows)):
            with pytest.raises(ValueError, match="spectrum overflows"):
                _scaled_back(100, *arrays)
    assert all(np.array_equal(X, np.ldexp(fits, 100))
               for X in _scaled_back(100, fits, fits))


def test_spectrum_that_overflows_once_scaled_back_raises():
    A = np.full((2, 2, 2), 1.7e308)
    for decompose in (ted, tsvd):
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="frequency spectrum overflows"):
            decompose(A)
