"""Dense oracle layer: product route, polarization matrices, exact PSD,
decomposition checking (including deliberate corruption)."""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import (CORE_SHAPES, oracle_eigenpair_by_loop,
                     polarization_by_evaluation, random_tensor, random_tsym)
from tubal_spectra import cli, oracle
from tubal_spectra import tsvd as tsvd_module
from tubal_spectra.errors import ShapeError
from tubal_spectra.oracle import (ELEMENTWISE_PSD, NOT_ELEMENTWISE_PSD,
                                  CheckResult, oracle_psd_exact,
                                  oracle_quadform_dense,
                                  oracle_quadform_matrices, oracle_ted_check,
                                  oracle_tprod)
from tubal_spectra.spectral import quadform, ted
from tubal_spectra.tensor3 import (identity, unfold_mat, unit_scaled,
                                   write_tensor3)

RNG = np.random.default_rng(20260814)


def test_oracle_tprod_matches_slicewise_convolution():
    # Independent third route: C[:, :, k] = sum_t A[:, :, t] B[:, :, (k-t) % p].
    A = random_tensor(RNG, 3, 4, 5)
    B = random_tensor(RNG, 4, 2, 5)
    C = oracle_tprod(A, B)
    for k in range(5):
        ref = sum(A[:, :, t] @ B[:, :, (k - t) % 5] for t in range(5))
        assert np.allclose(C[:, :, k], ref, atol=1e-12)
    with pytest.raises(ShapeError):
        oracle_tprod(A, random_tensor(RNG, 3, 2, 5))


def test_polarization_matrices_identity_example():
    M = oracle_quadform_matrices(identity(1, 2))
    assert np.array_equal(M[0], np.eye(2))
    assert np.array_equal(M[1], np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_polarization_matrices_p_equal_one():
    A = random_tensor(RNG, 4, 4, 1)
    M = oracle_quadform_matrices(A)
    assert M.shape == (1, 4, 4)
    assert np.allclose(M[0], 0.5 * (A[:, :, 0] + A[:, :, 0].T), atol=1e-12)


def test_polarization_reproduces_quadform():
    for _ in range(3):
        n = int(RNG.integers(1, 5))
        p = int(RNG.integers(1, 5))
        A = random_tensor(RNG, n, n, p)
        M = oracle_quadform_matrices(A)
        assert all(np.allclose(M[r], M[r].T, atol=1e-12) for r in range(p))
        for _ in range(30):
            X = RNG.standard_normal((n, p))
            x = unfold_mat(X)
            poly = np.array([float(x @ M[r] @ x) for r in range(p)])
            assert np.allclose(poly, quadform(A, X), atol=1e-10)
            assert np.allclose(poly, oracle_quadform_dense(A, X), atol=1e-10)


@pytest.mark.parametrize("n, p", [(4, 1), (1, 2), (3, 2), (2, 3), (3, 5),
                                  (2, 4), (3, 8), (4, 6)])
def test_closed_form_matches_polarization_by_evaluation(n, p):
    # n * p <= 24 keeps the O((n p)^2) evaluation route affordable; the
    # general tensor is not T-symmetric, so no tie hides a wrong shift.
    rng = np.random.default_rng(1000 * n + p)
    for A in (random_tensor(rng, n, n, p), random_tsym(rng, n, p)):
        M = oracle_quadform_matrices(A)
        assert M.shape == (p, n * p, n * p)
        assert np.allclose(M, polarization_by_evaluation(A), rtol=0.0,
                           atol=1e-12)
        for r in range(p):
            assert np.array_equal(M[r], M[r].T)


def test_t_symmetric_components_tie_exactly():
    # For exactly T-symmetric A, S_{p-r} bcirc(A) is the transpose of
    # S_r bcirc(A), so M_r and M_{p-r} agree bit for bit.
    rng = np.random.default_rng(31)
    for n, p in [(2, 3), (3, 4), (2, 7), (2, 8)]:
        M = oracle_quadform_matrices(random_tsym(rng, n, p))
        for r in range(1, p):
            assert np.array_equal(M[r], M[p - r])


def test_exact_psd_reports_smallest_tied_component():
    rng = np.random.default_rng(7)
    ties = 0
    for n, p in [(2, 4), (3, 5), (2, 6), (3, 8), (2, 7)]:
        A = random_tsym(rng, n, p)
        ex = oracle_psd_exact(A)
        mins = np.linalg.eigh(oracle_quadform_matrices(A))[0][:, 0]
        attaining = np.flatnonzero(mins == mins.min())
        ties += len(attaining) > 1
        assert ex.min_eigenvalue == mins.min()
        assert ex.component == attaining[0] + 1
        assert ex.component <= p // 2 + 1
    assert ties >= 2  # the rule was exercised, not just the unique case


def test_exact_psd_witness_sign_rule():
    # identity(1, 2): the witness entries tie in magnitude exactly, and
    # the first one is made positive.
    ex = oracle_psd_exact(identity(1, 2))
    assert ex.witness[0, 0] == -ex.witness[0, 1] > 0.0
    rng = np.random.default_rng(11)
    for n, p in [(2, 3), (3, 4), (2, 5)]:
        A = random_tsym(rng, n, p)
        ex = oracle_psd_exact(A)
        assert ex.label == NOT_ELEMENTWISE_PSD
        v = unfold_mat(ex.witness)
        assert v[np.argmax(np.abs(v))] > 0.0
        # the reported value is the dense re-evaluation of the witness
        assert ex.witness_value == oracle_quadform_dense(
            A, ex.witness)[ex.component - 1]


def test_oracle_imports_no_fast_path():
    # The dense route must stay independent of the FFT route, so that
    # agreement between the two is evidence.
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    banned = {"transform", "tproduct", "spectral", "tsvd"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = set((node.module or "").split("."))
            assert not parts & (banned | {"fft"}), ast.dump(node)
            assert not {a.name for a in node.names} & (banned | {"fft"})
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = set(alias.name.split("."))
                assert not parts & (banned | {"fft"}), alias.name
        elif isinstance(node, ast.Attribute):
            assert node.attr != "fft", ast.dump(node)


def test_exact_psd_identity_has_witness():
    ex = oracle_psd_exact(identity(1, 2))
    assert ex.label == NOT_ELEMENTWISE_PSD
    assert ex.component == 2
    assert np.isclose(ex.min_eigenvalue, -1.0, atol=1e-12)
    assert np.isclose(abs(ex.witness[0, 0]), 1 / np.sqrt(2), atol=1e-12)
    assert np.isclose(ex.witness[0, 0] + ex.witness[0, 1], 0.0, atol=1e-12)
    assert ex.witness_value < -1e-10
    # witness value re-verified through the dense form
    assert np.isclose(
        oracle_quadform_dense(identity(1, 2), ex.witness)[ex.component - 1],
        ex.witness_value, atol=1e-12)


def test_exact_psd_positive_cases():
    ex = oracle_psd_exact(np.zeros((2, 2, 3)))
    assert ex.label == ELEMENTWISE_PSD and ex.witness is None
    # All-ones diagonal tubes keep only the constant frequency bin, so
    # every form component is |x_hat_0|^2 / p: elementwise nonnegative.
    A = np.zeros((2, 2, 2))
    for j in range(2):
        A[j, j, :] = [1.0, 1.0]
    ex = oracle_psd_exact(A)
    assert ex.label == ELEMENTWISE_PSD
    assert ex.min_eigenvalue >= -1e-12
    # p = 1 reduces to the classical matrix question
    ex = oracle_psd_exact(identity(3, 1))
    assert ex.label == ELEMENTWISE_PSD


def test_exact_psd_negative_identity():
    ex = oracle_psd_exact(-identity(2, 2))
    assert ex.label == NOT_ELEMENTWISE_PSD
    assert ex.witness_value < 0.0


def _diagonal_slice(*values):
    return np.diag(values)[:, :, None]


def test_exact_psd_oracle_threshold_is_inclusive():
    # p = 1: the one polarization matrix is the slice itself.  Its largest
    # entry, 0.75, puts unit_scaled at e = 0, so the bound is -1e-10.
    ex = oracle_psd_exact(_diagonal_slice(0.75, -1e-10))
    assert ex.label == ELEMENTWISE_PSD
    ex = oracle_psd_exact(_diagonal_slice(0.75, -1.5e-10))
    assert (ex.label, ex.witness_value) == (NOT_ELEMENTWISE_PSD, -1.5e-10)


def test_ted_check_passes_on_valid_result():
    S = random_tsym(RNG, 4, 3)
    checks = oracle_ted_check(S, ted(S))
    assert {c.check for c in checks} == {
        "reconstruction", "orthogonality", "d_f_diagonal", "d_t_symmetric",
        "eigenpair_residuals", "frequency_ordering",
        "first_component_ordering"}
    assert all(c.passed for c in checks)


def test_ted_check_flags_column_corruption():
    # Negating one column of one frontal slice is not a gauge move: it
    # breaks reconstruction, orthogonality, and the eigenpair residuals.
    S = random_tsym(RNG, 4, 3)
    T = ted(S)
    U = T.u.copy()
    U[:, 1, 2] = -U[:, 1, 2]
    by_name = {c.check: c for c in oracle_ted_check(S, replace(T, u=U))}
    assert not by_name["reconstruction"].passed
    assert not by_name["eigenpair_residuals"].passed
    assert by_name["reconstruction"].residual > 1e-3


def test_ted_check_flags_lateral_swap_but_not_orthogonality():
    # Swapping two whole lateral slices of u preserves orthogonality of
    # the embedding but mismatches eigenvalues, so reconstruction is
    # flagged while the orthogonality check stays green.
    S = random_tsym(RNG, 4, 3)
    T = ted(S)
    U = T.u.copy()
    U[:, [0, 1], :] = U[:, [1, 0], :]
    by_name = {c.check: c for c in oracle_ted_check(S, replace(T, u=U))}
    assert by_name["orthogonality"].passed
    assert not by_name["reconstruction"].passed
    assert not by_name["eigenpair_residuals"].passed


def _eigenpair_check(A, result):
    return next(c for c in oracle_ted_check(A, result)
                if c.check == "eigenpair_residuals")


def test_ted_check_eigenpair_residual_matches_shift_loop():
    # One dense product gives every shifted residual; the per-shift loop of
    # matvecs and tube actions is the reference.  On a T-symmetric A no
    # residual norm tells d_j from its transpose, so each shape also checks
    # a general A with random u and random tuples.
    rng = np.random.default_rng(47)
    cases = [random_tsym(rng, n, p) for n, p in CORE_SHAPES]
    cases += [identity(3, 4), identity(4, 1), random_tsym(rng, 5, 1)]
    for A in cases:
        T = ted(A)
        noise = replace(T, u=rng.standard_normal(T.u.shape),
                        eigentuples=rng.standard_normal(T.eigentuples.shape))
        for B, result in ((A, T), (rng.standard_normal(A.shape), noise)):
            # The check certifies unit_scaled(B): residuals times 2^-e.
            S, e = unit_scaled(B)
            found = _eigenpair_check(B, result).residual
            expected = np.ldexp(oracle_eigenpair_by_loop(B, result), -e)
            bound = 1e-13 * max(1.0, float(np.linalg.norm(S)))
            assert abs(found - expected) <= bound, A.shape


def test_ted_check_flags_swapped_eigentuples():
    # The residuals read the reported eigentuples, not d: swapping two of
    # them breaks the eigenpairs while u and d still reconstruct A.
    S = random_tsym(RNG, 4, 3)
    T = ted(S)
    swapped = T.eigentuples.copy()
    swapped[[0, 2]] = swapped[[2, 0]]
    by_name = {c.check: c
               for c in oracle_ted_check(S, replace(T, eigentuples=swapped))}
    assert by_name["reconstruction"].passed
    assert not by_name["eigenpair_residuals"].passed
    assert by_name["eigenpair_residuals"].residual > 1e-3


def _scale_u(T):
    return replace(T, u=T.u * (1 + 1e-6))


def _off_diagonal(T):
    d = T.d.copy()
    d[0, 1, 2] = 1e-6
    return replace(T, d=d)


def _odd_tube(T):
    # An odd real tube has an imaginary spectrum: bin values change only
    # in their imaginary parts, so the bins keep their order.
    d = T.d.copy()
    d[1, 1, 1] += 1e-6
    d[1, 1, -1] -= 1e-6
    return replace(T, d=d)


def _swap_tubes(T):
    d = T.d.copy()
    d[[0, 1], [0, 1]] = d[[1, 0], [1, 0]]
    return replace(T, d=d)


def _swap_first_components(T):
    tuples = T.eigentuples.copy()
    tuples[[0, 1], 0] = tuples[[1, 0], 0]
    return replace(T, eigentuples=tuples)


@pytest.mark.parametrize("corrupt, fails", [
    (_scale_u, {"reconstruction", "orthogonality"}),
    (_off_diagonal, {"reconstruction", "d_f_diagonal", "d_t_symmetric"}),
    (_odd_tube, {"reconstruction", "d_t_symmetric", "frequency_ordering"}),
    (_swap_tubes, {"reconstruction", "frequency_ordering"}),
    (_swap_first_components,
     {"eigenpair_residuals", "first_component_ordering"}),
], ids=["orthogonality", "d_f_diagonal", "d_t_symmetric", "frequency_drop",
        "first_component_ordering"])
def test_each_ted_check_fails_on_its_own_fault(corrupt, fails):
    # Each result is wrong in one check's way; every other check that
    # fails reads the same corrupted field.
    S = random_tsym(np.random.default_rng(53), 4, 5)
    T = ted(S)
    assert np.all(np.diff(T.eigentuples[:, 0]) < -1e-3)
    assert all(c.passed for c in oracle_ted_check(S, T))
    checks = oracle_ted_check(S, corrupt(T))
    assert {c.check for c in checks if not c.passed} == fails
    assert all(c.residual > 1e-7 for c in checks if c.check in fails)


def test_check_result_derives_its_verdict():
    assert CheckResult("c", 1e-10, 1e-10).passed is True
    assert CheckResult("c", 0.0, 0.0).passed is True
    assert CheckResult("c", np.nextafter(1e-10, 1.0), 1e-10).passed is False
    assert CheckResult("c", float("nan"), 1e-10).passed is False
    info = CheckResult("c", float("nan"), None, note="reported")
    assert info.passed is None and info.as_dict()["pass"] is None
    with pytest.raises(TypeError):
        CheckResult("c", 0.0, 1.0, passed=False)


def test_informational_check_never_fails_verify(capsys, monkeypatch,
                                                tmp_path):
    # A residual far above every bound, with no threshold: reported only.
    real = tsvd_module.gram_consistency

    def with_info(A, result):
        return real(A, result) + [CheckResult("extra", 1e6, None)]

    monkeypatch.setattr(tsvd_module, "gram_consistency", with_info)
    path = str(tmp_path / "sym.t3")
    write_tensor3(path, random_tsym(RNG, 3, 2))
    assert cli.main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "INFO extra: residual=1000000 threshold=n/a" in out
    assert out.endswith("verify: PASS\n")


def test_check_result_dict_shape():
    S = random_tsym(RNG, 2, 2)
    c = oracle_ted_check(S, ted(S))[0]
    d = c.as_dict()
    assert set(d) == {"check", "residual", "threshold", "pass", "note"}
