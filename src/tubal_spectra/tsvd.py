"""Tensor singular value decomposition and the checks of ``verify``.

``tsvd`` factors any ``(m, n, p)`` tensor as ``A = u * s * v^T`` with
orthogonal ``u``, ``v`` and f-diagonal ``s``, via a full SVD of each
frequency slice ``k <= p // 2`` (mirrored to the rest).  Canonicalization
mirrors the eigendecomposition: per-slice singular values are descending by
construction, and each left singular vector's largest-magnitude entry is
made real positive, with the matching phase applied to its right partner so
the product is unchanged; right singular vectors without a partner
(``j >= min(m, n)``) get their own phase.  Singular tuples are the
index-reversed diagonal tubes of ``s``; they satisfy the shifted
singular-pair relations ``A * X_j^[k] = s_j act Y_j^[k]`` and
``A^T * Y_j^[k] = s_j act X_j^[k]``.

``tsvd`` runs on the batched frequency core of :mod:`tubal_spectra.spectral`
over the half-spectrum stack of :mod:`tubal_spectra.transform`: the stacked
SVDs of ``transform._factor_half``, the shared vectorized canonical phase
and ``ted``'s power-of-two scaling.  Its certificates are ``ted``'s, from
``spectral._certificate`` with ``L, D, R = U, S, V`` (reconstruction,
``U^T * U - I`` and the right pairs ``A * V - U * S``), plus
``V^T * V - I`` and the left pairs ``A^T * U - V * S^T``: one residual per
singular tuple and side, shared by every shift, each a field of
``TsvdResult``.  No dense check recomputes the per-shift values for
``tsvd``; the test suite compares them with a per-shift loop.

``gram_consistency(A, result)`` cross-checks the TSVD ``result`` of ``A``
against both Gram tensors ``A^T * A`` and ``A * A^T``: eigentuple ``j`` of
each equals ``s_j ⊛ s_j`` (``tube_mul``), index by index (zero beyond
``min(m, n)``), because both decompositions sort every bin descending, and
their frequency spectra must be nonnegative.  Their spatial eigentuple
entries are routinely negative even though the tuples are squares; that
floor is reported, not asserted.  Each distinct Gram is decomposed once:
for an exactly T-symmetric ``A`` the two are one tensor, bit for bit.

``verify_checks(A, seed)`` is the ``verify`` command's report, a list of
:class:`~tubal_spectra.oracle.CheckResult` on ``unit_scaled(A)``: round
trips, the fast t-product against the dense ``bcirc`` route, the TSVD
certificates, ``gram_consistency`` and, when ``ted`` accepts ``A``,
``oracle.oracle_ted_check`` and two dense polarization checks of ``(A +
A^T) / 2`` (the tensor ``ted`` factors) from one set of matrices, whose
smallest eigenvalue comes from the ``M_r`` with ``r <= p - r`` alone
(``M_{p-r}`` is ``M_r`` for a T-symmetric tensor).  Every bound ``verify``
applies is set here or in ``oracle``, relative to ``2^e``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NotTSymmetric
from .oracle import (CheckResult, oracle_quadform_matrices, oracle_ted_check,
                     oracle_tprod)
from .spectral import (_canonical_phase, _certificate, _f_diagonal,
                       _scaled_back, _symmetric_part, classify_ted, exact_psd,
                       quadform, ted)
from .tensor3 import (as_tensor3, bcirc, bcirc_inv, fold, shift_columns,
                      transpose, unfold, unfold_mat, unit_scaled)
from .transform import (_ct, _factor_half, _full_spectrum, _norm, from_freq,
                        to_freq)
from .tproduct import tprod
from .tubal import tube_mul


@dataclass
class TsvdResult:
    """Canonical TSVD ``A = u * s * v^T``.

    ``singular_tuples`` holds the ``min(m, n)`` singular tuples as rows;
    ``frequency_singular_values[:, k]`` are the singular values of
    frequency slice ``k`` (descending).  ``s`` and the spectra are those of
    ``A * 2^-e`` times ``2^e``, ``e = scale_exponent``.

    The residuals certify the factors of ``B = A * 2^-e``, whose diagonal
    factor is ``S = s * 2^-e``: ``reconstruction`` is
    ``||B - u * S * v^T||_F / ||B||_F`` (absolute when ``B`` vanishes),
    ``orthogonality_u`` and ``orthogonality_v`` are ``||u^T * u - I||_F``
    and ``||v^T * v - I||_F``, ``pair_right[j]`` is
    ``||B * X_j - Y_j * S_jj||_F`` and ``pair_left[j]`` is
    ``||B^T * Y_j - X_j * (S^T)_jj||_F``, with shape ``(min(m, n),)`` (the
    singular matrices have unit norm, so the values are relative to
    ``2^e``).  Every column shift ``X_j^[k]``, ``Y_j^[k]`` has the same
    residuals (see the module docstring); ``pair_max`` is the largest of
    both sides.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    singular_tuples: np.ndarray
    frequency_singular_values: np.ndarray
    reconstruction: float
    orthogonality_u: float
    orthogonality_v: float
    pair_right: np.ndarray
    pair_left: np.ndarray
    scale_exponent: int

    @property
    def pair_max(self):
        return float(max(self.pair_right.max(), self.pair_left.max()))


def tsvd(A):
    """Canonical TSVD of an arbitrary real third-order tensor."""
    A, e = unit_scaled(as_tensor3(A))
    m, n, p = A.shape
    r = min(m, n)
    Af = to_freq(A)
    Us, sig, Vh = _factor_half(np.linalg.svd, Af, p)
    Us, phase = _canonical_phase(Us)
    Vs = _ct(Vh)
    # Keep u_j s_j v_j^H invariant: rotate v_j by the same phase.
    Vs[:, :, :r] *= phase[:, None, :r]
    Vs[:, :, r:], _ = _canonical_phase(Vs[:, :, r:])
    U = from_freq(Us, p)
    S, tuples = _f_diagonal(sig, m, n, p)
    V = from_freq(Vs, p)

    Uf, Sf, Vf = (to_freq(X) for X in (U, S, V))
    recon, orth_u, right = _certificate(A, Af, Uf, Sf, Vf)
    orth_v = float(_norm(_ct(Vf) @ Vf - np.eye(n), p))
    left = _norm(_ct(Af) @ Uf[:, :, :r] - (Vf @ _ct(Sf))[:, :, :r], p, (0, 2))

    S, tuples, sig = _scaled_back(e, S, tuples, _full_spectrum(sig, p))
    return TsvdResult(
        u=U, s=S, v=V, singular_tuples=tuples, frequency_singular_values=sig,
        reconstruction=recon, orthogonality_u=orth_u, orthogonality_v=orth_v,
        pair_right=right, pair_left=left, scale_exponent=e)


def singular_pairs(result, j):
    """Singular tuple ``j`` (1-based) with its shifted right and left
    singular matrices ``([X_j^[k]], [Y_j^[k]])``."""
    r = result.singular_tuples.shape[0]
    if int(j) != j or not 1 <= j <= r:
        raise IndexError(f"singular index must be in 1..{r}, got {j!r}")
    j = int(j) - 1
    p = result.u.shape[2]
    Xj, Yj = result.v[:, j, :], result.u[:, j, :]
    return (result.singular_tuples[j].copy(),
            [shift_columns(Xj, k) for k in range(p)],
            [shift_columns(Yj, k) for k in range(p)])


def _same_bits(X, Y):
    """Whether ``X`` and ``Y`` are one array bit for bit (``-0.0`` differs
    from ``0.0``), so that any computation gives both the same result."""
    return X.shape == Y.shape and X.tobytes() == Y.tobytes()


def gram_consistency(A, result):
    """Cross-check the TSVD ``result`` of ``A`` against both Gram
    eigendecompositions.

    Returns three checks per Gram, ``right`` (``A^T * A``) then ``left``
    (``A * A^T``): its eigentuple ``j`` equals ``s_j ⊛ s_j``, index by
    index (zero beyond ``min(m, n)``), because both decompositions sort
    every bin descending, within 1e-8 of the largest square (absolute when
    every square vanishes); its frequency spectrum is nonnegative to 1e-10;
    and its spatial eigentuple entry floor, an informational check with no
    threshold.  Each distinct Gram is decomposed once, and both floors are
    read from that decomposition: when ``A^T`` is ``A`` bit for bit (every
    exactly T-symmetric ``A``), or the two Grams are, they are one tensor,
    and one ``ted`` gives both sides' checks.  The Grams are those of
    ``S, e = unit_scaled(A)``, and the singular tuples are read times
    ``2^-e`` (exact), so no verdict depends on the units of ``A``.
    """
    A, e = unit_scaled(as_tensor3(A))
    m, n, p = A.shape
    squares = np.zeros((max(m, n), p))
    for j, t in enumerate(np.ldexp(result.singular_tuples, -e)):
        squares[j] = tube_mul(t, t)
    scale = max(float(np.linalg.norm(t)) for t in squares)

    At = transpose(A)
    right = tprod(At, A)
    left = right if _same_bits(At, A) else tprod(A, At)
    T_right = ted(right)
    T_left = T_right if _same_bits(left, right) else ted(left)
    checks = []
    for name, T, size in (("right", T_right, n), ("left", T_left, m)):
        verdict = classify_ted(T)
        worst = max(float(np.linalg.norm(row))
                    for row in T.eigentuples - squares[:size])
        checks += [
            CheckResult(f"{name}_gram_eigentuple_match",
                        worst / scale if scale > 0.0 else worst, 1e-8),
            CheckResult(f"{name}_gram_frequency_psd_floor",
                        max(0.0, -verdict.min_frequency_eigenvalue), 1e-10),
            CheckResult(
                f"{name}_gram_eigentuple_entry_floor",
                max(0.0, -verdict.min_entry), None,
                note=f"spectral class {verdict.spectral_class}; negative "
                     f"spatial entries occur for generic inputs and are "
                     f"reported, not asserted")]
    return checks


#: The largest ``n * p`` that gets ``verify``'s dense polarization checks.
POLARIZATION_MAX_NP = 64


def verify_checks(A, seed):
    """The checks of ``verify`` on ``unit_scaled(A)``, in report order;
    ``seed`` draws the t-product operand and the polarization slice, whose
    checks run on ``(A + A^T) / 2``.  ``ValueError`` when the TSVD of ``A``
    overflows, as :func:`tsvd` of ``A`` does."""
    A, e = unit_scaled(as_tensor3(A))
    m, n, p = A.shape
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, m, p))
    fast, dense = tprod(A, B), oracle_tprod(A, B)
    result = tsvd(A)
    _scaled_back(e, result.s, result.frequency_singular_values)
    checks = [CheckResult(name, float(r), bound) for name, r, bound in (
        ("bcirc_roundtrip", np.max(np.abs(bcirc_inv(bcirc(A), p) - A)), 0.0),
        ("fold_roundtrip", np.max(np.abs(fold(unfold(A), p) - A)), 0.0),
        ("transpose_involution", np.max(np.abs(transpose(transpose(A)) - A)),
         0.0),
        ("tprod_cross_path", np.linalg.norm(fast - dense)
         / max(1.0, float(np.linalg.norm(dense))), 1e-12),
        ("tsvd_reconstruction", result.reconstruction, 1e-10),
        ("tsvd_orthogonality_u", result.orthogonality_u, 1e-10),
        ("tsvd_orthogonality_v", result.orthogonality_v, 1e-10),
        ("tsvd_pair_residuals", result.pair_max, 1e-9))]
    checks += gram_consistency(A, result)

    # Symmetry is decided by ted's gate, as in psd_spectral.
    try:
        T = ted(A) if m == n else None
    except NotTSymmetric:
        T = None
    if T is not None:
        checks.extend(replace(c, check=f"ted_{c.check}")
                      for c in oracle_ted_check(A, T))
        if n * p <= POLARIZATION_MAX_NP:
            S, X = _symmetric_part(A), rng.standard_normal((n, p))
            x, M = unfold_mat(X), oracle_quadform_matrices(S)
            poly = np.array([float(x @ M[k] @ x) for k in range(p)])
            r = float(np.max(np.abs(quadform(S, X) - poly)))
            checks.append(CheckResult("quadform_polarization", r, 1e-10))
            # S is exactly T-symmetric, so M[p - k] is M[k] bit for bit:
            # fold k to min(k, p - k), as exact_psd does.
            k = np.arange(p)
            lam = float(np.linalg.eigvalsh(M[k <= p - k]).min())
            r = abs(exact_psd(A, T).min_eigenvalue - lam) / max(
                1.0, float(np.max(np.abs(T.frequency_eigenvalues))))
            checks.append(CheckResult("exact_psd_cross_path", r, 1e-12))
    return checks
