"""Tensor singular value decomposition and Gram consistency checks.

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
over the half-spectrum stack of :mod:`tubal_spectra.transform`: one stacked
SVD of the real self-conjugate bins and one of the other half-spectrum
bins, and the shared vectorized canonical phase.  The certificates are
taken as in ``ted``, from one transform of each returned factor:
``A - U * S * V^T``, ``U^T * U - I``, ``V^T * V - I`` and the first
``r = min(m, n)`` lateral slices of ``A * V - U * S`` and
``A^T * U - V * S^T``, one residual per singular tuple and side.  Shifting
both singular matrices by ``k`` shifts the residual by ``k`` and keeps its
norm.  No dense check recomputes the per-shift values for ``tsvd``; the
test suite compares them with a per-shift loop.

``gram_consistency(A, result)`` cross-checks the TSVD ``result`` of ``A``
against the eigendecompositions of both Gram tensors ``A^T * A`` and
``A * A^T`` and returns its checks as a list of
:class:`~tubal_spectra.oracle.CheckResult`, the shape of
:func:`~tubal_spectra.oracle.oracle_ted_check`: the Gram eigentuples must
match the squared singular tuples (zero-padded to the Gram size), and each
Gram's frequency spectrum must be nonnegative.  The spatial entries of Gram
eigentuples, by contrast, are routinely negative even though the tuples are
squares; that floor is recorded as an informational finding, not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import CheckResult
from .spectral import (_canonical_phase, _f_diagonal, _full_spectrum,
                       _half_spectrum_groups, _norm, classify_ted, ted)
from .tensor3 import as_tensor3, shift_columns, transpose
from .transform import _ct, freq_from_half, from_freq, to_freq
from .tproduct import tprod
from .tubal import tube_mul


@dataclass
class TsvdDiagnostics:
    """Residuals certifying one decomposition.

    ``pair_right[j]`` is ``||A * X_j - Y_j * S_jj||_F`` and
    ``pair_left[j]`` is ``||A^T * Y_j - X_j * (S^T)_jj||_F``, with shape
    ``(min(m, n),)`` (the singular matrices have unit norm, so the values
    are absolute).  Every value is computed from one transform of each
    returned factor.  Every column shift ``X_j^[k]``, ``Y_j^[k]`` has the
    same residuals (see the module docstring).
    """

    reconstruction: float
    orthogonality_u: float
    orthogonality_v: float
    pair_right: np.ndarray
    pair_left: np.ndarray
    pair_max: float


@dataclass
class TsvdResult:
    """Canonical TSVD ``A = u * s * v^T``.

    ``singular_tuples`` holds the ``min(m, n)`` singular tuples as rows;
    ``frequency_singular_values[:, k]`` are the singular values of
    frequency slice ``k`` (descending).
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    singular_tuples: np.ndarray
    frequency_singular_values: np.ndarray
    residuals: TsvdDiagnostics


def tsvd(A):
    """Canonical TSVD of an arbitrary real third-order tensor."""
    A = as_tensor3(A)
    m, n, p = A.shape
    r = min(m, n)
    F = to_freq(A)
    h = p // 2 + 1
    Us = np.empty((h, m, m), dtype=np.complex128)
    sig = np.empty((h, r))
    Vh = np.empty((h, n, n), dtype=np.complex128)
    for bins, M in _half_spectrum_groups(F):
        Us[bins], sig[bins], Vh[bins] = np.linalg.svd(M, full_matrices=True)
    Us, phase = _canonical_phase(Us)
    Vs = _ct(Vh)
    # Keep u_j s_j v_j^H invariant: rotate v_j by the same phase.
    Vs[:, :, :r] *= phase[:, None, :r]
    Vs[:, :, r:], _ = _canonical_phase(Vs[:, :, r:])
    U = from_freq(freq_from_half(Us, p))
    S, tuples = _f_diagonal(sig, m, n, p)
    V = from_freq(freq_from_half(Vs, p))

    Af = F.half
    Uf, Sf, Vf = (to_freq(X).half for X in (U, S, V))
    US = Uf @ Sf
    recon = float(_norm(Af - US @ _ct(Vf), p))
    normA = float(np.linalg.norm(A))
    if normA > 0.0:
        recon /= normA
    orth_u = float(_norm(_ct(Uf) @ Uf - np.eye(m), p))
    orth_v = float(_norm(_ct(Vf) @ Vf - np.eye(n), p))
    right = _norm(Af @ Vf[:, :, :r] - US[:, :, :r], p, (0, 2))
    left = _norm(_ct(Af) @ Uf[:, :, :r] - (Vf @ _ct(Sf))[:, :, :r], p, (0, 2))
    pair_max = float(max(right.max(), left.max())) if r else 0.0

    return TsvdResult(
        u=U, s=S, v=V, singular_tuples=tuples,
        frequency_singular_values=_full_spectrum(sig, p),
        residuals=TsvdDiagnostics(recon, orth_u, orth_v, right, left,
                                  pair_max))


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


def _match_tubes(targets, candidates):
    """Greedily pair each target tube with the nearest unused candidate.

    Returns the worst pair distance relative to the largest target norm
    (absolute when all targets vanish).
    """
    remaining = list(range(len(candidates)))
    worst = 0.0
    for t in targets:
        dists = [float(np.linalg.norm(candidates[i] - t)) for i in remaining]
        pick = int(np.argmin(dists))
        worst = max(worst, dists[pick])
        remaining.pop(pick)
    scale = max(float(np.linalg.norm(t)) for t in targets)
    return worst / scale if scale > 0.0 else worst


def gram_consistency(A, result):
    """Cross-check the TSVD ``result`` of ``A`` against both Gram
    eigendecompositions.

    Returns three checks per Gram, ``right`` (``A^T * A``) then ``left``
    (``A * A^T``): its eigentuples match the squared singular tuples,
    zero-padded to ``n`` (respectively ``m``) tubes, within 1e-8 relative;
    its frequency spectrum is nonnegative to 1e-10; and its spatial
    eigentuple entry floor, an informational check with no threshold.  Each
    Gram is decomposed once; both floors are read from that decomposition.
    """
    A = as_tensor3(A)
    m, n, p = A.shape
    squares = np.zeros((max(m, n), p))
    for j, t in enumerate(result.singular_tuples):
        squares[j] = tube_mul(t, t)

    checks = []
    for name, G, size in (("right", tprod(transpose(A), A), n),
                          ("left", tprod(A, transpose(A)), m)):
        T = ted(G)
        verdict = classify_ted(T)
        checks += [
            CheckResult(f"{name}_gram_eigentuple_match",
                        _match_tubes(list(squares[:size]),
                                     list(T.eigentuples)), 1e-8),
            CheckResult(f"{name}_gram_frequency_psd_floor",
                        max(0.0, -verdict.min_frequency_eigenvalue), 1e-10),
            CheckResult(
                f"{name}_gram_eigentuple_entry_floor",
                max(0.0, -verdict.min_entry), None,
                note=f"spectral class {verdict.spectral_class}; negative "
                     f"spatial entries occur for generic inputs and are "
                     f"reported, not asserted")]
    return checks
