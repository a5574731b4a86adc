"""Tensor singular value decomposition and Gram consistency checks.

``tsvd`` factors any ``(m, n, p)`` tensor as ``A = u * s * v^T`` with
orthogonal ``u``, ``v`` and f-diagonal ``s``, via a full SVD of each
frequency slice ``k <= p // 2`` (mirrored to the rest).  Canonicalization
mirrors the eigendecomposition: per-slice singular values are descending by
construction, and each left singular vector's largest-magnitude entry is
made real positive, with the matching phase applied to its right partner so
the product is unchanged.  Singular tuples are the index-reversed diagonal
tubes of ``s``; they satisfy the shifted singular-pair relations
``A * X_j^[k] = s_j act Y_j^[k]`` and ``A^T * Y_j^[k] = s_j act X_j^[k]``.

``gram_consistency`` cross-checks a TSVD against the eigendecompositions of
both Gram tensors ``A^T * A`` and ``A * A^T``: their eigentuples must match
the squared singular tuples (zero-padded to the Gram size), and each Gram's
frequency spectrum must be nonnegative.  The spatial entries of Gram
eigentuples, by contrast, are routinely negative even though the tuples are
squares; that floor is recorded as an informational finding, not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import CheckResult
from .spectral import classify_ted, ted
from .tensor3 import as_tensor3, identity, shift_columns, transpose
from .transform import freq_from_half, from_freq, to_freq
from .tproduct import tprod, tprod_mat
from .tubal import tube_action, tube_mul, tube_transpose


@dataclass
class TsvdDiagnostics:
    """Residuals certifying one decomposition.

    ``pair_right[j, k]`` is ``||A * X_j^[k] - s_j act Y_j^[k]||_F`` and
    ``pair_left[j, k]`` is ``||A^T * Y_j^[k] - s_j act X_j^[k]||_F`` (the
    singular matrices have unit norm, so the values are absolute).
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


@dataclass
class GramConsistencyReport:
    """Outcome of :func:`gram_consistency`.

    ``passed`` is the conjunction of the checks that carry a threshold;
    informational entries (``threshold is None``) are reported but never
    gate the verdict.  ``tsvd`` is the decomposition that was checked.
    """

    checks: list
    singular_tuple_squares: np.ndarray
    right_eigentuples: np.ndarray
    left_eigentuples: np.ndarray
    right_match_residual: float
    left_match_residual: float
    passed: bool
    tsvd: TsvdResult


def tsvd(A):
    """Canonical TSVD of an arbitrary real third-order tensor."""
    A = as_tensor3(A)
    m, n, p = A.shape
    r = min(m, n)
    F = to_freq(A)
    h = p // 2 + 1
    uh = np.empty((m, m, h), dtype=np.complex128)
    sh = np.zeros((m, n, h), dtype=np.complex128)
    vh = np.empty((n, n, h), dtype=np.complex128)
    freq_sv = np.empty((r, p))
    for k in range(h):
        M = F.slice(k)
        if k == 0 or (p % 2 == 0 and k == p // 2):
            M = M.real
        U_, sig, Vh_ = np.linalg.svd(M, full_matrices=True)
        U_ = U_.astype(np.complex128)
        Vh_ = Vh_.astype(np.complex128)
        for j in range(m):
            i = int(np.argmax(np.abs(U_[:, j])))
            z = U_[i, j]
            mag = abs(z)
            if mag > 0.0:
                phase = np.conj(z) / mag
                U_[:, j] = U_[:, j] * phase
                if j < r:
                    # Keep u_j s_j v_j^H invariant: rotate v_j by the same
                    # phase, i.e. row j of V^H by its conjugate.
                    Vh_[j, :] = Vh_[j, :] * np.conj(phase)
        for j in range(r, n):
            i = int(np.argmax(np.abs(Vh_[j, :])))
            z = Vh_[j, i]
            mag = abs(z)
            if mag > 0.0:
                Vh_[j, :] = Vh_[j, :] * (np.conj(z) / mag)
        uh[:, :, k] = U_
        vh[:, :, k] = Vh_.conj().T
        sh[:r, :r, k] = np.diag(sig.astype(np.complex128))
        freq_sv[:, k] = sig
        if 0 < k < p - k:
            freq_sv[:, p - k] = sig
    U = from_freq(freq_from_half(uh, p))
    S = from_freq(freq_from_half(sh, p))
    V = from_freq(freq_from_half(vh, p))

    tuples = np.vstack([tube_transpose(S[j, j, :]) for j in range(r)])

    recon = float(np.linalg.norm(A - tprod(tprod(U, S), transpose(V))))
    normA = float(np.linalg.norm(A))
    if normA > 0.0:
        recon /= normA
    orth_u = float(np.linalg.norm(tprod(transpose(U), U) - identity(m, p)))
    orth_v = float(np.linalg.norm(tprod(transpose(V), V) - identity(n, p)))
    At = transpose(A)
    right = np.empty((r, p))
    left = np.empty((r, p))
    for j in range(r):
        Xj, Yj = V[:, j, :], U[:, j, :]
        for k in range(p):
            Xjk, Yjk = shift_columns(Xj, k), shift_columns(Yj, k)
            right[j, k] = float(np.linalg.norm(
                tprod_mat(A, Xjk) - tube_action(tuples[j], Yjk)))
            left[j, k] = float(np.linalg.norm(
                tprod_mat(At, Yjk) - tube_action(tuples[j], Xjk)))
    pair_max = float(max(right.max(), left.max())) if r else 0.0

    return TsvdResult(
        u=U, s=S, v=V, singular_tuples=tuples,
        frequency_singular_values=freq_sv,
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


def gram_consistency(A, tol=1e-8):
    """Cross-check a TSVD against both Gram eigendecompositions.

    The eigentuples of ``A^T * A`` (and ``A * A^T``) must match the squared
    singular tuples, zero-padded to ``n`` (respectively ``m``) tubes, within
    ``tol`` relative; each Gram's frequency spectrum must be nonnegative to
    1e-10.  The spatial eigentuple entry floor of each Gram is recorded as
    an informational check with no threshold.  Each Gram is decomposed
    once; both floors are read from that decomposition.
    """
    A = as_tensor3(A)
    m, n, p = A.shape
    result = tsvd(A)
    squares = np.vstack([
        tube_mul(t, t) for t in result.singular_tuples
    ]) if min(m, n) else np.zeros((0, p))

    def padded(count):
        out = np.zeros((count, p))
        out[:squares.shape[0], :] = squares
        return out

    checks = []
    residuals = {}
    sides = (("right", tprod(transpose(A), A), n),
             ("left", tprod(A, transpose(A)), m))
    eigentuples = {}
    for name, G, size in sides:
        T = ted(G)
        eigentuples[name] = T.eigentuples
        res = _match_tubes(list(padded(size)), list(T.eigentuples))
        residuals[name] = res
        checks.append(CheckResult(
            check=f"{name}_gram_eigentuple_match", residual=res,
            threshold=tol, passed=bool(res <= tol)))
        verdict = classify_ted(T)
        floor = max(0.0, -verdict.min_frequency_eigenvalue)
        checks.append(CheckResult(
            check=f"{name}_gram_frequency_psd_floor", residual=floor,
            threshold=1e-10, passed=bool(floor <= 1e-10)))
        checks.append(CheckResult(
            check=f"{name}_gram_eigentuple_entry_floor",
            residual=max(0.0, -verdict.min_entry), threshold=None,
            passed=None,
            note=f"spectral class {verdict.spectral_class}; negative "
                 f"spatial entries occur for generic inputs and are "
                 f"reported, not asserted"))

    return GramConsistencyReport(
        checks=checks,
        singular_tuple_squares=squares,
        right_eigentuples=eigentuples["right"],
        left_eigentuples=eigentuples["left"],
        right_match_residual=residuals["right"],
        left_match_residual=residuals["left"],
        passed=all(c.passed for c in checks if c.passed is not None),
        tsvd=result)
