"""Brute-force oracles built from block-circulant matrices alone.

Everything here is computed by dense linear algebra on ``bcirc``
embeddings, with explicit DFT sums where a spectrum is needed; the
frequency-domain fast paths in :mod:`tubal_spectra.tproduct` and
:mod:`tubal_spectra.spectral` are never called, so agreement between the
two routes is evidence, not tautology.

``oracle_quadform_matrices`` turns the T-quadratic form into ``p`` ordinary
symmetric matrices: component ``r`` of ``F_A(X)`` equals ``x^T M_r x`` for
``x = unfold_mat(X)``.  Split ``x`` and ``y = bcirc(A) x`` into length-``n``
blocks ``x_k`` and ``y_k``.  Block ``(r, k)`` of ``bcirc(X^T)`` is
``x_{(k - r) mod p}^T``, so

    F_A(X)[r] = sum_k x_{(k - r) mod p}^T y_k = x^T S_r bcirc(A) x,

where ``S_r`` has identity blocks at ``((k - r) mod p, k)`` and zeros
elsewhere.  Hence ``M_r = sym(S_r bcirc(A))``.  Multiplying by ``S_r`` only
rolls the block rows of ``bcirc(A)`` up by ``r``, so one ``bcirc`` and one
row gather assemble all ``p`` matrices in ``O(p (n p)^2)``; this is the
block-circulant view of Kilmer & Martin (*Linear Algebra Appl.* 435, 2011).

``oracle_psd_exact`` then answers elementwise positive-semidefiniteness
exactly (up to an eigenvalue tolerance) and produces a witness, re-verified
through the dense form, when the answer is negative.

Both verdicts, ``oracle_psd_exact`` and ``oracle_ted_check``, work on
``S, e = unit_scaled(A)`` and read their tolerances relative to ``2^e``,
as the fast route does, so neither depends on the units of ``A``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, TubalError
from .tensor3 import (as_matslice, as_tensor3, bcirc, fold, fold_mat,
                      require_square, transpose, unfold, unfold_mat,
                      unit_scaled)

ELEMENTWISE_PSD = "ELEMENTWISE_PSD"
NOT_ELEMENTWISE_PSD = "NOT_ELEMENTWISE_PSD"


@dataclass
class CheckResult:
    """One verification outcome; its verdict follows from its numbers.

    ``passed`` is ``residual <= threshold``, so a ``nan`` residual fails.
    ``threshold is None`` marks an informational entry whose ``passed`` is
    ``None``; such entries never gate a report.
    """

    check: str
    residual: float
    threshold: float | None
    note: str = ""

    @property
    def passed(self):
        if self.threshold is None:
            return None
        return bool(self.residual <= self.threshold)

    def as_dict(self):
        return {"check": self.check, "residual": self.residual,
                "threshold": self.threshold, "pass": self.passed,
                "note": self.note}


@dataclass
class ExactPsdResult:
    """Exact elementwise PSD answer from the polarization matrices.

    ``component`` is the smallest 1-based tube component whose matrix
    attains the most negative eigenvalue; ``witness`` (when present) is a
    unit-norm slice at which that component of the classified form is
    ``witness_value < -tol``.
    """

    label: str
    min_eigenvalue: float
    component: int
    witness: np.ndarray | None = None
    witness_value: float | None = None


def oracle_tprod(A, B):
    """T-product by the defining dense route ``fold(bcirc(A) @ unfold(B))``."""
    A, B = as_tensor3(A), as_tensor3(B)
    if A.shape[1] != B.shape[0] or A.shape[2] != B.shape[2]:
        raise ShapeError(f"incompatible shapes: {A.shape} * {B.shape}")
    return fold(bcirc(A) @ unfold(B), A.shape[2])


def _quadform_dense(bcA, X, p):
    """Dense T-quadratic form: both products through ``bcirc``."""
    x = unfold_mat(X)
    Y = fold_mat(bcA @ x, p)
    lhs = bcirc(transpose(np.ascontiguousarray(X[:, None, :])))
    return fold(lhs @ unfold(Y[:, None, :]), p)[0, 0, :]


def oracle_quadform_dense(A, X):
    """T-quadratic form of ``A`` at ``X`` by the dense route."""
    A = require_square(A)
    X = as_matslice(X)
    if X.shape != (A.shape[0], A.shape[2]):
        raise ShapeError(
            f"matrix slice of shape {X.shape} does not match tensor of "
            f"shape {A.shape}")
    return _quadform_dense(bcirc(A), X, A.shape[2])


def _quadform_matrices(bcA, n, p):
    """Closed-form polarization matrices from ``bcA = bcirc(A)``.

    Row ``i`` of ``S_r bcA`` is row ``(i + r n) mod (n p)`` of ``bcA``, so
    all ``p`` shifted products come from one row gather.
    """
    N = n * p
    rows = (np.arange(N)[None, :] + n * np.arange(p)[:, None]) % N
    R = bcA[rows]
    return 0.5 * (R + R.transpose(0, 2, 1))


def oracle_quadform_matrices(A):
    """Polarization matrices of the T-quadratic form.

    Returns a ``(p, n*p, n*p)`` array ``M`` with
    ``F_A(X)[r] == unfold_mat(X) @ M[r] @ unfold_mat(X)`` for every ``X``;
    each ``M[r]`` is exactly symmetric.
    """
    A = require_square(A)
    n, _, p = A.shape
    return _quadform_matrices(bcirc(A), n, p)


def oracle_psd_exact(A):
    """Exact elementwise PSD classification of the T-quadratic form.

    Eigendecomposes every polarization matrix; the form is elementwise PSD
    iff all of them are PSD.  The reported component is the smallest one
    whose matrix attains the minimum eigenvalue (for T-symmetric ``A``,
    components ``r`` and ``p - r`` tie, bit for bit when ``A`` is exactly
    T-symmetric).  The matrices are those of ``S, e = unit_scaled(A)``;
    ``min_eigenvalue`` and ``witness_value`` are scaled back by ``2^e``
    (exact).  When that eigenvalue falls
    below ``-1e-10 * 2^e``, as :func:`~tubal_spectra.spectral.exact_psd`
    decides, its eigenvector, signed so that its largest-magnitude entry
    (first on ties) is positive, is folded into a witness matrix slice and
    re-verified through the dense form before being returned.
    It costs ``O(p (n p)^3)``: no command runs it, and it is the tests'
    reference for :func:`tubal_spectra.spectral.exact_psd`.
    """
    S, e = unit_scaled(require_square(A))
    n, _, p = S.shape
    bcS = bcirc(S)
    w, V = np.linalg.eigh(_quadform_matrices(bcS, n, p))
    r = int(np.argmin(w[:, 0]))
    min_eig = float(np.ldexp(w[r, 0], e))
    if w[r, 0] >= -1e-10:
        return ExactPsdResult(label=ELEMENTWISE_PSD, min_eigenvalue=min_eig,
                              component=r + 1)
    vec = V[r, :, 0]
    if vec[np.argmax(np.abs(vec))] < 0.0:
        vec = -vec
    witness = fold_mat(vec, p)
    value = float(_quadform_dense(bcS, witness, p)[r])
    if value >= -1e-10:
        raise TubalError(
            "internal inconsistency: PSD witness failed re-evaluation")
    return ExactPsdResult(label=NOT_ELEMENTWISE_PSD, min_eigenvalue=min_eig,
                          component=r + 1, witness=witness,
                          witness_value=float(np.ldexp(value, e)))


def _dense_freq_diagonals(D):
    """Diagonals of the frequency slices of an f-diagonal tensor, by
    explicit DFT sums (no FFT library)."""
    n, _, p = D.shape
    j, k = np.arange(n), np.arange(p)
    W = np.exp(-2j * np.pi * np.outer(k, k) / p)
    return D[j, j] @ W.T  # (n, p) complex


def oracle_ted_check(A, result):
    """Recompute every eigendecomposition invariant with dense arithmetic.

    Returns a list of :class:`CheckResult`: reconstruction and
    orthogonality of the ``bcirc`` embeddings, f-diagonality and
    T-symmetry of the diagonal factor, all shifted eigenpair residuals, and
    both ordering invariants (per-frequency and first-component).

    The shifted eigenpair residuals come from one dense product.  Column
    ``k n + j`` of ``bcirc(U)`` is ``unfold_mat`` of the shift ``U_j^[k]``,
    so column ``k n + j`` of ``bcirc(A) bcirc(U) - bcirc(U) bcirc(E)^T`` is
    the residual ``A * U_j^[k] - U_j^[k] * d_j``, where ``E`` is f-diagonal
    with tube ``j`` the *reported* eigentuple ``d_j`` (``bcirc(E)^T`` is
    ``bcirc`` of ``E``'s transpose, whose tubes are the ``d_j`` reversed).
    The check reports the largest column norm.

    The checks certify ``S, e = unit_scaled(A)`` against ``d`` and the
    eigentuples times ``2^-e`` (exact), so each residual and bound is
    relative to ``2^e``, as the fast route's are.
    """
    A, e = unit_scaled(require_square(A))
    n, _, p = A.shape
    U, D = result.u, np.ldexp(result.d, -e)
    tuples = np.ldexp(result.eigentuples, -e)
    bcA, bcU, bcD = bcirc(A), bcirc(U), bcirc(D)

    scale = max(1.0, float(np.linalg.norm(bcA)))
    recon = float(np.linalg.norm(bcA - bcU @ bcD @ bcU.T)) / scale
    orth = float(np.linalg.norm(bcU.T @ bcU - np.eye(n * p)))
    off = ~np.eye(n, dtype=bool)
    fdiag = float(np.max(np.abs(D[off, :]), initial=0.0))
    tsym = float(np.max(np.abs(bcD - bcD.T)))

    E = np.zeros((n, n, p))
    E[np.arange(n), np.arange(n), :] = tuples
    resid = bcA @ bcU - bcU @ bcirc(E).T
    worst = float(np.max(np.linalg.norm(resid, axis=0)))

    diags = _dense_freq_diagonals(D)  # entry (j, k): eigenvalue j of slice k
    imag = float(np.max(np.abs(diags.imag)))
    lam = diags.real
    drop = float(np.max(lam[1:, :] - lam[:-1, :], initial=0.0))
    freq_viol = max(imag, drop)

    firsts = tuples[:, 0]
    first_viol = float(np.max(firsts[1:] - firsts[:-1], initial=0.0))
    return [CheckResult("reconstruction", recon, 1e-10),
            CheckResult("orthogonality", orth, 1e-10),
            CheckResult("d_f_diagonal", fdiag, 1e-10),
            CheckResult("d_t_symmetric", tsym, 1e-10),
            CheckResult("eigenpair_residuals", worst, 1e-9),
            CheckResult("frequency_ordering", freq_viol, 1e-10),
            CheckResult("first_component_ordering", first_viol, 1e-12)]
