"""T-eigendecomposition of T-symmetric tensors and PSD certification.

``ted`` factors a T-symmetric ``A`` as ``U * D * U^T`` with ``U``
orthogonal and ``D`` f-diagonal, by solving a Hermitian eigenproblem on
each frequency slice ``k <= p // 2`` and mirroring.  The canonical form is
fixed by three choices: eigenvalues sorted descending within every slice,
each eigenvector's largest-magnitude entry made real and positive, and
conjugate bins mirrored exactly.  Eigentuple ``j`` is the index reversal of
the ``j``-th diagonal tube of ``D``, so that
``A * U_j^[k] = d_j act U_j^[k]`` for every cyclic column shift ``k``.
Symmetry is decided by one scale-free gate, ``tensor3.is_t_symmetric``;
by Parseval its Frobenius ratio is the same in either domain.  ``ted`` and
``tsvd`` factor and certify ``S, e = tubal.unit_scaled(A)`` and scale
the spectra and the diagonal factor back by ``2^e`` (exact), so every
residual and tolerance is relative to ``max|A|`` rounded up to a power of
two; a scaled-back spectrum that overflows raises ``ValueError``.

The frequency core is batched and shared with :mod:`tubal_spectra.tsvd`.
It works on the half-spectrum stack that :mod:`tubal_spectra.transform`
returns and reaches the FFT and the bin layout only through that module,
whose ``_factor_half`` makes one stacked ``eigh`` call on the real
self-conjugate bins and one on the others.  One vectorized canonical phase
rotates every vector of every bin.

Each certificate is its t-product identity, taken by ``_certificate``
(shared with ``tsvd``) bin by bin from the half spectrum of ``A`` that the
factorization used and one transform of each returned factor (``U^T`` is
the per-bin conjugate transpose), then brought back by one inverse
transform for its norm: ``A - U * D * U^T``, ``U^T * U - I``, and
``A * U - U * D``, whose lateral slice ``j`` is ``A * U_j - d_j act U_j``.
Their norms are fields of the result, beside the factors.
Each eigentuple gets one residual, and the residuals of its ``p`` shifts
are inferred from it: a shift ``U_j^[k]`` is the action of the unit tube
``e_k`` on ``U_j``, which commutes with the t-product and with every tube
action and only permutes entries, so ``A * U_j^[k] - d_j act U_j^[k]`` is
the ``k``-shift of the unshifted residual and has the same norm (Kilmer &
Martin 2011).
The dense :func:`tubal_spectra.oracle.oracle_ted_check`, which ``verify``
runs, computes every shift's residual independently.

The first component of an eigentuple is the mean of its per-slice
eigenvalues, so first components are sorted descending by construction
(``verify``'s dense ``first_component_ordering`` checks it independently);
the full elementwise order between consecutive eigentuples may hold, fail,
or be incomparable, and ``TedResult`` reports which.

``psd_spectral`` classifies the T-quadratic form of ``(A + A^T) / 2``, the
tensor ``ted`` factors, from the spatial entries of its eigentuples
(positive / nonnegative within ``tol``).  This criterion is one-sided:
tube values are only partially ordered, and entrywise-nonnegative
eigentuples are neither necessary for entrywise-nonnegative form values nor
sufficient in the strict sense.  The verdict therefore also records the
smallest frequency eigenvalue, which certifies classical PSD-ness of the
first form component, and :func:`exact_psd`'s closed-form elementwise
answer from the same decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotTSymmetric, ShapeError, TubalError, ZeroMatrix
from .oracle import ELEMENTWISE_PSD, NOT_ELEMENTWISE_PSD, ExactPsdResult
from .tensor3 import (as_matslice, is_t_symmetric, require_square,
                      shift_columns, transpose, unit_scaled)
from .transform import (_ct, _factor_half, _full_spectrum, _norm, from_freq,
                        to_freq)
from .tproduct import tprod, tprod_mat
from .tubal import checked_tol, descending_chain, tube_action

SPECTRAL_PD = "PD"
SPECTRAL_PSD = "PSD"
SPECTRAL_NOT_PSD = "NOT_PSD_BY_CRITERION"


@dataclass
class TedResult:
    """Canonical T-eigendecomposition ``A = u * d * u^T``.

    ``eigentuples`` holds the ``n`` eigentuples as rows (index-reversed
    diagonal tubes of ``d``); ``frequency_eigenvalues[:, k]`` are the
    descending eigenvalues of frequency slice ``k``, so the first
    components ``eigentuples[:, 0]``, their means, are sorted descending by
    construction.  ``elementwise_chain`` is ``True``/``False``/
    ``"incomparable"``.  ``d`` and the spectra are those of ``A * 2^-e``
    times ``2^e``, ``e = scale_exponent``.

    The residuals certify the factors of ``S = A * 2^-e``, whose diagonal
    factor is ``D = d * 2^-e``: ``reconstruction`` is
    ``||S - u * D * u^T||_F / ||S||_F`` (absolute when ``S`` vanishes),
    ``orthogonality`` is ``||u^T * u - I||_F``, and ``eigenpair[j]`` is
    ``||S * U_j - d_j act U_j||_F / ||U_j||_F`` for eigentuple ``d_j`` of
    ``D``, with shape ``(n,)``.  Every column shift ``U_j^[k]`` has the
    same residual (see the module docstring), so one value per eigentuple
    certifies all ``p`` eigenmatrices; ``eigenpair_max`` is the largest.
    """

    u: np.ndarray
    d: np.ndarray
    eigentuples: np.ndarray
    frequency_eigenvalues: np.ndarray
    reconstruction: float
    orthogonality: float
    eigenpair: np.ndarray
    elementwise_chain: object
    scale_exponent: int

    @property
    def eigenpair_max(self):
        return float(self.eigenpair.max())


@dataclass
class PsdVerdict:
    """Outcome of the spectral PSD criterion, plus optional exact data.

    ``spectral_class`` is ``PD``, ``PSD`` or ``NOT_PSD_BY_CRITERION`` from
    the spatial eigentuple entries at tolerance ``tol`` times ``2^e``.
    ``min_frequency_eigenvalue`` certifies the classical (first form
    component) side.  Every field describes ``(A + A^T) / 2``, the tensor
    :func:`ted` factors; ``symmetrized`` is true when it was formed because
    ``A`` failed the symmetry gate (see :func:`psd_spectral`).  ``exact`` is
    :func:`exact_psd`'s answer; :func:`classify_ted` alone leaves it unset.
    """

    spectral_class: str
    smallest_eigentuple: np.ndarray
    min_entry: float
    min_frequency_eigenvalue: float
    tol: float
    symmetrized: bool = False
    exact: ExactPsdResult | None = None


def _canonical_phase(V):
    """Rotate every column of a ``(b, n, c)`` stack so that its
    largest-magnitude entry (the first on ties) is real positive.

    Returns the rotated stack and the ``(b, c)`` phases applied.  The
    magnitude is ``hypot(re, im)``, which equals Python's scalar ``abs`` of
    a complex number bit for bit.  Every column must be nonzero, as unit
    eigen- and singular vectors are: their largest entry is at least
    ``1 / sqrt(n)`` in magnitude.
    """
    i = np.argmax(np.abs(V), axis=1)
    z = np.take_along_axis(V, i[:, None, :], axis=1)[:, 0, :]
    phase = np.conj(z) / np.hypot(z.real, z.imag)
    return V * phase[:, None, :], phase


def _certificate(A, Af, Lf, Df, Rf):
    """The certificates of ``A = L * D * R^T`` that ``ted`` and ``tsvd``
    share, from half spectra: ``||A - L * D * R^T||_F / ||A||_F`` (absolute
    when ``A`` vanishes), ``||L^T * L - I||_F`` and the norms of the first
    ``min(m, n)`` lateral slices of ``A * R - L * D``, one per tuple."""
    m, n, p = A.shape
    LD = Lf @ Df
    normA = float(np.linalg.norm(A)) or 1.0
    recon = float(_norm(Af - LD @ _ct(Rf), p)) / normA
    orth = float(_norm(_ct(Lf) @ Lf - np.eye(m), p))
    r = min(m, n)
    return recon, orth, _norm(Af @ Rf[:, :, :r] - LD[:, :, :r], p, (0, 2))


def _scaled_back(e, *arrays):
    """Each array times ``2^e`` (exact); ``ValueError`` when one overflows."""
    out = [np.ldexp(X, e) for X in arrays]
    if not all(np.isfinite(X).all() for X in out):
        raise ValueError("frequency spectrum overflows: out of float64 range")
    return out


def _f_diagonal(values, m, n, p):
    """The real f-diagonal ``(m, n, p)`` tensor whose diagonal tube ``j``
    has the values ``values[:, j]`` on bins ``0..p//2``, and its diagonal
    tubes index-reversed as rows (the eigen- or singular tuples)."""
    half = np.zeros((len(values), m, n), dtype=np.complex128)
    j = np.arange(values.shape[1])
    half[:, j, j] = values
    D = from_freq(half, p)
    return D, D[j, j][:, -np.arange(p) % p]


def ted(A, tol=1e-10):
    """T-eigendecomposition of a T-symmetric tensor, in canonical form.

    ``tol`` bounds ``||A - A^T||_F / ||A||_F`` (the one symmetry gate).  The
    factors are those of ``(A + A^T) / 2``, so the reconstruction residual
    is at most ``tol / 2`` plus roundoff.
    """
    A, e = unit_scaled(require_square(A))
    n, _, p = A.shape
    Af = to_freq(A)
    if not is_t_symmetric(A, tol):
        raise NotTSymmetric("tensor is not T-symmetric within tolerance")

    w, V = _factor_half(np.linalg.eigh, 0.5 * (Af + _ct(Af)), p)
    w = w[:, ::-1]
    V, _ = _canonical_phase(V[:, :, ::-1])
    U = from_freq(V, p)
    D, eigentuples = _f_diagonal(w, n, n, p)

    # Transform the returned real factors, not the stack V, so that the
    # certificates also catch a fault in their inverse transform.
    Uf = to_freq(U)
    recon, orth, right = _certificate(A, Af, Uf, to_freq(D), Uf)
    pair = right / np.linalg.norm(U, axis=(0, 2))

    D, tuples, w = _scaled_back(e, D, eigentuples, _full_spectrum(w, p))
    return TedResult(
        u=U, d=D, eigentuples=tuples, frequency_eigenvalues=w,
        reconstruction=recon, orthogonality=orth, eigenpair=pair,
        elementwise_chain=descending_chain(eigentuples), scale_exponent=e)


def eigenmatrices(result, j):
    """All ``p`` eigenmatrices of eigentuple ``j`` (1-based): the cyclic
    column shifts of lateral slice ``j`` of ``u``."""
    n, _, p = result.u.shape
    if int(j) != j or not 1 <= j <= n:
        raise IndexError(f"eigentuple index must be in 1..{n}, got {j!r}")
    Uj = result.u[:, int(j) - 1, :]
    return [shift_columns(Uj, k) for k in range(p)]


def verify_eigenpair(A, d, X):
    """Residual ``||A * X - d act X||_F / ||X||_F`` for a candidate pair."""
    A = require_square(A)
    X = as_matslice(X)
    norm = float(np.linalg.norm(X))
    if norm == 0.0:
        raise ZeroMatrix("eigenpair residual is undefined for a zero matrix")
    return float(np.linalg.norm(tprod_mat(A, X) - tube_action(d, X))) / norm


def extremal_eigentuples(result):
    """The first (largest) and last (smallest) eigentuples of a ``TedResult``."""
    return result.eigentuples[0].copy(), result.eigentuples[-1].copy()


def quadform(A, X):
    """T-quadratic form ``F_A(X) = X^T * A * X`` as a tube.

    ``X`` is an ``(n, p)`` matrix slice embedded as an ``n x 1 x p`` tensor.
    """
    A = require_square(A)
    X = as_matslice(X)
    if X.shape != (A.shape[0], A.shape[2]):
        raise ShapeError(
            f"matrix slice of shape {X.shape} does not match tensor of "
            f"shape {A.shape}")
    Xt = X[:, None, :]
    return tprod(tprod(transpose(Xt), A), Xt)[0, 0, :]


def symmetrize(A):
    """``A + A^T``, which is exactly T-symmetric.

    Its quadratic form is ``F_A + reverse(F_A)`` (the tensor transpose of a
    ``1 x 1 x p`` tensor reverses the tube), so the *first* form component
    doubles, matching the classical identity ``x^T (A + A^T) x = 2 x^T A x``;
    the other components symmetrize rather than double.
    """
    A = require_square(A)
    return A + transpose(A)


def _symmetric_part(A):
    """``(A + A^T) / 2``, halved first so that it cannot overflow."""
    return 0.5 * A + 0.5 * transpose(A)


def expand_in_eigenbasis(result, X):
    """Coefficients of ``X`` in the orthonormal eigenmatrix basis.

    Returns ``alpha`` with ``alpha[j, k] = <U_j^[k], X>_F``; summing
    ``alpha[j, k] * U_j^[k]`` reconstructs ``X`` and
    ``sum(alpha ** 2) == ||X||_F ** 2``.
    """
    X = as_matslice(X)
    n, _, p = result.u.shape
    if X.shape != (n, p):
        raise ShapeError(
            f"matrix slice of shape {X.shape} does not match factors of "
            f"shape {result.u.shape}")
    return tprod(transpose(result.u), X[:, None, :])[:, 0, :]


def psd_spectral(A, tol=1e-10, auto_symmetrize=False):
    """Classify the T-quadratic form of ``(A + A^T) / 2`` by the spectral
    criterion: ``PD`` when every entry of every eigentuple exceeds ``tol``,
    ``PSD`` when every entry is at least ``-tol``, else
    ``NOT_PSD_BY_CRITERION``; ``tol`` is relative to ``max|A|`` rounded up
    to a power of two.  That tensor is what :func:`ted` factors, and it
    shares the first form component (the classical form) with ``A``.  Input
    outside ted's symmetry gate raises :class:`NotTSymmetric` unless
    ``auto_symmetrize`` is set; then that tensor is formed without overflow
    and ``symmetrized`` is set.  ``exact`` holds :func:`exact_psd`.
    """
    A, symmetrized = require_square(A), False
    try:
        result = ted(A)
    except NotTSymmetric:
        if not auto_symmetrize:
            raise NotTSymmetric(
                "tensor is not T-symmetric; pass auto_symmetrize=True to "
                "classify (A + A^T) / 2 instead") from None
        A, symmetrized = _symmetric_part(A), True
        result = ted(A)
    verdict = classify_ted(result, tol)
    verdict.symmetrized, verdict.exact = symmetrized, exact_psd(A, result, tol)
    return verdict


def classify_ted(result, tol=1e-10):
    """The spectral PSD verdict of an existing :class:`TedResult`.

    This is the classification step of :func:`psd_spectral`, for callers
    that already hold the decomposition, at ``tol`` times ``2^e``; ``tol``
    must be finite and nonnegative (:func:`~tubal_spectra.tubal.checked_tol`),
    else ``ValueError``.
    """
    min_entry = float(result.eigentuples.min())
    bound = np.ldexp(checked_tol(tol), result.scale_exponent)
    if min_entry > bound:
        cls = SPECTRAL_PD
    elif min_entry >= -bound:
        cls = SPECTRAL_PSD
    else:
        cls = SPECTRAL_NOT_PSD
    return PsdVerdict(cls, result.eigentuples[-1].copy(), min_entry,
                      float(result.frequency_eigenvalues.min()), tol)


def exact_psd(A, result, tol=1e-10):
    """Exact elementwise PSD answer for ``(A + A^T) / 2`` from ``ted(A)``.

    Each ``M_r`` of :mod:`tubal_spectra.oracle` is block-circulant, with the
    eigenvalues ``cos(2 pi m / p) lambda_j(F_k)``, ``m = (r k) mod p`` folded
    to ``min(m, p - m)`` so that components ``r`` and ``p - r`` tie exactly.
    The first minimum in ``(r, j, k)`` order is reported; below ``-tol``
    times ``2^e`` (``e = result.scale_exponent``), with the unit-norm
    witness ``X[:, t] = Re(v e^{2 pi i t k / p})``, ``v`` bin ``k`` of the
    transform of ``U_j``, column ``j`` of ``result.u``.  ``witness_value``
    is the form of ``(A + A^T) / 2`` at ``X``, without rounding that tensor:
    the mean of ``F_A(X)`` at ``r`` and ``-r mod p`` (see :func:`symmetrize`).
    ``tol`` must be finite and nonnegative, else ``ValueError``.
    """
    tol = np.ldexp(checked_tol(tol), result.scale_exponent)
    lam = result.frequency_eigenvalues
    p = lam.shape[1]
    m = np.outer(np.arange(p), np.arange(p)) % p
    values = np.cos(2 * np.pi * np.minimum(m, p - m) / p)[:, None, :] * lam
    r, j, k = np.unravel_index(np.argmin(values), values.shape)
    min_eig = float(values[r, j, k])
    if min_eig >= -tol:
        return ExactPsdResult(ELEMENTWISE_PSD, min_eig, int(r) + 1)
    # Bins k and p - k tie exactly, so the first minimum has k <= p // 2.
    v = to_freq(result.u[:, [j], :])[k, :, 0]
    witness = (v[:, None] * np.exp(2j * np.pi * k * np.arange(p) / p)).real
    witness /= np.linalg.norm(witness)
    value = float((0.5 * quadform(A, witness)[[r, -r % p]]).sum())
    if value >= -tol:
        raise TubalError(
            "internal inconsistency: PSD witness failed re-evaluation")
    return ExactPsdResult(NOT_ELEMENTWISE_PSD, min_eig, int(r) + 1, witness,
                          value)
