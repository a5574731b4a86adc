"""Shared test utilities: generators, comparison helpers, and a findings log.

Findings are observations worth surfacing in the run output (measured
fractions, probe outcomes) that are reported rather than asserted; the
conftest terminal hook prints them after the test summary.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from tubal_spectra.oracle import oracle_quadform_dense
from tubal_spectra.spectral import verify_eigenpair
from tubal_spectra.tensor3 import (bcirc, fold_mat, shift_columns, transpose,
                                   unfold_mat)
from tubal_spectra.tproduct import tprod_mat
from tubal_spectra.transform import from_freq, to_freq
from tubal_spectra.tubal import tube_action, tube_transpose

#: Messages printed at the end of the run (populated by tests).
FINDINGS = []

#: One line per acceptance check, printed at the end of the run.
ACCEPTANCE_LINES = []

#: Acceptance wall times by name, summed by the runtime budget test.
ACCEPTANCE_TIMES = {}


def record_finding(message):
    FINDINGS.append(message)
    print(f"[finding] {message}")


def record_acceptance(name, passed, detail):
    status = "PASS" if passed else "FAIL"
    line = f"[acceptance] {name}: {status} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    """``scripts/<name>.py`` as a fresh module.  The scripts directory is
    put on ``sys.path``, as ``python3 scripts/<name>.py`` puts it, so that
    a script can import its siblings."""
    if str(SCRIPTS) not in sys.path:
        sys.path.insert(0, str(SCRIPTS))
    spec = importlib.util.spec_from_file_location(name,
                                                  SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (n, p) shapes for the batched core: p = 1, p = 2, odd and even p, n = 1.
CORE_SHAPES = ((1, 1), (4, 1), (3, 2), (5, 3), (4, 4), (6, 5), (1, 6),
               (7, 8), (8, 9))


def random_tensor(rng, m, n, p):
    return rng.standard_normal((m, n, p))


def random_tsym(rng, n, p):
    A = rng.standard_normal((n, n, p))
    return 0.5 * (A + transpose(A))


def near_tsym(rng, n, p, ratio):
    """A random T-symmetric ``S`` plus an antisymmetric ``K`` with
    ``||A - A^T||_F = 2 ||K||_F = ratio * ||S||_F``.

    ``S`` and ``K`` are Frobenius-orthogonal (the transpose permutes
    entries), so ``||A - A^T||_F / ||A||_F`` is ``ratio`` to within a
    relative ``ratio**2 / 8`` and roundoff.  For ``n = p = 1``, ``K = 0``.
    """
    S = random_tsym(rng, n, p)
    G = rng.standard_normal((n, n, p))
    K = G - transpose(G)
    norm = float(np.linalg.norm(K))
    if norm > 0.0:
        K *= ratio * float(np.linalg.norm(S)) / (2.0 * norm)
    return S + K


def exactly_scaled(A, e):
    """``ldexp(A, e)``, or None when that is not exact: some entry
    overflows or loses bits by going subnormal."""
    with np.errstate(over="ignore"):
        Ae = np.ldexp(A, e)
    return Ae if np.array_equal(np.ldexp(Ae, -e), A) else None


def first_components_descend(result):
    """Whether a ``TedResult``'s first components descend, within the
    roundoff slack ``1e-12 * max(1, max|eigentuples|)``."""
    firsts = result.eigentuples[:, 0]
    slack = 1e-12 * max(1.0, float(np.max(np.abs(result.eigentuples))))
    return bool(np.all(firsts[1:] <= firsts[:-1] + slack))


def rel_err(found, expected):
    scale = max(float(np.linalg.norm(found)),
                float(np.linalg.norm(expected)), 1.0)
    return float(np.linalg.norm(np.asarray(found) - np.asarray(expected))) / scale


def polarization_by_evaluation(A):
    """Polarization matrices of the T-quadratic form of a square ``A``,
    by evaluating the dense form on every basis vector and every pairwise
    sum of basis vectors.

    ``O((n p)^2)`` dense form evaluations: an independent witness for the
    closed form in :func:`tubal_spectra.oracle.oracle_quadform_matrices`,
    affordable only at small ``n * p``.
    """
    n, _, p = A.shape
    N = n * p
    E = np.eye(N)

    def form(v):
        return oracle_quadform_dense(A, fold_mat(v, p))

    diag = [form(E[i]) for i in range(N)]
    M = np.empty((p, N, N))
    for i in range(N):
        M[:, i, i] = diag[i]
        for j in range(i + 1, N):
            cross = 0.5 * (form(E[i] + E[j]) - diag[i] - diag[j])
            M[:, i, j] = cross
            M[:, j, i] = cross
    return M


def ted_by_loop(A):
    """The per-slice, per-shift ``ted`` loop, kept as an independent witness
    for the batched core in :func:`tubal_spectra.spectral.ted`.

    Returns ``(u, d, eigentuples, frequency_eigenvalues, eigenpair)``, where
    ``eigenpair[j, k]`` is one :func:`verify_eigenpair` call per shift.
    """
    n, _, p = A.shape
    F = to_freq(A)
    h = p // 2 + 1
    uh = np.empty((h, n, n), dtype=np.complex128)
    dh = np.zeros((h, n, n), dtype=np.complex128)
    freq_eigs = np.empty((n, p))
    for k in range(h):
        M = F[k]
        if k == 0 or (p % 2 == 0 and k == p // 2):
            H = 0.5 * (M.real + M.real.T)
        else:
            H = 0.5 * (M + M.conj().T)
        w, V = np.linalg.eigh(H)
        w, V = w[::-1], np.ascontiguousarray(V[:, ::-1])
        V = _phase_columns_by_loop(V.astype(np.complex128))
        uh[k] = V
        dh[k] = np.diag(w.astype(np.complex128))
        freq_eigs[:, k] = w
        if 0 < k < p - k:
            freq_eigs[:, p - k] = w
    U = from_freq(uh, p)
    D = from_freq(dh, p)
    tuples = np.vstack([tube_transpose(D[j, j, :]) for j in range(n)])
    pair = np.empty((n, p))
    for j in range(n):
        for k in range(p):
            pair[j, k] = verify_eigenpair(
                A, tuples[j], shift_columns(U[:, j, :], k))
    return U, D, tuples, freq_eigs, pair


def tsvd_by_loop(A):
    """The per-slice, per-shift ``tsvd`` loop, kept as an independent
    witness for the batched core in :func:`tubal_spectra.tsvd.tsvd`.

    Returns ``(u, s, v, singular_tuples, frequency_singular_values,
    pair_right, pair_left)``, each residual entry from one pair of
    :func:`tprod_mat` and :func:`tube_action` calls.
    """
    m, n, p = A.shape
    r = min(m, n)
    F = to_freq(A)
    h = p // 2 + 1
    uh = np.empty((h, m, m), dtype=np.complex128)
    sh = np.zeros((h, m, n), dtype=np.complex128)
    vh = np.empty((h, n, n), dtype=np.complex128)
    freq_sv = np.empty((r, p))
    for k in range(h):
        M = F[k]
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
                    Vh_[j, :] = Vh_[j, :] * np.conj(phase)
        for j in range(r, n):
            i = int(np.argmax(np.abs(Vh_[j, :])))
            z = Vh_[j, i]
            mag = abs(z)
            if mag > 0.0:
                Vh_[j, :] = Vh_[j, :] * (np.conj(z) / mag)
        uh[k] = U_
        vh[k] = Vh_.conj().T
        sh[k, :r, :r] = np.diag(sig.astype(np.complex128))
        freq_sv[:, k] = sig
        if 0 < k < p - k:
            freq_sv[:, p - k] = sig
    U = from_freq(uh, p)
    S = from_freq(sh, p)
    V = from_freq(vh, p)
    tuples = np.vstack([tube_transpose(S[j, j, :]) for j in range(r)])
    At = transpose(A)
    right = np.empty((r, p))
    left = np.empty((r, p))
    for j in range(r):
        for k in range(p):
            X = shift_columns(V[:, j, :], k)
            Y = shift_columns(U[:, j, :], k)
            right[j, k] = float(np.linalg.norm(
                tprod_mat(A, X) - tube_action(tuples[j], Y)))
            left[j, k] = float(np.linalg.norm(
                tprod_mat(At, Y) - tube_action(tuples[j], X)))
    return U, S, V, tuples, freq_sv, right, left


def _phase_columns_by_loop(V):
    """Rotate each column so its largest-magnitude entry is real positive."""
    for j in range(V.shape[1]):
        i = int(np.argmax(np.abs(V[:, j])))
        z = V[i, j]
        mag = abs(z)
        if mag > 0.0:
            V[:, j] = V[:, j] * (np.conj(z) / mag)
    return V


def oracle_eigenpair_by_loop(A, result):
    """The largest shifted eigenpair residual of ``result``, one dense
    matrix-vector product and one :func:`tube_action` per shift, kept as
    an independent witness for :func:`tubal_spectra.oracle.oracle_ted_check`.
    """
    n, _, p = A.shape
    bcA = bcirc(A)
    worst = 0.0
    for j in range(n):
        d = result.eigentuples[j]
        for k in range(p):
            X = shift_columns(result.u[:, j, :], k)
            resid = float(np.linalg.norm(
                fold_mat(bcA @ unfold_mat(X), p) - tube_action(d, X)))
            worst = max(worst, resid)
    return worst
