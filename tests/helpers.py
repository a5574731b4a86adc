"""Shared test utilities: generators, comparison helpers, and a findings log.

Findings are observations worth surfacing in the run output (measured
fractions, probe outcomes) that are reported rather than asserted; the
conftest terminal hook prints them after the test summary.
"""

import numpy as np

from tubal_spectra.oracle import oracle_quadform_dense
from tubal_spectra.tensor3 import fold_mat, transpose

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


def random_tensor(rng, m, n, p):
    return rng.standard_normal((m, n, p))


def random_tsym(rng, n, p):
    A = rng.standard_normal((n, n, p))
    return 0.5 * (A + transpose(A))


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
