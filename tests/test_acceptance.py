"""Acceptance gate: the nine shipping criteria, one pass/fail line each.

Every criterion measures its own wall time; the final test asserts the
whole gate stays inside the runtime budget.  Results are recorded through
``helpers.record_acceptance`` so the terminal summary carries one line per
criterion.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

from helpers import (ACCEPTANCE_TIMES, first_components_descend,
                     random_tensor, random_tsym, record_acceptance,
                     record_finding, rel_err)
from tubal_spectra.oracle import (NOT_ELEMENTWISE_PSD, oracle_psd_exact,
                                  oracle_tprod)
from tubal_spectra.spectral import (SPECTRAL_NOT_PSD, SPECTRAL_PD,
                                    SPECTRAL_PSD, eigenmatrices, psd_spectral,
                                    quadform, ted)
from tubal_spectra.tensor3 import (bcirc, identity, is_f_diagonal,
                                   is_t_symmetric, transpose, unfold_mat,
                                   write_tensor3)
from tubal_spectra.tproduct import tprod
from tubal_spectra.tsvd import gram_consistency, tsvd
from tubal_spectra.tubal import circ, tube_add, tube_mul, unit_tube

_TED_SUITE = []


def _ted_suite():
    """100 T-symmetric instances (n <= 8, p <= 6), decomposed once and
    shared between the decomposition and ordering criteria."""
    if not _TED_SUITE:
        rng = np.random.default_rng(303)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            p = int(rng.integers(1, 7))
            A = random_tsym(rng, n, p)
            _TED_SUITE.append((A, ted(A)))
    return _TED_SUITE


def _finish(name, start, ok, detail, budget=None):
    elapsed = time.perf_counter() - start
    ACCEPTANCE_TIMES[name] = elapsed
    if budget is not None:
        ok = bool(ok) and elapsed < budget
        detail = f"{detail}; {elapsed:.2f}s of {budget:.0f}s budget"
    else:
        detail = f"{detail}; {elapsed:.2f}s"
    record_acceptance(name, ok, detail)
    assert ok, f"{name}: {detail}"


def test_criterion_1_ring_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_ring = worst_hom = worst_dft = 0.0
    for _ in range(1000):
        p = int(rng.integers(1, 9))
        a, b, c = rng.standard_normal((3, p))
        ab = tube_mul(a, b)
        worst_ring = max(
            worst_ring,
            rel_err(tube_mul(ab, c), tube_mul(a, tube_mul(b, c))),
            rel_err(ab, tube_mul(b, a)),
            rel_err(tube_mul(a, tube_add(b, c)),
                    tube_add(ab, tube_mul(a, c))),
            rel_err(tube_mul(a, unit_tube(p)), a))
        worst_hom = max(worst_hom, rel_err(circ(ab), circ(a) @ circ(b)))
        # circ(a) = W^H diag(fft(a)) W / p with W the DFT matrix
        W = np.exp(-2j * np.pi
                   * np.outer(np.arange(p), np.arange(p)) / p)
        M = (W.conj().T @ np.diag(np.fft.fft(a)) @ W) / p
        worst_dft = max(worst_dft, float(np.max(np.abs(M - circ(a)))))
    ok = worst_ring <= 1e-12 and worst_hom <= 1e-12 and worst_dft <= 1e-10
    _finish("1-ring-suite", start, ok,
            f"1000 tubes, p in 1..8; worst ring law {worst_ring:.2e}, "
            f"circ homomorphism {worst_hom:.2e}, "
            f"DFT diagonalization {worst_dft:.2e}", budget=5.0)


def test_criterion_2_tprod_cross_path():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_cross = worst_bcirc = worst_transpose = 0.0
    for _ in range(200):
        m, n, s = (int(v) for v in rng.integers(1, 13, size=3))
        p = int(rng.integers(1, 9))
        A = random_tensor(rng, m, n, p)
        B = random_tensor(rng, n, s, p)
        C = tprod(A, B)
        worst_cross = max(worst_cross, rel_err(C, oracle_tprod(A, B)))
        worst_bcirc = max(worst_bcirc,
                          rel_err(bcirc(C), bcirc(A) @ bcirc(B)))
        worst_transpose = max(
            worst_transpose,
            rel_err(transpose(C), tprod(transpose(B), transpose(A))))
    ok = (worst_cross <= 1e-12 and worst_bcirc <= 1e-12
          and worst_transpose <= 1e-12)
    _finish("2-tprod-cross-path", start, ok,
            f"200 products, m,n,s <= 12, p <= 8; worst fast-vs-dense "
            f"{worst_cross:.2e}, block-circulant homomorphism "
            f"{worst_bcirc:.2e}, transpose rule {worst_transpose:.2e}",
            budget=10.0)


def test_criterion_3_ted_suite():
    start = time.perf_counter()
    worst = {"recon": 0.0, "orth": 0.0, "pair": 0.0, "gram": 0.0}
    structure_ok = True
    for A, result in _ted_suite():
        n, _, p = A.shape
        worst["recon"] = max(worst["recon"], result.reconstruction)
        Q = bcirc(result.u)
        worst["orth"] = max(worst["orth"], float(np.max(np.abs(
            Q.T @ Q - np.eye(n * p)))))
        structure_ok = (structure_ok and is_f_diagonal(result.d)
                        and is_t_symmetric(result.d))
        worst["pair"] = max(worst["pair"], float(result.eigenpair.max()))
        cols = [unfold_mat(X) for j in range(1, n + 1)
                for X in eigenmatrices(result, j)]
        G = np.column_stack(cols)
        worst["gram"] = max(worst["gram"], float(np.max(np.abs(
            G.T @ G - np.eye(n * p)))))
    identity_exact = all(
        np.array_equal(ted(identity(3, p)).eigentuples,
                       np.tile(unit_tube(p), (3, 1)))
        for p in range(1, 7))
    ok = (worst["recon"] <= 1e-10 and worst["orth"] <= 1e-10
          and structure_ok and worst["pair"] <= 1e-9
          and worst["gram"] <= 1e-10 and identity_exact)
    _finish("3-ted-suite", start, ok,
            f"100 decompositions, n <= 8, p <= 6; worst reconstruction "
            f"{worst['recon']:.2e}, block orthogonality {worst['orth']:.2e}, "
            f"eigenpair {worst['pair']:.2e}, eigenmatrix Gram "
            f"{worst['gram']:.2e}; diagonal factors structured: "
            f"{structure_ok}; identity eigentuples exact for p <= 6: "
            f"{identity_exact}", budget=20.0)


def test_criterion_4_shift_test():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        p = int(rng.integers(1, 7))
        A = random_tsym(rng, n, p)
        base = ted(A).eigentuples
        for lam in (-2.0, 0.5, 3.0):
            shifted = ted(A + lam * identity(n, p)).eigentuples
            expected = base.copy()
            expected[:, 0] += lam
            worst = max(worst, float(np.max(np.abs(shifted - expected))))
    record_finding(
        "adding lam * identity shifts every eigentuple by lam in the FIRST "
        "component only (lam * e), because identity * X = e act X; a "
        "uniform shift of all components would be wrong")
    _finish("4-shift-test", start, worst <= 1e-10,
            f"50 instances, lam in {{-2, 0.5, 3}}; worst deviation from "
            f"d_j + lam*e is {worst:.2e} (shift lands in the first "
            f"component only)")


def test_criterion_5_ordering_report():
    start = time.perf_counter()
    suite = _ted_suite()
    multi = [r for _, r in suite if r.eigentuples.shape[0] > 1]
    sorted_ok = [first_components_descend(r) for _, r in suite]
    chain_true = sum(1 for r in multi if r.elementwise_chain is True)
    fraction = chain_true / len(multi) if multi else 1.0
    record_finding(
        f"elementwise eigentuple chain d_1 >= ... >= d_n held in "
        f"{chain_true}/{len(multi)} multi-eigentuple instances "
        f"({fraction:.0%}); first-component ordering held in "
        f"{sum(sorted_ok)}/{len(sorted_ok)}")
    ok = all(sorted_ok)
    _finish("5-ordering-report", start, ok,
            f"first components sorted in {sum(sorted_ok)}/{len(sorted_ok)} "
            f"instances (hard); elementwise chain fraction {fraction:.0%} "
            f"(reported)")


def test_criterion_6_psd_suite(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    min_floor = np.inf
    consistent = True
    spatial_psd = 0
    for _ in range(50):
        n = int(rng.integers(1, 7))
        p = int(rng.integers(1, 5))
        B = random_tensor(rng, n, n, p)
        verdict = psd_spectral(tprod(transpose(B), B))
        min_floor = min(min_floor, verdict.min_frequency_eigenvalue)
        if verdict.spectral_class in (SPECTRAL_PD, SPECTRAL_PSD):
            spatial_psd += 1
        else:
            # the classifier must only demur when an eigentuple entry
            # really is negative
            consistent = consistent and verdict.min_entry < -verdict.tol
    frac = spatial_psd / 50
    record_finding(
        f"Gram tensors: frequency eigenvalue floor {min_floor:.2e} "
        f"(never below -1e-10); the spatial entrywise criterion certified "
        f"{spatial_psd}/50 ({frac:.0%}) - eigentuples of a Gram tensor can "
        f"carry negative entries, so entrywise certification is one-sided")

    neg = psd_spectral(-identity(3, 4))
    neg_ok = neg.spectral_class == SPECTRAL_NOT_PSD

    E = identity(1, 2)
    exact = oracle_psd_exact(E)
    witness_ok = (exact.label == NOT_ELEMENTWISE_PSD
                  and exact.component == 2
                  and exact.witness is not None)
    if witness_ok:
        value = quadform(E, exact.witness)[exact.component - 1]
        witness_ok = (value < -1e-10
                      and abs(value - exact.witness_value) <= 1e-12)

    path = tmp_path / "gap.t3"
    write_tensor3(str(path), E)
    proc = subprocess.run(
        [sys.executable, "-m", "tubal_spectra", "psd", str(path),
         "--exact", "--format", "json"],
        capture_output=True, text=True, timeout=120)
    doc = json.loads(proc.stdout) if proc.returncode == 0 else {}
    report_ok = (proc.returncode == 0
                 and doc.get("spectral", {}).get("class") == "PSD"
                 and doc.get("exact", {}).get("class") == NOT_ELEMENTWISE_PSD
                 and doc.get("verdicts_agree") is False)

    ok = (min_floor >= -1e-10 and consistent and neg_ok and witness_ok
          and report_ok)
    _finish("6-psd-suite", start, ok,
            f"50 Gram tensors: frequency floor {min_floor:.2e} (hard), "
            f"spatial certification {frac:.0%} (reported); -identity "
            f"refused: {neg_ok}; elementwise counterexample witnessed and "
            f"re-verified: {witness_ok}; CLI reports the "
            f"criterion-vs-oracle disagreement: {report_ok}", budget=15.0)


def test_criterion_7_tsvd_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    shapes = [(8, 3, 4), (3, 8, 4), (2, 7, 5), (7, 2, 5)]
    while len(shapes) < 100:
        shapes.append(tuple(int(v) for v in
                            (rng.integers(1, 9), rng.integers(1, 9),
                             rng.integers(1, 7))))
    worst_recon = worst_pair = worst_match = 0.0
    gram_ok = True
    saw_tall = saw_wide = False
    for m, n, p in shapes:
        saw_tall = saw_tall or m > n
        saw_wide = saw_wide or m < n
        A = random_tensor(rng, m, n, p)
        result = tsvd(A)
        worst_recon = max(worst_recon, result.reconstruction)
        worst_pair = max(worst_pair, result.pair_max)
        checks = gram_consistency(A, result)
        gram_ok = gram_ok and all(c.passed is not False for c in checks)
        worst_match = max(worst_match, *(
            c.residual for c in checks
            if c.check in ("right_gram_eigentuple_match",
                           "left_gram_eigentuple_match")))
    ok = (worst_recon <= 1e-10 and worst_pair <= 1e-9
          and worst_match <= 1e-8 and gram_ok and saw_tall and saw_wide)
    _finish("7-tsvd-suite", start, ok,
            f"100 decompositions, m,n <= 8, p <= 6, tall and wide "
            f"included; worst reconstruction {worst_recon:.2e}, singular "
            f"pair residual (one per tuple, equal for every shift) "
            f"{worst_pair:.2e}, Gram "
            f"eigentuple match (zero-padded) {worst_match:.2e}",
            budget=20.0)


def test_criterion_8_determinism(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    sym = tmp_path / "sym.t3"
    rect = tmp_path / "rect.t3"
    gram = tmp_path / "gram.t3"
    write_tensor3(str(sym), random_tsym(rng, 4, 3))
    write_tensor3(str(rect), random_tensor(rng, 5, 3, 4))
    B = random_tensor(rng, 3, 3, 2)
    write_tensor3(str(gram), tprod(transpose(B), B))
    commands = (
        ("ted", ["ted", str(sym), "--format", "json"]),
        ("tsvd", ["tsvd", str(rect), "--format", "json"]),
        ("psd", ["psd", str(gram), "--exact", "--format", "json"]),
    )
    ok = True
    for name, argv in commands:
        outputs = []
        for threads in ("1", "4", "1"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "tubal_spectra", *argv],
                capture_output=True, env=env, timeout=120)
            ok = ok and proc.returncode == 0
            outputs.append(proc.stdout)
        identical = len(set(outputs)) == 1
        ok = ok and identical
        if not identical:
            record_finding(f"{name} output varied across thread counts")
    _finish("8-determinism", start, ok,
            "ted/tsvd/psd JSON byte-identical across repeated runs with "
            "1 and 4 threads")


def test_criterion_9_runtime_budget():
    total = sum(ACCEPTANCE_TIMES.values())
    missing = {f"{i}-" for i in range(1, 9)} - {
        k[:2] for k in ACCEPTANCE_TIMES}
    ok = total < 60.0 and not missing
    record_acceptance(
        "9-runtime-budget", ok,
        f"criteria 1-8 took {total:.1f}s of the 60s budget")
    assert ok, f"acceptance suite took {total:.1f}s (budget 60s), " \
               f"missing timings: {missing or 'none'}"
