"""Tubal-scalar ring: algebra, circulant representation, DFT, square roots."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import record_finding, rel_err
from tubal_spectra import tubal as tubal_module
from tubal_spectra.errors import DimensionMismatch
from tubal_spectra.tensor3 import read_tensor3
from tubal_spectra.tubal import (INCOMPARABLE, circ, descending_chain,
                                 tube_action, tube_add, tube_le, tube_mul,
                                 tube_transpose, tubal_sqrt_all, unit_scaled,
                                 unit_tube)

RNG = np.random.default_rng(20260814)

finite_tubes = st.integers(min_value=1, max_value=8).flatmap(
    lambda p: arrays(np.float64, p,
                     elements=st.floats(-10, 10, allow_nan=False)))


def _tube_pair(p):
    return RNG.standard_normal(p), RNG.standard_normal(p)


# --- ring axioms -------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.data())
def test_ring_axioms(p, data):
    elements = st.floats(-10, 10, allow_nan=False)
    a = data.draw(arrays(np.float64, p, elements=elements))
    b = data.draw(arrays(np.float64, p, elements=elements))
    c = data.draw(arrays(np.float64, p, elements=elements))
    assert rel_err(tube_mul(a, b), tube_mul(b, a)) <= 1e-12
    assert rel_err(tube_mul(tube_mul(a, b), c),
                   tube_mul(a, tube_mul(b, c))) <= 1e-12
    assert rel_err(tube_mul(a, tube_add(b, c)),
                   tube_add(tube_mul(a, b), tube_mul(a, c))) <= 1e-12
    e = unit_tube(p)
    assert np.allclose(tube_mul(e, a), a, atol=1e-12)
    assert np.allclose(tube_mul(a, e), a, atol=1e-12)


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_circ_is_ring_homomorphism(p):
    a, b = _tube_pair(p)
    assert np.array_equal(circ(a + b), circ(a) + circ(b))
    assert rel_err(circ(tube_mul(a, b)), circ(a) @ circ(b)) <= 1e-12


def test_circ_structure():
    a = np.array([1.0, 2.0, 3.0])
    expected = np.array([[1.0, 3.0, 2.0],
                         [2.0, 1.0, 3.0],
                         [3.0, 2.0, 1.0]])
    assert np.array_equal(circ(a), expected)


def test_square_of_length_two_tube():
    # (a1, a2) squared is (a1^2 + a2^2, 2 a1 a2).
    a = np.array([3.0, -2.0])
    assert np.allclose(tube_mul(a, a), [13.0, -12.0])


def test_unit_tube_is_unique_identity():
    p = 4
    e = unit_tube(p)
    mats = []
    for i in range(3):
        for j in range(p):
            E = np.zeros((3, p))
            E[i, j] = 1.0
            mats.append(E)
    assert all(np.array_equal(tube_action(e, E), E) for E in mats)
    for _ in range(20):
        a = RNG.standard_normal(p)
        fixes_all = all(
            np.max(np.abs(tube_action(a, E) - E)) <= 1e-12 for E in mats)
        assert fixes_all == bool(np.max(np.abs(a - e)) <= 1e-12)


def test_tube_action_is_right_multiplication_by_circ():
    a = RNG.standard_normal(5)
    X = RNG.standard_normal((4, 5))
    acted = tube_action(a, X)
    assert np.array_equal(acted, X @ circ(a))
    # Row-wise this convolves with the REVERSED tube; it agrees with
    # convolution by the tube itself exactly when the tube is
    # reversal-symmetric, which canonical eigentuples and singular
    # tuples always are.
    for i in range(4):
        assert np.allclose(acted[i], tube_mul(tube_transpose(a), X[i]),
                           atol=1e-12)
    sym = np.array([2.0, -1.0, 0.5, 0.5, -1.0])
    assert np.array_equal(tube_transpose(sym), sym)
    acted = tube_action(sym, X)
    for i in range(4):
        assert np.allclose(acted[i], tube_mul(sym, X[i]), atol=1e-12)
    with pytest.raises(DimensionMismatch):
        tube_action(a, RNG.standard_normal((4, 3)))


def test_dft_diagonalizes_circulant():
    for p in (1, 2, 3, 4, 7):
        a = RNG.standard_normal(p)
        eigs = np.linalg.eigvals(circ(a))
        target = list(np.fft.fft(a))
        for lam in eigs:  # greedy multiset match
            dist = [abs(lam - t) for t in target]
            k = int(np.argmin(dist))
            assert dist[k] <= 1e-10
            target.pop(k)
        assert np.allclose(np.fft.ifft(np.fft.fft(a)).real, a, atol=1e-12)


def test_tube_transpose_matches_matrix_transpose():
    a = RNG.standard_normal(6)
    assert np.array_equal(circ(tube_transpose(a)), circ(a).T)
    assert np.array_equal(tube_transpose(tube_transpose(a)), a)


def test_tube_abs_and_partial_order():
    a = np.array([1.0, -2.0])
    assert tube_le(np.array([0.0, 1.0]), np.array([1.0, 1.0])) is True
    assert tube_le(np.array([2.0, 3.0]), np.array([1.0, 1.0])) is False
    assert tube_le(np.array([0.0, 2.0]), np.array([1.0, 1.0])) == INCOMPARABLE
    assert tube_le(a, a) is True  # equality compares as True
    with pytest.raises(DimensionMismatch):
        tube_le(a, np.array([1.0, 2.0, 3.0]))


def _chain_by_pairs(tubes):
    """``descending_chain`` by its definition, pair by pair, with explicit
    comparisons (``tube_le`` is ``descending_chain`` of two rows)."""
    verdicts = []
    for a, b in zip(tubes, tubes[1:]):
        if np.all(b <= a):
            verdicts.append(True)
        elif np.all(a <= b):
            verdicts.append(False)
        else:
            verdicts.append(INCOMPARABLE)
    if all(v is True for v in verdicts):
        return True
    if any(v == INCOMPARABLE for v in verdicts):
        return INCOMPARABLE
    return False


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5),
       st.sampled_from(["random", "descending", "ascending", "tied",
                        "one row"]), st.data())
def test_descending_chain_is_the_pairwise_partial_order(c, p, kind, data):
    # Few distinct values, so that ties and equal rows are common.
    tubes = data.draw(arrays(np.float64, (1 if kind == "one row" else c, p),
                             elements=st.sampled_from(
                                 [-2.0, -0.0, 0.0, 1.0, 2.5])))
    if kind == "descending":
        tubes = -np.sort(-tubes, axis=0)
    elif kind == "ascending":
        tubes = np.sort(tubes, axis=0)
    elif kind == "tied":
        tubes = np.repeat(tubes[:1], c, axis=0)
    assert descending_chain(tubes) is _chain_by_pairs(tubes)


def test_mismatched_lengths_raise():
    with pytest.raises(DimensionMismatch):
        tube_mul(np.ones(3), np.ones(4))
    with pytest.raises(DimensionMismatch):
        tube_add(np.ones(2), np.ones(5))


@pytest.mark.parametrize("call", [
    circ,
    lambda z: tube_add(z, [1.0, 1.0]),
    lambda z: tube_mul(z, [1.0, 1.0]),
    lambda z: tube_mul([1.0, 1.0], z),
    lambda z: tube_action(z, np.ones((3, 2))),
    tube_transpose,
    lambda z: tube_le(z, [1.0, 1.0]),
    lambda z: tube_le([1.0, 1.0], z),
    tubal_sqrt_all,
], ids=["circ", "tube_add", "tube_mul", "tube_mul-right", "tube_action",
        "tube_transpose", "tube_le", "tube_le-right", "tubal_sqrt_all"])
def test_a_complex_tube_is_refused(call):
    # A tube is real: a complex one would convolve as complex and be ordered
    # by numpy's ordering of complex numbers.
    with pytest.raises(ValueError, match="real"):
        call(np.array([1 + 1j, 0]))


# --- tubal square roots ------------------------------------------------------

def test_sqrt_enumeration_simple():
    roots = tubal_sqrt_all(np.array([2.0, 2.0]))
    tubes = sorted(r.tube.tolist() for r in roots)
    assert tubes == [[-1.0, -1.0], [1.0, 1.0]]
    flagged = {tuple(r.tube): r.nonnegative for r in roots}
    assert flagged[(1.0, 1.0)] is True
    assert flagged[(-1.0, -1.0)] is False


def test_sqrt_residuals_and_count_bound():
    for p in (1, 2, 3, 4, 5):
        b = RNG.standard_normal(p)
        b = tube_mul(b, b)  # guarantee at least one real root exists
        roots = tubal_sqrt_all(b)
        assert 1 <= len(roots) <= 2 ** (p // 2 + 1)
        for r in roots:
            assert np.max(np.abs(tube_mul(r.tube, r.tube) - b)) <= 1e-10


def test_sqrt_drops_a_candidate_with_an_imaginary_part():
    # Both bins of b are -1e-12, so each candidate is (1e-6i, 0) or
    # (0, 1e-6i): imaginary in one entry only, and its real part (0, 0)
    # squares to b within 1e-10.  The imaginary guard alone drops them.
    assert tubal_sqrt_all(np.array([-1e-12, 0.0])) == []


def test_sqrt_drops_a_candidate_off_its_square(monkeypatch):
    # A square that misses b in one entry only drops every candidate.
    real = tubal_module.tube_mul

    def off(a, b):
        c = real(a, b).copy()
        c[0] += 1e-6
        return c

    monkeypatch.setattr(tubal_module, "tube_mul", off)
    assert tubal_sqrt_all(np.array([2.0, 2.0])) == []


def _check_roots_of_square(a):
    """Every root of ``b = a (*) a``: one per sign pattern on the bins of
    ``rfft(b)`` beyond ``1e-10 * 2^e``, distinct, each squaring to ``b``
    within that guard, with ``a`` and ``-a`` among them to within
    ``1e-10`` of ``a``'s scale.  Returns the roots."""
    b = tube_mul(a, a)
    tol = np.ldexp(1e-10, unit_scaled(b)[1])
    k = int(np.count_nonzero(np.abs(np.fft.rfft(b)) > tol))
    roots = tubal_sqrt_all(b)
    assert len(roots) == 2 ** k
    assert len({r.tube.tobytes() for r in roots}) == len(roots)
    for r in roots:
        assert np.max(np.abs(tube_mul(r.tube, r.tube) - b)) <= tol
    near = np.ldexp(1e-10, unit_scaled(a)[1])
    for target in (a, -a):
        assert min(np.max(np.abs(r.tube - target)) for r in roots) <= near
    return roots


def _half_spectrum(p, data):
    """Bins ``0..p//2`` of a real tube: each zero or of magnitude in
    ``[1e-3, 1]``, so at least 1e-3 of the largest; self-conjugate bins
    real."""
    magnitudes = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    half = []
    for k in range(p // 2 + 1):
        r = data.draw(magnitudes)
        if k == 0 or 2 * k == p:
            half.append(r * data.draw(st.sampled_from([1.0, -1.0])))
        else:
            half.append(r * np.exp(1j * data.draw(st.floats(0.0, 2 * np.pi))))
    return np.array(half)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(-60, 60), st.data())
def test_sqrt_finds_every_root_of_a_square(p, e, data):
    _check_roots_of_square(np.ldexp(np.fft.irfft(_half_spectrum(p, data),
                                                 n=p), e))


@pytest.mark.parametrize("a, count", [
    # Zero DC bins, which compute as roundoff: an absolute test on the
    # imaginary part of each candidate found no root of the first and
    # eight near-duplicates for the second.
    ([0.3, 0.7, -1.0], 2), ([0.1, 0.2, 0.3, -0.6], 4)])
def test_sqrt_of_a_square_with_a_zero_bin(a, count):
    assert len(_check_roots_of_square(np.array(a))) == count


def test_sqrt_tolerances_follow_the_scale_of_the_tube():
    b = np.array([2.0, 2.0, 1.0])
    assert len(tubal_sqrt_all(1e10 * b)) == 4
    # Bin 0 is -5e-30: no real tube squares to that.
    assert tubal_sqrt_all(-1e-30 * b) == []


def test_sqrt_of_a_tube_with_a_negative_nyquist_bin_is_empty():
    # rfft(b) = (1, -1.5e-10): bin p/2 is self-conjugate and below -1e-10,
    # so there is no real root, although (0.5, 0.5), the root with that bin
    # set to zero, squares to b within 1e-10.
    assert tubal_sqrt_all(np.array([0.5 - 0.75e-10, 0.5 + 0.75e-10])) == []


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_sqrt_refuses_a_non_finite_tube(value):
    with pytest.raises(ValueError, match="nan or inf"):
        tubal_sqrt_all(np.array([value, 1.0]))


def test_sqrt_of_unit_tube_probe():
    # The unity has more than one elementwise-nonnegative square root.
    roots = tubal_sqrt_all(unit_tube(2))
    nonneg = sorted(r.tube.tolist() for r in roots if r.nonnegative)
    assert nonneg == [[0.0, 1.0], [1.0, 0.0]]
    record_finding(
        "unit tube (1, 0) of length 2 has two elementwise-nonnegative "
        "tubal square roots, (1, 0) and (0, 1); nonnegative square roots "
        "are not unique")
    with pytest.raises(ValueError):
        tubal_sqrt_all(np.array([1 + 1j, 0]))


# --- serialization -----------------------------------------------------------

def test_tube_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.tube"
    path.write_text("TUBE 1\n3\n1.0 2.0\n")
    with pytest.raises(ValueError):
        read_tensor3(path, 1)
    path.write_text("NOPE\n")
    with pytest.raises(ValueError):
        read_tensor3(path, 1)
    # The values of a tube form one row.
    path.write_text("TUBE 1\n3\n1.0 2.0\n3.0\n")
    with pytest.raises(ValueError):
        read_tensor3(path, 1)
