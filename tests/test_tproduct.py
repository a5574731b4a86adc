"""T-product calculus: cross-path agreement, algebra, matrix action."""

import numpy as np
import pytest

from helpers import random_tensor, rel_err
from tubal_spectra.errors import ShapeError
from tubal_spectra.oracle import oracle_tprod
from tubal_spectra.tensor3 import bcirc, identity, transpose
from tubal_spectra.tproduct import tprod, tprod_mat
from tubal_spectra.tubal import circ

RNG = np.random.default_rng(20260814)


def test_matches_dense_route():
    for _ in range(20):
        m, s, n = RNG.integers(1, 7, size=3)
        p = int(RNG.integers(1, 9))
        A = random_tensor(RNG, int(m), int(s), p)
        B = random_tensor(RNG, int(s), int(n), p)
        assert rel_err(tprod(A, B), oracle_tprod(A, B)) <= 1e-12


def test_bcirc_homomorphism_and_transpose_rule():
    A = random_tensor(RNG, 4, 3, 5)
    B = random_tensor(RNG, 3, 6, 5)
    C = tprod(A, B)
    assert rel_err(bcirc(C), bcirc(A) @ bcirc(B)) <= 1e-12
    assert rel_err(transpose(C), tprod(transpose(B), transpose(A))) <= 1e-12


def test_identity_neutral():
    A = random_tensor(RNG, 3, 4, 6)
    assert np.allclose(tprod(A, identity(4, 6)), A, atol=1e-12)
    assert np.allclose(tprod(identity(3, 6), A), A, atol=1e-12)


def test_bilinear_and_associative():
    p = 4
    A = random_tensor(RNG, 3, 3, p)
    B = random_tensor(RNG, 3, 2, p)
    C = random_tensor(RNG, 2, 5, p)
    assert rel_err(tprod(tprod(A, B), C), tprod(A, tprod(B, C))) <= 1e-11
    D = random_tensor(RNG, 3, 2, p)
    assert rel_err(tprod(A, B + D), tprod(A, B) + tprod(A, D)) <= 1e-11


def test_shape_errors():
    with pytest.raises(ShapeError):
        tprod(random_tensor(RNG, 2, 3, 4), random_tensor(RNG, 2, 3, 4))
    with pytest.raises(ShapeError):
        tprod(random_tensor(RNG, 2, 3, 4), random_tensor(RNG, 3, 2, 5))


def test_matrix_action_equals_embedding():
    A = random_tensor(RNG, 4, 3, 5)
    X = RNG.standard_normal((3, 5))
    direct = tprod_mat(A, X)
    embedded = tprod(A, X[:, None, :])[:, 0, :]
    assert np.array_equal(direct, embedded)  # same code path, bit for bit
    assert rel_err(direct, oracle_tprod(A, X[:, None, :])[:, 0, :]) <= 1e-12


def test_constant_diagonal_tube_action():
    # If every diagonal tube of an f-diagonal A equals a, then
    # A * X == X @ circ(a).T.
    a = RNG.standard_normal(4)
    A = np.zeros((3, 3, 4))
    for j in range(3):
        A[j, j, :] = a
    X = RNG.standard_normal((3, 4))
    assert np.allclose(tprod_mat(A, X), X @ circ(a).T, atol=1e-12)
