"""Multi-index bases, wedge-contract endomorphisms, and the two exponential paths."""

import math

import numpy as np
import pytest

from crheat.errors import DegreeOutOfRange
from crheat.exterior import basis, exp_endo, exterior_power_matrix, omega_endomorphism, subset_sums
from crheat.hermitian import eig_hermitian


def rand_herm(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def test_basis_enumeration():
    assert basis(3, 2).indices == ((1, 2), (1, 3), (2, 3))
    assert basis(3, 0).indices == ((),)
    b = basis(4, 2)
    assert len(b.indices) == 6
    assert b.indices[0] == (1, 2)
    assert b.indices[-1] == (3, 4)


def test_basis_sorted_strictly_increasing():
    for n in range(1, 7):
        for q in range(n + 1):
            idx = basis(n, q).indices
            assert len(idx) == math.comb(n, q)
            assert list(idx) == sorted(idx)
            for tup in idx:
                assert all(a < b for a, b in zip(tup, tup[1:]))


def test_basis_degree_range():
    with pytest.raises(DegreeOutOfRange):
        basis(3, 4)
    with pytest.raises(DegreeOutOfRange):
        basis(3, -1)


def test_subset_sums_matches_manual():
    vals = np.array([1.0, 10.0, 100.0])
    idx = basis(3, 2).indices
    assert np.allclose(subset_sums(vals, idx), [11.0, 101.0, 110.0])


def test_omega_diagonal_anchor():
    out = omega_endomorphism(np.diag([3.0, 7.0]), 1)
    assert np.allclose(out.matrix, np.diag([3.0, 7.0]))


def test_omega_zero_forms():
    out = omega_endomorphism(np.array([[2.0, 1j], [-1j, 5.0]]), 0)
    assert out.matrix.shape == (1, 1)
    assert out.matrix[0, 0] == 0


def test_omega_top_forms_give_trace():
    rng = np.random.default_rng(1)
    for n in (1, 2, 4):
        m = rand_herm(rng, n)
        out = omega_endomorphism(m, n)
        assert out.matrix.shape == (1, 1)
        assert out.matrix[0, 0] == pytest.approx(np.trace(m), rel=1e-13)


def test_omega_hermitian_when_input_is():
    rng = np.random.default_rng(2)
    m = rand_herm(rng, 4)
    w = omega_endomorphism(m, 2).matrix
    assert np.max(np.abs(w - w.conj().T)) < 1e-12


def test_exp_endo_zero():
    out = exp_endo(np.zeros((3, 3)), 2, 1.7)
    assert np.allclose(out.matrix, np.eye(3), atol=1e-14)


def test_exp_endo_diagonal_shortcut():
    out = exp_endo(np.diag([1.0, -1.0]), 1, 1.0)
    assert np.allclose(out.matrix, np.diag([math.exp(-1.0), math.e]), rtol=1e-12)


def test_exp_endo_dual_paths_random():
    # the function itself raises PathMismatch if spectral and expm routes
    # drift past 1e-10, so agreement is just "no exception"
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = rand_herm(rng, 3)
        exp_endo(m, 2, float(rng.uniform(0.05, 4.0)))


def test_exterior_power_unitary():
    rng = np.random.default_rng(4)
    for n, q in ((3, 2), (5, 2), (6, 3)):
        u = eig_hermitian(rand_herm(rng, n)).unitary
        w = exterior_power_matrix(u, q)
        assert np.max(np.abs(w.conj().T @ w - np.eye(w.shape[0]))) < 1e-10


def test_exterior_power_multiplicative():
    rng = np.random.default_rng(5)
    u = eig_hermitian(rand_herm(rng, 4)).unitary
    v = eig_hermitian(rand_herm(rng, 4)).unitary
    lhs = exterior_power_matrix(u @ v, 2)
    rhs = exterior_power_matrix(u, 2) @ exterior_power_matrix(v, 2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_exterior_power_q_zero_scalar_one():
    u = np.eye(3)
    assert np.allclose(exterior_power_matrix(u, 0), [[1.0]])


def _minor_loop(u, q):
    """Entry-by-entry reference: one q x q determinant per basis pair."""
    rows = [np.array(J) - 1 for J in basis(u.shape[0], q).indices]
    out = np.empty((len(rows), len(rows)), dtype=complex)
    for r, jr in enumerate(rows):
        for c, jc in enumerate(rows):
            out[r, c] = np.linalg.det(u[np.ix_(jr, jc)]) if q else 1.0
    return out


def test_exterior_power_matches_minor_loop():
    rng = np.random.default_rng(6)
    for n in range(1, 7):
        u = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for q in range(n + 1):
            got = exterior_power_matrix(u, q)
            assert got.shape == (math.comb(n, q),) * 2
            assert np.array_equal(got, _minor_loop(u, q))
