"""Multi-index bases, wedge-contract endomorphisms, and the two exponential paths."""

import itertools
import math
import os
import pathlib
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import crheat
from crheat.errors import DegreeOutOfRange, InvalidArgument, NonFinite
from crheat.exterior import MultiIndexBasis, _exterior_power, basis, exp_endo, exterior_power_matrix, omega_endomorphism
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


# Run in a fresh interpreter each, since basis is memoized for the process.
_MEMO_SCRIPT = """
import sys
import numpy as np
from crheat import basis, curvature_point, density_diagonal
from crheat.errors import CrheatError

p = curvature_point(np.diag([-1.0, 1.0]), np.eye(2))


def reject_hostile_degrees():
    for call in (lambda: basis(2, True), lambda: basis(2, 1.0),
                 lambda: density_diagonal(p, 1.5, 1.0, 2.0)):
        try:
            call()
        except CrheatError:
            continue
        sys.exit("no CrheatError")


q = np.int64(1) if sys.argv[1] == "int64" else 1
if sys.argv[1] == "hostile":
    reject_hostile_degrees()
value = density_diagonal(p, q, 1.0, 2.0).matrix
if sys.argv[1] == "hostile":
    # again, now that the memo holds the entry of the integer 1
    reject_hostile_degrees()
sys.stdout.write(value.tobytes().hex())
"""


def test_rejected_degrees_leave_the_basis_memo_clean():
    src = str(pathlib.Path(crheat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def run(mode):
        proc = subprocess.run([sys.executable, "-c", _MEMO_SCRIPT, mode], capture_output=True,
                              text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    fresh = run("fresh")
    assert run("hostile") == fresh
    assert run("int64") == fresh


def test_membership_subset_sums_match_manual():
    vals = np.array([1.0, 10.0, 100.0])
    b = basis(3, 2)
    assert np.array_equal(b.membership @ vals, [11.0, 101.0, 110.0])
    assert basis(3, 2) is b and not b.membership.flags.writeable
    rng = np.random.default_rng(4)
    for n in range(1, 7):
        vals = rng.standard_normal(n)
        for q in range(n + 1):
            b = basis(n, q)
            want = [sum(vals[j - 1] for j in J) for J in b.indices]
            assert b.membership.shape == (len(b.indices), n)
            assert np.allclose(b.membership @ vals, want, rtol=1e-15, atol=1e-15)


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


def _on_lu_path(n, q):
    """The degree _exterior_power leaves to LAPACK's LU: the one minor det U."""
    return q == n >= 2


def _exact_minors(u, q):
    """Every q x q minor of u by the Leibniz formula in exact rational arithmetic, rounded once.

    The entries (floats, so dyadic rationals) are scaled to Gaussian
    integers over one common power of two; each minor's integer parts
    are then divided back as a Fraction and rounded to the nearest float.
    """
    u = np.asarray(u, dtype=complex)
    parts = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in u.tolist()]
    den = max(f.denominator for row in parts for z in row for f in z)
    ints = [[(int(a * den), int(b * den)) for a, b in row] for row in parts]
    perms = [(p, (-1) ** sum(p[i] > p[j] for i in range(q) for j in range(i + 1, q)))
             for p in itertools.permutations(range(q))]
    sets = list(itertools.combinations(range(u.shape[0]), q))
    out = np.empty((len(sets), len(sets)), dtype=complex)
    for r, rows in enumerate(sets):
        for c, cols in enumerate(sets):
            re = im = 0
            for p, sign in perms:
                pr, pi = 1, 0
                for i in range(q):
                    a, b = ints[rows[i]][cols[p[i]]]
                    pr, pi = pr * a - pi * b, pr * b + pi * a
                re += sign * pr
                im += sign * pi
            out[r, c] = complex(float(Fraction(re, den**q)), float(Fraction(im, den**q)))
    return out


def test_exterior_power_matches_minor_loop():
    rng = np.random.default_rng(6)
    for n in range(1, 7):
        u = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for q in range(n + 1):
            got = exterior_power_matrix(u, q)
            assert got.shape == (math.comb(n, q),) * 2
            if q == 0 or _on_lu_path(n, q):
                # det U keeps LAPACK's bits
                assert np.array_equal(got, _minor_loop(u, q))
    # The Laplace degrees are exact on Gaussian integers, where every
    # partial sum of the recursion is an integer far below 2^53.
    for n in range(1, 8):
        g = rng.integers(-3, 4, (n, n)) + 1j * rng.integers(-3, 4, (n, n))
        for q in range(1, n + 1):
            if not _on_lu_path(n, q):
                assert np.array_equal(exterior_power_matrix(g, q), _exact_minors(g, q)), (n, q)
    # On entries of modulus at most 1 they stay within two ulps at 1 of
    # the exact minors rounded once, one ulp on unitary matrices: seeded
    # runs of 40 random complex (scaled to a largest modulus of 1) and 40
    # random unitary matrices at each n = 3..7 and q = 1..n-1 measured at
    # most 4.44e-16 and 2.22e-16 in a real or imaginary part, at q = n-1
    # as below it.
    for n in range(3, 8):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for u, bound in ((a / np.max(np.abs(a)), 4.5e-16), (eig_hermitian(a + a.conj().T).unitary, 2.3e-16)):
            for q in range(1, n):
                err = exterior_power_matrix(u, q) - _exact_minors(u, q)
                assert max(np.max(np.abs(err.real)), np.max(np.abs(err.imag))) <= bound, (n, q)


def test_exterior_power_stack_gives_the_bits_of_its_matrices():
    rng = np.random.default_rng(8)
    for n in range(1, 9):
        u = rng.standard_normal((6, n, n)) + 1j * rng.standard_normal((6, n, n))
        for q in range(n + 1):
            alone = [_exterior_power(m, q) for m in u]
            assert all(np.array_equal(a, b) for a, b in zip(_exterior_power(u, q), alone)), (n, q)
            grid = _exterior_power(u.reshape(2, 3, n, n), q)
            assert np.array_equal(grid.reshape((6,) + grid.shape[2:]), np.array(alone)), (n, q)


def test_exterior_power_of_degree_one_is_a_fresh_copy():
    for u in (np.arange(9.0).reshape(3, 3) + 1j, np.eye(4), np.ones((2, 3, 3), dtype=complex)):
        got = exterior_power_matrix(u, 1)
        assert got is not u and not np.shares_memory(got, u)
        assert np.array_equal(got, u)
        got[...] = 7.0
        assert not (u == 7.0).any()


def test_hostile_degrees_raise_before_any_table_is_built(monkeypatch):
    def built(self):
        raise AssertionError("an index table was read")

    monkeypatch.setattr(MultiIndexBasis, "laplace_levels", property(built))
    u = eig_hermitian(np.array([[-1.0, 0.3], [0.3, 1.0]])).unitary
    for q in (math.nan, 1.5):
        with pytest.raises(InvalidArgument):
            exterior_power_matrix(u, q)


def test_exterior_power_checks_its_input_and_the_node_form_does_not():
    rng = np.random.default_rng(7)
    u = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    # the checked entry and the eta-node path's unchecked form give the same bits
    assert np.array_equal(exterior_power_matrix(u, 2), _exterior_power(u, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (0, 2):
            for bad in (math.nan, math.inf):
                v = u[0].copy()
                v[1, 2] = bad
                with pytest.raises(NonFinite):
                    exterior_power_matrix(v, q)
        with pytest.raises(NonFinite):
            exterior_power_matrix(np.full((2, 2), 1e200) + np.diag([1e200, 0.0]), 2)
        for shape in ((3,), (2, 3), (2, 3, 2)):
            with pytest.raises(InvalidArgument):
                exterior_power_matrix(np.ones(shape), 1)
