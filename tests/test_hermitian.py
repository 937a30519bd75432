"""Eigensolver, guarded scalar functions, and pencil polynomial tests."""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crheat.errors import InvalidArgument, NoConvergence, NonFinite, NonHermitian, ZeroPolynomial
from crheat.hermitian import (
    HermitianForm,
    _log_rounding_floor,
    bose_pair,
    bose_ratio,
    eig_hermitian,
    eigvals_hermitian,
    pencil_det_poly,
    pencil_real_roots,
    tanh_ratio,
)


def rand_herm(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def test_hermitian_form_rejects_asymmetry():
    with pytest.raises(NonHermitian):
        HermitianForm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # asymmetry below the documented 1e-10 absolute tolerance is repaired
    m = np.array([[1.0, 0.5 + 3e-11j], [0.5, 2.0]])
    h = HermitianForm(m)
    assert np.allclose(h.mat, h.mat.conj().T)


def test_hermitian_form_rejects_non_finite():
    for bad in (math.nan, math.inf, complex(0.0, math.inf)):
        with pytest.raises(NonFinite):
            HermitianForm(np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(NonFinite):
            eig_hermitian(np.array([[1.0, bad], [np.conj(bad), 1.0]]))


def test_hermitian_form_near_the_largest_double():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert HermitianForm([[1.5e308]]).mat[0, 0] == 1.5e308
        assert list(eig_hermitian([[1.5e308]]).eigenvalues) == [1.5e308]
        off = np.array([[0.0, 1.5e308 - 1e308j], [1.5e308 + 1e308j, 0.0]])
        assert np.array_equal(HermitianForm(off).mat, off)
        with pytest.raises(NonHermitian):
            HermitianForm([[0.0, 1.5e308], [-1.5e308, 0.0]])


def test_eig_results_are_read_only():
    es = eig_hermitian(np.diag([2.0, -1.0]))
    assert list(es.eigenvalues) == [-1.0, 2.0]
    assert not es.eigenvalues.flags.writeable
    assert not es.unitary.flags.writeable


def test_eig_one_by_one_matches_lapack():
    # LAPACK's n = 1 answer, for stacks and for one validated matrix: the
    # real part of the entry, signed zero and subnormal included, and the
    # eigenvector 1
    rng = np.random.default_rng(61)
    forms = [HermitianForm([[a]]) for a in (0.0, -2.5, 5e-324, 1e300)]
    for k in (1, 3, 15, 150):
        diag = np.concatenate([[-0.0, 5e-324, 1e300], rng.standard_normal(max(k - 3, 0))])[:k]
        stack = np.zeros((k, 1, 1), dtype=complex)
        stack.real[:, 0, 0] = diag  # diag + 0j would turn -0.0 into 0.0
        forms.append(HermitianForm.trusted(stack))
    for form in forms:
        want = np.ascontiguousarray(form.mat.real.diagonal(axis1=-2, axis2=-1))
        es, vals = eig_hermitian(form), eigvals_hermitian(form)
        for got in (es.eigenvalues, vals):
            assert got.dtype == np.float64 and not got.flags.writeable
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert es.unitary.dtype == complex and es.unitary.tobytes() == np.ones(form.mat.shape, complex).tobytes()
    assert np.signbit(forms[4].mat.real[0, 0, 0])  # the stacks do carry -0.0


def test_eig_lapack_failure_is_no_convergence(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NoConvergence):
        eig_hermitian(np.eye(2))


def test_eigvals_match_eig_hermitian():
    rng = np.random.default_rng(43)
    for n in (1, 2, 3, 5, 8):
        stack = np.stack([rand_herm(rng, n) for _ in range(6)])
        vals = eigvals_hermitian(HermitianForm.trusted(stack))
        want = eig_hermitian(HermitianForm.trusted(stack.copy())).eigenvalues
        assert vals.shape == want.shape and not vals.flags.writeable
        scale = np.max(np.abs(want))
        assert np.max(np.abs(vals - want)) <= 1e-14 * scale
        one = eigvals_hermitian(stack[0])
        assert np.array_equal(one, vals[0]) or np.max(np.abs(one - vals[0])) <= 1e-14 * scale


def test_eigvals_lapack_failure_is_no_convergence(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NoConvergence):
        eigvals_hermitian(np.eye(2))
    for bad, err in (([[math.nan]], NonFinite), ([[0.0, 1.0], [0.0, 0.0]], NonHermitian)):
        with pytest.raises(err):
            eigvals_hermitian(bad)


def test_eig_identity():
    es = eig_hermitian(np.eye(2))
    assert np.allclose(es.eigenvalues, [1.0, 1.0])
    rec = (es.unitary * es.eigenvalues) @ es.unitary.conj().T
    assert np.allclose(rec, np.eye(2), atol=1e-14)


def test_eig_swap_matrix():
    es = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(es.eigenvalues, [-1.0, 1.0])


def test_eig_random_reconstruction():
    rng = np.random.default_rng(42)
    for _ in range(50):
        h = rand_herm(rng, 4)
        es = eig_hermitian(h)
        u = es.unitary
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
        rec = (u * es.eigenvalues) @ u.conj().T
        scale = np.linalg.norm(h)
        assert np.linalg.norm(rec - h) < 1e-11 * max(1.0, scale)
        assert np.all(np.diff(es.eigenvalues) >= 0)


def test_bose_branches_continuous():
    # the series kicks in below |t*mu| = 1e-4; values must line up across it
    t = 0.7
    for x in (1e-4, -1e-4):
        mu = np.array([x / t * (1 - 1e-9), x / t * (1 + 1e-9)])
        v = bose_ratio(mu, t)
        assert abs(v[0] - v[1]) < 1e-12 * abs(v[0])


def test_bose_reflection():
    mu = np.array([-7.0, -0.3, 0.2, 3.0])
    t = 1.3
    lhs = bose_ratio(-mu, t)
    rhs = bose_ratio(mu, t) * np.exp(-t * mu)
    assert np.allclose(lhs, rhs, rtol=1e-13)


def test_bose_no_overflow():
    v = bose_ratio(np.array([-800.0, 800.0]), 1.0)
    assert np.all(np.isfinite(v))
    assert v[0] == pytest.approx(0.0, abs=1e-300)
    assert v[1] == pytest.approx(800.0)


@given(st.floats(-60, 60), st.floats(0.05, 20))
@settings(max_examples=60, deadline=None)
def test_bose_bounded_by_rate(mu, t):
    # positive in exact arithmetic; may underflow to +0 for very negative t*mu
    v = float(bose_ratio(np.array([mu]), t)[0])
    assert 0 <= v <= abs(mu) + 1.0 / t + 1e-9


def test_tanh_and_sinh_guards():
    assert tanh_ratio(np.array([0.0]), 4.0)[0] == pytest.approx(0.25)
    # the sinh form (mu/2) e^{t mu/2} / sinh(t mu/2) is bose_ratio itself
    assert bose_ratio(np.array([0.0]), 4.0)[0] == pytest.approx(0.25)


def test_pencil_det_poly_identity_pair():
    coeffs = pencil_det_poly(np.eye(2), np.eye(2))
    assert np.allclose(coeffs, [1.0, -4.0, 4.0], atol=1e-12)


def test_pencil_det_poly_indefinite():
    coeffs = pencil_det_poly(np.diag([-1.0, 1.0]), np.eye(2))
    assert np.allclose(coeffs, [-1.0, 0.0, 4.0], atol=1e-12)


def test_pencil_det_poly_degenerate_levi():
    coeffs = pencil_det_poly(np.diag([2.0, 3.0]), np.zeros((2, 2)))
    assert len(coeffs) == 1
    assert coeffs[0] == pytest.approx(6.0)


def test_pencil_det_poly_overflow_is_non_finite():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite):
            pencil_det_poly(np.eye(2), np.diag([1.5e308, 0.5]))


def test_pencil_poly_matches_lu():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        r, l = rand_herm(rng, n), rand_herm(rng, n)
        coeffs = pencil_det_poly(r, l)
        assert len(coeffs) <= n + 1
        if abs(np.linalg.det(l)) > 1e-9:
            assert len(coeffs) == n + 1
        for eta in np.linspace(-3, 3, 11):
            val = sum(c * eta ** k for k, c in enumerate(coeffs))
            ref = np.linalg.det(r - 2 * eta * l).real
            assert abs(val - ref) <= 1e-9 * max(abs(ref), 1e-3)


def _det_poly_rewriting_every_row(R, L):
    """pencil_det_poly with every row of the mixed matrix rewritten at every mask.

    The same masks in the same order, the same determinants added into
    numpy k-sums, and the same zeroing and trimming: only the row updates
    differ from the library's.
    """
    Rm, Lm = HermitianForm(R).mat, HermitianForm(L).mat
    n = Rm.shape[0]
    sums = np.zeros(n + 1, dtype=complex)
    rows = np.empty_like(Rm)
    with np.errstate(over="ignore", invalid="ignore"):
        for mask in range(1 << n):
            k = 0
            for i in range(n):
                if mask >> i & 1:
                    rows[i] = Lm[i]
                    k += 1
                else:
                    rows[i] = Rm[i]
            sums[k] += np.linalg.det(rows)
        coeffs = sums * (-2.0) ** np.arange(n + 1)
    floor = _log_rounding_floor(Rm, Lm)
    trimmed = [0.0 if c == 0.0 or math.log(abs(c)) <= f else c for c, f in zip(coeffs.real.tolist(), floor)]
    while len(trimmed) > 1 and trimmed[-1] == 0.0:
        trimmed.pop()
    return trimmed


def _singular(rng, n):
    """A Hermitian matrix whose rows 0 and 1 are equal (the zero matrix at n = 1).

    Entry (i, j) is m[i', j'] of a random Hermitian m of size n - 1, with
    i' = max(i - 1, 0), so det is exactly 0 in floating point as well.
    """
    idx = np.maximum(np.arange(n) - 1, 0)
    return rand_herm(rng, max(n - 1, 1))[np.ix_(idx, idx)] if n > 1 else np.zeros((1, 1))


def test_det_poly_rows_follow_the_flipped_bits_bit_for_bit():
    # only the rows whose mask bit flips are rewritten, so every mixed
    # matrix, determinant and addition is the full rewrite's
    rng = np.random.default_rng(20)
    for n in range(1, 11):
        l = rand_herm(rng, n)
        for s in (2.0**-10, 1.0, 2.0**10):
            r = s * rand_herm(rng, n)
            assert pencil_det_poly(r, l) == _det_poly_rewriting_every_row(r, l), (n, s)
        r, l = rand_herm(rng, n), _singular(rng, n)
        assert pencil_det_poly(r, l) == _det_poly_rewriting_every_row(r, l), (n, "singular L")


def test_det_poly_refuses_more_than_16_rows_before_expanding():
    start = time.perf_counter()
    with pytest.raises(InvalidArgument, match="n=17"):
        pencil_det_poly(np.eye(17), np.eye(17))
    assert time.perf_counter() - start < 0.5


def _mp_det_poly(R, L, mp):
    """c_0..c_n of det(R - 2 eta L) at 40 digits, from n + 1 rational eta.

    det(R - 2 eta L), real for Hermitian R and L at real eta, is taken in
    mpmath at eta = -1, -1 + 2/n, ..., 1 (its real part), and the
    Vandermonde system in those eta is solved at the same precision.
    """
    n = R.shape[0]
    etas = [mp.mpf(-1) + mp.mpf(2 * i) / max(n, 1) for i in range(n + 1)]
    A, B = mp.matrix(R.tolist()), mp.matrix(L.tolist())
    dets = [mp.re(mp.det(A - 2 * eta * B)) for eta in etas]
    V = mp.matrix([[eta**k for k in range(n + 1)] for eta in etas])
    return [float(c) for c in mp.lu_solve(V, mp.matrix(dets))]


def test_det_poly_within_its_rounding_bound_of_a_40_digit_reference():
    # |c_k - ref_k| <= 64 n eps 2^k E_k (_log_rounding_floor) for seeded
    # pencils, a singular L and a pencil with a double root
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(21)
    cases = []
    for n in range(1, 7):
        cases += [(rand_herm(rng, n), rand_herm(rng, n)), (rand_herm(rng, n), _singular(rng, n))]
        # R = U diag(1, 1, 2, ...) U^H and L = I: a double root at eta = 1/2
        u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        cases.append((u @ np.diag([1.0, 1.0, *range(2, n)][:n]) @ u.conj().T, np.eye(n)))
    with mpmath.workdps(40):
        for r, l in cases:
            r, l = HermitianForm(r).mat, HermitianForm(l).mat
            n = r.shape[0]
            got = pencil_det_poly(r, l)
            got += [0.0] * (n + 1 - len(got))
            ref = _mp_det_poly(r, l, mpmath)
            bound = [math.exp(f) for f in _log_rounding_floor(r, l)]
            assert all(abs(c - w) <= b for c, w, b in zip(got, ref, bound)), (n, got, ref, bound)


def test_real_roots_quadratic():
    assert pencil_real_roots([-1.0, 0.0, 4.0]) == pytest.approx([-0.5, 0.5])


def test_real_roots_double():
    roots = pencil_real_roots([1.0, -4.0, 4.0])
    assert len(roots) == 1
    assert roots[0] == pytest.approx(0.5, abs=1e-6)


def test_real_roots_triple_is_one_root():
    # (x - 1)^3: the candidates lie about eps^(1/3) ~ 1e-5 apart, past the
    # 1e-7 merge, and p at their midpoint is rounding noise
    roots = pencil_real_roots([-1.0, 3.0, -3.0, 1.0])
    assert len(roots) == 1 and roots[0] == pytest.approx(1.0, abs=1e-4)
    # two simple roots 1e-6 apart keep a sign-definite interval between them
    assert len(pencil_real_roots(np.polynomial.polynomial.polyfromroots([1.0, 1.0 + 1e-6]))) == 2


@pytest.mark.parametrize("scale", [2.0**-10, 1.0, 2.0**10, 2.0**40])
def test_double_roots_without_a_bracket_keep_the_companion_candidate(scale):
    # (x - s)^2 + eps s^2 at eps = 1e-11, 1e-10, 3e-10: at s >= 1 no sign
    # change brackets the candidates, which stay as the companion matrix
    # gives them; the residual filter keeps or drops them.  Then exact
    # double roots at 1.3 s and -2.2 s.  The values are the ones a damped
    # Newton fallback on those candidates gave, bit for bit.
    want = {
        2.0**-10: [[0.0009765625], [0.0009765625], [0.0009765624999999999],
                   [0.00126953125], [-0.0021484375]],
        1.0: [[1.0], [1.0], [0.9999999999999999], [1.3], [-2.2]],
        2.0**10: [[1024.0], [1024.0], [], [1331.2], [-2252.8]],
        2.0**40: [[1099511627776.0], [1099511627776.0], [], [1429365116108.8], [-2418925581107.2]],
    }[scale]
    polys = [[scale * scale * (1.0 + eps), -2.0 * scale, 1.0] for eps in (1e-11, 1e-10, 3e-10)]
    polys += [[(r * scale) ** 2, -2.0 * r * scale, 1.0] for r in (1.3, -2.2)]
    assert [pencil_real_roots(c) for c in polys] == want


def test_real_roots_none():
    assert pencil_real_roots([1.0]) == []
    assert pencil_real_roots([1.0, 0.0, 1.0]) == []  # conjugate pair stays out


def test_real_roots_past_the_companion_range():
    # det(R - 2^-342 eta I) with R = diag(1, 2, 3) has c_0 / c_3 = -6 * 2^1026,
    # which the unscaled companion matrix cannot hold, and the roots
    # 2^341 (1, 2, 3); the same pencil at 2^-2 has the roots 2 (1, 2, 3),
    # and only a power of two separates the two coefficient lists.  The
    # companion matrices differ by more than a power of two, and the roots
    # are polished only to a residual of 1e-12 of the largest coefficient:
    # the two read 2.5e-13 apart, relative
    R = np.diag([1.0, 2.0, 3.0])
    unit = pencil_real_roots(pencil_det_poly(R, 2.0**-2 * np.eye(3)))
    far = pencil_real_roots(pencil_det_poly(R, 2.0**-342 * np.eye(3)))
    assert unit == pytest.approx([2.0, 4.0, 6.0], rel=1e-14)
    assert far == pytest.approx([math.ldexp(r, 340) for r in unit], rel=1e-11)
    # roots no double can hold, or too far apart for one scale, stay typed errors
    for coeffs in ([1.0, 5e-324], [1.0, 1e300, 1e-300]):
        with pytest.raises(NonFinite):
            pencil_real_roots(coeffs)
    assert pencil_real_roots([1.0, 0.0, 1e-309]) == []
    assert pencil_real_roots([-1.0, 0.0, 1e-309]) == pytest.approx([-1e154 * 10**0.5, 1e154 * 10**0.5])


def test_real_roots_zero_poly_raises():
    with pytest.raises(ZeroPolynomial):
        pencil_real_roots([0.0, 0.0])


# Masked reference formulas: each branch is evaluated only on the elements
# it applies to, so no branch ever sees an argument it cannot handle.
def _ref_bose_of_x(x):
    out = np.empty_like(x)
    small = np.abs(x) < 1e-4
    xs = x[small]
    out[small] = 1.0 + xs / 2.0 + xs**2 / 12.0 - xs**4 / 720.0 + xs**6 / 30240.0
    pos = (~small) & (x > 0)
    out[pos] = x[pos] / (-np.expm1(-x[pos]))
    neg = (~small) & (x < 0)
    xn = x[neg]
    out[neg] = xn * np.exp(xn) / np.expm1(xn)
    return out


def _ref_tanh_of_u(u):
    out = np.empty_like(u)
    small = np.abs(u) < 1e-4 / 2.0
    us = u[small]
    out[small] = 1.0 + us**2 / 3.0 - us**4 / 45.0 + 2.0 * us**6 / 945.0
    big = ~small
    out[big] = u[big] / np.tanh(u[big])
    return out


_WIDE = st.floats(-1e300, 1e300, allow_nan=False)
_NEAR_CUT = st.floats(-3e-4, 3e-4, allow_nan=False)


@given(
    st.lists(st.one_of(_WIDE, _NEAR_CUT, st.sampled_from([0.0, 1e-4, -1e-4])), min_size=1, max_size=8),
    st.sampled_from([1.0, 0.5, 2.0]),
)
@settings(max_examples=200, deadline=None)
def test_scalars_match_masked_reference(mu, t):
    mu = np.array(mu)
    bose = bose_ratio(mu, t)
    tanh = tanh_ratio(mu, t)
    assert bose.shape == tanh.shape == mu.shape
    assert np.all(np.isfinite(bose)) and np.all(np.isfinite(tanh))
    np.testing.assert_allclose(bose, _ref_bose_of_x(t * mu) / t, rtol=4e-16, atol=0)
    np.testing.assert_allclose(tanh, _ref_tanh_of_u(t * mu / 2.0) / t, rtol=4e-16, atol=0)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@given(
    st.lists(st.one_of(_WIDE, _NEAR_CUT, st.sampled_from([0.0, -0.0, 1e-4, -1e-4])), min_size=1, max_size=8),
    st.sampled_from([1.0, 0.5, 2.0, 0.37]),
)
@settings(max_examples=200, deadline=None)
def test_bose_pair_is_two_bose_ratios_bitwise(mu, t):
    # one fused pass over t*mu gives exactly what two separate calls give,
    # and what the masked reference formulas give
    mu = np.array(mu)
    plus, minus = bose_pair(mu, t)
    assert _bits(plus) == _bits(bose_ratio(mu, t))
    assert _bits(minus) == _bits(bose_ratio(-mu, t))
    assert _bits(plus) == _bits(_ref_bose_of_x(t * mu) / t)
    assert _bits(minus) == _bits(_ref_bose_of_x(t * -mu) / t)
    one = bose_pair(float(mu[0]), t)
    assert one == (float(plus[0]), float(minus[0]))


def test_scalars_accept_python_floats():
    assert bose_ratio(0.0, 2.0) == 0.5
    assert isinstance(tanh_ratio(1.0, 1.0), float)
