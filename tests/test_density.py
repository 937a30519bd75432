"""Pointwise density integrand, decay analysis, and the diagonal eta-integral."""

import itertools
import math

import numpy as np
import pytest

from crheat.density import (
    curvature_point,
    density_diagonal,
    density_integrand,
    limit_integrand,
    tail_certificate,
    tail_decay,
    y_condition,
)
from crheat.errors import (
    DegreeOutOfRange,
    DivergentIntegral,
    NonFinite,
    NonRigidTruncation,
    OnSignatureBoundary,
)
from crheat.exterior import exp_endo
from crheat.hermitian import bose_ratio
from crheat.oracles import reference_quadrature

E = math.e
# common scalar of the diag(-1,1)/identity example at eta=0, t=1:
# bose(-1,1)*bose(1,1) = e/(e-1)^2
C0 = E / (E - 1.0) ** 2

P_INDEF = curvature_point(np.diag([-1.0, 1.0]), np.eye(2))


def rand_herm(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def test_y_condition_examples():
    assert y_condition([1, 1], 1) is True
    assert y_condition([1], 0) is False
    assert y_condition([1, -1], 0) is True


def test_y_condition_never_holds_in_dimension_one():
    for lam in (-2.0, -1.0, 0.0, 1.0, 3.0):
        for q in (0, 1):
            assert y_condition([lam], q) is False


def test_tail_decay_examples():
    r = tail_decay(np.diag([1.0, 1.0]), 1)
    assert r.plus_decays and r.minus_decays
    assert r.rate_plus == pytest.approx(2.0)
    assert r.rate_minus == pytest.approx(2.0)

    r = tail_decay(np.diag([1.0, 1.0]), 0)
    assert r.plus_decays and not r.minus_decays
    assert r.rate_minus == 0.0

    r = tail_decay(np.zeros((2, 2)), 1)
    assert not r.plus_decays and not r.minus_decays


def brute_decay(lam, q):
    """Enumerate every component J and check each for a decaying factor."""
    n = len(lam)
    out = {}
    for sgn in (+1, -1):
        ok = True
        rate = math.inf
        for J in itertools.combinations(range(1, n + 1), q):
            best = 0.0
            for j in range(1, n + 1):
                mu_dir = -sgn * lam[j - 1]
                if j in J and mu_dir > 0:
                    best = max(best, 2 * abs(lam[j - 1]))
                if j not in J and mu_dir < 0:
                    best = max(best, 2 * abs(lam[j - 1]))
            if best == 0.0:
                ok = False
            rate = min(rate, best)
        out[sgn] = (ok, rate if ok else 0.0)
    return out


def test_tail_decay_against_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(150):
        n = int(rng.integers(1, 7))
        lam = np.sort(rng.choice([-1.0, 0.0, 1.0], size=n) * rng.uniform(0.5, 2.0, size=n))
        q = int(rng.integers(0, n + 1))
        got = tail_decay(np.diag(lam), q)
        want = brute_decay(lam, q)
        assert (got.plus_decays, got.minus_decays) == (want[1][0], want[-1][0])
        assert got.rate_plus == pytest.approx(want[1][1], abs=1e-12)
        assert got.rate_minus == pytest.approx(want[-1][1], abs=1e-12)


def test_y_condition_implies_two_sided_decay():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        lam = rng.choice([-1.0, 0.0, 1.0], size=n) * rng.uniform(0.5, 2.0, size=n)
        q = int(rng.integers(0, n + 1))
        if y_condition(list(lam), q):
            r = tail_decay(np.diag(lam), q)
            assert r.plus_decays and r.minus_decays


def test_integrand_scalar_example():
    p = curvature_point([[1.0]], [[1.0]])
    v = density_integrand(p, 1, 1.0, 0.5)
    # the pencil value is exactly 0, the removable-singularity guard gives 1
    assert v.matrix.shape == (1, 1)
    assert v.matrix[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_integrand_indefinite_example():
    v1 = density_integrand(P_INDEF, 1, 1.0, 0.0)
    assert np.allclose(np.diag(v1.matrix).real, [C0 * E, C0 / E], rtol=1e-13)
    assert np.max(np.abs(v1.matrix - np.diag(np.diag(v1.matrix)))) == 0.0
    v0 = density_integrand(P_INDEF, 0, 1.0, 0.0)
    assert v0.matrix[0, 0].real == pytest.approx(C0, rel=1e-13)


def test_integrand_euler_alternating_sum_is_determinant():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        c, l = rand_herm(rng, n), rand_herm(rng, n)
        p = curvature_point(c, l)
        eta = float(rng.uniform(-3, 3))
        t = float(rng.choice([0.1, 1.0, 10.0]))
        s = sum((-1) ** q * density_integrand(p, q, t, eta).trace for q in range(n + 1))
        det = np.linalg.det(c - 2 * eta * l).real
        assert abs(s.real - det) <= 1e-8 * max(1.0, abs(det))


def test_integrand_matches_prefactor_times_exponential():
    rng = np.random.default_rng(14)
    for _ in range(15):
        n = int(rng.integers(1, 5))
        c, l = rand_herm(rng, n), rand_herm(rng, n)
        p = curvature_point(c, l)
        q = int(rng.integers(0, n + 1))
        t = float(rng.uniform(0.2, 3.0))
        eta = float(rng.uniform(-2, 2))
        m = c - 2 * eta * l
        mu = np.linalg.eigvalsh(m)
        alt = np.prod(bose_ratio(mu, t)) * exp_endo(m, q, t).matrix
        got = density_integrand(p, q, t, eta).matrix
        assert np.max(np.abs(got - alt)) <= 1e-10 * max(1.0, np.max(np.abs(alt)))


def test_integrand_trace_positive():
    rng = np.random.default_rng(15)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        p = curvature_point(rand_herm(rng, n), rand_herm(rng, n))
        q = int(rng.integers(0, n + 1))
        v = density_integrand(p, q, float(rng.uniform(0.05, 20.0)), float(rng.uniform(-4, 4)))
        assert v.trace.real > 0.0
        assert abs(v.trace.imag) < 1e-12 * v.trace.real


def test_integrand_large_t_recovers_absolute_determinant():
    got = density_integrand(P_INDEF, 1, 200.0, 0.0).trace.real
    assert got == pytest.approx(1.0, rel=1e-12)


def test_limit_integrand_examples():
    assert limit_integrand(P_INDEF, 1, 1, 0.0) == pytest.approx(1.0, rel=1e-13)
    assert limit_integrand(P_INDEF, 1, 0, 0.0) == 0.0
    assert limit_integrand(P_INDEF, 0, 0, -1.0) == pytest.approx(3.0, rel=1e-13)
    with pytest.raises(OnSignatureBoundary):
        limit_integrand(P_INDEF, 1, 1, 0.5)
    with pytest.raises(DegreeOutOfRange):
        limit_integrand(P_INDEF, 1, 3, 0.0)


def test_diagonal_delta_zero_is_zero():
    v = density_diagonal(P_INDEF, 1, 1.0, delta=0.0)
    assert v.matrix.shape == (2, 2)
    assert np.all(v.matrix == 0)


def test_diagonal_divergence_directions():
    with pytest.raises(DivergentIntegral) as exc:
        density_diagonal(P_INDEF, 0, 1.0)
    assert exc.value.direction == "-infinity"
    with pytest.raises(DivergentIntegral) as exc:
        density_diagonal(curvature_point(np.diag([-1.0, 1.0]), -np.eye(2)), 0, 1.0)
    assert exc.value.direction == "+infinity"
    with pytest.raises(DivergentIntegral) as exc:
        density_diagonal(curvature_point(np.eye(2), np.zeros((2, 2))), 1, 1.0)
    assert exc.value.direction == "both"


def test_diagonal_rejects_nonrigid_truncation():
    p = curvature_point([[1.0]], [[0.5]], beta=0.2)
    with pytest.raises(NonRigidTruncation):
        density_diagonal(p, 0, 1.0, delta=2.0)


def test_diagonal_input_validation():
    with pytest.raises(ValueError):
        density_diagonal(P_INDEF, 1, -1.0)
    with pytest.raises(ValueError):
        density_diagonal(P_INDEF, 1, 1.0, delta=-0.5)


def test_curvature_point_rejects_non_finite_scalars():
    for kwargs in ({"beta": math.nan}, {"beta": -math.inf}, {"weight": math.inf}, {"weight": math.nan}):
        with pytest.raises(NonFinite):
            curvature_point([[1.0]], [[1.0]], **kwargs)


def test_diagonal_against_quadrature_oracle():
    val = density_diagonal(P_INDEF, 1, 1.0).matrix

    def f(eta):
        return density_integrand(P_INDEF, 1, 1.0, float(eta)).matrix

    ref = reference_quadrature(f, -40.0, 40.0, tol=1e-11) * (2 * math.pi) ** -3
    assert np.max(np.abs(val - ref)) < 1e-8


def test_diagonal_shift_invariance():
    rng = np.random.default_rng(16)
    for _ in range(2):
        levi = rand_herm(rng, 2) + 3 * np.eye(2)
        curv = rand_herm(rng, 2)
        a = density_diagonal(curvature_point(curv, levi), 1, 1.0).matrix
        b = density_diagonal(curvature_point(curv + 0.7 * levi, levi), 1, 1.0).matrix
        assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(a))


def test_truncation_certificate_is_honest():
    full = density_diagonal(P_INDEF, 1, 1.0).matrix
    c_norm = float(np.linalg.norm(P_INDEF.curvature.mat))
    l_norm = float(np.linalg.norm(P_INDEF.levi.mat))
    rep = tail_decay(P_INDEF.levi, 1)
    for width in (6.0, 12.0):
        part = density_diagonal(P_INDEF, 1, 1.0, delta=width).matrix
        cert = (
            tail_certificate(c_norm, l_norm, 2, 1, 1.0, rep.rate_plus, width)
            + tail_certificate(c_norm, l_norm, 2, 1, 1.0, rep.rate_minus, width)
        ) * (2 * math.pi) ** -3
        assert np.max(np.abs(part - full)) <= cert
        assert cert < 1.0


def test_certificate_validity_conditions():
    assert tail_certificate(1.0, 1.0, 2, 1, 1.0, 0.0, 10.0) == math.inf
    # window too small for t*(rate*H - ||C||) >= 1
    assert tail_certificate(5.0, 1.0, 2, 1, 1.0, 2.0, 2.0) == math.inf
    a = tail_certificate(1.0, 1.0, 2, 1, 1.0, 2.0, 6.0)
    b = tail_certificate(1.0, 1.0, 2, 1, 1.0, 2.0, 12.0)
    assert 0.0 < b < a


def test_diagonal_large_t_value():
    v = density_diagonal(P_INDEF, 1, 200.0)
    assert v.trace.real == pytest.approx((2 * math.pi) ** -3 * 2.0 / 3.0, rel=1e-3)
