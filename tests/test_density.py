"""Pointwise density integrand, decay analysis, and the diagonal eta-integral."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crheat import density
from crheat.density import (
    curvature_point,
    density_diagonal,
    density_integrand,
    tail_certificate,
    tail_decay,
    y_condition,
)
from crheat.errors import (
    CrheatError,
    DivergentIntegral,
    InvalidArgument,
    NonFinite,
    NonRigidTruncation,
)
from crheat.exterior import exp_endo, exterior_power_matrix
from crheat.heisenberg import (
    HeisenbergPoint,
    boxeta_kernel,
    heisenberg_heat_kernel,
    heisenberg_kernel_batch,
    mehler_kernel,
)
from crheat.hermitian import HermitianForm, bose_pair, bose_ratio, eig_hermitian
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


def test_y_condition_dead_band_matches_tail_decay():
    # |lambda| <= 1e-12 * max(1, ||lambda||_2) is zero for both, so Y(q)
    # never promises a decay that tail_decay (and density_diagonal) refuse
    assert y_condition([1.0, 1e-14], 1) is False
    assert y_condition([1.0, -1e-14], 0) is False
    assert y_condition([1.0, 1e-11], 1) is True
    # the band scales with the norm
    assert y_condition([1e13, 1.0, 1.0], 1) is False
    assert y_condition([1e13, 100.0, 100.0], 1) is True
    assert y_condition([1e13, 100.0, 100.0, -100.0], 0) is True
    assert y_condition([1e13, 100.0, 100.0, -1.0], 0) is False
    with pytest.raises(DivergentIntegral):
        density_diagonal(curvature_point(np.eye(2), np.diag([1.0, 1e-14])), 1, 1.0)
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        lam = rng.choice([-1.0, -1e-14, 0.0, 1e-14, 1e-11, 1.0], size=n) * rng.uniform(0.5, 2.0, size=n)
        lam = lam * 10.0 ** rng.integers(-3, 14)
        q = int(rng.integers(0, n + 1))
        if y_condition(list(lam), q):
            r = tail_decay(np.diag(lam), q)
            assert r.plus_decays and r.minus_decays, (lam, q)


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
    for eta in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFinite):
            density_integrand(P_INDEF, 1, 1.0, eta)


def test_argument_errors_are_typed():
    # InvalidArgument is a CrheatError (CLI exit 2) and still a ValueError
    assert issubclass(InvalidArgument, CrheatError) and issubclass(InvalidArgument, ValueError)
    p_one = curvature_point([[1.0]], [[1.0]])
    one, two = HeisenbergPoint((0j,), 0.0), HeisenbergPoint((0j, 0j), 0.0)
    cases = {
        "density t": lambda: density_diagonal(P_INDEF, 1, 0.0, delta=1.0),
        "density delta": lambda: density_diagonal(P_INDEF, 1, 1.0, delta=-0.5),
        "integrand t": lambda: density_integrand(P_INDEF, 1, -1.0, 0.0),
        "weight": lambda: curvature_point([[1.0]], [[0.5]], weight=0.0),
        "kernel t": lambda: heisenberg_heat_kernel(p_one, 0, -1.0, one, one, delta=1.0),
        "kernel delta": lambda: heisenberg_heat_kernel(p_one, 0, 1.0, one, one, delta=-1.0),
        "kernel dimension": lambda: heisenberg_heat_kernel(P_INDEF, 0, 1.0, one, one, delta=1.0),
        "batch delta": lambda: heisenberg_kernel_batch(p_one, 0, 1.0, one, [[0j]], [0.0], -1.0),
        "batch dimension": lambda: heisenberg_kernel_batch(P_INDEF, 0, 1.0, one, [[0j]], [0.0], 1.0),
        "batch zs size": lambda: heisenberg_kernel_batch(P_INDEF, 0, 1.0, two, [0j] * 3, [0.0], 1.0),
        "batch lengths": lambda: heisenberg_kernel_batch(p_one, 0, 1.0, one, [[0j], [1j]], [0.0], 1.0),
        "boxeta t": lambda: boxeta_kernel(p_one, 0.0, 0, 0.0, [0j], [0j]),
        "boxeta dimension": lambda: boxeta_kernel(p_one, 0.0, 0, 1.0, [0j, 0j], [0j]),
        "mehler t": lambda: mehler_kernel([[1.0]], -1.0, [0.0, 0.0], [0.0, 0.0]),
        "mehler dimension": lambda: mehler_kernel([[1.0]], 1.0, [0.0, 0.0, 0.0, 0.0], [0.0, 0.0]),
    }
    for name, case in cases.items():
        try:
            case()
        except InvalidArgument:
            continue
        pytest.fail(f"{name}: no InvalidArgument raised")


def test_unclosed_tail_certificate_is_typed(monkeypatch):
    monkeypatch.setattr(density, "tail_certificate", lambda *args: math.inf)
    with pytest.raises(DivergentIntegral, match="60 window doublings"):
        density_diagonal(P_INDEF, 1, 1.0)


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


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_certificate_bounds_the_actual_tail(seed):
    # definite Levi form: every degree 1..n-1 decays both ways.  The actual
    # tail of the integrand's operator norm beyond H, by reference
    # quadrature over a window long enough for exp(-t*rate*eta) to fall by
    # e^-40, stays below the certificate; H starts at the smallest valid window.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    q = int(rng.integers(1, n))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    sign = 1.0 if rng.random() < 0.5 else -1.0
    p = curvature_point(rand_herm(rng, n), sign * (a @ a.conj().T / n + 0.3 * np.eye(n)))
    t = float(rng.uniform(0.3, 2.0))
    rep = tail_decay(p.levi, q)
    c_norm = float(np.linalg.norm(p.curvature.mat))
    l_norm = float(np.linalg.norm(p.levi.mat))
    for side, rate in ((1.0, rep.rate_plus), (-1.0, rep.rate_minus)):
        assert rate > 0.0
        for factor in (1.01, 2.0):
            H = factor * (1.0 / t + c_norm) / rate
            cert = tail_certificate(c_norm, l_norm, n, q, t, rate, H)
            assert math.isfinite(cert)

            def norm(eta):
                return np.linalg.norm(density_integrand(p, q, t, side * float(eta)).matrix, 2)

            actual = reference_quadrature(norm, H, H + 40.0 / (t * rate), tol=1e-6 * cert)
            assert 0.0 < actual <= cert


def test_certificate_validity_conditions():
    assert tail_certificate(1.0, 1.0, 2, 1, 1.0, 0.0, 10.0) == math.inf
    # window too small for t*(rate*H - ||C||) >= 1
    assert tail_certificate(5.0, 1.0, 2, 1, 1.0, 2.0, 2.0) == math.inf
    a = tail_certificate(1.0, 1.0, 2, 1, 1.0, 2.0, 6.0)
    b = tail_certificate(1.0, 1.0, 2, 1, 1.0, 2.0, 12.0)
    assert 0.0 < b < a
    # t * rate or 2 * ||L||_F past the largest double
    assert tail_certificate(1.0, 1.0, 2, 1, 1.5e308, 2.0, 8.0) == math.inf
    assert tail_certificate(1.0, 1.5e308, 2, 1, 1.0, 2.0, 8.0) == math.inf


def test_diagonal_large_t_value():
    v = density_diagonal(P_INDEF, 1, 200.0)
    assert v.trace.real == pytest.approx((2 * math.pi) ** -3 * 2.0 / 3.0, rel=1e-3)


def _node_by_itself(p, q, t, eta):
    # every layer on the one 2-D pencil of this node
    M = p.curvature.mat - (2.0 * eta) * p.levi.mat
    es = eig_hermitian(HermitianForm.trusted(M))
    bp, bm = bose_pair(es.eigenvalues, t)
    d = density.component_scalars(bp, bm, q)
    E = exterior_power_matrix(es.unitary, q)
    return M, es.eigenvalues, es.unitary, bp, bm, (E * d) @ E.conj().T


def _node_arrays(nodes):
    M, es, *rest = nodes
    return [M, es.eigenvalues, es.unitary, *rest]


@pytest.mark.parametrize("n", range(1, 7))
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_stacked_nodes_equal_nodes_one_at_a_time(n, seed):
    # one evaluator shape: a float node has no stack axis, a stack any
    # number of them, and every node gets the bits of its 2-D evaluation
    rng = np.random.default_rng(seed)
    p = curvature_point(rand_herm(rng, n), rand_herm(rng, n))
    etas = [*p.pencil_roots, 0.0, -0.0, 1e3, -1e3, *rng.uniform(-3.0, 3.0, 3)]
    t = float(rng.uniform(0.05, 5.0))
    for q in range(n + 1):
        stacked = _node_arrays(density._eta_nodes(p, q, t, etas))
        grid = _node_arrays(density._eta_nodes(p, q, t, np.reshape(etas, (1, -1, 1))))
        for k, eta in enumerate(etas):
            single = _node_arrays(density._eta_nodes(p, q, t, float(eta)))
            for a, g, b, c in zip(stacked, grid, single, _node_by_itself(p, q, t, eta)):
                assert a[k].shape == g[0, k, 0].shape == b.shape == c.shape
                assert a[k].tobytes() == g[0, k, 0].tobytes() == b.tobytes() == c.tobytes()


def test_integrand_overflow_names_the_first_overflowing_eta():
    # the one checked entry over a node stack names the first eta whose
    # node overflows, for a float node and for a stack alike; with L = I
    # degree 0 overflows as eta -> -inf and degree n as eta -> +inf
    p = curvature_point(np.eye(2), np.eye(2))
    for q, eta in ((0, -1e300), (2, 1e300)):
        with pytest.raises(NonFinite, match=re.escape(f"integrand overflows at eta={eta!r}")):
            density_integrand(p, q, 1.0, eta)
        assert np.all(density_integrand(p, q, 1.0, -eta).matrix == 0.0)
    etas = np.array([0.5, 1e300, -2e300, -1e300])
    with pytest.raises(NonFinite, match=re.escape("integrand overflows at eta=-2e+300")):
        density._finite_nodes(p, 0, 1.0, etas)
    nodes = density._finite_nodes(p, 0, 1.0, etas[:2])
    assert nodes[-1].tobytes() == density._eta_nodes(p, 0, 1.0, etas[:2])[-1].tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_trace_scalars_sum_the_component_scalars(n):
    # t*|mu| on both sides of the 1e-4 cut between the Bose series and the
    # closed form, and far out, where the decaying member underflows
    rng = np.random.default_rng(700 + n)
    cut = np.array([0.9e-4, 1.1e-4, -0.9e-4, -1.1e-4, 1e-7, 0.0])
    for t in (0.5, 2.0):
        mu = [rng.choice(cut, size=(32, n)) / t]
        mu += [s * rng.standard_normal((32, n)) for s in (1e-3, 1.0, 40.0)]
        for m in mu:
            bp, bm = bose_pair(m, t)
            for q in range(n + 1):
                want = density.component_scalars(bp, bm, q).sum(-1)
                got = density._trace_scalars(bp, bm, q)
                assert got.shape == want.shape == (32,)
                # measured worst: 6.4e-16 over n = 1..8
                np.testing.assert_allclose(got, want, rtol=4e-15, atol=0.0)

