"""Mehler kernel, fixed-frequency fiber kernel, and the 3D group kernel."""

import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from crheat import density, heisenberg
from crheat.density import curvature_point, density_diagonal, density_integrand
from crheat.errors import DivergentIntegral, InvalidArgument, NonFinite, NonHermitian
from crheat.heisenberg import (
    HeisenbergPoint,
    boxeta_kernel,
    heisenberg_heat_kernel,
    heisenberg_kernel_batch,
    mehler_kernel,
)
from crheat.hermitian import HermitianForm

P_INDEF = curvature_point(np.diag([-1.0, 1.0]), np.eye(2))
P_CONVEX = curvature_point([[1.0]], [[1.0]])
ORIGIN = HeisenbergPoint((0.0, 0.0), 0.0)


def rand_herm(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def test_mehler_free_origin():
    v = mehler_kernel([[0.0]], 0.5, [0.0, 0.0], [0.0, 0.0])
    assert v == pytest.approx(1.0 / (4 * math.pi * 0.5), rel=1e-14)


def test_mehler_origin_determinant_formula():
    # at x = y = 0 the kernel is (2pi)^-n det A / det(1 - exp(-2tA))
    v = mehler_kernel([[2.0]], 1.0, [0.0, 0.0], [0.0, 0.0])
    assert v.real == pytest.approx(2.0 / (2 * math.pi * (1 - math.exp(-4.0))), rel=1e-13)
    assert v.real == pytest.approx(0.324248708438, abs=1e-9)
    rng = np.random.default_rng(21)
    for n in (1, 2, 3):
        a = rand_herm(rng, n)
        t = float(rng.uniform(0.3, 1.5))
        mu = np.linalg.eigvalsh(a)
        want = (2 * math.pi) ** -n * np.prod(mu / (1 - np.exp(-2 * t * mu)))
        got = mehler_kernel(a, t, np.zeros(2 * n), np.zeros(2 * n))
        assert got.real == pytest.approx(float(want), rel=1e-12)
        assert abs(got.imag) < 1e-15 * abs(got.real)


def test_mehler_free_is_euclidean_kernel():
    x = np.array([0.3, -1.1])
    y = np.array([0.7, 0.4])
    got = mehler_kernel([[0.0]], 0.7, x, y)
    gap = complex(x[0], x[1]) - complex(y[0], y[1])
    want = math.exp(-abs(gap) ** 2 / (2 * 0.7)) / (4 * math.pi * 0.7)
    assert got == pytest.approx(want, rel=1e-14)


def test_mehler_conjugate_symmetry():
    rng = np.random.default_rng(22)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        a = rand_herm(rng, n)
        t = float(rng.uniform(0.2, 2.0))
        x = rng.standard_normal(2 * n)
        y = rng.standard_normal(2 * n)
        assert abs(mehler_kernel(a, t, x, y) - np.conj(mehler_kernel(a, t, y, x))) < 1e-12


def test_mehler_free_grid_mass_is_one():
    # volume element is 2 dx, so the free kernel integrates to exactly 1
    t, h = 0.4, 0.1
    g = np.arange(-6.0, 6.0 + h / 2, h)
    x1, x2 = np.meshgrid(g, g, indexing="ij")
    pts = np.stack([x1.ravel(), x2.ravel()], axis=1)
    vals = np.array([mehler_kernel([[0.0]], t, [0.2, -0.1], pt) for pt in pts])
    assert np.sum(vals).real * 2 * h * h == pytest.approx(1.0, abs=1e-10)


def test_boxeta_origin_matches_density_integrand():
    kv = boxeta_kernel(P_INDEF, 0.3, 1, 1.2, [0, 0], [0, 0])
    di = density_integrand(P_INDEF, 1, 1.2, 0.3)
    assert np.max(np.abs(kv.matrix - (2 * math.pi) ** -2 * di.matrix)) < 1e-14


def test_boxeta_scalar_degree_is_mehler_at_half_time():
    # at q = 0 the fiber kernel is Mehler's kernel of M(eta) at time t/2
    rng = np.random.default_rng(26)
    for n in (1, 2, 3):
        for _ in range(6):
            p = curvature_point(rand_herm(rng, n), rand_herm(rng, n))
            eta = float(rng.uniform(-2, 2))
            t = float(rng.uniform(0.2, 3.0))
            x, y = rng.standard_normal(2 * n), rng.standard_normal(2 * n)
            got = boxeta_kernel(p, eta, 0, t, x[0::2] + 1j * x[1::2], y[0::2] + 1j * y[1::2])
            want = mehler_kernel(p.curvature.mat - 2 * eta * p.levi.mat, t / 2, x, y)
            assert abs(got.matrix[0, 0] - want) <= 1e-12 * abs(want)


def _sweep(p, eta, q, t, zs, w):
    return [boxeta_kernel(p, eta, q, t, z, w).matrix for z in zs]


def _same_bits(a, b):
    return len(a) == len(b) and all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))


def test_boxeta_memo_hit_equals_miss_and_unmemoized_path():
    # hits (one point swept over z), misses (a new point per call) and the
    # unmemoized path (_fiber_values evaluates its node afresh) agree bitwise;
    # from n = 2 on the pair terms are where a reordered sum shows
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 4):
        p = curvature_point(rand_herm(rng, n), rand_herm(rng, n))
        for q in range(n + 1):
            eta, t = float(rng.uniform(-2, 2)), float(rng.uniform(0.2, 3.0))
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            zs = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
            for e in (eta, 0.0, -0.0):
                hits = _sweep(p, e, q, t, zs, w)
                misses = [_sweep(curvature_point(p.curvature, p.levi), e, q, t, [z], w)[0] for z in zs]
                fresh = [heisenberg._fiber_values(p, q, t, [e], z, w[None], None, False)[0, 0] for z in zs]
                assert _same_bits(hits, misses) and _same_bits(hits, fresh), (n, q, e)


def _eigenbasis_fiber(p, q, t, etas, z, ws, gaps, adjoint):
    """Fiber kernels by the eigenbasis formula, independent of the Gaussian frame.

    exp(-f.|U^H(z - w)|^2 + i (b+ - b-).Im(conj(U^H w) U^H z)), conjugated
    when adjoint, times exp(i gap eta) and (2 pi)^-n core, with U, b+-
    and core from _eta_nodes and f = (b+ + b-)/2.
    """
    es, bp, bm, core = density._eta_nodes(p, q, t, np.asarray(etas, dtype=float))
    out = np.empty((len(etas), len(ws)) + core.shape[1:], dtype=complex)
    for k, eta in enumerate(etas):
        uh = es.unitary[k].conj().T
        f = (bp[k] + bm[k]) / 2.0
        for i, w in enumerate(ws):
            ze, we = uh @ z, uh @ w
            expo = -np.sum(f * np.abs(ze - we) ** 2) + 1j * np.sum((bp[k] - bm[k]) * (we.conj() * ze).imag)
            if adjoint:
                expo = np.conj(expo)
            if gaps is not None:
                expo += 1j * gaps[i] * eta
            out[k, i] = np.exp(expo) * (2.0 * math.pi) ** (-p.n) * core[k]
    return out


def test_fiber_kernels_match_the_eigenbasis_formula():
    # the two real quadratic forms of the node frame, in block assembly and
    # in memo hits, against the eigenbasis formula they rewrite
    rng = np.random.default_rng(39)
    for n in (1, 2, 3, 4):
        p = curvature_point(rand_herm(rng, n), rand_herm(rng, n))
        for q in range(n + 1):
            t = float(rng.uniform(0.3, 2.0))
            etas = rng.uniform(-2.0, 2.0, 5)
            z = 0.6 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            ws = 0.6 * (rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n)))
            gaps = rng.uniform(-1.5, 1.5, 4)
            for g in (None, gaps):
                for adjoint in (False, True):
                    got = heisenberg._fiber_values(p, q, t, etas, z, ws, g, adjoint)
                    want = _eigenbasis_fiber(p, q, t, etas, z, ws, g, adjoint)
                    scale = np.max(np.abs(want), axis=(-2, -1), keepdims=True)
                    assert np.all(np.abs(got - want) <= 1e-13 * scale), (n, q, g is None, adjoint)
            for k, eta in enumerate(etas[:2]):
                for i, w in enumerate(ws):
                    hit = boxeta_kernel(p, eta, q, t, z, w).matrix
                    want = _eigenbasis_fiber(p, q, t, [eta], z, [w], None, False)[0, 0]
                    assert np.max(np.abs(hit - want)) <= 1e-13 * np.max(np.abs(want)), (n, q)


def test_boxeta_memo_misses_on_any_key_change(monkeypatch):
    keys = []
    eta_node = heisenberg._eta_node

    def counted(p, q, t, eta):
        keys.append((id(p), q, t, eta))
        return eta_node(p, q, t, eta)

    monkeypatch.setattr(heisenberg, "_eta_node", counted)
    p = curvature_point(np.diag([0.6, -0.2]), np.diag([1.0, 0.7]))
    other = curvature_point(p.curvature, p.levi)
    z, w = [0.1j, 0.2], [0.3, -0.1j]
    calls = [
        (p, 0.4, 1, 0.8), (p, 0.4, 1, 0.8),  # miss, hit
        (p, 0.4, 2, 0.8), (p, 0.4, 1, 0.8),  # q changes: one entry, so both miss
        (p, 0.4, 1, 0.9), (p, 0.5, 1, 0.9), (p, 0.5, 1, 0.9),  # t, then eta
        (other, 0.5, 1, 0.9), (p, 0.5, 1, 0.9),  # another point has its own entry
    ]
    hits = [False, True, False, False, False, False, True, False, True]
    for (pt, eta, q, t), hit in zip(calls, hits):
        before = len(keys)
        boxeta_kernel(pt, eta, q, t, z, w)
        assert len(keys) == before + (not hit), (eta, q, t)
    assert keys[-1] == (id(other), 1, 0.9, 0.5)


def test_boxeta_memo_arrays_are_read_only():
    p = curvature_point(np.diag([0.6, -0.2]), np.diag([1.0, 0.7]))
    boxeta_kernel(p, 0.3, 1, 0.7, [0.1, 0.2j], [0.0, 0.1])
    entry = heisenberg._memo_node(p, 1, 0.7, 0.3)
    assert entry is vars(p)["_boxeta_node"]
    frame = entry[1]
    # the coefficients are a tuple of floats, the core a read-only array
    assert type(frame.coef) is tuple and len(frame.coef) == 2 * 2**2
    assert all(type(c) is float for c in frame.coef)
    with pytest.raises(TypeError):
        frame.coef[0] = 0.0
    assert not frame.core.flags.writeable
    with pytest.raises(ValueError):
        frame.core[0] = 0.0
    # the returned kernel is the caller's own, writable array
    kv = boxeta_kernel(p, 0.3, 1, 0.7, [0.1, 0.2j], [0.0, 0.1])
    kv.matrix[0, 0] = 0.0
    again = boxeta_kernel(p, 0.3, 1, 0.7, [0.1, 0.2j], [0.0, 0.1])
    assert again.matrix[0, 0] != 0.0


# The kernel a fresh interpreter gives for the sweep's last call.
_FRESH_SCRIPT = """
import sys
import numpy as np
from crheat import boxeta_kernel, curvature_point

p = curvature_point(np.diag([0.6, -0.2]), np.diag([1.0, 0.7]))
kv = boxeta_kernel(p, 0.3, 1, 0.7, np.array([0.1 + 0.2j, -0.3j]), np.array([0.2, 0.1j]))
sys.stdout.write(kv.matrix.tobytes().hex())
"""


def test_boxeta_bad_coordinates_in_a_sweep_raise_and_keep_the_memo():
    # a coordinate past the node's bound, or NaN, ends in NonFinite with
    # no warning; the memo entry survives, and the next valid call has
    # the bits of a fresh process
    p = curvature_point(np.diag([0.6, -0.2]), np.diag([1.0, 0.7]))
    z, w = np.array([0.1 + 0.2j, -0.3j]), np.array([0.2, 0.1j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        boxeta_kernel(p, 0.3, 1, 0.7, [0.4, 0.1j], w)
        entry = vars(p)["_boxeta_node"]
        # each coordinate is checked: in the last five only the second is bad,
        # the last one past the largest double in modulus
        bads = ([1e160, 0.0], [0.0, complex(math.nan, 1.0)], [0.0, 1e300j], [math.inf, 0.0],
                [0.4, math.nan], [0.4, -math.inf], [0.4j, 1e160], [0.4, 1e160j],
                [0.4, complex(1.5e308, 1.5e308)])
        for bad in bads:
            with pytest.raises(NonFinite):
                boxeta_kernel(p, 0.3, 1, 0.7, bad, w)
            with pytest.raises(NonFinite):
                boxeta_kernel(p, 0.3, 1, 0.7, z, bad)
            assert vars(p)["_boxeta_node"] is entry
            # on a miss nothing is stored
            miss = curvature_point(p.curvature, p.levi)
            with pytest.raises(NonFinite):
                boxeta_kernel(miss, 0.3, 1, 0.7, bad, w)
            with pytest.raises(NonFinite):
                boxeta_kernel(miss, 0.3, 1, 0.7, z, bad)
            assert "_boxeta_node" not in vars(miss)
        got = boxeta_kernel(p, 0.3, 1, 0.7, z, w).matrix
        # a huge frequency lowers the node's bound: 1e60 is past it
        far = curvature_point(np.diag([0.6, -0.2]), np.diag([1.0, 0.7]))
        with pytest.raises(NonFinite):
            boxeta_kernel(far, 1e200, 1, 0.7, [1e60, 0.0], w)
        assert "_boxeta_node" not in vars(far)
        assert np.isfinite(boxeta_kernel(far, 1e200, 1, 0.7, [1.0, 0.0], w).matrix).all()
    src = str(pathlib.Path(heisenberg.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _FRESH_SCRIPT], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert got.tobytes().hex() == proc.stdout


def test_boxeta_bad_last_coordinate_at_n3_raises_after_partial_sums():
    # the pass checks each coordinate as it reaches it: with the bad value
    # last in z, or last in w, the first two coordinates have entered the
    # sums already; the call still ends in NonFinite with no warning, a hit
    # keeps its entry and a miss stores none
    rng = np.random.default_rng(43)
    p = curvature_point(rand_herm(rng, 3), rand_herm(rng, 3))
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = boxeta_kernel(p, -0.6, 2, 0.9, z, w).matrix
        entry = vars(p)["_boxeta_node"]
        for bad in (math.nan, math.inf, 1.5 * entry[2]):
            for side in (0, 1):
                pts = [z.copy(), w.copy()]
                pts[side][-1] = bad
                with pytest.raises(NonFinite):
                    boxeta_kernel(p, -0.6, 2, 0.9, *pts)
                assert vars(p)["_boxeta_node"] is entry
                miss = curvature_point(p.curvature, p.levi)
                with pytest.raises(NonFinite):
                    boxeta_kernel(miss, -0.6, 2, 0.9, *pts)
                assert "_boxeta_node" not in vars(miss)
        assert boxeta_kernel(p, -0.6, 2, 0.9, z, w).matrix.tobytes() == want.tobytes()


def test_boxeta_sweeps_of_two_points_in_alternation():
    # same (q, t, eta) at both points: only the point tells their nodes apart
    rng = np.random.default_rng(33)
    pa = curvature_point(rand_herm(rng, 2), rand_herm(rng, 2))
    pb = curvature_point(rand_herm(rng, 2), rand_herm(rng, 2))
    zs = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    w = np.array([0.2 - 0.1j, 0.4j])
    alone_a = _sweep(curvature_point(pa.curvature, pa.levi), 0.7, 1, 0.6, zs, w)
    alone_b = _sweep(curvature_point(pb.curvature, pb.levi), 0.7, 1, 0.6, zs, w)
    mixed_a, mixed_b = [], []
    for z in zs:
        mixed_a.extend(_sweep(pa, 0.7, 1, 0.6, [z], w))
        mixed_b.extend(_sweep(pb, 0.7, 1, 0.6, [z], w))
    assert _same_bits(mixed_a, alone_a) and _same_bits(mixed_b, alone_b)
    fresh_b = [heisenberg._fiber_values(pb, 1, 0.6, [0.7], z, w[None], None, False)[0, 0] for z in zs]
    assert _same_bits(alone_b, fresh_b)


def test_boxeta_coincident_positive():
    kv = boxeta_kernel(curvature_point([[1.0]], [[0.5]]), 0.2, 0, 1.0, [1 + 0j], [1 + 0j])
    assert kv.matrix[0, 0].real > 0
    assert abs(kv.matrix[0, 0].imag) < 1e-16


def test_boxeta_bounded_by_coincident_values():
    # fixed-frequency kernels are positive semidefinite, so the two-point
    # modulus obeys Cauchy-Schwarz against the diagonal values
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        p = curvature_point(rand_herm(rng, n), rand_herm(rng, n))
        eta = float(rng.uniform(-2, 2))
        t = float(rng.uniform(0.1, 5.0))
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        kzw = abs(boxeta_kernel(p, eta, 0, t, z, w).matrix[0, 0])
        kzz = boxeta_kernel(p, eta, 0, t, z, z).matrix[0, 0].real
        kww = boxeta_kernel(p, eta, 0, t, w, w).matrix[0, 0].real
        assert kzw <= math.sqrt(kzz * kww) * (1 + 1e-12)


def test_group_kernel_coincident_equals_density():
    full = heisenberg_heat_kernel(P_INDEF, 1, 1.0, ORIGIN, ORIGIN)
    dd = density_diagonal(P_INDEF, 1, 1.0)
    assert np.max(np.abs(full.matrix - dd.matrix)) < 1e-15
    trunc = heisenberg_heat_kernel(P_INDEF, 1, 1.0, ORIGIN, ORIGIN, delta=3.0)
    ddt = density_diagonal(P_INDEF, 1, 1.0, delta=3.0)
    assert np.max(np.abs(trunc.matrix - ddt.matrix)) < 1e-15
    # the exponential weight cancels at any coincident point, not just 0
    xa = HeisenbergPoint((0.8 - 0.3j, 0.1 + 0.2j), 1.7)
    gen = heisenberg_heat_kernel(P_INDEF, 1, 1.0, xa, xa)
    assert np.max(np.abs(gen.matrix - dd.matrix)) < 1e-15


def test_group_kernel_divergence_without_decay():
    with pytest.raises(DivergentIntegral) as exc:
        heisenberg_heat_kernel(P_INDEF, 0, 1.0, ORIGIN, ORIGIN)
    assert exc.value.direction == "-infinity"
    # in complex dimension one the full-line integral never converges
    one = HeisenbergPoint((0.0,), 0.0)
    for q in (0, 1):
        with pytest.raises(DivergentIntegral):
            heisenberg_heat_kernel(P_CONVEX, q, 1.0, one, one)


def test_group_kernel_truncated_finite_at_separated_points():
    x = HeisenbergPoint((0.4 + 0.2j,), 0.7)
    y = HeisenbergPoint((-0.3 + 0.5j,), -0.4)
    kv = heisenberg_heat_kernel(P_CONVEX, 0, 1.0, x, y, delta=3.0)
    assert np.all(np.isfinite(kv.matrix))
    assert abs(kv.matrix[0, 0]) > 0


def test_group_kernel_delta_zero_is_zero():
    x = HeisenbergPoint((0.4 + 0.2j,), 0.7)
    kv = heisenberg_heat_kernel(P_CONVEX, 0, 1.0, x, x, delta=0.0)
    assert np.all(kv.matrix == 0)


def test_group_kernel_input_validation():
    x = HeisenbergPoint((0.0,), 0.0)
    with pytest.raises(ValueError):
        heisenberg_heat_kernel(P_CONVEX, 0, -1.0, x, x, delta=1.0)
    with pytest.raises(ValueError):
        heisenberg_heat_kernel(P_INDEF, 0, 1.0, x, x, delta=1.0)
    with pytest.raises(ValueError):
        heisenberg_heat_kernel(P_CONVEX, 0, 1.0, x, x, delta=-2.0)
    for z, theta in (((math.nan,), 0.0), ((complex(0.0, math.inf),), 0.0), ((0.0,), -math.inf)):
        with pytest.raises(NonFinite):
            HeisenbergPoint(z, theta)
    # exp((z^H C z)/2) overflows far from the origin: a typed error, not a NaN kernel
    far = HeisenbergPoint((1000.0,), 0.0)
    for delta in (2.0, 0.0):
        with pytest.raises(NonFinite):
            heisenberg_heat_kernel(P_CONVEX, 0, 1.0, far, x, delta=delta)
    with pytest.raises(NonFinite):
        heisenberg_kernel_batch(P_CONVEX, 0, 1.0, x, [[1000.0]], [0.0], delta=2.0, adjoint=True)
    # non-finite batch points are refused as such, before any prefactor work
    for zs, thetas in (([[math.nan]], [0.0]), ([[0.0]], [math.nan]), ([[0.0]], [math.inf])):
        with pytest.raises(NonFinite, match="group point coordinates must be finite"):
            heisenberg_kernel_batch(P_CONVEX, 0, 1.0, x, zs, thetas, 2.0)
    # the fiber kernel: a non-finite frequency or point, before any node work
    for eta, z, w in ((math.nan, 0j, 0j), (math.inf, 0j, 0j), (0.5, complex(math.nan, 0.0), 0j),
                      (0.5, 0j, complex(0.0, -math.inf))):
        fresh = curvature_point([[1.0]], [[1.0]])
        with pytest.raises(NonFinite):
            boxeta_kernel(fresh, eta, 0, 1.0, [z], [w])
        assert "_boxeta_node" not in vars(fresh)
    # a finite but huge frequency overflows the node: typed, and not memoized
    fresh = curvature_point(np.eye(2), np.eye(2))
    with pytest.raises(NonFinite):
        boxeta_kernel(fresh, -1e300, 0, 1.0, [0j, 0j], [0j, 0j])
    assert "_boxeta_node" not in vars(fresh)
    with pytest.raises(NonFinite):
        density_integrand(fresh, 0, 1.0, -1e300)


def test_mehler_input_validation():
    for x, y in (([math.nan, 0.0], [0.0, 0.0]), ([0.0, 0.0], [0.0, -math.inf])):
        with pytest.raises(NonFinite):
            mehler_kernel([[1.0]], 1.0, x, y)


def test_mehler_overflow_is_non_finite():
    # t near the smallest double: the guarded scalars overflow to inf, and
    # the kernel used to come out as NaN or inf with a RuntimeWarning
    cases = (([[1.0]], 1e-310, [0.1, 0.0], [0.2, 0.0]),
             (np.diag([1.0, 2.0]), 1e-160, [0.1, 0, 0, 0], [0.1, 0, 0, 0]))
    for A, t, x, y in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite):
                mehler_kernel(A, t, x, y)


# A Mehler kernel of a fresh interpreter, for a hit of the memo to match.
_FRESH_MEHLER = """
import sys
import numpy as np
from crheat import mehler_kernel

a = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, -0.4]])
v = mehler_kernel(a, 0.6, np.array([0.1, -0.3, 0.2, 0.4]), np.array([0.5, 0.1, -0.2, 0.3]))
sys.stdout.write(np.complex128(v).tobytes().hex())
"""


def test_mehler_memo_hits_misses_and_bad_matrices():
    a = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, -0.4]])
    x, y = np.array([0.1, -0.3, 0.2, 0.4]), np.array([0.5, 0.1, -0.2, 0.3])
    heisenberg._mehler_frame.cache_clear()

    def misses():
        return heisenberg._mehler_frame.cache_info().misses

    mehler_kernel(a, 0.6, y, x)
    assert misses() == 1
    got = mehler_kernel(a.copy(), 0.6, x, y)  # equal entries: a hit
    assert misses() == 1
    mehler_kernel(a, 0.61, x, y)  # t changes
    assert misses() == 2
    b = a.copy()
    b[0, 0] = np.nextafter(0.7, 1.0)  # one entry changes by one ulp
    mehler_kernel(b, 0.6, x, y)
    assert misses() == 3
    mehler_kernel(HermitianForm(a), 0.6, x, y)  # a form is keyed on its matrix
    assert misses() == 3
    # a bad matrix of the same shape raises on every call, and is not kept
    nan = a.copy()
    nan[1, 0] = math.nan
    skew = a.copy()
    skew[1, 0] = 0.3
    for bad, err in ((nan, NonFinite), (skew, NonHermitian)):
        for _ in range(2):
            mehler_kernel(a, 0.6, x, y)
            with pytest.raises(err):
                mehler_kernel(bad, 0.6, x, y)
    assert heisenberg._mehler_frame.cache_info().currsize <= 4
    src = str(pathlib.Path(heisenberg.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _FRESH_MEHLER], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert np.complex128(got).tobytes().hex() == proc.stdout


def test_empty_batch_is_an_empty_array():
    x = HeisenbergPoint((0.3j, -0.2), 0.1)
    for delta in (2.0, None):
        for adjoint in (False, True):
            out = heisenberg_kernel_batch(P_INDEF, 1, 1.0, x, np.zeros((0, 2)), [], delta, adjoint)
            assert out.shape == (0, 2, 2) and out.dtype == complex
    x1 = HeisenbergPoint((0.0,), 0.0)
    assert heisenberg_kernel_batch(P_CONVEX, 0, 1.0, x1, np.zeros((0, 1)), [], 2.0).shape == (0, 1, 1)
    # the checks of a batch with points still apply
    with pytest.raises(InvalidArgument):
        heisenberg_kernel_batch(P_CONVEX, 0, -1.0, x1, np.zeros((0, 1)), [], 2.0)
    with pytest.raises(InvalidArgument):
        heisenberg_kernel_batch(P_CONVEX, 0, 1.0, x1, np.zeros((0, 1)), [], -2.0)
    with pytest.raises(DivergentIntegral):
        heisenberg_kernel_batch(P_CONVEX, 0, 1.0, x1, np.zeros((0, 1)), [], None)


def test_one_point_round_takes_one_node_call_per_block(monkeypatch):
    # n = 6, q = 3: the minor budget allows blocks of several nodes, and a
    # round of a one-point kernel needs one eigensolve per block
    n, q, dim = 6, 3, 20
    B = min(heisenberg._BLOCK_PAIRS, heisenberg._BLOCK_MINORS // (dim * q) ** 2)
    assert 1 < B
    eig_calls, rounds = [], []
    eig = density.eig_hermitian
    fiber_values = heisenberg._fiber_values

    def counted_eig(H):
        eig_calls.append(1)
        return eig(H)

    def counted_round(p, q, t, etas, *rest):
        before = len(eig_calls)
        out = fiber_values(p, q, t, etas, *rest)
        rounds.append((len(etas), len(eig_calls) - before))
        return out

    monkeypatch.setattr(density, "eig_hermitian", counted_eig)
    monkeypatch.setattr(heisenberg, "_fiber_values", counted_round)
    rng = np.random.default_rng(35)
    p = curvature_point(rand_herm(rng, n), rand_herm(rng, n))
    x = HeisenbergPoint(tuple(0.3 * rng.standard_normal(n)), 0.2)
    y = HeisenbergPoint(tuple(0.3 * rng.standard_normal(n)), -0.1)
    heisenberg_heat_kernel(p, q, 0.8, x, y, delta=2.0)
    assert rounds and max(nodes for nodes, _ in rounds) > B
    for nodes, calls in rounds:
        assert calls <= math.ceil(nodes / B)


def test_block_minor_budget_bounds_memory():
    # n = 8, q = 4: each node has 70^2 minors of size 4x4 (1.25 MB), so a
    # round of 45 nodes in one block would build 56 MB of minors; within
    # the budget a block holds one node
    rng = np.random.default_rng(36)
    p = curvature_point(rand_herm(rng, 8), rand_herm(rng, 8))
    etas = np.linspace(-2.0, 2.0, 45)
    z = 0.3 * rng.standard_normal(8) + 0j
    ws = (0.3 * rng.standard_normal((1, 8))).astype(complex)
    tracemalloc.start()
    try:
        out = heisenberg._fiber_values(p, 4, 0.8, etas, z, ws, np.array([0.3]), False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 1 MB of minors per block, plus the block's other temporaries
    assert peak - out.nbytes <= 3 * 2**20, (peak, out.nbytes)


def test_batch_round_takes_one_node_call_per_stack(monkeypatch):
    # the node stacks are capped by the minor budget alone, so a 441-point
    # grid slice evaluates each round's nodes in one call however many
    # Gaussian sub-blocks its points need
    calls, rounds = [], []
    eta_nodes, fiber_values = heisenberg._eta_nodes, heisenberg._fiber_values

    def counted_nodes(*args):
        calls.append(1)
        return eta_nodes(*args)

    def counted_round(p, q, t, etas, *rest):
        before = len(calls)
        out = fiber_values(p, q, t, etas, *rest)
        rounds.append((len(etas), len(calls) - before))
        return out

    monkeypatch.setattr(heisenberg, "_eta_nodes", counted_nodes)
    monkeypatch.setattr(heisenberg, "_fiber_values", counted_round)
    zax = np.arange(-2.0, 2.05, 0.2)
    zs = (zax[:, None] + 1j * zax[None, :]).reshape(-1, 1)
    assert len(zs) == 441
    x = HeisenbergPoint((0.3 - 0.2j,), 0.1)
    heisenberg_kernel_batch(P_CONVEX, 0, 0.5, x, zs, np.full(441, 0.75), 6.0)
    assert max(nodes for nodes, _ in rounds) > heisenberg._BLOCK_PAIRS // 441
    assert all(calls == 1 for _, calls in rounds)
    rounds.clear()
    rng = np.random.default_rng(37)
    p = curvature_point(rand_herm(rng, 3), rand_herm(rng, 3))
    zs3 = 0.5 * (rng.standard_normal((441, 3)) + 1j * rng.standard_normal((441, 3)))
    x3 = HeisenbergPoint((0.1, 0.2j, -0.1), 0.0)
    heisenberg_kernel_batch(p, 1, 0.5, x3, zs3, rng.uniform(-1, 1, 441), 2.0)
    stack = heisenberg._BLOCK_MINORS // (3 * 1) ** 2
    assert rounds and all(calls == math.ceil(nodes / stack) for nodes, calls in rounds)


def _kernel_bits(p, q, n, rng_seed):
    """Bytes (or the error type) of batch and pointwise kernels at p, degree q."""
    rng = np.random.default_rng(rng_seed)
    x = HeisenbergPoint(tuple(0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))), 0.2)
    zs = 0.5 * (rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n)))
    ths = rng.uniform(-1.5, 1.5, 5)
    out = []
    for delta in (3.0, None):
        for adjoint in (False, True):
            try:
                out.append(heisenberg_kernel_batch(p, q, 0.7, x, zs, ths, delta, adjoint).tobytes())
            except DivergentIntegral:
                out.append("divergent")
        y = HeisenbergPoint(tuple(zs[0]), float(ths[0]))
        try:
            out.append(heisenberg_heat_kernel(p, q, 0.7, x, y, delta).matrix.tobytes())
        except DivergentIntegral:
            out.append("divergent")
    return out


def test_small_caps_give_the_bits_of_the_default_caps(monkeypatch):
    # tiny caps cut every round into many node stacks, and each stack into
    # ragged Gaussian sub-blocks; no value may change by a bit
    rng = np.random.default_rng(38)
    for n in (1, 2, 3):
        p = curvature_point(rand_herm(rng, n), rand_herm(rng, n) + 2.5 * np.eye(n))
        for q in range(n + 1):
            want = _kernel_bits(p, q, n, 100 * n + q)
            with monkeypatch.context() as m:
                m.setattr(heisenberg, "_BLOCK_PAIRS", 7)
                m.setattr(heisenberg, "_BLOCK_MINORS", 40)
                got = _kernel_bits(p, q, n, 100 * n + q)
            assert got == want, (n, q)
            # the full line converges for 0 < q < n (positive definite Levi form)
            assert ("divergent" in want) == (q in (0, n))


def test_group_kernel_weighted_adjoint_symmetry():
    rng = np.random.default_rng(24)
    for _ in range(4):
        n = int(rng.integers(1, 3))
        p = curvature_point(rand_herm(rng, n), rand_herm(rng, n) + 2.5 * np.eye(n), beta=0.4)

        def weight(pt):
            zv = np.asarray(pt.z)
            return p.beta * pt.theta + float((zv.conj() @ (p.curvature.mat @ zv)).real)

        xp = HeisenbergPoint(tuple(rng.standard_normal(n) + 1j * rng.standard_normal(n)), 0.3)
        yp = HeisenbergPoint(tuple(rng.standard_normal(n) + 1j * rng.standard_normal(n)), -0.5)
        q = int(rng.integers(0, n + 1))
        kxy = heisenberg_heat_kernel(p, q, 0.8, xp, yp, delta=4.0).matrix
        kyx = heisenberg_heat_kernel(p, q, 0.8, yp, xp, delta=4.0).matrix
        lhs = math.exp(-0.5 * weight(xp)) * kxy * math.exp(0.5 * weight(yp))
        rhs = math.exp(-0.5 * weight(yp)) * kyx * math.exp(0.5 * weight(xp))
        scale = max(1e-30, np.max(np.abs(lhs)))
        assert np.max(np.abs(lhs - rhs.conj().T)) <= 1e-10 * scale


def test_batch_matches_scalar_api():
    rng = np.random.default_rng(25)
    p = curvature_point([[1.0]], [[0.5]], beta=0.2)
    xb = HeisenbergPoint((0.3 + 0.1j,), 0.4)
    zs = rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1))
    ths = rng.uniform(-2, 2, 8)
    fwd = heisenberg_kernel_batch(p, 0, 0.7, xb, zs, ths, delta=5.0)
    adj = heisenberg_kernel_batch(p, 0, 0.7, xb, zs, ths, delta=5.0, adjoint=True)
    for i in range(8):
        yp = HeisenbergPoint(tuple(zs[i]), float(ths[i]))
        ref_f = heisenberg_heat_kernel(p, 0, 0.7, xb, yp, delta=5.0).matrix
        ref_a = heisenberg_heat_kernel(p, 0, 0.7, yp, xb, delta=5.0).matrix
        assert np.max(np.abs(fwd[i] - ref_f)) < 1e-14
        assert np.max(np.abs(adj[i] - ref_a)) < 1e-14


def test_batch_rounds_spanning_node_blocks_match_pointwise(monkeypatch):
    # with this many points a block holds a few dozen nodes, and the wide
    # theta spread caps the panel width, so one round spans several blocks
    rounds = []
    fiber_values = heisenberg._fiber_values

    def counted(p, q, t, etas, z, ws, *rest):
        rounds.append(len(etas) * len(ws))
        return fiber_values(p, q, t, etas, z, ws, *rest)

    monkeypatch.setattr(heisenberg, "_fiber_values", counted)
    rng = np.random.default_rng(27)
    p = curvature_point(np.diag([0.6, -0.2]), np.diag([1.0, 0.7]))
    xb = HeisenbergPoint((0.2 - 0.1j, 0.3j), 0.5)
    zs = 0.5 * (rng.standard_normal((120, 2)) + 1j * rng.standard_normal((120, 2)))
    ths = rng.uniform(-3, 3, 120)
    fwd = heisenberg_kernel_batch(p, 1, 0.6, xb, zs, ths, delta=4.0)
    adj = heisenberg_kernel_batch(p, 1, 0.6, xb, zs, ths, delta=4.0, adjoint=True)
    assert max(rounds) > 3 * heisenberg._BLOCK_PAIRS
    for i in (0, 31, 58, 77, 119):
        yp = HeisenbergPoint(tuple(zs[i]), float(ths[i]))
        ref_f = heisenberg_heat_kernel(p, 1, 0.6, xb, yp, delta=4.0).matrix
        ref_a = heisenberg_heat_kernel(p, 1, 0.6, yp, xb, delta=4.0).matrix
        assert np.max(np.abs(fwd[i] - ref_f)) < 1e-14
        assert np.max(np.abs(adj[i] - ref_a)) < 1e-14


def test_batch_full_line_and_zero_width():
    # the batch runs the same eta driver: delta None is the full line and
    # delta 0 gives zeros, each matching the pointwise kernel
    p = curvature_point(np.diag([0.5, -0.3]), np.diag([1.0, 0.8]))
    xb = HeisenbergPoint((0.2 + 0.1j, -0.1j), 0.3)
    zs = np.array([[0.1, 0.2j], [-0.3, 0.1 + 0.1j]])
    ths = np.array([-0.2, 0.5])
    full = heisenberg_kernel_batch(p, 1, 0.9, xb, zs, ths, delta=None)
    zero = heisenberg_kernel_batch(p, 1, 0.9, xb, zs, ths, delta=0.0)
    assert zero.shape == full.shape == (2, 2, 2) and np.all(zero == 0)
    for i in range(2):
        ref = heisenberg_heat_kernel(p, 1, 0.9, xb, HeisenbergPoint(tuple(zs[i]), ths[i])).matrix
        assert np.max(np.abs(full[i] - ref)) <= 1e-7 * np.max(np.abs(ref))


def test_group_kernel_semigroup_on_3d_grid():
    # truncated kernels compose exactly; the only errors here are the grid
    # discretization and the [-4,4] window cutting the theta tails
    p = P_CONVEX
    t = s = 0.5
    delta = 6.0
    hz, ht = 0.2, 0.25
    zax = np.arange(-4.0, 4.0 + hz / 2, hz)
    tax = np.arange(-4.0, 4.0 + ht / 2, ht)
    x1, x2, th = np.meshgrid(zax, zax, tax, indexing="ij")
    zpts = (x1 + 1j * x2).ravel()
    thpts = th.ravel()
    xp = HeisenbergPoint((0.7 + 0.4j,), 0.1)
    yp = HeisenbergPoint((-0.6 - 0.5j,), -0.1)
    k1 = np.empty(len(zpts), dtype=complex)
    k2 = np.empty(len(zpts), dtype=complex)
    for i in range(len(tax)):
        sel = slice(i, len(zpts), len(tax))
        zs = zpts[sel].reshape(-1, 1)
        k1[sel] = heisenberg_kernel_batch(p, 0, t, xp, zs, thpts[sel], delta)[:, 0, 0]
        k2[sel] = heisenberg_kernel_batch(p, 0, s, yp, zs, thpts[sel], delta, adjoint=True)[:, 0, 0]
    conv = np.sum(k1 * k2) * 2.0 * hz * hz * ht
    direct = heisenberg_heat_kernel(p, 0, t + s, xp, yp, delta=delta).matrix[0, 0]
    assert abs(conv - direct) / abs(direct) < 2e-3
