"""Signature partitions, exact cell integrals, and the global Morse report."""

import math

import numpy as np
import pytest
import scipy.linalg

from crheat import density
from crheat.density import curvature_point, density_diagonal, density_integrand
from crheat.errors import (
    DegreeOutOfRange,
    DimensionMismatch,
    DivergentIntegral,
    EmptyDescriptor,
    IdenticallyDegeneratePencil,
    InvalidArgument,
    MixedDimension,
    NonFinite,
    NonRigidTruncation,
)
from crheat.heisenberg import HeisenbergPoint, heisenberg_heat_kernel
from crheat.hermitian import HermitianForm, pencil_det_poly
from crheat.morse import (
    Divergent,
    ManifoldDescriptor,
    heat_trace,
    morse_global,
    morse_local,
    rx_partition,
)
from crheat.oracles import reference_quadrature
from crheat.quadrature import integrate_adaptive

R2 = np.diag([-1.0, 1.0])
I2 = np.eye(2)
NORM3 = (2 * math.pi) ** -3


def test_partition_indefinite_example():
    part = rx_partition(R2, I2)
    assert np.allclose(part.breakpoints, [-0.5, 0.5])
    sig = [(c.negatives, c.positives, c.zeros) for c in part.cells]
    assert sig == [(0, 2, 0), (1, 1, 0), (2, 0, 0)]
    assert part.cells[0].lo == -math.inf
    assert part.cells[-1].hi == math.inf


def test_partition_constant_pencil():
    part = rx_partition(R2, np.zeros((2, 2)))
    assert part.breakpoints == ()
    assert len(part.cells) == 1
    c = part.cells[0]
    assert (c.negatives, c.positives) == (1, 1)
    assert not c.bounded


def test_partition_identity_pair():
    part = rx_partition(I2, I2)
    assert len(part.breakpoints) == 1
    assert part.breakpoints[0] == pytest.approx(0.5, abs=1e-12)
    sig = [(c.negatives, c.positives) for c in part.cells]
    assert sig == [(0, 2), (2, 0)]


def test_partition_cells_tile_line():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        r = np.diag(rng.uniform(-2, 2, n))
        l = np.diag(rng.uniform(-2, 2, n))
        try:
            part = rx_partition(r, l)
        except IdenticallyDegeneratePencil:
            continue
        edges = (-math.inf,) + part.breakpoints + (math.inf,)
        for c, lo, hi in zip(part.cells, edges, edges[1:]):
            assert c.lo == lo and c.hi == hi
            assert c.negatives + c.positives + c.zeros == n
            assert c.zeros == 0


def test_partition_degenerate_pencil():
    with pytest.raises(IdenticallyDegeneratePencil):
        rx_partition(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))


def test_degenerate_pencil_integrates_without_breaks_from_one_expansion(monkeypatch):
    # det(C - 2 eta L) = 0 for every eta at C = L = diag(0, 1): the point
    # keeps () as its panel breaks, and the partition still has no answer
    calls = []
    expand = density.pencil_det_poly
    monkeypatch.setattr(density, "pencil_det_poly", lambda C, L: calls.append(1) or expand(C, L))
    form = np.diag([0.0, 1.0])
    p = curvature_point(form, form)
    t, delta = 1.0, 2.0
    x = HeisenbergPoint((0.2 - 0.1j, 0.3j), 0.1)
    traces = []
    for q in range(3):
        val = density_diagonal(p, q, t, delta).matrix
        ref = reference_quadrature(lambda eta: density_integrand(p, q, t, float(eta)).matrix,
                                   -delta, delta, tol=1e-12) * NORM3
        # measured 8.3e-17 on entries of 3.1e-2
        assert np.max(np.abs(val - ref)) < 1e-15
        kernel = heisenberg_heat_kernel(p, q, t, x, x, delta).matrix
        assert np.max(np.abs(kernel - val)) < 1e-12 * np.max(np.abs(val))
        traces.append(float(np.trace(val).real))
    assert heat_trace(ManifoldDescriptor("flat", (p,)), 2, t, delta) == pytest.approx(traces, abs=1e-15)
    assert p.pencil_roots == ()
    assert len(calls) == 1
    with pytest.raises(IdenticallyDegeneratePencil):
        rx_partition(form, form)
    with pytest.raises(IdenticallyDegeneratePencil):
        morse_local(form, form, 0, delta)


def test_pencils_of_two_sizes_are_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        rx_partition(np.eye(2), np.eye(3))
    with pytest.raises(DimensionMismatch):
        morse_local(np.eye(2), np.eye(3), 0)


def test_local_exact_examples():
    assert morse_local(R2, I2, 1) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert morse_local(R2, I2, 0, delta=1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert morse_local(R2, I2, 0) is Divergent
    assert morse_local(R2, I2, 2) is Divergent
    assert morse_local(I2, I2, 0, delta=1.0) == pytest.approx(4.5, abs=1e-12)
    with pytest.raises(IdenticallyDegeneratePencil):
        morse_local(np.zeros((2, 2)), np.zeros((2, 2)), 0)


def test_local_no_signature_cell_gives_zero():
    # the identity pair never has exactly one negative eigenvalue
    assert morse_local(I2, I2, 1, delta=2.0) == 0.0


def test_local_matches_adaptive_quadrature():
    rng = np.random.default_rng(32)
    for _ in range(6):
        n = int(rng.integers(1, 5))
        r = np.diag(rng.uniform(-2, 2, n))
        l = np.diag(rng.uniform(-2, 2, n))
        width = float(rng.uniform(0.5, 3.0))
        coeffs = np.asarray(pencil_det_poly(r.astype(complex), l.astype(complex)))
        part = rx_partition(r, l)
        for j in range(n + 1):
            exact = morse_local(r, l, j, delta=width)
            num = 0.0
            for c in part.cells:
                if c.negatives != j:
                    continue
                lo, hi = max(c.lo, -width), min(c.hi, width)
                if lo >= hi:
                    continue
                num += float(
                    integrate_adaptive(
                        lambda e: np.abs(np.polynomial.polynomial.polyval(e, coeffs)),
                        lo,
                        hi,
                        1e-12,
                    )
                )
            assert exact == pytest.approx(num, abs=1e-10 * max(1.0, num))


def test_local_scaling_covariance():
    rng = np.random.default_rng(33)
    # same delta: scaling both forms multiplies the polynomial by c^n
    for _ in range(8):
        n = int(rng.integers(1, 5))
        r = np.diag(rng.uniform(-2, 2, n))
        l = np.diag(rng.uniform(-2, 2, n))
        j = int(rng.integers(0, n + 1))
        a = morse_local(2 * r, 2 * l, j, delta=1.5)
        b = morse_local(r, l, j, delta=1.5)
        assert a == pytest.approx(2**n * b, rel=1e-12, abs=1e-12)
    # scaling the curvature alone stretches the cells, giving c^(n+1)
    assert morse_local(2 * R2, I2, 1) == pytest.approx(8 * morse_local(R2, I2, 1), rel=1e-13)


def test_local_closed_form_when_the_curvature_outweighs_the_levi_form():
    # det(1e7 I - 2 eta I) = (1e7 - 2 eta)^2 has no negative eigenvalue below
    # its double root 5e6, so j = 0 integrates it over [-6e6, 5e6]
    got = morse_local(1e7 * I2, I2, 0, delta=6e6)
    assert got == pytest.approx((2.2e7) ** 3 / 6.0, rel=1e-14)


def test_local_relations_at_every_scale():
    """Exact relations of morse_local where R outweighs L by 2^10, and L outweighs R.

    With s a power of two every transformed input is exact:
    - scaling: morse_local(s R, L, j, s delta) = s^(n+1) morse_local(R, L, j, delta);
    - eta-stretch: morse_local(R, s L, j, delta / s) = morse_local(R, L, j, delta) / s;
    - duality: morse_local(-s R, -L, n - j, s delta) = morse_local(s R, L, j, s delta).
    j is the signature of R, so the cell around eta = 0 counts.  Seeds 1-3
    measured at most 7.2e-14 relative on the first two and no difference
    on the third, in 2.6 s (one BLAS thread; 4.2-4.6 s on the same machine
    while pencil_det_poly rewrote every row at every mask); n = 14 checks
    scaling up alone.
    """
    rng = np.random.default_rng(1)
    for n in list(range(2, 13)) + [14]:
        r, l = _rand_herm(rng, n), _rand_herm(rng, n)
        j = int(np.sum(np.linalg.eigvalsh(r) < 0))
        base = morse_local(r, l, j, 2.0)
        assert base > 0.0
        for s in (2.0**10,) if n == 14 else (2.0**-10, 2.0**10):
            scaled = morse_local(s * r, l, j, s * 2.0)
            assert scaled / s ** (n + 1) == pytest.approx(base, rel=1e-12), (n, s)
            if n == 14:
                continue
            assert morse_local(r, s * l, j, 2.0 / s) * s == pytest.approx(base, rel=1e-12), (n, s)
            assert morse_local(-s * r, -l, n - j, s * 2.0) == pytest.approx(scaled, rel=1e-12), (n, s)


def _gauss_legendre_reference(r, l, delta):
    """Per j, the integral of |det(R - 2 eta L)| over the signature-j part of [-delta, delta].

    Built without pencil_det_poly: the cell edges are the real
    generalized eigenvalues of (R, 2L) from scipy (loosely filtered, since
    a spurious edge only splits a cell), each cell's signature is counted
    at its midpoint, and |det| by LAPACK, a polynomial of degree n on a
    cell, is integrated by n-point Gauss-Legendre, exact to degree 2n - 1.
    """
    n = r.shape[0]
    roots = [z.real for z in scipy.linalg.eigvals(r, 2 * l)
             if np.isfinite(z) and abs(z.imag) <= 1e-6 * (1 + abs(z)) and -delta < z.real < delta]
    edges = sorted({-delta, delta, *roots})
    x, w = np.polynomial.legendre.leggauss(n)
    out = [0.0] * (n + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        etas = mid + half * x
        dets = np.linalg.det(r - 2 * etas[:, None, None] * l)
        out[int(np.sum(np.linalg.eigvalsh(r - 2 * mid * l) < 0))] += half * float(np.sum(w * np.abs(dets)))
    return out


def test_local_matches_an_independent_reference_at_every_scale():
    # R scaled by 2^0..2^10 against L, and L by 2^7 against that; seeds
    # 5-7 of this loop measured at most 1.0e-14 of the whole window's
    # integral
    rng = np.random.default_rng(5)
    for n in (2, 4, 6, 8, 10):
        for s, l_scale in ((1.0, 1.0), (32.0, 1.0), (1024.0, 1.0), (1024.0, 128.0)):
            r, l = s * _rand_herm(rng, n), l_scale * _rand_herm(rng, n)
            want = _gauss_legendre_reference(r, l, s)
            got = [morse_local(r, l, j, s) for j in range(n + 1)]
            assert got == pytest.approx(want, abs=1e-13 * sum(want), rel=0.0), (n, s, l_scale)


def sample_descriptor(weight=1.0):
    return ManifoldDescriptor("sample", (curvature_point(R2, I2, weight=weight),))


def test_global_single_point_report():
    rep = morse_global(sample_descriptor(), 1)
    assert math.isnan(rep.per_j_weak[0])
    assert rep.per_j_weak[1] == pytest.approx(NORM3 * 2.0 / 3.0, rel=1e-14)
    assert rep.feasibility == (False, True)
    assert all(math.isnan(s) for s in rep.strong_partial_sums)
    assert rep.delta is None


def test_global_half_weights_add_up():
    half = curvature_point(R2, I2, weight=0.5)
    rep2 = morse_global(ManifoldDescriptor("pair", (half, half)), 1)
    rep1 = morse_global(sample_descriptor(), 1)
    assert rep2.per_j_weak[1] == pytest.approx(rep1.per_j_weak[1], rel=1e-15)


def test_global_delta_zero_all_zero():
    rep = morse_global(sample_descriptor(), 1, delta=0.0)
    assert rep.per_j_weak == (0.0, 0.0)
    assert rep.strong_partial_sums == (0.0, 0.0)
    assert rep.feasibility == (True, True)


def test_global_truncated_strong_sums():
    rep = morse_global(sample_descriptor(), 1, delta=1.0)
    assert rep.per_j_weak[0] == pytest.approx(NORM3 * 2.0 / 3.0, rel=1e-14)
    assert rep.strong_partial_sums[0] == rep.per_j_weak[0]
    # alternating sum telescopes to weak[1] - weak[0], which vanishes here
    assert abs(rep.strong_partial_sums[1]) < 1e-16


def test_global_strong_populated_when_y_holds():
    r4 = np.diag([0.3, -0.7, 1.1, -0.2])
    l4 = np.diag([1.0, 1.0, -1.0, -1.0])
    d = ManifoldDescriptor("mixed", (curvature_point(r4, l4),))
    rep = morse_global(d, 1)
    assert rep.feasibility == (True, True)
    assert math.isfinite(rep.strong_partial_sums[1])
    assert rep.strong_partial_sums[1] == pytest.approx(
        rep.per_j_weak[1] - rep.per_j_weak[0], rel=1e-12
    )


def test_global_validation_errors():
    with pytest.raises(EmptyDescriptor):
        morse_global(ManifoldDescriptor("none", ()), 0)
    with pytest.raises(MixedDimension):
        morse_global(
            ManifoldDescriptor(
                "mixed",
                (curvature_point([[1.0]], [[1.0]]), curvature_point(I2, I2)),
            ),
            0,
        )
    with pytest.raises(DegreeOutOfRange):
        morse_global(sample_descriptor(), 5)


def test_invalid_delta_is_refused():
    # a negative delta used to give 0.0 and all-zero feasible bounds, an
    # infinite one a NaN weak bound marked feasible
    for delta, error in ((-1.0, InvalidArgument), (-1e-300, InvalidArgument),
                         (math.inf, NonFinite), (-math.inf, NonFinite), (math.nan, NonFinite)):
        with pytest.raises(error):
            morse_local(R2, I2, 1, delta=delta)
        with pytest.raises(error):
            morse_global(sample_descriptor(), 1, delta)
    assert morse_local(R2, I2, 1, delta=0.0) == 0.0


def test_local_with_a_levi_form_far_below_the_curvature():
    # det(I - 2 eta eps I) = (1 - 2 eps eta)^3 at eps = 10^-103.1: its
    # companion matrix overflows, its triple root 1/(2 eps) does not
    L = 10**-103.1 * np.eye(3)
    root = 0.5 * 10**103.1
    part = rx_partition(np.eye(3), L)
    assert part.breakpoints == pytest.approx([root] * len(part.breakpoints), rel=1e-4)
    assert (part.cells[0].negatives, part.cells[-1].negatives) == (0, 3)
    assert morse_local(np.eye(3), L, 0) is Divergent
    # on [-1, 1], |det| = (1 - 2 eps eta)^3 integrates to 2 up to ~1e-103
    assert morse_local(np.eye(3), L, 0, delta=1.0) == pytest.approx(2.0, rel=1e-14)


def test_triple_root_far_out_leaves_no_spurious_cell():
    # the root 0.5 * 10^103.1 of (1 - 2 eps eta)^3 is one breakpoint: no
    # thin cell between two of its rounding-split candidates
    part = rx_partition(np.eye(3), 10**-103.1 * np.eye(3))
    assert part.breakpoints == pytest.approx([0.5 * 10**103.1], rel=1e-4)
    assert [c.negatives for c in part.cells] == [0, 3]


def test_partition_probes_outer_cells_clear_of_large_roots():
    # roots 2^59 (1, 2, 3) are far larger than the probe span 1 + sqrt(14):
    # a probe at root + span is the root itself, where one eigenvalue is 0
    R, L = np.diag([1.0, 2.0, 3.0]), 2.0**-60 * np.eye(3)
    part = rx_partition(R, L)
    assert [(c.negatives, c.zeros) for c in part.cells] == [(0, 0), (1, 0), (2, 0), (3, 0)]
    assert morse_local(R, L, 3) is Divergent
    # the cell (2^60, 3 * 2^59) of |(1 - x)(2 - x)(3 - x)|, x = 2^-59 eta
    assert morse_local(R, L, 2) == pytest.approx(0.25 * 2.0**59, rel=1e-12)


def test_partition_and_local_with_entries_near_1e300():
    # det(C - 2 eta L) = (a - 2 eta)(1 - eta) - b^2 with a = 1e300, b = 0.3:
    # roots 1 - b^2/a (to 1e-301) and a/2 + ..., both representable
    a, b = 1e300, 0.3
    C, L = np.array([[a, b], [b, 1.0]]), np.diag([1.0, 0.5])
    part = rx_partition(C, L)
    assert part.breakpoints == pytest.approx([1.0, a / 2], rel=1e-12)
    assert [c.negatives for c in part.cells] == [0, 1, 2]
    # j = 1 on [1, 2]: with u = eta - 1, |det| = u (a - 2 - 2u) + b^2 up to
    # the 1e-301 root shift, whose integral over [0, 1] is (a - 2)/2 - 2/3 + b^2;
    # measured 1.4e-13 relative, the det polynomial's c_0 being off by 2.4e-14
    assert morse_local(C, L, 1, 2.0) == pytest.approx((a - 2) / 2 - 2 / 3 + b * b, rel=1e-12)


def test_partition_and_local_take_the_library_forms():
    # a point's own HermitianForms give the bits of the array call, and
    # HermitianForm returns a form it is given as it is
    rng = np.random.default_rng(61)
    for n in (1, 2, 3, 4):
        c, l = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2))
        p = curvature_point((c + c.conj().T) / 2, (l + l.conj().T) / 2)
        for form in (p.curvature, p.levi):
            assert HermitianForm(form) is form
        R, L = np.array(p.curvature.mat), np.array(p.levi.mat)
        got, want = rx_partition(p.curvature, p.levi), rx_partition(R, L)
        assert got.cells == want.cells
        assert np.array(got.breakpoints).tobytes() == np.array(want.breakpoints).tobytes()
        for j in range(n + 1):
            for delta in (1.5, None):
                got, want = morse_local(p.curvature, p.levi, j, delta), morse_local(R, L, j, delta)
                assert got is want if want is Divergent else np.float64(got).tobytes() == np.float64(want).tobytes()


def test_overflowing_cell_integral_is_non_finite():
    # |det| grows like eta^2, so its integral over [-1e300, 1e300] is ~1e900:
    # a typed error, not an inf weak bound and a RuntimeWarning
    for j in (0, 2):
        with pytest.raises(NonFinite):
            morse_local(R2, I2, j, delta=1e300)
    assert morse_local(R2, I2, 1, delta=1e300) == pytest.approx(2.0 / 3.0, rel=1e-14)
    with pytest.raises(NonFinite):
        morse_global(sample_descriptor(), 1, 1e300)
    # each point finite, the weighted sum not
    with pytest.raises(NonFinite):
        morse_global(sample_descriptor(weight=1e300), 1, 1e100)


def test_heat_trace_delta_zero():
    assert heat_trace(sample_descriptor(), 1, 1.0, delta=0.0) == [0.0, 0.0]
    d = ManifoldDescriptor("n3", (curvature_point(np.diag([0.5, -1.0, 0.2]), np.eye(3)),))
    got = heat_trace(d, 3, 1.0, delta=0.0)
    assert got == [0.0] * 4 and all(type(v) is float for v in got)


def test_heat_trace_truncation_needs_rigid_gauge():
    p = curvature_point(R2, I2, beta=0.5)
    d = ManifoldDescriptor("beta", (p,))
    with pytest.raises(NonRigidTruncation):
        heat_trace(d, 1, 1.0, delta=2.0)
    with pytest.raises(NonRigidTruncation):
        heat_trace(d, 1, 1.0, delta=0.0)
    # the full line allows any gauge
    assert heat_trace(d, 1, 1.0)[0] is Divergent


def _rand_herm(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a + a.conj().T) / 2


def _seeded_descriptor(rng, n, definite):
    points = []
    for weight in (1.0, 0.5):
        if definite:
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            levi = b @ b.conj().T / n + 0.5 * np.eye(n)
        else:
            levi = _rand_herm(rng, n)
        points.append(curvature_point(_rand_herm(rng, n, 0.5), levi, weight=weight))
    return ManifoldDescriptor(f"seeded-{n}", tuple(points))


def _traces_of_densities(d, t, delta):
    out = []
    for j in range(d.n + 1):
        acc = 0.0
        for p in d.points:
            try:
                acc += p.weight * density_diagonal(p, j, t, delta).trace.real
            except DivergentIntegral:
                acc = Divergent
                break
        out.append(acc)
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_heat_trace_matches_density_traces_on_a_seeded_set(n):
    rng = np.random.default_rng(3100 + n)
    for definite in (True, False):
        d = _seeded_descriptor(rng, n, definite)
        for delta in (1.5, None):
            want = _traces_of_densities(d, 1.0, delta)
            if all(w is Divergent for w in want):
                with pytest.raises(DivergentIntegral):
                    heat_trace(d, n, 1.0, delta)
                continue
            got = heat_trace(d, n, 1.0, delta)
            assert [g is Divergent for g in got] == [w is Divergent for w in want]
            for g, w in zip(got, want):
                if w is not Divergent:
                    # measured worst: 2.1e-15 over this set
                    assert g == pytest.approx(w, rel=1e-12, abs=0.0)


def test_heat_trace_tail_scales_the_certificate_by_the_component_count(monkeypatch):
    # n = 3, j = 1: the trace sums C(3, 1) = 3 component scalars, each of
    # which the certificate bounds.  A certificate of 1e-12/3 of the trace
    # at each end closes the first window unscaled (2/3 of 1e-12) and must
    # not close it scaled (2 * 1e-12).
    levi = np.diag([1.0, 0.8, 1.2])
    p = curvature_point(np.diag([0.7, -0.5, 0.3]), levi)
    d = ManifoldDescriptor("n3", (p,))
    raw = heat_trace(d, 1, 1.0)[1] * (2 * math.pi) ** 4
    calls = []

    class WindowGrew(Exception):
        pass

    def certificate(*args):
        # the bound for one side at one window H (the last argument)
        calls.append(args)
        if len(calls) > 2:
            raise WindowGrew
        return 1e-12 * raw / 3.0

    monkeypatch.setattr(density, "tail_certificate", certificate)
    with pytest.raises(WindowGrew):
        heat_trace(d, 1, 1.0)


def test_heat_trace_single_point_is_pointwise_trace():
    p = curvature_point(R2, I2)
    got = heat_trace(ManifoldDescriptor("single", (p,)), 1, 1.0, delta=2.0)
    for j in (0, 1):
        want = density_diagonal(p, j, 1.0, delta=2.0).trace.real
        assert got[j] == pytest.approx(want, rel=1e-14)


def test_heat_trace_divergent_markers():
    ht = heat_trace(sample_descriptor(), 1, 10.0)
    assert ht[0] is Divergent
    assert isinstance(ht[1], float) and ht[1] > 0
    with pytest.raises(DivergentIntegral):
        heat_trace(sample_descriptor(), 0, 1.0)


def test_heat_trace_large_t_approaches_morse_bound():
    target = NORM3 * 2.0 / 3.0
    err200 = abs(heat_trace(sample_descriptor(), 1, 200.0)[1] - target)
    assert err200 < 0.05 * target
    err10 = abs(heat_trace(sample_descriptor(), 1, 10.0)[1] - target)
    assert err200 < err10


def test_heat_trace_alternating_sum_monotone_approach():
    r4 = np.diag([0.3, -0.7, 1.1, -0.2])
    l4 = np.diag([1.0, 1.0, -1.0, -1.0])
    d = ManifoldDescriptor("mixed", (curvature_point(r4, l4),))
    strong = morse_global(d, 1).strong_partial_sums[1]
    errs = []
    for t in (10.0, 200.0):
        ht = heat_trace(d, 1, t)
        errs.append(abs((ht[1] - ht[0]) - strong))
    assert errs[1] < errs[0]
