"""Seeded self-check suites behind the validate subcommand.

Each check reruns one of the library's defining identities at smoke-test
scale and returns (name, passed, detail).  The pytest tree is the full
cross-validation; these suites exist so an installed artifact can vouch
for itself without a test checkout.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .density import (
    curvature_point,
    density_diagonal,
    density_integrand,
    tail_certificate,
    tail_decay,
)
from .exterior import exp_endo, exterior_power_matrix
from .heisenberg import HeisenbergPoint, heisenberg_heat_kernel, mehler_kernel
from .hermitian import bose_ratio, eig_hermitian, pencil_det_poly, pencil_real_roots, tanh_ratio
from .morse import Divergent, ManifoldDescriptor, heat_trace, morse_global, morse_local, rx_partition


def _rand_herm(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def _checks(pairs):
    return [(name, bool(ok), detail) for name, ok, detail in pairs]


def suite_hermitian():
    out = []
    mu = np.array([-50.0, -3.0, -1e-9, 0.0, 1e-9, 0.25, 7.0, 40.0])
    worst = 0.0
    for t in (0.1, 1.0, 13.0):
        lhs = bose_ratio(mu, t) * (-np.expm1(-t * mu))
        worst = max(worst, float(np.max(np.abs(lhs - mu))))
    out.append(("bose ratio inverts expm1", worst < 1e-12, f"worst {worst:.2e}"))

    worst = 0.0
    for t in (0.37, 2.0):
        lhs = tanh_ratio(mu, t) * np.tanh(t * mu / 2.0)
        worst = max(worst, float(np.max(np.abs(lhs - mu / 2.0))))
    out.append(("tanh ratio inverts tanh", worst < 1e-12, f"worst {worst:.2e}"))

    rng = np.random.default_rng(3)
    worst = 0.0
    for n in (1, 2, 3, 5):
        h = _rand_herm(rng, n)
        es = eig_hermitian(h)
        u, lam = es.unitary, es.eigenvalues
        scale = max(1.0, float(np.linalg.norm(h, 2)))
        residual = float(np.linalg.norm(h @ u - u * lam, 2)) / scale
        orthonormal = float(np.max(np.abs(u.conj().T @ u - np.eye(n))))
        # the spectrum's first two moments: sum lam = tr H, sum lam^2 = ||H||_F^2
        spectrum = max(abs(float(lam.sum()) - float(np.trace(h).real)) / scale,
                       abs(float(lam @ lam) - float(np.linalg.norm(h)) ** 2) / scale**2)
        worst = max(worst, residual, orthonormal, spectrum)
    out.append(("eigensolver residual, orthonormality and spectrum", worst < 1e-11, f"worst {worst:.2e}"))

    roots = pencil_real_roots([1.0, -4.0, 4.0])
    ok = len(roots) == 1 and abs(roots[0] - 0.5) < 1e-6
    out.append(("double pencil root recovered", ok, f"roots {roots}"))

    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(1, 5))
        r, l = _rand_herm(rng, n), _rand_herm(rng, n)
        coeffs = pencil_det_poly(r, l)
        for eta in np.linspace(-2, 2, 7):
            val = sum(c * eta ** k for k, c in enumerate(coeffs))
            ref = np.linalg.det(r - 2 * eta * l).real
            worst = max(worst, abs(val - ref) / max(1.0, abs(ref)))
    out.append(("pencil determinant polynomial", worst < 1e-9, f"worst {worst:.2e}"))
    return _checks(out)


def suite_exterior():
    out = []
    rng = np.random.default_rng(8)
    worst = 0.0
    for k in range(25):
        n = int(rng.integers(1, 6))
        p = curvature_point(_rand_herm(rng, n), _rand_herm(rng, n))
        eta = float(rng.uniform(-2, 2))
        t = (0.1, 1.0, 10.0)[k % 3]
        total = 0.0
        for q in range(n + 1):
            total += (-1) ** q * density_integrand(p, q, t, eta).trace.real
        det = np.linalg.det(p.curvature.mat - 2 * eta * p.levi.mat).real
        worst = max(worst, abs(total - det) / max(1e-300, abs(det)))
    out.append(("alternating trace equals determinant", worst < 1e-9, f"worst {worst:.2e}"))

    ok = True
    detail = ""
    for _ in range(25):
        n = int(rng.integers(1, 7))
        q = int(rng.integers(0, n + 1))
        try:
            exp_endo(_rand_herm(rng, n), q, float(rng.uniform(0.1, 3.0)))
        except Exception as e:  # PathMismatch or worse
            ok = False
            detail = repr(e)
            break
    out.append(("dual-path exponential agrees", ok, detail))

    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 6))
        q = int(rng.integers(1, n))
        u = eig_hermitian(_rand_herm(rng, n)).unitary
        w = exterior_power_matrix(u, q)
        worst = max(worst, float(np.max(np.abs(w.conj().T @ w - np.eye(w.shape[0])))))
    out.append(("exterior power preserves unitarity", worst < 1e-10, f"worst {worst:.2e}"))
    return _checks(out)


def _tail_decay_brute(lam, q):
    n = len(lam)
    plus = True
    minus = True
    for J in itertools.combinations(range(n), q):
        inJ = set(J)
        if all(lam[j] >= 0 for j in inJ) and all(lam[j] <= 0 for j in range(n) if j not in inJ):
            plus = False
        if all(lam[j] <= 0 for j in inJ) and all(lam[j] >= 0 for j in range(n) if j not in inJ):
            minus = False
    return plus, minus


def suite_density():
    out = []
    rng = np.random.default_rng(5)
    mismatches = 0
    for _ in range(40):
        n = int(rng.integers(1, 6))
        q = int(rng.integers(0, n + 1))
        lam = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], size=n)
        rep = tail_decay(np.diag(lam), q)
        if (rep.plus_decays, rep.minus_decays) != _tail_decay_brute(lam, q):
            mismatches += 1
    out.append(("tail decay matches subset enumeration", mismatches == 0, f"{mismatches} mismatches"))

    worst = 0.0
    for _ in range(3):
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        levi = b @ b.conj().T + 0.1 * np.eye(2)
        p = curvature_point(_rand_herm(rng, 2), levi)
        base = density_diagonal(p, 1, 1.0).matrix
        shifted = curvature_point(p.curvature.mat + 0.7 * levi, levi)
        other = density_diagonal(shifted, 1, 1.0).matrix
        worst = max(worst, float(np.max(np.abs(base - other))) / float(np.max(np.abs(base))))
    out.append(("density invariant under pencil shift", worst < 1e-9, f"worst {worst:.2e}"))

    levi = np.array([[1.0, 0.2], [0.2, 0.8]])
    p = curvature_point(np.diag([0.8, -0.6]), levi)
    full = density_diagonal(p, 1, 1.0).matrix
    trunc = density_diagonal(p, 1, 1.0, delta=6.0).matrix
    rep = tail_decay(levi, 1)
    cn = float(np.linalg.norm(p.curvature.mat))
    ln = float(np.linalg.norm(levi))
    cert = tail_certificate(cn, ln, 2, 1, 1.0, rep.rate_plus, 6.0) + tail_certificate(
        cn, ln, 2, 1, 1.0, rep.rate_minus, 6.0
    )
    err = float(np.max(np.abs(full - trunc)))
    out.append(("truncation error below certificate", err <= cert, f"err {err:.2e} cert {cert:.2e}"))
    return _checks(out)


def suite_mehler():
    out = []
    worst = 0.0
    zero = np.array([[0.0]])
    for x, y, t in (
        ((0.3, -0.2), (0.5, 0.4), 0.7),
        ((0.0, 0.0), (1.1, -0.6), 1.3),
        ((-0.4, 0.9), (-0.4, 0.9), 0.5),
    ):
        val = mehler_kernel(zero, t, np.array(x), np.array(y))
        d2 = (x[0] - y[0]) ** 2 + (x[1] - y[1]) ** 2
        ref = math.exp(-d2 / (2 * t)) / (4 * math.pi * t)
        worst = max(worst, abs(val - ref) / ref)
    out.append(("free kernel closed form", worst < 1e-13, f"worst {worst:.2e}"))

    val = mehler_kernel(np.array([[2.0]]), 1.0, np.zeros(2), np.zeros(2))
    ref = 2.0 / (2 * math.pi * -np.expm1(-4.0))
    out.append(("oscillator kernel at origin", abs(val - ref) < 1e-12 * ref, f"{val:.12g}"))

    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(5):
        a = _rand_herm(rng, 2)
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        k1 = mehler_kernel(a, 0.8, x, y)
        k2 = mehler_kernel(a, 0.8, y, x)
        worst = max(worst, abs(k1 - np.conj(k2)) / abs(k1))
    out.append(("kernel is hermitian", worst < 1e-12, f"worst {worst:.2e}"))
    return _checks(out)


def suite_heisenberg():
    out = []
    p1 = curvature_point([[1.0]], [[0.5]])
    x = HeisenbergPoint((0.3 + 0.4j,), 0.7)
    k = heisenberg_heat_kernel(p1, 0, 1.0, x, x, delta=3.0).matrix
    d = density_diagonal(p1, 0, 1.0, delta=3.0).matrix
    rel = float(np.max(np.abs(k - d))) / float(np.max(np.abs(d)))
    out.append(("coincident kernel equals density (n=1)", rel < 1e-12, f"rel {rel:.2e}"))

    rng = np.random.default_rng(17)
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    p2 = curvature_point(_rand_herm(rng, 2), b @ b.conj().T + 0.1 * np.eye(2))
    x2 = HeisenbergPoint((0.2 - 0.1j, -0.3 + 0.5j), -0.4)
    k2 = heisenberg_heat_kernel(p2, 1, 0.8, x2, x2).matrix
    d2 = density_diagonal(p2, 1, 0.8).matrix
    rel = float(np.max(np.abs(k2 - d2))) / float(np.max(np.abs(d2)))
    out.append(("coincident kernel equals density (n=2)", rel < 1e-12, f"rel {rel:.2e}"))

    pb = curvature_point([[1.0]], [[0.5]], beta=0.3)
    xa = HeisenbergPoint((0.4 + 0.1j,), 0.2)
    ya = HeisenbergPoint((-0.2 + 0.6j,), -0.3)
    c = pb.curvature.mat

    def weight(pt):
        z = np.array(pt.z)
        return pb.beta * pt.theta + float((z.conj() @ c @ z).real)

    k_xy = heisenberg_heat_kernel(pb, 0, 0.9, xa, ya, delta=2.0).matrix[0, 0]
    k_yx = heisenberg_heat_kernel(pb, 0, 0.9, ya, xa, delta=2.0).matrix[0, 0]
    lhs = math.exp(-weight(xa) / 2.0) * k_xy * math.exp(weight(ya) / 2.0)
    rhs = math.exp(-weight(ya) / 2.0) * k_yx * math.exp(weight(xa) / 2.0)
    rel = abs(lhs - np.conj(rhs)) / abs(lhs)
    out.append(("truncated kernel adjoint symmetry", rel < 1e-8, f"rel {rel:.2e}"))

    kval = heisenberg_heat_kernel(
        p1, 0, 0.5, x, HeisenbergPoint((0.3 + 0.4j,), 0.1), delta=3.0
    ).matrix[0, 0]
    out.append(("finite at separated angles", bool(np.isfinite(kval)), f"{abs(kval):.3g}"))
    return _checks(out)


def suite_morse():
    out = []
    part = rx_partition(np.eye(2), np.eye(2))
    sig = [(c.negatives, c.positives) for c in part.cells]
    ok = (
        len(part.breakpoints) == 1
        and abs(part.breakpoints[0] - 0.5) < 1e-6
        and sig == [(0, 2), (2, 0)]
    )
    out.append(("identity pencil partition", ok, f"breaks {part.breakpoints}"))

    v = morse_local(np.diag([-1.0, 1.0]), np.eye(2), 1)
    out.append(("indefinite cell integral exact", abs(v - 2.0 / 3.0) < 1e-14, f"{v!r}"))
    v0 = morse_local(np.diag([-1.0, 1.0]), np.eye(2), 0)
    out.append(("unbounded cell flagged divergent", v0 is Divergent, repr(v0)))
    v45 = morse_local(np.eye(2), np.eye(2), 0, delta=1.0)
    out.append(("truncated identity integral", abs(v45 - 4.5) < 1e-12, f"{v45!r}"))

    p = curvature_point(np.diag([-1.0, 1.0]), np.eye(2))
    single = ManifoldDescriptor("single", (p,))
    double = ManifoldDescriptor("double", (p, p))
    r1 = morse_global(single, 1)
    r2 = morse_global(double, 1)
    ok = abs(r2.per_j_weak[1] - 2 * r1.per_j_weak[1]) < 1e-15
    out.append(("two equal points double the bound", ok, f"{r1.per_j_weak[1]!r}"))

    ht = heat_trace(single, 1, 10.0)
    ok = ht[0] is Divergent and isinstance(ht[1], float) and ht[1] > 0
    out.append(("heat trace drops divergent degree", ok, f"{ht[1]:.6g}"))
    return _checks(out)


_SUITES = (
    ("hermitian", suite_hermitian),
    ("exterior", suite_exterior),
    ("density", suite_density),
    ("mehler", suite_mehler),
    ("heisenberg", suite_heisenberg),
    ("morse", suite_morse),
)


def run_suite(name: str):
    from .errors import UnknownFunction

    results = []
    for suite_name, fn in _SUITES:
        if name in (suite_name, "all"):
            for check, ok, detail in fn():
                results.append((f"{suite_name}: {check}", ok, detail))
    if not results:
        raise UnknownFunction(f"no suite named '{name}'")
    return results
