"""Exact relations between densities and heat traces at transformed pencils.

For a point with forms C, L, the degree-q density D(C, L, q, t, delta) of
the pencil M(eta) = C - 2*eta*L obeys, at every n and scale:

- scaling: (sC, sL, t/s) gives s^n D on the same window, since the pencil
  is s M(eta) and bose(s mu, t/s) = s bose(mu, t) while t mu is unchanged;
- eta-stretch: (C, sL) on [-delta/s, delta/s] gives D/s, since the
  pencil at eta is M(s eta);
- L -> -L on a symmetric window leaves D unchanged (the pencil at eta is
  M(-eta));
- unitary covariance: (V^H C V, V^H L V) gives Lambda^q(V)^H D Lambda^q(V),
  since the eigenvectors become V^H U;
- conjugation: (conj C, conj L) gives conj D;
- trace duality: (-C, -L) at degree n - q has the trace of degree q, since
  the component scalar of J for -M is that of the complement of J for M.

Every relation but the last is symmetric under M -> -M, and so is the last
when both sides come from one code path, so no relation between two
density matrices sees a fault that turns the integrand of M into that of
-M (bose(mu) and bose(-mu) swapped in component_scalars, say).  The
duality is therefore also checked across paths: the trace of D against
the trace-only integral (density._density_trace) of (-C, -L) at degree
n - q, which never forms the component scalars.

The group kernel K of (C, L) between (z, theta) and (w, theta') obeys the
unitary covariance too: the kernel of (V^H C V, V^H L V) between
(V^H z, theta) and (V^H w, theta') is Lambda^q(V)^H K Lambda^q(V).  K is
the prefactor exp{(beta/2)(theta - theta') + i (beta/2)(w^H L w - z^H L z)
+ (z^H C z - w^H C w)/2} times the eta-integral of exp(i (theta - theta')
eta) times the fiber kernel, exp(-(z - w)^H F (z - w) + i Im(z^H (-M) w))
times the core Lambda^q(U) diag(d) Lambda^q(U)^H, where F = U diag(f) U^H
over the eigenvectors U of the pencil M(eta).  The map sends M(eta) to
V^H M(eta) V at every eta, so U to V^H U with the same eigenvalues, and f
and d unchanged; F and M go to V^H F V and V^H M V.  Then every quadratic
form above, a^H X b with a, b among z, w and z - w, and X among C, L, F
and M, is a^H V V^H X V V^H b, unchanged, so the prefactor, the phases
and the Gaussian are invariant.  Lambda^q(V^H U) = Lambda^q(V)^H
Lambda^q(U), so the core goes to Lambda^q(V)^H core Lambda^q(V), and so
does the integral.  The same holds for the adjoint batch, K(u_i, x).

Scales are powers of two, so the transformed inputs are exact.  The
quadrature's target tol * (1 + |I|) is absolute where the raw integral
|I| is below 1, so of each scaled pair the side with the smaller integral
can stop at a coarser rule: scaled by 2^-8 at n = 5, the relation read
2e-8.  A relation with s and 1/s is one relation with the sides swapped,
so scaling takes s >= 2 and the stretch s <= 1/2, where the transformed
integral is the larger.  Each tolerance is relative to the largest entry
of the expected side and comes from the worst case measured over 12
pencils per n (24 descriptors per n for heat traces), given beside it.
"""

from __future__ import annotations

import numpy as np
import pytest

from crheat import density
from crheat.density import curvature_point, density_diagonal
from crheat.errors import DivergentIntegral
from crheat.exterior import exterior_power_matrix
from crheat.heisenberg import HeisenbergPoint, heisenberg_heat_kernel, heisenberg_kernel_batch
from crheat.morse import Divergent, ManifoldDescriptor, heat_trace

T, DELTA = 0.8, 1.5

# measured worst relative difference over n = 2..5, 12 pencils each, every q
SCALE_TOL = 1e-14  # 4.2e-15
STRETCH_TOL = 1e-14  # 4.2e-15
FLIP_TOL = 2e-15  # 8.1e-16
UNITARY_TOL = 1e-14  # 4.2e-15
CONJ_TOL = 2.3e-16  # 0 (bitwise)
DUAL_TOL = 2e-15  # 7.4e-16
DUAL_CROSS_TOL = 3e-15  # 1.3e-15
# group kernels, n = 1..3, 12 seeds each, every q, truncated and full line,
# pointwise and batch (forward and adjoint)
KERNEL_UNITARY_TOL = 2e-13  # 7.2e-14
# heat traces, n = 2..6, 24 two-point descriptors each, every degree
HEAT_TOL = {1.5: 2e-15, None: 1e-12}  # scaling 7.0e-16 and 3.9e-13 (full line)
HEAT_DUAL_TOL = 2e-15  # 6.0e-16


def _herm(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rel(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _density(C, L, q, t=T, delta=DELTA):
    return density_diagonal(curvature_point(C, L), q, t, delta)


@pytest.mark.parametrize("n", range(2, 6))
def test_density_relations(n):
    for seed in range(2):
        rng = np.random.default_rng(1000 * n + seed)
        C, L = _herm(rng, n), _herm(rng, n)
        V = _unitary(rng, n)
        s = 2.0 ** int(rng.integers(1, 11))
        for q in range(n + 1):
            D = _density(C, L, q).matrix
            case = (n, seed, q, s)
            assert _rel(_density(s * C, s * L, q, T / s).matrix, s**n * D) <= SCALE_TOL, case
            assert _rel(_density(C, L / s, q, T, DELTA * s).matrix, s * D) <= STRETCH_TOL, case
            assert _rel(_density(C, -L, q).matrix, D) <= FLIP_TOL, case
            E = exterior_power_matrix(V, q)
            Vh = V.conj().T
            assert _rel(_density(Vh @ C @ V, Vh @ L @ V, q).matrix, E.conj().T @ D @ E) <= UNITARY_TOL, case
            assert _rel(_density(C.conj(), L.conj(), q).matrix, D.conj()) <= CONJ_TOL, case
            tr = np.trace(D)
            assert _rel(_density(-C, -L, n - q).trace, tr) <= DUAL_TOL, case
            dual = density._density_trace(curvature_point(-C, -L), n - q, T, DELTA)
            assert _rel(dual, tr.real) <= DUAL_CROSS_TOL, case


def _same_trace(got, want, tol) -> bool:
    if got is Divergent or want is Divergent:
        return got is want
    return abs(got - want) <= tol * abs(want)


@pytest.mark.parametrize("n", range(2, 7))
def test_heat_trace_scaling_and_duality(n):
    for seed in range(2):
        rng = np.random.default_rng(2000 * n + seed)
        forms = [(_herm(rng, n), _herm(rng, n), float(rng.uniform(0.5, 2.0))) for _ in range(2)]
        s = 2.0 ** int(rng.integers(1, 11))

        def descriptor(f):
            return ManifoldDescriptor("d", tuple(curvature_point(*f(C, L), weight=w) for C, L, w in forms))

        for delta in (DELTA, None):
            h = heat_trace(descriptor(lambda C, L: (C, L)), n, T, delta)
            scaled = heat_trace(descriptor(lambda C, L: (s * C, s * L)), n, T / s, delta)
            dual = heat_trace(descriptor(lambda C, L: (-C, -L)), n, T, delta)
            for j in range(n + 1):
                want = h[j] if h[j] is Divergent else s**n * h[j]
                assert _same_trace(scaled[j], want, HEAT_TOL[delta]), (n, seed, delta, j, s)
                assert _same_trace(dual[n - j], h[j], HEAT_DUAL_TOL), (n, seed, delta, j)


def _levi_with_signature(rng, n, q):
    """A Levi form whose degree-q integrand decays both ways: its count of
    positive eigenvalues is neither q nor n - q (DivergentIntegral at n = 1,
    where no count suits)."""
    pos = next((k for k in range(n + 1) if q not in (k, n - k)), 0)
    lam = rng.uniform(0.5, 2.0, n) * np.where(np.arange(n) < pos, 1.0, -1.0)
    W = _unitary(rng, n)
    return (W * lam) @ W.conj().T


@pytest.mark.parametrize("n", (1, 2, 3))
def test_group_kernel_unitary_covariance(n):
    for seed in range(2):
        rng = np.random.default_rng(3000 * n + seed)
        C = _herm(rng, n)
        V = _unitary(rng, n)
        Vh = V.conj().T
        z = 0.6 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        zs = 0.6 * (rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n)))
        x, xv = HeisenbergPoint(tuple(z), 0.4), HeisenbergPoint(tuple(Vh @ z), 0.4)
        thetas = x.theta - np.array([0.9, -0.5, 0.3, 1.3])
        y, yv = HeisenbergPoint(tuple(zs[0]), thetas[0]), HeisenbergPoint(tuple(Vh @ zs[0]), thetas[0])
        zsv = zs @ V.conj()  # rows V^H z_i
        for q in range(n + 1):
            E = exterior_power_matrix(V, q)
            for delta, L, beta in ((DELTA, _herm(rng, n), 0.0), (None, _levi_with_signature(rng, n, q), 0.3)):
                p = curvature_point(C, L, beta=beta)
                pv = curvature_point(Vh @ C @ V, Vh @ L @ V, beta=beta)
                case = (n, seed, q, delta)
                if delta is None and n == 1:
                    for point, a, b in ((p, x, y), (pv, xv, yv)):
                        with pytest.raises(DivergentIntegral):
                            heisenberg_heat_kernel(point, q, T, a, b, delta)
                    continue
                K = heisenberg_heat_kernel(p, q, T, x, y, delta).matrix
                Kv = heisenberg_heat_kernel(pv, q, T, xv, yv, delta).matrix
                assert _rel(Kv, E.conj().T @ K @ E) <= KERNEL_UNITARY_TOL, case
                for adjoint in (False, True):
                    B = heisenberg_kernel_batch(p, q, T, x, zs, thetas, delta, adjoint)
                    Bv = heisenberg_kernel_batch(pv, q, T, xv, zsv, thetas, delta, adjoint)
                    assert _rel(Bv, E.conj().T @ B @ E) <= KERNEL_UNITARY_TOL, (case, adjoint)
