"""Closed-form model heat kernels: Mehler's formula and its Heisenberg lift.

Real 2n-vectors x pair with complex n-vectors via z_j = x_{2j-1} + i*x_{2j}
(1-based), and all quadratic forms are taken in the model metric where
<dx_j | dx_k> = 2*delta_jk, so <x|y> = 2*sum x_j y_j = 2*Re(w^H z).  The
kernel of the fiberwise operator at frequency eta is a Mehler-type Gaussian
driven by the pencil M(eta); integrating it against the oscillatory factor
exp(i*(theta_x - theta_y)*eta) produces the Heisenberg-group heat kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import CurvaturePoint, component_scalars, tail_certificate, tail_decay
from .errors import DivergentIntegral, ZeroPolynomial
from .exterior import FormEndomorphism, basis, exterior_power_matrix
from .hermitian import (
    as_hermitian,
    bose_ratio,
    eig_hermitian,
    pencil_det_poly,
    pencil_real_roots,
    tanh_ratio,
)
from .quadrature import integrate_adaptive


@dataclass(frozen=True)
class HeisenbergPoint:
    """A point (z, theta) of the group C^n x R."""

    z: tuple
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(complex(v) for v in self.z))
        object.__setattr__(self, "theta", float(self.theta))

    @property
    def n(self) -> int:
        return len(self.z)


@dataclass(frozen=True)
class KernelValue:
    """A kernel evaluation: a form endomorphism with all scalar factors folded in."""

    endo: FormEndomorphism

    @property
    def matrix(self) -> np.ndarray:
        return self.endo.matrix

    @property
    def trace(self) -> complex:
        return self.endo.trace


def _split_complex(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size % 2 != 0:
        raise ValueError("expected a flat real vector of even length")
    return x[0::2] + 1j * x[1::2]


def mehler_kernel(A, t: float, x, y) -> complex:
    """Mehler heat kernel of the harmonic-oscillator-type operator driven by A.

    Evaluates (2*pi)^-n * det A/det(1 - exp(-2tA)) * exp(Gaussian forms),
    where the quadratic forms are, in the eigenbasis of A with z, w the
    complex images of x, y,

        - sum f_j (|z_j|^2 + |w_j|^2)
        + sum g+_j conj(w_j) z_j + conj(sum g-_j conj(w_j) z_j)

    with f = tanh_ratio(mu, 2t) and g+- = bose_ratio(+-mu, 2t).  Zero
    eigenvalues are handled by the guarded scalar limits (determinant
    factor 1/(2t)); for A = 0, n = 1 this reduces to the Euclidean kernel
    exp(-|z-w|^2/(2t))/(4*pi*t) of mass one under dv = 2^n dx.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    Am = as_hermitian(A)
    n = Am.shape[0]
    es = eig_hermitian(Am)
    mu = es.eigenvalues
    ze = es.unitary.conj().T @ _split_complex(x)
    we = es.unitary.conj().T @ _split_complex(y)
    f = tanh_ratio(mu, 2.0 * t)
    gp = bose_ratio(mu, 2.0 * t)
    gm = bose_ratio(-mu, 2.0 * t)
    pref = float(np.prod(gp))
    cross = np.sum(we.conj() * gp * ze) + np.conj(np.sum(we.conj() * gm * ze))
    expo = -np.sum(f * (np.abs(ze) ** 2 + np.abs(we) ** 2)) + cross
    return (2.0 * math.pi) ** (-n) * pref * complex(np.exp(expo))


def _gaussian_factor(mu, U, t, z, w):
    """exp of the Mehler quadratic forms at time t in the eigenframe (mu, U).

    w may carry a leading batch axis.  The real part of the exponent is
    -(z-w)^H f (z-w) <= 0, so the factor never exceeds 1 in modulus and
    equals 1 at z = w.
    """
    ze = U.conj().T @ z
    we = np.tensordot(np.asarray(w, dtype=complex), U.conj(), axes=(-1, 0))
    f = tanh_ratio(mu, t)
    gp = bose_ratio(mu, t)
    gm = bose_ratio(-mu, t)
    cross = np.sum(we.conj() * (gp * ze), axis=-1) + np.conj(
        np.sum(we.conj() * (gm * ze), axis=-1)
    )
    expo = -np.sum(f * np.abs(ze) ** 2) - np.sum(f * np.abs(we) ** 2, axis=-1) + cross
    return np.exp(expo)


def _fiber_matrix(p: CurvaturePoint, q: int, t: float, eta: float, indices, z, w):
    """Kernel matrix of the frequency-eta fiber operator at (z, w).

    Equal to [scalar Mehler factor] * exp(-t*omega(M)) but assembled from
    the paired per-component scalars so that large t never multiplies an
    overflowing endomorphism by a vanishing prefactor.
    """
    M = p.curvature.mat - (2.0 * eta) * p.levi.mat
    es = eig_hermitian(M)
    d = component_scalars(es.eigenvalues, t, indices)
    E = exterior_power_matrix(es.unitary, q)
    g = _gaussian_factor(es.eigenvalues, es.unitary, t, z, w)
    core = (E * d) @ E.conj().T
    scale = (2.0 * math.pi) ** (-p.n) * g
    if np.ndim(scale) == 0:
        return scale * core
    return scale[..., None, None] * core


def boxeta_kernel(p: CurvaturePoint, eta: float, q: int, t: float, z, w) -> KernelValue:
    """Heat kernel of the frequency-eta fiber operator between z and w in C^n."""
    if not t > 0:
        raise ValueError("t must be positive")
    b = basis(p.n, q)
    z = np.asarray(z, dtype=complex).reshape(p.n)
    w = np.asarray(w, dtype=complex).reshape(p.n)
    return KernelValue(FormEndomorphism(b, _fiber_matrix(p, q, t, eta, b.indices, z, w)))


def _quadratic_forms(mat, z, w):
    """z^H mat z (scalar) and w^H mat w (batched along leading axes of w)."""
    vz = float((np.conj(z) @ (mat @ z)).real)
    vw = np.einsum("...i,ij,...j->...", np.conj(w), mat, w).real
    return vz, vw


def _oscillatory_width(theta_gap: float) -> float:
    return math.pi / (4.0 * abs(theta_gap) + 1.0)


def _pencil_roots(p: CurvaturePoint) -> list[float]:
    try:
        return pencil_real_roots(pencil_det_poly(p.curvature.mat, p.levi.mat))
    except ZeroPolynomial:
        return []


def _divergence_direction(rep) -> str:
    if not rep.plus_decays and not rep.minus_decays:
        return "both"
    if not rep.plus_decays:
        return "+infinity"
    return "-infinity"


def heisenberg_heat_kernel(
    p: CurvaturePoint,
    q: int,
    t: float,
    x: HeisenbergPoint,
    y: HeisenbergPoint,
    delta: float | None = None,
) -> KernelValue:
    """Heat kernel on C^n x R, full (delta None) or frequency-truncated.

    Computes (2*pi)^-1 * prefactor * int exp(i*(theta_x - theta_y)*eta) *
    fiber_kernel(eta; z, w) deta, where the eta-independent prefactor is

        exp{ (beta/2)*(theta_x - theta_y)
             + i*(beta/2)*(w^H L w - z^H L z)
             + (z^H C z - w^H C w)/2 }

    with L the Levi form and C the curvature form.  Oscillation is handled
    by capping panel widths at pi/(4*|theta gap|+1); the full-line tail
    reuses the density module's certificate, valid here because the
    Gaussian factor has modulus at most one.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    if x.n != p.n or y.n != p.n:
        raise ValueError("point dimension does not match the curvature data")
    b = basis(p.n, q)
    dim = len(b.indices)
    z = np.asarray(x.z, dtype=complex)
    w = np.asarray(y.z, dtype=complex)
    theta_gap = x.theta - y.theta

    def f(etas):
        phase = np.exp(1j * theta_gap * np.asarray(etas))
        vals = np.stack([_fiber_matrix(p, q, t, e, b.indices, z, w) for e in etas])
        return phase[:, None, None] * vals

    lz, lw = _quadratic_forms(p.levi.mat, z, w)
    cz, cw = _quadratic_forms(p.curvature.mat, z, w)
    pref = np.exp(
        0.5 * p.beta * theta_gap + 0.5j * p.beta * (lw - lz) + 0.5 * (cz - cw)
    ) / (2.0 * math.pi)
    width = _oscillatory_width(theta_gap) if theta_gap != 0.0 else None
    roots = _pencil_roots(p)

    if delta is not None:
        if delta < 0:
            raise ValueError("delta must be nonnegative")
        if delta == 0:
            return KernelValue(FormEndomorphism(b, np.zeros((dim, dim), dtype=complex)))
        total = integrate_adaptive(
            f, -delta, delta, 1e-10, 1e-10, interior_breaks=roots, max_width=width
        )
        return KernelValue(FormEndomorphism(b, pref * total))

    rep = tail_decay(p.levi, q)
    if not (rep.plus_decays and rep.minus_decays):
        direction = _divergence_direction(rep)
        raise DivergentIntegral(
            f"fiber kernel does not decay as eta -> {direction}; "
            "use a frequency truncation instead",
            direction=direction,
        )
    c_norm = float(np.linalg.norm(p.curvature.mat))
    l_norm = float(np.linalg.norm(p.levi.mat))
    H = 2.0 * (1.0 + (max(abs(r) for r in roots) if roots else 0.0))
    total = integrate_adaptive(f, -H, H, 1e-10, 1e-10, interior_breaks=roots, max_width=width)
    for _ in range(60):
        cert = tail_certificate(c_norm, l_norm, p.n, q, t, rep.rate_plus, H) + tail_certificate(
            c_norm, l_norm, p.n, q, t, rep.rate_minus, H
        )
        cert *= (2.0 * math.pi) ** (-p.n)
        if cert <= 1e-12 * float(np.max(np.abs(total))):
            return KernelValue(FormEndomorphism(b, pref * total))
        total = total + integrate_adaptive(f, H, 2.0 * H, 1e-10, 1e-10, max_width=width)
        total = total + integrate_adaptive(f, -2.0 * H, -H, 1e-10, 1e-10, max_width=width)
        H *= 2.0
    raise RuntimeError("tail certificate did not close after 60 window doublings")


def heisenberg_kernel_batch(
    p: CurvaturePoint,
    q: int,
    t: float,
    x: HeisenbergPoint,
    zs,
    thetas,
    delta: float,
    adjoint: bool = False,
) -> np.ndarray:
    """Truncated kernel K(t; x, u_i) for a batch of points u_i = (zs[i], thetas[i]).

    With adjoint=True returns K(t; u_i, x) instead.  One eta panel set is
    shared across the whole batch (refinement driven by the worst point),
    which is what makes grid convolution tests affordable.  Returns an
    array of shape (len(zs), dim, dim).
    """
    if not t > 0:
        raise ValueError("t must be positive")
    if not delta > 0:
        raise ValueError("delta must be positive")
    b = basis(p.n, q)
    zs = np.asarray(zs, dtype=complex).reshape(-1, p.n)
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    if len(zs) != len(thetas):
        raise ValueError("zs and thetas length mismatch")
    z = np.asarray(x.z, dtype=complex)
    gaps = (thetas - x.theta) if adjoint else (x.theta - thetas)
    max_gap = float(np.max(np.abs(gaps))) if len(gaps) else 0.0
    width = _oscillatory_width(max_gap) if max_gap != 0.0 else None
    roots = _pencil_roots(p)

    def f(etas):
        etas = np.asarray(etas)
        out = np.empty((len(etas), len(zs), len(b.indices), len(b.indices)), dtype=complex)
        for k, e in enumerate(etas):
            M = p.curvature.mat - (2.0 * e) * p.levi.mat
            es = eig_hermitian(M)
            d = component_scalars(es.eigenvalues, t, b.indices)
            E = exterior_power_matrix(es.unitary, q)
            core = (E * d) @ E.conj().T * (2.0 * math.pi) ** (-p.n)
            g = _gaussian_factor(es.eigenvalues, es.unitary, t, z, zs)
            if adjoint:
                g = np.conj(g)
            phase = np.exp(1j * gaps * float(e))
            out[k] = (phase * g)[:, None, None] * core
        return out

    total = integrate_adaptive(f, -delta, delta, 1e-8, 1e-8, interior_breaks=roots, max_width=width)
    lz, lw = _quadratic_forms(p.levi.mat, z, zs)
    cz, cw = _quadratic_forms(p.curvature.mat, z, zs)
    if adjoint:
        pref = np.exp(0.5 * p.beta * gaps + 0.5j * p.beta * (lz - lw) + 0.5 * (cw - cz))
    else:
        pref = np.exp(0.5 * p.beta * gaps + 0.5j * p.beta * (lw - lz) + 0.5 * (cz - cw))
    return pref[:, None, None] * total / (2.0 * math.pi)
