"""Pointwise integrand and eta-integral of the asymptotic density.

The model data at a point is a pair of Hermitian forms (curvature and Levi
form) driving the pencil M(eta) = curvature - 2*eta*levi.  The integrand is
the degree-q endomorphism det M / det(1 - exp(-t M)) * exp(-t omega(M)); its
eta-integral over the line (a signature condition permitting) or over
[-delta, delta] is the diagonal density.  The large-eta tail is controlled
by a closed-form certificate so full-line integrals carry a rigorous
remainder bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegreeOutOfRange,
    DivergentIntegral,
    NonFinite,
    NonRigidTruncation,
    OnSignatureBoundary,
    ZeroPolynomial,
)
from .exterior import FormEndomorphism, basis, exterior_power_matrix
from .hermitian import HermitianForm, bose_ratio, eig_hermitian, pencil_det_poly, pencil_real_roots
from .quadrature import integrate_adaptive

# Sharp bound for u*exp(-t*u)/(1-exp(-t*u)) once t*u >= 1.
_DECAY_FACTOR_CONST = 1.0 / (1.0 - math.exp(-1.0))


@dataclass(frozen=True)
class CurvaturePoint:
    """Per-point model data: dimension, Levi form, curvature form, beta, weight."""

    n: int
    levi: HermitianForm
    curvature: HermitianForm
    beta: float = 0.0
    weight: float = 1.0

    def __post_init__(self):
        if self.levi.n != self.n or self.curvature.n != self.n:
            raise DegreeOutOfRange(
                f"forms of dimension {self.levi.n}/{self.curvature.n} at a point with n={self.n}"
            )
        if not (math.isfinite(self.weight) and math.isfinite(self.beta)):
            raise NonFinite("weight and beta must be finite")
        if not self.weight > 0:
            raise ValueError("quadrature weight must be positive")


def curvature_point(curvature, levi, beta: float = 0.0, weight: float = 1.0) -> CurvaturePoint:
    """Build a CurvaturePoint from array-likes, validating Hermiticity."""
    c = curvature if isinstance(curvature, HermitianForm) else HermitianForm(curvature)
    l = levi if isinstance(levi, HermitianForm) else HermitianForm(levi)
    return CurvaturePoint(n=c.n, levi=l, curvature=c, beta=float(beta), weight=float(weight))


@dataclass(frozen=True)
class DecayReport:
    """Whether the integrand decays as eta -> +/-infinity, and how fast.

    Rates are per unit t: the integrand is eventually bounded by a
    polynomial times exp(-t * rate * |eta|).  A rate is zero exactly when
    the matching flag is false.
    """

    plus_decays: bool
    minus_decays: bool
    rate_plus: float
    rate_minus: float


def y_condition(levi_eigenvalues, q: int) -> bool:
    """Signature condition at degree q on a list of Levi eigenvalues.

    True iff at least max(n+1-q, q+1) eigenvalues share a strict sign, or
    there are at least min(n+1-q, q+1) pairs of strictly opposite signs.
    """
    lam = list(levi_eigenvalues)
    n = len(lam)
    if n < 1 or not 0 <= q <= n:
        raise DegreeOutOfRange(f"degree q={q} outside 0..{n}")
    pos = sum(1 for v in lam if v > 0)
    neg = sum(1 for v in lam if v < 0)
    same = max(n + 1 - q, q + 1)
    pairs = min(n + 1 - q, q + 1)
    return pos >= same or neg >= same or min(pos, neg) >= pairs


def tail_decay(levi, q: int) -> DecayReport:
    """Direction-by-direction decay analysis of the degree-q integrand.

    As eta -> +inf the pencil eigenvalues paired with a Levi eigenvalue
    lambda diverge like -2*eta*lambda, so a component J decays iff it can
    draw on some j in J with lambda_j < 0 or some j outside J with
    lambda_j > 0 (and mirrored at -inf).  The reported rate is the worst
    component's best available 2*|lambda|; eigenvalues snapped to zero by
    the dead band are non-decaying directions.
    """
    L = levi.mat if isinstance(levi, HermitianForm) else HermitianForm(levi).mat
    n = L.shape[0]
    if not 0 <= q <= n:
        raise DegreeOutOfRange(f"degree q={q} outside 0..{n}")
    lam = np.array(eig_hermitian(L).eigenvalues)
    dead = 1e-12 * max(1.0, float(np.linalg.norm(L)))
    lam[np.abs(lam) <= dead] = 0.0
    pos = int(np.sum(lam > 0))
    neg = int(np.sum(lam < 0))
    plus = not (pos <= q and neg <= n - q)
    minus = not (neg <= q and pos <= n - q)
    rate_plus = 0.0
    if plus:
        a = 2.0 * max(0.0, -lam[n - q]) if q >= 1 else 0.0
        b = 2.0 * max(0.0, lam[n - q - 1]) if q <= n - 1 else 0.0
        rate_plus = max(a, b)
    rate_minus = 0.0
    if minus:
        a = 2.0 * max(0.0, lam[q - 1]) if q >= 1 else 0.0
        b = 2.0 * max(0.0, -lam[q]) if q <= n - 1 else 0.0
        rate_minus = max(a, b)
    return DecayReport(plus, minus, rate_plus, rate_minus)


def component_scalars(mu: np.ndarray, t: float, indices) -> np.ndarray:
    """Per-component scalar of the integrand in the pencil eigenbasis.

    For each multi-index J this is
        prod_{j in J} bose(-mu_j, t) * prod_{j not in J} bose(mu_j, t),
    which equals [prod_j bose(mu_j, t)] * exp(-t * sum_{j in J} mu_j)
    because bose(-mu) = bose(mu) * exp(-t*mu).  The paired form never
    multiplies an overflowing exponential by an underflowing one, so it
    stays finite for every t and eta.
    """
    bp = np.atleast_1d(bose_ratio(mu, t))
    bm = np.atleast_1d(bose_ratio(-mu, t))
    inside = np.array([[j in J for j in range(1, len(bp) + 1)] for J in indices], dtype=bool)
    return np.where(inside, bm, bp).prod(axis=1)


def _integrand_matrix(p: CurvaturePoint, q: int, t: float, eta: float, indices):
    M = p.curvature.mat - (2.0 * eta) * p.levi.mat
    es = eig_hermitian(M)
    d = component_scalars(es.eigenvalues, t, indices)
    E = exterior_power_matrix(es.unitary, q)
    return (E * d) @ E.conj().T


def density_integrand(p: CurvaturePoint, q: int, t: float, eta: float) -> FormEndomorphism:
    """det M/det(1-exp(-tM)) * exp(-t*omega(M)) at M = curvature - 2*eta*levi.

    Finite for every eta, including pencil roots (removable singularities
    are guarded at the scalar level).
    """
    if not t > 0:
        raise ValueError("t must be positive")
    b = basis(p.n, q)
    return FormEndomorphism(b, _integrand_matrix(p, q, t, eta, b.indices))


def tail_certificate(
    curvature_norm: float,
    levi_norm: float,
    n: int,
    q: int,
    t: float,
    rate: float,
    H: float,
) -> float:
    """Rigorous bound on the one-sided tail integral of the integrand norm.

    Chain of bounds for eta >= H (and mirrored at -H): by Weyl's
    inequality every pencil eigenvalue satisfies |mu| <= B(eta) :=
    ||C||_F + 2*||L||_F*eta, every scalar factor satisfies
    |bose(+/-mu, t)| <= B(eta) + 1/t, and for each component J at least
    one factor is decaying with |mu| >= rate*eta - ||C||_F, giving
        factor <= (1/(1-e^{-1})) * (B+1/t) * exp(-t*(rate*eta - ||C||_F))
    once t*(rate*H - ||C||_F) >= 1.  Matrix entries are bounded by the
    worst component scalar (the exterior power of the eigenvector matrix
    is unitary), so the tail is at most

        const * e^{t*||C||_F} * int_H^inf (B(eta)+1/t)^n e^{-t*rate*eta} deta

    which this function evaluates in closed form (log-domain, so large
    t*||C||_F cannot overflow).  Returns inf when the validity condition
    fails; callers respond by enlarging H.  The bound is for the raw
    integrand, without the (2*pi)^-(n+1) normalization.
    """
    if rate <= 0.0 or H <= 0.0:
        return math.inf
    if t * (rate * H - curvature_norm) < 1.0:
        return math.inf
    kappa = t * rate
    beta0 = curvature_norm + 1.0 / t
    beta1 = 2.0 * levi_norm
    log_terms = []
    log_H = math.log(H)
    log_k = math.log(kappa)
    for k in range(n + 1):
        if beta1 == 0.0 and k > 0:
            continue
        base = (
            math.log(math.comb(n, k))
            + (k * math.log(beta1) if k > 0 else 0.0)
            + (n - k) * math.log(beta0)
        )
        for i in range(k + 1):
            log_terms.append(
                base
                + math.lgamma(k + 1)
                - math.lgamma(i + 1)
                + i * log_H
                - (k - i + 1) * log_k
            )
    top = max(log_terms)
    log_sum = top + math.log(math.fsum(math.exp(v - top) for v in log_terms))
    log_cert = math.log(_DECAY_FACTOR_CONST) + t * curvature_norm - kappa * H + log_sum
    if log_cert > 700.0:
        return math.inf
    return math.exp(log_cert)


def _pencil_roots_or_empty(p: CurvaturePoint) -> list[float]:
    coeffs = pencil_det_poly(p.curvature.mat, p.levi.mat)
    try:
        return pencil_real_roots(coeffs)
    except ZeroPolynomial:
        return []


def density_diagonal(p: CurvaturePoint, q: int, t: float, delta: float | None = None) -> FormEndomorphism:
    """(2*pi)^-(n+1) times the eta-integral of the density integrand.

    Over the whole line when delta is None (requires two-sided decay,
    otherwise DivergentIntegral); over [-delta, delta] otherwise, which
    converges unconditionally but demands the rigid gauge beta = 0
    (NonRigidTruncation if violated).  Full-line integration grows a
    window [-H, H] until the analytic tail certificate drops below 1e-12
    of the accumulated integral.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    b = basis(p.n, q)
    dim = len(b.indices)
    norm_factor = (2.0 * math.pi) ** (-(p.n + 1))

    def f(etas):
        return np.stack([_integrand_matrix(p, q, t, e, b.indices) for e in etas])

    if delta is not None:
        if p.beta != 0.0:
            raise NonRigidTruncation(
                "truncated integral needs the rigid gauge beta = 0"
            )
        if delta < 0:
            raise ValueError("delta must be nonnegative")
        if delta == 0:
            return FormEndomorphism(b, np.zeros((dim, dim), dtype=complex))
        roots = _pencil_roots_or_empty(p)
        total = integrate_adaptive(f, -delta, delta, 1e-9, 1e-9, interior_breaks=roots)
        return FormEndomorphism(b, total * norm_factor)

    rep = tail_decay(p.levi, q)
    if not (rep.plus_decays and rep.minus_decays):
        if not rep.plus_decays and not rep.minus_decays:
            direction = "both"
        elif not rep.plus_decays:
            direction = "+infinity"
        else:
            direction = "-infinity"
        raise DivergentIntegral(
            f"integrand does not decay as eta -> {direction}; "
            "use a truncation interval instead",
            direction=direction,
        )
    roots = _pencil_roots_or_empty(p)
    c_norm = float(np.linalg.norm(p.curvature.mat))
    l_norm = float(np.linalg.norm(p.levi.mat))
    H = 2.0 * (1.0 + (max(abs(r) for r in roots) if roots else 0.0))
    total = integrate_adaptive(f, -H, H, 1e-9, 1e-9, interior_breaks=roots)
    for _ in range(60):
        cert = tail_certificate(c_norm, l_norm, p.n, q, t, rep.rate_plus, H) + tail_certificate(
            c_norm, l_norm, p.n, q, t, rep.rate_minus, H
        )
        if cert <= 1e-12 * float(np.max(np.abs(total))):
            return FormEndomorphism(b, total * norm_factor)
        total = total + integrate_adaptive(f, H, 2.0 * H, 1e-9, 1e-9)
        total = total + integrate_adaptive(f, -2.0 * H, -H, 1e-9, 1e-9)
        H *= 2.0
    raise RuntimeError("tail certificate did not close after 60 window doublings")


def limit_integrand(p: CurvaturePoint, q: int, j: int, eta: float) -> float:
    """|det M(eta)| when M(eta) has exactly j negative and n-j positive eigenvalues, else 0.

    This is the pointwise t -> infinity limit of the degree-q integrand
    trace restricted to the signature-j region; the limit is nonzero only
    for q = j, and the value itself depends on j alone.  q is validated
    for range and otherwise unused.
    """
    n = p.n
    if not 0 <= q <= n or not 0 <= j <= n:
        raise DegreeOutOfRange(f"degree q={q} or j={j} outside 0..{n}")
    coeffs = np.asarray(pencil_det_poly(p.curvature.mat, p.levi.mat))
    cmax = float(np.max(np.abs(coeffs)))
    scale = cmax * max(1.0, abs(eta)) ** n
    value = float(np.polynomial.polynomial.polyval(eta, coeffs))
    if abs(value) < 1e-12 * scale:
        raise OnSignatureBoundary(f"eta={eta} is numerically on a pencil root")
    M = p.curvature.mat - (2.0 * eta) * p.levi.mat
    mu = eig_hermitian(M).eigenvalues
    dead = 1e-10 * float(np.linalg.norm(M))
    if np.any(np.abs(mu) <= dead):
        raise OnSignatureBoundary(f"pencil eigenvalue within dead band at eta={eta}")
    negatives = int(np.sum(mu < 0))
    if negatives == j:
        return abs(value)
    return 0.0
