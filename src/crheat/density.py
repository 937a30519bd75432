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
from functools import cached_property

import numpy as np

from .errors import (
    DegreeOutOfRange,
    DivergentIntegral,
    IdenticallyDegeneratePencil,
    InvalidArgument,
    NonFinite,
    NonRigidTruncation,
    ZeroPolynomial,
)
from .exterior import FormEndomorphism, _exterior_power, basis, check_degree
from .hermitian import (
    HermitianForm,
    _check_time,
    bose_pair,
    eig_hermitian,
    eigvals_hermitian,
    frobenius_norm,
    pencil_det_poly,
    pencil_real_roots,
)
from .quadrature import integrate_adaptive

# Sharp bound for u*exp(-t*u)/(1-exp(-t*u)) once t*u >= 1.
_DECAY_FACTOR_CONST = 1.0 / (1.0 - math.exp(-1.0))


@dataclass(frozen=True)
class CurvaturePoint:
    """Per-point model data: dimension, Levi form, curvature form, beta, weight.

    The real roots of the pencil's determinant are computed on first use
    and kept (as a tuple, so no caller can alter them), and every
    eta-integral at the point shares them.
    """

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
            raise InvalidArgument("quadrature weight must be positive")

    @cached_property
    def pencil_roots(self) -> tuple:
        """Sorted real roots of det M(eta), from pencil_det_poly's coefficients.

        Raises IdenticallyDegeneratePencil when det M vanishes for every eta.
        """
        try:
            return tuple(pencil_real_roots(pencil_det_poly(self.curvature.mat, self.levi.mat)))
        except ZeroPolynomial as exc:
            raise IdenticallyDegeneratePencil("pencil determinant vanishes identically") from exc


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
    Eigenvalues with |lambda| <= 1e-12 * max(1, ||lambda||_2) count as zero,
    the dead band of tail_decay, so Y(q) always implies two-sided decay.
    A NaN or infinite eigenvalue raises NonFinite.
    """
    lam = list(levi_eigenvalues)
    n = len(lam)
    check_degree(n, q)
    if not np.isfinite(lam).all():
        raise NonFinite("Levi eigenvalues must be finite")
    dead = 1e-12 * max(1.0, frobenius_norm(lam))
    pos = sum(1 for v in lam if v > dead)
    neg = sum(1 for v in lam if v < -dead)
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
    check_degree(n, q)
    dead = 1e-12 * max(1.0, frobenius_norm(L))
    lam = np.array(eig_hermitian(L).eigenvalues)
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


def component_scalars(bose_plus: np.ndarray, bose_minus: np.ndarray, q: int) -> np.ndarray:
    """Per-component scalar of the degree-q integrand in the pencil eigenbasis.

    With bose_plus = bose(mu, t) and bose_minus = bose(-mu, t) over the
    pencil eigenvalues mu, each multi-index J gets
        prod_{j in J} bose(-mu_j, t) * prod_{j not in J} bose(mu_j, t),
    which equals [prod_j bose(mu_j, t)] * exp(-t * sum_{j in J} mu_j)
    because bose(-mu) = bose(mu) * exp(-t*mu).  The paired form never
    multiplies an overflowing exponential by an underflowing one, so it
    stays finite for every t and eta.  Leading axes of the Bose values
    stack nodes, and the scalars get the same leading axes.
    """
    inside = basis(bose_plus.shape[-1], q).membership
    if bose_plus.ndim > 1:
        bose_plus, bose_minus = bose_plus[..., None, :], bose_minus[..., None, :]
    return np.where(inside, bose_minus, bose_plus).prod(axis=-1)


def _check_delta(delta):
    if delta is None:
        return
    if not math.isfinite(delta):
        raise NonFinite("delta must be finite (None for the whole line)")
    if delta < 0:
        raise InvalidArgument("delta must be nonnegative")


def _pencil(p: CurvaturePoint, etas) -> HermitianForm:
    """M(eta) at the nodes etas, a float or a sequence that stacks them along axis 0.

    M(eta) is exactly Hermitian (the point's forms are symmetrized), so
    the eigensolvers get it without a second validation.
    """
    if not isinstance(etas, float):
        etas = np.asarray(etas, dtype=float)[:, None, None]
    return HermitianForm.trusted(p.curvature.mat - (2.0 * etas) * p.levi.mat)


def _trace_scalars(bose_plus: np.ndarray, bose_minus: np.ndarray, q: int) -> np.ndarray:
    """Sum over the degree-q components of component_scalars, without listing them.

    That sum is e_q, the coefficient of x^q in prod_j (bose(mu_j) + x *
    bose(-mu_j)), taken by the recurrence e_k <- e_k * b+_j + e_{k-1} * b-_j
    over j: O(n q) products instead of C(n, q) * n.  Bose values are
    positive, so every term is nonnegative and nothing cancels.  Leading
    axes of the Bose values stack nodes, as in component_scalars.
    """
    e = np.zeros((q + 1,) + bose_plus.shape[:-1])
    e[0] = 1.0
    for j in range(bose_plus.shape[-1]):
        bp, bm = bose_plus[..., j], bose_minus[..., j]
        e[1:] = e[1:] * bp + e[:-1] * bm
        e[0] *= bp
    return e[q]


def _eta_nodes(p: CurvaturePoint, q: int, t: float, etas):
    """Everything the degree-q integrands need at a block of eta nodes.

    Returns, stacked node by node along axis 0, the eigensystems of
    M(eta), the Bose values bose(+mu, t) and bose(-mu, t), and the cores
    E diag(d) E^H, where E is the q-th exterior power of the eigenvectors
    and d the component scalars.  A single eta given as a float, instead
    of a sequence, gives the same arrays without the stack axis.  The
    whole block goes through one call of each layer and one batched
    matmul, which give every node the bits it gets alone.
    """
    stacked = not isinstance(etas, float)
    es = eig_hermitian(_pencil(p, etas))
    bose_plus, bose_minus = bose_pair(es.eigenvalues, t)
    d = component_scalars(bose_plus, bose_minus, q)
    E = _exterior_power(es.unitary, q)
    if stacked:
        d = d[:, None, :]
    return es, bose_plus, bose_minus, (E * d) @ E.conj().swapaxes(-1, -2)


def _eta_node(p: CurvaturePoint, q: int, t: float, eta: float):
    """_eta_nodes at the single node eta: (eigensystem, bose_plus, bose_minus, core)."""
    return _eta_nodes(p, q, t, float(eta))


def _finite_node(node_fn, p: CurvaturePoint, q: int, t: float, eta: float):
    """node_fn(p, q, t, eta), an _eta_node, with NonFinite where it overflows.

    A single node overflows only at a huge |eta|, where the pencil
    eigenvalues reach ~1e300.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        node = node_fn(p, q, t, eta)
    if not all(np.isfinite(a).all() for a in node[1:]):
        raise NonFinite(f"integrand overflows at eta={eta!r}")
    return node


def density_integrand(p: CurvaturePoint, q: int, t: float, eta: float) -> FormEndomorphism:
    """det M/det(1-exp(-tM)) * exp(-t*omega(M)) at M = curvature - 2*eta*levi.

    Finite for every finite eta, including pencil roots (removable
    singularities are guarded at the scalar level), unless it overflows
    at a huge |eta|; NonFinite in that case and for a non-finite eta.
    """
    _check_time(t)
    if not math.isfinite(eta):
        raise NonFinite("eta must be finite")
    return FormEndomorphism(basis(p.n, q), _finite_node(_eta_node, p, q, t, eta)[3])


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
    fails, where callers respond by enlarging H, and when the bound, t*rate
    or 2*||L||_F is too large to represent.  The bound is for the raw
    integrand, without the (2*pi)^-(n+1) normalization.  A NaN or
    infinite argument raises NonFinite, and a negative norm or t <= 0
    InvalidArgument.
    """
    check_degree(n, q)
    if not math.isfinite(H):
        raise NonFinite("tail certificate arguments must be finite")
    return _tail_bound(curvature_norm, levi_norm, n, t, rate)(H)


def _tail_bound(curvature_norm: float, levi_norm: float, n: int, t: float, rate: float):
    """H -> tail_certificate(curvature_norm, levi_norm, n, q, t, rate, H) for finite H.

    The arguments are checked as in tail_certificate.  The log-domain
    terms that do not depend on H (lgamma, log, comb) are built once, on
    the first H that passes the validity condition, and each H then adds
    its own terms in tail_certificate's order, so a window-doubling loop
    gets the bits of a fresh tail_certificate at each H.
    """
    if not all(map(math.isfinite, (curvature_norm, levi_norm, t, rate))):
        raise NonFinite("tail certificate arguments must be finite")
    _check_time(t)
    if curvature_norm < 0.0 or levi_norm < 0.0:
        raise InvalidArgument("norms must be nonnegative")
    kappa = t * rate
    built = []

    def terms():
        # (base + lgamma(k + 1) - lgamma(i + 1), i, (k - i + 1) * log(kappa)) per
        # term, or None when the bound cannot be represented
        beta0 = curvature_norm + 1.0 / t
        beta1 = 2.0 * levi_norm
        if math.isinf(kappa) or math.isinf(beta1):
            return None
        log_k = math.log(kappa)
        rows = []
        for k in range(n + 1):
            if beta1 == 0.0 and k > 0:
                continue
            base = (
                math.log(math.comb(n, k))
                + (k * math.log(beta1) if k > 0 else 0.0)
                + (n - k) * math.log(beta0)
            )
            for i in range(k + 1):
                rows.append((base + math.lgamma(k + 1) - math.lgamma(i + 1), i, (k - i + 1) * log_k))
        return math.log(_DECAY_FACTOR_CONST) + t * curvature_norm, rows

    def bound(H: float) -> float:
        if rate <= 0.0 or H <= 0.0:
            return math.inf
        if t * (rate * H - curvature_norm) < 1.0:
            return math.inf
        if not built:
            built.append(terms())
        if built[0] is None:
            return math.inf
        head, rows = built[0]
        log_H = math.log(H)
        log_terms = [a + i * log_H - b for a, i, b in rows]
        top = max(log_terms)
        log_sum = top + math.log(math.fsum(math.exp(v - top) for v in log_terms))
        log_cert = head - kappa * H + log_sum
        if log_cert > 700.0:
            return math.inf
        return math.exp(log_cert)

    return bound


def _two_sided_decay(p: CurvaturePoint, q: int) -> DecayReport:
    """tail_decay at p, or DivergentIntegral unless it decays in both directions."""
    rep = tail_decay(p.levi, q)
    if not (rep.plus_decays and rep.minus_decays):
        direction = {
            (False, False): "both", (False, True): "+infinity", (True, False): "-infinity"
        }[(rep.plus_decays, rep.minus_decays)]
        raise DivergentIntegral(
            f"integrand does not decay as eta -> {direction}; "
            "use a truncation interval instead",
            direction=direction,
        )
    return rep


def _eta_integral(p: CurvaturePoint, q: int, t: float, delta, f, tol: float, width=None, cert_scale=1.0):
    """Eta-integral of the vectorized degree-q integrand f at the point p.

    Over [-delta, delta] when delta is given (zero when delta == 0), else
    over the whole line, which needs the integrand to decay in both eta
    directions (DivergentIntegral otherwise).  Pencil roots are panel
    breaks; width caps panel widths for oscillatory integrands.  The
    full-line window [-H, H] doubles until the tail certificate, times
    cert_scale (the factor by which f can exceed the largest component
    scalar of the raw density integrand), drops below 1e-12 of the
    accumulated integral.
    """
    _check_time(t)
    _check_delta(delta)
    dim = len(basis(p.n, q).indices)
    if delta == 0:
        return np.zeros((dim, dim), dtype=complex)
    if delta is None:
        rep = _two_sided_decay(p, q)
    try:
        roots = p.pencil_roots
    except IdenticallyDegeneratePencil:
        roots = []
    if delta is not None:
        return integrate_adaptive(f, -delta, delta, tol, interior_breaks=roots, max_width=width)
    c_norm = frobenius_norm(p.curvature.mat)
    l_norm = frobenius_norm(p.levi.mat)
    H = 2.0 * (1.0 + (max(abs(r) for r in roots) if roots else 0.0))
    total = integrate_adaptive(f, -H, H, tol, interior_breaks=roots, max_width=width)
    plus = _tail_bound(c_norm, l_norm, p.n, t, rep.rate_plus)
    minus = _tail_bound(c_norm, l_norm, p.n, t, rep.rate_minus)
    for _ in range(60):
        cert = plus(H) + minus(H)
        if cert * cert_scale <= 1e-12 * float(np.max(np.abs(total))):
            return total
        total = total + integrate_adaptive(f, H, 2.0 * H, tol, max_width=width)
        total = total + integrate_adaptive(f, -2.0 * H, -H, tol, max_width=width)
        H *= 2.0
    raise DivergentIntegral("tail certificate did not close after 60 window doublings")


def _check_gauge(p: CurvaturePoint, delta):
    if delta is not None and p.beta != 0.0:
        raise NonRigidTruncation("truncated integral needs the rigid gauge beta = 0")


def density_diagonal(p: CurvaturePoint, q: int, t: float, delta: float | None = None) -> FormEndomorphism:
    """(2*pi)^-(n+1) times the eta-integral of the density integrand.

    Over the whole line when delta is None (requires two-sided decay,
    otherwise DivergentIntegral); over [-delta, delta] otherwise, which
    converges unconditionally but demands the rigid gauge beta = 0
    (NonRigidTruncation if violated).  Full-line integration grows a
    window [-H, H] until the analytic tail certificate drops below 1e-12
    of the accumulated integral.
    """
    _check_gauge(p, delta)
    b = basis(p.n, q)

    def f(etas):
        return np.stack([_eta_node(p, q, t, e)[3] for e in etas])

    total = _eta_integral(p, q, t, delta, f, 1e-9)
    return FormEndomorphism(b, total * (2.0 * math.pi) ** (-(p.n + 1)))


def _density_trace(p: CurvaturePoint, q: int, t: float, delta: float | None = None) -> float:
    """The trace of density_diagonal(p, q, t, delta), from the pencil eigenvalues alone.

    The integrand is _trace_scalars of the nodes' Bose values, and the
    tail certificate counts C(n, q) times; heat_trace derives both.
    delta and the gauge are checked as in density_diagonal.
    """
    _check_gauge(p, delta)

    def f(etas):
        return _trace_scalars(*bose_pair(eigvals_hermitian(_pencil(p, etas)), t), q)

    total = _eta_integral(p, q, t, delta, f, 1e-9, cert_scale=math.comb(p.n, q))
    # at delta == 0 the driver returns the zero density matrix, whose trace is 0
    tr = float(np.trace(total).real) if np.ndim(total) else float(total)
    return tr * (2.0 * math.pi) ** (-(p.n + 1))


def _signature_at(R: np.ndarray, L: np.ndarray, eta: float):
    """(negatives, positives, zeros) among the eigenvalues of M(eta) = R - 2*eta*L.

    Eigenvalues with |mu| <= 1e-10 * ||M||_F count as zeros.
    """
    M = R - 2.0 * eta * L
    mu = eig_hermitian(M).eigenvalues
    dead = 1e-10 * frobenius_norm(M)
    neg = int(np.sum(mu < -dead))
    pos = int(np.sum(mu > dead))
    return neg, pos, len(mu) - neg - pos
