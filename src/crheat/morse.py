"""Signature partitions of the eta-line and exact Morse-type integrals.

The pencil determinant p(eta) = det(R - 2*eta*L) changes signature only at
its real roots, so the eta-line splits into cells of constant signature.
On each cell |p| integrates in closed form (polynomial antiderivative with
one sign per cell), giving the Morse-inequality right-hand sides without
quadrature error.  Divergence over unbounded cells is reported as a value,
not an exception: the weak bounds of the truncated theory always exist,
while the untruncated ones need the signature condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import _check_delta, _density_trace, _pencil_roots, y_condition
from .errors import DivergentIntegral, EmptyDescriptor, MixedDimension, NonFinite
from .exterior import check_degree
from .hermitian import HermitianForm, eig_hermitian, frobenius_norm, pencil_det_poly


class _DivergentType:
    """Singleton marker for an infinite Morse integral."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Divergent"

    def __reduce__(self):
        return (_DivergentType, ())


Divergent = _DivergentType()

_FLOAT_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class Cell:
    """Open interval of constant pencil signature; lo/hi may be infinite."""

    lo: float
    hi: float
    negatives: int
    positives: int
    zeros: int

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)


@dataclass(frozen=True)
class EtaPartition:
    breakpoints: tuple
    cells: tuple


@dataclass(frozen=True)
class ManifoldDescriptor:
    """A weighted point cloud standing in for integration over the manifold."""

    name: str
    points: tuple

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise EmptyDescriptor("descriptor has no points")
        dims = {p.n for p in pts}
        if len(dims) != 1:
            raise MixedDimension(f"points of mixed dimension {sorted(dims)}")

    @property
    def n(self) -> int:
        return self.points[0].n


@dataclass(frozen=True)
class MorseReport:
    """Weak bounds, alternating strong sums, and per-degree feasibility.

    per_j_weak[j] is nan when some point's integral diverges at degree j;
    strong_partial_sums[m] is nan when any j <= m is infeasible for the
    strong inequality (divergent, or, without a truncation, the signature
    condition failing at some point).
    """

    per_j_weak: tuple
    strong_partial_sums: tuple
    delta: float | None
    feasibility: tuple


def rx_partition(R, L) -> EtaPartition:
    """Split the eta-line at the pencil roots and record each cell's signature.

    An unbounded cell is probed span + |root| past its end root, with
    span = 1 + ||R||_F / max(1, ||L||_F), so a root far larger than span
    cannot absorb it and leave the probe on the root; the probe is held
    to the float range.  The norms are taken of R / s and L / s, with s
    the largest real or imaginary part of R and L in modulus, so entries
    near the float limit do not overflow them.  Raises
    IdenticallyDegeneratePencil when det(R - 2*eta*L) vanishes for every
    eta.
    """
    return _partition(HermitianForm(R), HermitianForm(L))


def _partition(R: HermitianForm, L: HermitianForm) -> EtaPartition:
    """rx_partition of two validated forms, which are not validated again."""
    roots = _pencil_roots(R, L)
    Rm, Lm = R.mat, L.mat
    s = float(np.max(np.abs(np.stack((Rm, Lm)).view(np.float64))))
    r_norm, l_norm = frobenius_norm(Rm / s), frobenius_norm(Lm / s)
    span = 1.0 + (r_norm / l_norm if s * l_norm >= 1.0 else r_norm * s)
    cells = []
    if not roots:
        neg, pos, zero = _signature_at(Rm, Lm, 0.0)
        cells.append(Cell(-math.inf, math.inf, neg, pos, zero))
        return EtaPartition((), tuple(cells))
    edges = [-math.inf] + list(roots) + [math.inf]
    for lo, hi in zip(edges[:-1], edges[1:]):
        if math.isinf(lo):
            probe = max(hi - span - abs(hi), -_FLOAT_MAX)
        elif math.isinf(hi):
            probe = min(lo + span + abs(lo), _FLOAT_MAX)
        else:
            probe = 0.5 * (lo + hi)
        neg, pos, zero = _signature_at(Rm, Lm, probe)
        cells.append(Cell(lo, hi, neg, pos, zero))
    return EtaPartition(tuple(roots), tuple(cells))


def _signature_at(R: np.ndarray, L: np.ndarray, eta: float):
    """(negatives, positives, zeros) among the eigenvalues of M(eta) = R - 2*eta*L.

    Eigenvalues with |mu| <= 1e-10 * ||M||_F count as zeros, with ||M||_F
    taken as the 2-norm of the eigenvalues (math.hypot, which scales).
    An M, or a norm, too large to represent raises NonFinite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        M = R - 2.0 * eta * L
    if not np.isfinite(M).all():
        raise NonFinite(f"pencil overflows at the probe eta={eta!r}")
    mu = eig_hermitian(M).eigenvalues
    dead = 1e-10 * math.hypot(*mu.tolist())
    if not math.isfinite(dead):
        raise NonFinite(f"pencil eigenvalues overflow at the probe eta={eta!r}")
    neg = int(np.sum(mu < -dead))
    pos = int(np.sum(mu > dead))
    return neg, pos, len(mu) - neg - pos


def _antiderivative(coeffs) -> np.ndarray:
    c = np.asarray(coeffs, dtype=float)
    return np.concatenate([[0.0], c / np.arange(1, len(c) + 1)])


def morse_local(R, L, j: int, delta: float | None = None):
    """Exact integral of |det(R - 2*eta*L)| over the signature-j region.

    The region is intersected with [-delta, delta] when delta is given.
    Returns the Divergent sentinel when some signature-j cell is unbounded
    and no truncation applies (the polynomial is nonzero there, so the
    integral is infinite).  An identically zero pencil has no signature
    partition and raises IdenticallyDegeneratePencil.  A negative delta
    raises InvalidArgument, a non-finite one NonFinite, and so does an
    integral too large to represent (a huge delta or huge forms).
    """
    Rm = np.asarray(R, dtype=complex)
    check_degree(Rm.shape[0], j, "j")
    _check_delta(delta)
    return _morse_local(HermitianForm(Rm), HermitianForm(L), j, delta)


def _morse_local(R: HermitianForm, L: HermitianForm, j: int, delta: float | None):
    """morse_local of two validated forms, with j and delta checked."""
    coeffs = pencil_det_poly(R, L)
    part = _partition(R, L)
    anti = _antiderivative(coeffs)
    total = 0.0
    for cell in part.cells:
        if cell.negatives != j:
            continue
        lo, hi = cell.lo, cell.hi
        if delta is not None:
            lo, hi = max(lo, -delta), min(hi, delta)
            if lo >= hi:
                continue
        elif not cell.bounded:
            return Divergent
        mid = 0.5 * (lo + hi)
        # an overflow leaves the total non-finite, which is checked below
        with np.errstate(over="ignore", invalid="ignore"):
            sign = 1.0 if np.polynomial.polynomial.polyval(mid, coeffs) >= 0 else -1.0
            total += sign * float(
                np.polynomial.polynomial.polyval(hi, anti)
                - np.polynomial.polynomial.polyval(lo, anti)
            )
    if not math.isfinite(total):
        raise NonFinite("Morse cell integral overflows: truncate to a smaller delta")
    return total


def morse_global(d: ManifoldDescriptor, q: int, delta: float | None = None) -> MorseReport:
    """Weighted Morse bounds over a descriptor, for every degree j = 0..q.

    Weak bound at j: (2*pi)^-(n+1) * sum_i w_i * morse_local(R_i, L_i, j).
    The strong alternating sum at level m is populated only when every
    j <= m is finite and, without a truncation, the signature condition
    holds at every point for every j <= m (the untruncated strong
    inequalities assume it).  delta is checked as in morse_local.
    """
    n = d.n
    check_degree(n, q)
    _check_delta(delta)
    norm = (2.0 * math.pi) ** (-(n + 1))
    # one Levi spectrum per point serves the signature condition at every j
    levi_spectra = [eig_hermitian(p.levi).eigenvalues for p in d.points] if delta is None else []
    weak = []
    feasible = []
    y_ok = []
    for j in range(q + 1):
        acc = 0.0
        finite = True
        for p in d.points:
            v = _morse_local(p.curvature, p.levi, j, delta)
            if v is Divergent:
                finite = False
                break
            acc += p.weight * v
        if not math.isfinite(acc):
            raise NonFinite("weighted Morse sum overflows")
        weak.append(norm * acc if finite else math.nan)
        feasible.append(finite)
        y_ok.append(all(y_condition(lam, j) for lam in levi_spectra))
    strong = []
    for m in range(q + 1):
        usable = all(feasible[: m + 1]) and all(y_ok[: m + 1])
        if usable:
            strong.append(sum((-1.0) ** (m - j) * weak[j] for j in range(m + 1)))
        else:
            strong.append(math.nan)
    return MorseReport(tuple(weak), tuple(strong), delta, tuple(feasible))


def heat_trace(d: ManifoldDescriptor, q: int, t: float, delta: float | None = None) -> list:
    """Weighted heat-trace comparators sum_i w_i tr density_diagonal(p_i, j, t).

    One entry per j = 0..q.  A degree whose integral diverges at some point
    yields the Divergent sentinel; only if every degree diverges is the
    DivergentIntegral propagated.  delta and the gauge are checked as in
    density_diagonal.

    Each trace is integrated on its own, from the pencil eigenvalues
    alone.  At a node with pencil eigenvalues mu_1..mu_n, the trace of the
    degree-j integrand is the sum over |J| = j of the component scalars
    prod_{i in J} bose(-mu_i, t) * prod_{i not in J} bose(mu_i, t), since
    the exterior power of the unitary eigenbasis is unitary.  That sum is
    e_j, the x^j coefficient of prod_i (bose(mu_i, t) + x * bose(-mu_i, t)),
    which the recurrence e_k <- e_k * bose(mu_i) + e_{k-1} * bose(-mu_i)
    gives in O(n j) products of positive numbers.  The trace is real by
    construction.  On the full line the tail certificate bounds each of
    the C(n, j) component scalars, so the window closes once C(n, j)
    times the certificate drops below 1e-12 of the accumulated trace.
    """
    check_degree(d.n, q)
    out = []
    last_error = None
    for j in range(q + 1):
        acc = 0.0
        entry = None
        for p in d.points:
            try:
                tr = _density_trace(p, j, t, delta)
            except DivergentIntegral as exc:
                entry = Divergent
                last_error = exc
                break
            acc += p.weight * tr
        out.append(acc if entry is None else Divergent)
    if all(v is Divergent for v in out):
        raise DivergentIntegral(
            "every degree diverges without truncation", direction=last_error.direction
        )
    return out
