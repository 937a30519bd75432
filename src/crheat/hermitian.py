"""Dense complex Hermitian linear algebra for small matrices (n <= 16).

Provides the validated Hermitian form, the eigensolver (LAPACK through
numpy.linalg.eigh), spectrally defined matrix functions with
removable-singularity guards, determinant polynomials of the pencil
R - 2*eta*L, and their real roots.  Everything here is pure and safe to
call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NonFinite,
    NonHermitian,
    UnknownFunction,
    ZeroPolynomial,
)

HERMITIAN_ATOL = 1e-10
_SERIES_CUTOFF = 1e-4


class HermitianForm:
    """An n x n complex Hermitian matrix.

    Entries must be finite (NonFinite otherwise).  They are checked
    against the conjugate-transpose to absolute tolerance 1e-10 and then
    symmetrized, so downstream code always sees an exactly Hermitian
    array.  The stored matrix is read-only.
    """

    __slots__ = ("n", "mat")

    def __init__(self, entries):
        a = np.asarray(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise NonFinite("matrix has a NaN or infinite entry")
        if np.max(np.abs(a - a.conj().T)) > HERMITIAN_ATOL:
            raise NonHermitian(
                "matrix deviates from Hermitian symmetry by more than 1e-10"
            )
        m = (a + a.conj().T) / 2.0
        m.flags.writeable = False
        self.n = a.shape[0]
        self.mat = m

    def __repr__(self):
        return f"HermitianForm(n={self.n})"


def as_hermitian(H) -> np.ndarray:
    """Coerce an array-like or HermitianForm to a validated Hermitian ndarray."""
    if isinstance(H, HermitianForm):
        return H.mat
    return HermitianForm(H).mat


@dataclass(frozen=True)
class EigenSystem:
    """Ascending real eigenvalues and a unitary matrix of column eigenvectors."""

    eigenvalues: np.ndarray
    unitary: np.ndarray


def eig_hermitian(H) -> EigenSystem:
    """Eigendecomposition of a validated Hermitian matrix by LAPACK (eigh).

    Returns ascending eigenvalues and orthonormal column eigenvectors as
    read-only arrays.  A LAPACK convergence failure raises NoConvergence.
    """
    A = as_hermitian(H)
    if A.shape[0] == 1:
        # The pair LAPACK returns, without the cost of eigh's Python wrapper;
        # the n = 1 kernels evaluate it tens of thousands of times.
        vals, vecs = A.real.diagonal().copy(), np.ones((1, 1), dtype=complex)
    else:
        try:
            vals, vecs = np.linalg.eigh(A)
        except np.linalg.LinAlgError as e:
            raise NoConvergence(f"LAPACK eigh failed: {e}") from None
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return EigenSystem(vals, vecs)


# ---------------------------------------------------------------------------
# Guarded scalar functions.  All are evaluated at x = t*mu and carry a
# removable singularity at x = 0; below |x| = 1e-4 they switch to series
# through order 6 to avoid cancellation.  Every branch is computed on the
# whole array with floating-point warnings silenced, then np.where picks
# the branch each element needs; the branches not picked may overflow or
# divide by zero without effect.


def _bose_of_x(x: np.ndarray) -> np.ndarray:
    """x / (1 - exp(-x)), stable on the whole real line."""
    with np.errstate(over="ignore", invalid="ignore"):
        # Bernoulli series: 1 + x/2 + x^2/12 - x^4/720 + x^6/30240
        series = 1.0 + x / 2.0 + x**2 / 12.0 - x**4 / 720.0 + x**6 / 30240.0
        pos = x / (-np.expm1(-x))
        neg = x * np.exp(x) / np.expm1(x)
    return np.where(np.abs(x) < _SERIES_CUTOFF, series, np.where(x > 0, pos, neg))


def _as_float_array(mu):
    a = np.asarray(mu, dtype=float)
    return a, a.ndim == 0


def bose_ratio(mu, t: float):
    """mu / (1 - exp(-t*mu)) with the mu = 0 limit 1/t."""
    x, scalar = _as_float_array(mu)
    val = _bose_of_x(t * x) / t
    return float(val) if scalar else val


def tanh_ratio(mu, t: float):
    """(mu/2) / tanh(t*mu/2) with the mu = 0 limit 1/t.  Even in mu."""
    x, scalar = _as_float_array(mu)
    u = t * x / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        series = 1.0 + u**2 / 3.0 - u**4 / 45.0 + 2.0 * u**6 / 945.0
        big = u / np.tanh(u)
    val = np.where(np.abs(u) < _SERIES_CUTOFF / 2.0, series, big) / t
    return float(val) if scalar else val


def sinh_ratio(mu, t: float):
    """(mu/2) exp(t*mu/2) / sinh(t*mu/2) with the mu = 0 limit 1/t.

    Algebraically identical to bose_ratio: multiplying numerator and
    denominator by exp(-t*mu/2) gives mu / (1 - exp(-t*mu)).  Kept as a
    separate identifier because both spellings appear in kernel formulas.
    """
    return bose_ratio(mu, t)


def exp_neg(mu, t: float):
    """exp(-t*mu)."""
    x, scalar = _as_float_array(mu)
    with np.errstate(over="ignore"):
        val = np.exp(-t * x)
    return float(val) if scalar else val


GUARDED_FUNCTIONS = {
    "exp_neg": exp_neg,
    "bose_ratio": bose_ratio,
    "tanh_ratio": tanh_ratio,
    "sinh_ratio": sinh_ratio,
}


def matfun(H, f: str, t: float) -> np.ndarray:
    """Apply a guarded scalar function to a Hermitian matrix spectrally.

    f is one of "exp_neg", "bose_ratio", "tanh_ratio", "sinh_ratio";
    the result is U diag(f(mu_j)) U^H.
    """
    if f not in GUARDED_FUNCTIONS:
        raise UnknownFunction(f"unknown scalar function id {f!r}")
    es = eig_hermitian(H)
    vals = GUARDED_FUNCTIONS[f](es.eigenvalues, t)
    return (es.unitary * vals) @ es.unitary.conj().T


# ---------------------------------------------------------------------------
# Pencil determinant polynomial and its real roots.


def pencil_det_poly(R, L) -> list[float]:
    """Real coefficients c_0..c_deg of p(eta) = det(R - 2*eta*L).

    The determinant is multilinear in rows, so the eta^k coefficient is
    (-2)^k times the sum of determinants over all ways of taking k rows
    from L and the rest from R.  At desk scale (2^n determinants) this is
    exact up to LU roundoff, with no interpolation step.  Coefficients
    below 1e-12 of the largest are clamped and trailing zeros trimmed, so
    the degree equals n exactly when det L is nonzero.
    """
    Rm = as_hermitian(R)
    Lm = as_hermitian(L)
    if Rm.shape != Lm.shape:
        raise DimensionMismatch(
            f"pencil operands disagree: {Rm.shape[0]} vs {Lm.shape[0]}"
        )
    n = Rm.shape[0]
    sums = np.zeros(n + 1, dtype=complex)
    rows = np.empty_like(Rm)
    for mask in range(1 << n):
        k = 0
        for i in range(n):
            if mask >> i & 1:
                rows[i] = Lm[i]
                k += 1
            else:
                rows[i] = Rm[i]
        sums[k] += np.linalg.det(rows)
    coeffs = sums * (-2.0) ** np.arange(n + 1)
    cmax = float(np.max(np.abs(coeffs)))
    if cmax > 0 and float(np.max(np.abs(coeffs.imag))) > 1e-9 * max(1.0, cmax):
        raise RuntimeError("pencil expansion produced complex coefficients")
    out = coeffs.real.copy()
    if cmax > 0:
        out[np.abs(out) < 1e-12 * cmax] = 0.0
    trimmed = list(out)
    while len(trimmed) > 1 and trimmed[-1] == 0.0:
        trimmed.pop()
    return [float(c) for c in trimmed]


def _polyval(coeffs: np.ndarray, x: float) -> float:
    return float(np.polynomial.polynomial.polyval(x, coeffs))


def pencil_real_roots(p) -> list[float]:
    """Sorted real roots of a polynomial given as c_0..c_n, multiplicities collapsed.

    Companion-matrix candidates (numpy polyroots) are polished by bisection,
    with a damped Newton fallback for even-multiplicity roots where no sign
    change brackets the candidate.
    """
    coeffs = np.asarray(p, dtype=float)
    if coeffs.size == 0 or not np.any(coeffs != 0.0):
        raise ZeroPolynomial("polynomial is identically zero")
    cmax = float(np.max(np.abs(coeffs)))
    deg = int(np.max(np.nonzero(coeffs)[0]))
    if deg == 0:
        return []
    work = coeffs[: deg + 1]
    candidates = np.polynomial.polynomial.polyroots(work)
    target = 1e-12 * cmax
    roots = []
    for z in candidates:
        # even-multiplicity roots surface as conjugate pairs split by up to
        # ~1e-8; filter loosely on imag, then strictly on the residual
        if abs(z.imag) >= 1e-5 * (1.0 + abs(z.real)):
            continue
        r = float(z.real)
        r = _polish_root(work, r, target)
        scale = cmax * max(1.0, abs(r)) ** deg
        if abs(_polyval(work, r)) > 1e-9 * scale:
            continue
        roots.append(r)
    roots.sort()
    merged: list[float] = []
    for r in roots:
        if merged and abs(r - merged[-1]) <= 1e-7 * (1.0 + abs(r)):
            continue
        merged.append(r)
    return merged


def _polish_root(coeffs: np.ndarray, r0: float, target: float) -> float:
    if abs(_polyval(coeffs, r0)) < target:
        return r0
    h = 1e-7 * (1.0 + abs(r0))
    a, b = r0 - h, r0 + h
    for _ in range(40):
        fa, fb = _polyval(coeffs, a), _polyval(coeffs, b)
        if fa == 0.0:
            return a
        if fb == 0.0:
            return b
        if (fa < 0) != (fb < 0):
            break
        h *= 4.0
        a, b = r0 - h, r0 + h
    else:
        return _newton_root(coeffs, r0, target)
    fa = _polyval(coeffs, a)
    best_x, best_f = r0, abs(_polyval(coeffs, r0))
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = _polyval(coeffs, m)
        if abs(fm) < best_f:
            best_x, best_f = m, abs(fm)
        if fm == 0.0 or (b - a) <= 1e-16 * (1.0 + abs(m)):
            return m if abs(fm) <= best_f else best_x
        if (fa < 0) != (fm < 0):
            b = m
        else:
            a, fa = m, fm
    return best_x


def _newton_root(coeffs: np.ndarray, r0: float, target: float) -> float:
    dcoeffs = np.polynomial.polynomial.polyder(coeffs)
    x = r0
    best_x, best_f = x, abs(_polyval(coeffs, x))
    for _ in range(200):
        fx = _polyval(coeffs, x)
        if abs(fx) < best_f:
            best_x, best_f = x, abs(fx)
        if abs(fx) < target:
            return x
        dfx = _polyval(dcoeffs, x)
        if dfx == 0.0:
            break
        step = fx / dfx
        x = x - step
        if abs(step) < 1e-17 * (1.0 + abs(x)):
            break
    return best_x


@dataclass(frozen=True)
class EtaPencil:
    """The family M(eta) = R - 2*eta*L together with its determinant polynomial."""

    R: np.ndarray
    L: np.ndarray
    det_poly: tuple

    def at(self, eta: float) -> np.ndarray:
        return self.R - (2.0 * eta) * self.L


def make_pencil(R, L) -> EtaPencil:
    Rm = as_hermitian(R)
    Lm = as_hermitian(L)
    return EtaPencil(Rm, Lm, tuple(pencil_det_poly(Rm, Lm)))
