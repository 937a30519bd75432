"""Dense complex Hermitian linear algebra for small matrices (n <= 16).

Provides the validated Hermitian form, the eigensolvers (LAPACK through
numpy.linalg.eigh and eigvalsh, at every n and stack shape), scalar
functions of the eigenvalues with removable-singularity guards, the
determinant polynomial of the pencil R - 2*eta*L, and the real roots of
a polynomial (companion matrix, then bisection).  numpy is the only
dependency.  Everything here is pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    NoConvergence,
    NonFinite,
    NonHermitian,
    ZeroPolynomial,
)

HERMITIAN_ATOL = 1e-10
_SERIES_CUTOFF = 1e-4


class HermitianForm:
    """An n x n complex Hermitian matrix.

    Entries must be finite (NonFinite otherwise).  They are checked
    against the conjugate-transpose to absolute tolerance 1e-10 and then
    symmetrized, so downstream code always sees an exactly Hermitian
    array.  The stored matrix is read-only.  A HermitianForm passed in is
    returned as it is, so every function that validates its matrices by
    HermitianForm(...) takes the library's forms too.
    """

    __slots__ = ("n", "mat")

    def __new__(cls, entries):
        if isinstance(entries, HermitianForm):
            return entries
        a = np.asarray(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise NonFinite("matrix has a NaN or infinite entry")
        with np.errstate(over="ignore"):
            # a difference that overflows is inf, which fails the test
            asymmetry = np.max(np.abs(a - a.conj().T))
        if asymmetry > HERMITIAN_ATOL:
            raise NonHermitian(
                "matrix deviates from Hermitian symmetry by more than 1e-10"
            )
        # halves first: a + a^H overflows for entries above ~9e307
        return cls.trusted(a / 2.0 + a.conj().T / 2.0)

    @classmethod
    def trusted(cls, mat: np.ndarray) -> "HermitianForm":
        """Wrap a finite square array that is exactly Hermitian, without checks.

        For arrays the library builds from validated forms, such as the
        pencil C - 2*eta*L of two symmetrized forms (conjugation and real
        scaling keep exact symmetry) or the endomorphism omega of one
        (see exterior.exp_endo), where validating again would only return
        the same array.  mat may carry leading stack axes, as a
        stack of pencils at several eta does; n is its last dimension.
        """
        form = object.__new__(cls)
        mat.flags.writeable = False
        form.n = mat.shape[-1]
        form.mat = mat
        return form

    def __repr__(self):
        return f"HermitianForm(n={self.n})"


def frobenius_norm(a) -> float:
    """||a||_F (the 2-norm of a vector), NonFinite when it overflows."""
    with np.errstate(over="ignore"):
        v = float(np.linalg.norm(a))
    if not math.isfinite(v):
        raise NonFinite("matrix norm overflows: entries too large")
    return v


@dataclass(frozen=True)
class EigenSystem:
    """Ascending real eigenvalues and a unitary matrix of column eigenvectors."""

    eigenvalues: np.ndarray
    unitary: np.ndarray


def eig_hermitian(H) -> EigenSystem:
    """Eigendecomposition of a validated Hermitian matrix by LAPACK (eigh).

    Returns ascending eigenvalues and orthonormal column eigenvectors as
    read-only arrays.  A trusted form (HermitianForm.trusted) may stack
    matrices along leading axes, which the results then share, as with
    numpy's eigh.  At n = 1 LAPACK returns the real diagonal and
    eigenvectors of ones, bit for bit.  A LAPACK convergence failure
    raises NoConvergence.
    """
    try:
        vals, vecs = np.linalg.eigh(HermitianForm(H).mat)
    except np.linalg.LinAlgError as e:
        raise NoConvergence(f"LAPACK eigh failed: {e}") from None
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return EigenSystem(vals, vecs)


def eigvals_hermitian(H) -> np.ndarray:
    """The eigenvalues of eig_hermitian(H) without its eigenvectors (LAPACK eigvalsh).

    Ascending and read-only, with the same stacks and NoConvergence as
    eig_hermitian.  The values can differ from eig_hermitian's in the
    last bits, since LAPACK takes another path when it needs no
    eigenvectors.
    """
    try:
        vals = np.linalg.eigvalsh(HermitianForm(H).mat)
    except np.linalg.LinAlgError as e:
        raise NoConvergence(f"LAPACK eigvalsh failed: {e}") from None
    vals.flags.writeable = False
    return vals


# ---------------------------------------------------------------------------
# Guarded scalar functions.  All are evaluated at x = t*mu and carry a
# removable singularity at x = 0; below |x| = 1e-4 they switch to series
# through order 6 to avoid cancellation.  Branches are computed on the
# whole array and np.where picks the branch each element needs; where a
# branch not picked may overflow or divide by zero, floating-point
# warnings are silenced.


def _bose_pair_of_x(x: np.ndarray):
    """(x / (1 - exp(-x)), -x / (1 - exp(x))), stable on the whole real line.

    Both come from one expm1 and one exp at -|x|: the growing member is
    |x| / (1 - exp(-|x|)) and the decaying one |x| exp(-|x|) / (1 - exp(-|x|)),
    so neither exponential can overflow.  The closed forms are taken at
    max(|x|, 1e-4), which leaves every element they serve unchanged and
    keeps 0/0 out; the series is only built when some element needs it.
    """
    s = np.abs(x)
    small = s < _SERIES_CUTOFF
    s = np.maximum(s, _SERIES_CUTOFF)
    neg_s = -s
    em1 = np.expm1(neg_s)
    grow = neg_s / em1
    decay = neg_s * np.exp(neg_s) / em1
    up = x > 0
    plus, minus = np.where(up, grow, decay), np.where(up, decay, grow)
    if small.any():
        with np.errstate(over="ignore", invalid="ignore"):
            # Bernoulli series: 1 +- x/2 + x^2/12 - x^4/720 + x^6/30240
            half, c2, c4, c6 = x / 2.0, x**2 / 12.0, x**4 / 720.0, x**6 / 30240.0
            plus = np.where(small, 1.0 + half + c2 - c4 + c6, plus)
            minus = np.where(small, 1.0 - half + c2 - c4 + c6, minus)
    return plus, minus


def _as_float_array(mu):
    a = np.asarray(mu, dtype=float)
    return a, a.ndim == 0


def _check_time(t: float):
    if not t > 0:
        raise InvalidArgument("t must be positive")


def _scalar_args(mu, t: float):
    """mu as a float array and whether it was a scalar, for finite mu and t > 0."""
    x, scalar = _as_float_array(mu)
    if not (math.isfinite(t) and np.isfinite(x).all()):
        raise NonFinite("mu and t must be finite")
    _check_time(t)
    return x, scalar


def bose_pair(mu, t: float):
    """(bose_ratio(mu, t), bose_ratio(-mu, t)) from one pass over t*mu.

    The node evaluator's form: mu and t are not checked.
    """
    x, scalar = _as_float_array(mu)
    plus, minus = _bose_pair_of_x(t * x)
    plus, minus = plus / t, minus / t
    return (float(plus), float(minus)) if scalar else (plus, minus)


def bose_ratio(mu, t: float):
    """mu / (1 - exp(-t*mu)) with the mu = 0 limit 1/t.

    NonFinite for a NaN or infinite mu or t, InvalidArgument for t <= 0.
    """
    _scalar_args(mu, t)
    return bose_pair(mu, t)[0]


def tanh_ratio(mu, t: float):
    """(mu/2) / tanh(t*mu/2) with the mu = 0 limit 1/t.  Even in mu.

    Arguments are checked as in bose_ratio.
    """
    x, scalar = _scalar_args(mu, t)
    u = t * x / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        series = 1.0 + u**2 / 3.0 - u**4 / 45.0 + 2.0 * u**6 / 945.0
        big = u / np.tanh(u)
    val = np.where(np.abs(u) < _SERIES_CUTOFF / 2.0, series, big) / t
    return float(val) if scalar else val


# ---------------------------------------------------------------------------
# Pencil determinant polynomial and its real roots.


def pencil_det_poly(R, L) -> list[float]:
    """Real coefficients c_0..c_deg of p(eta) = det(R - 2*eta*L).

    The determinant is multilinear in rows, so the eta^k coefficient is
    (-2)^k times the sum of determinants over all ways of taking k rows
    from L and the rest from R.  Mask m takes row i from L where bit i of
    m is set, and the masks run in increasing order, each determinant
    (LAPACK LU) added into the sum of its k = popcount(m) as it comes.
    From m - 1 to m only the trailing bits flip: the lowest set bit of m
    turns its row to L and the bits below it turn theirs back to R, so
    a mask rewrites two rows on average, not n.  The cost is 2^n
    determinants of n x n matrices, with no interpolation step, so n
    above 16 raises InvalidArgument before any is taken.  A coefficient
    is zeroed only within its own rounding bound (see _log_rounding_floor),
    and trailing zeros are trimmed, so the degree equals n exactly when
    det L is nonzero, at any ratio of the scales of R and L.  A
    coefficient too large to represent raises NonFinite.  R and L are
    validated as Hermitian, except a HermitianForm, which already is.
    """
    Rm = HermitianForm(R).mat
    Lm = HermitianForm(L).mat
    if Rm.shape != Lm.shape:
        raise DimensionMismatch(
            f"pencil operands disagree: {Rm.shape[0]} vs {Lm.shape[0]}"
        )
    n = Rm.shape[0]
    if n > 16:
        raise InvalidArgument(f"pencil determinant at n={n} needs 2^{n} determinants; n <= 16 is supported")
    rows = Rm.copy()
    sums = [0j] * (n + 1)
    # entries near the largest double overflow here, which is checked below
    with np.errstate(over="ignore", invalid="ignore"):
        sums[0] += np.linalg.det(rows)
        for mask in range(1, 1 << n):
            i = (mask & -mask).bit_length() - 1  # the lowest set bit
            rows[i] = Lm[i]
            if i:
                rows[:i] = Rm[:i]
            sums[mask.bit_count()] += np.linalg.det(rows)
        coeffs = np.array(sums) * (-2.0) ** np.arange(n + 1)
    if not np.isfinite(coeffs).all():
        raise NonFinite("pencil determinant polynomial overflows: entries too large")
    cmax = float(np.max(np.abs(coeffs)))
    if cmax > 0 and float(np.max(np.abs(coeffs.imag))) > 1e-9 * max(1.0, cmax):
        raise NonHermitian("pencil expansion produced complex coefficients")
    floor = _log_rounding_floor(Rm, Lm)
    trimmed = [0.0 if c == 0.0 or math.log(abs(c)) <= f else c for c, f in zip(coeffs.real.tolist(), floor)]
    while len(trimmed) > 1 and trimmed[-1] == 0.0:
        trimmed.pop()
    return trimmed


def _log_rounding_floor(R: np.ndarray, L: np.ndarray) -> list[float]:
    """log of 64 n eps 2^k E_k for k = 0..n: the rounding bound of pencil_det_poly's c_k.

    By Hadamard's inequality a determinant is at most the product of its
    rows' norms, so with r_i and l_i the row norms of R and L, the
    determinants summed into c_k add up to at most E_k, the x^k
    coefficient of prod_i (r_i + x l_i), and |c_k| <= 2^k E_k.  The norms
    are taken of R and L divided by s, their largest real or imaginary
    part in modulus, and s^n enters as n log s, so no scale overflows.
    A zero E_k gives -inf.
    """
    n = R.shape[0]
    parts = np.stack((R, L)).view(np.float64)  # real and imaginary parts, row by row
    s = float(np.abs(parts).max())
    if s == 0.0:
        return [-math.inf] * (n + 1)
    parts = parts / s
    r_norms, l_norms = np.sqrt((parts * parts).sum(axis=2)).tolist()
    e = [1.0] + [0.0] * n
    for r, l in zip(r_norms, l_norms):
        for k in range(n, 0, -1):
            e[k] = e[k] * r + e[k - 1] * l
        e[0] *= r
    head = math.log(64 * n * math.ulp(1.0)) + n * math.log(s)
    return [head + k * math.log(2.0) + math.log(v) if v > 0.0 else -math.inf for k, v in enumerate(e)]


def _polyval(coeffs: np.ndarray, x: float) -> float:
    return float(np.polynomial.polynomial.polyval(x, coeffs))


def pencil_real_roots(p) -> list[float]:
    """Sorted real roots of a polynomial given as c_0..c_n, multiplicities collapsed.

    Companion-matrix candidates (numpy polyroots) with a small imaginary
    part are polished by bisection on the first bracket
    r +- 4^k 1e-7 (1 + |r|), k = 0..39, with a sign change.  A candidate
    with none, as at an even-multiplicity root, stays as numpy gives it.  A candidate
    is kept when |p| there is within 1e-9 max|c_k| max(1, |r|)^deg.  Two
    adjacent roots r < r' merge into r
    when r' - r <= 1e-7 (1 + |r'|), or when p at their midpoint is within
    its rounding bound of 0 (see _sign_unknown), so that no interval of
    unknown sign separates two roots.  When the companion matrix of p
    overflows (c_k / c_deg past the float range), the roots are found as
    2^e times those of p(2^e x), scaled so its companion is
    representable (see _root_scaling); every other polynomial is taken
    as given.  A NaN or infinite coefficient raises NonFinite, and so
    does a polynomial whose roots are too large, or too far apart, to be
    represented, or whose value at a real candidate overflows.
    """
    coeffs = np.asarray(p, dtype=float)
    if not np.isfinite(coeffs).all():
        raise NonFinite("polynomial coefficients must be finite")
    if coeffs.size == 0 or not np.any(coeffs != 0.0):
        raise ZeroPolynomial("polynomial is identically zero")
    deg = int(np.max(np.nonzero(coeffs)[0]))
    if deg == 0:
        return []
    work = coeffs[: deg + 1]
    e = 0
    with np.errstate(over="ignore"):
        if not np.isfinite(work[:-1] / work[-1]).all():
            e, work = _root_scaling(work)
    cmax = float(np.max(np.abs(work)))
    target = 1e-12 * cmax
    roots = []
    # overflow in a value far out leaves a non-finite residual, which
    # raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for z in np.polynomial.polynomial.polyroots(work):
            # even-multiplicity roots surface as conjugate pairs split by up to
            # ~1e-8; filter loosely on imag, then strictly on the residual
            if abs(z.imag) >= 1e-5 * (1.0 + abs(z.real)):
                continue
            r = _polish_root(work, float(z.real), target)
            residual = abs(_polyval(work, r))
            if not math.isfinite(residual):
                raise NonFinite(f"polynomial value at the root {r!r} is too large to represent")
            if residual > 1e-9 * cmax * np.float64(max(1.0, abs(r))) ** deg:
                continue
            try:
                roots.append((math.ldexp(r, e), r))
            except OverflowError:
                raise NonFinite(f"polynomial root {r!r} * 2**{e} is too large to represent") from None
    roots.sort()
    merged: list[float] = []
    kept = 0.0  # the last merged root, on the scale of work
    for r, rs in roots:
        if merged and (abs(r - merged[-1]) <= 1e-7 * (1.0 + abs(r))
                       or _sign_unknown(work, 0.5 * (kept + rs))):
            continue
        merged.append(r)
        kept = rs
    return merged


def _sign_unknown(coeffs: np.ndarray, x: float) -> bool:
    """Whether Horner's p(x) is within its rounding bound of 0, so its sign is not known.

    The bound is gamma_2d * sum |c_k| |x|^k (Higham, Accuracy and Stability
    of Numerical Algorithms, 5.1), with gamma_m = m u / (1 - m u).  Two
    candidate roots with such a p at their midpoint have no interval of
    known sign between them: a multiple root split by rounding (a triple
    root's candidates lie about eps^(1/3) apart).  A bound that overflows
    tells nothing, and the sign counts as known.
    """
    m = (len(coeffs) - 1) * math.ulp(1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = m / (1.0 - m) * _polyval(np.abs(coeffs), abs(x))
        return math.isfinite(bound) and abs(_polyval(coeffs, x)) <= bound


def _root_scaling(c: np.ndarray):
    """(e, d): the exponent e and the coefficients d of p(2^e x) / (c_deg 2^(e deg)).

    With x_k the frexp exponent of c_k, |c_k / c_deg| < 2^(x_k - x_deg + 1),
    and e is the least integer with 2^(e (deg - k)) at least that bound
    for every nonzero c_k, k < deg.  So no quotient is formed that could
    overflow, |d_k| < 1 below the leading d_deg = 1, the roots of d lie
    within |x| < 2 (Cauchy), and 2^e x are those of p.  A nonzero
    c_k whose d_k falls below the smallest normal float leaves roots too
    far apart for one scale, which raises NonFinite.
    """
    deg = len(c) - 1
    parts = [math.frexp(v) for v in c.tolist()]
    m_lead, x_lead = parts[-1]
    e = max(-((x_lead - x - 1) // (deg - k)) for k, (m, x) in enumerate(parts[:-1]) if m != 0.0)
    d = [math.ldexp(m / m_lead, x - x_lead - e * (deg - k)) for k, (m, x) in enumerate(parts)]
    if any(m != 0.0 and abs(v) < np.finfo(float).tiny for v, (m, _) in zip(d, parts)):
        raise NonFinite("polynomial roots too far apart to represent at one scale")
    return e, np.array(d)


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
        return r0  # no sign change brackets r0: pencil_real_roots' residual filter judges it
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

