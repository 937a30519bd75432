"""Closed-form model heat kernels: Mehler's formula and its Heisenberg lift.

Real 2n-vectors x pair with complex n-vectors via z_j = x_{2j-1} + i*x_{2j}
(1-based), and all quadratic forms are taken in the model metric where
<dx_j | dx_k> = 2*delta_jk, so <x|y> = 2*sum x_j y_j = 2*Re(w^H z).  The
kernel of the fiberwise operator at frequency eta is a Mehler-type Gaussian
driven by the pencil M(eta); integrating it against the oscillatory factor
exp(i*(theta_x - theta_y)*eta) produces the Heisenberg-group heat kernel.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .density import (
    CurvaturePoint,
    _check_delta,
    _eta_integral,
    _eta_node,
    _eta_nodes,
    _finite_node,
    _pencil,
    _two_sided_decay,
)
from .errors import InvalidArgument, NonFinite
from .exterior import FormEndomorphism, basis
from .hermitian import (
    HermitianForm,
    _check_time,
    as_hermitian,
    bose_pair,
    eig_hermitian,
    tanh_ratio,
)


@dataclass(frozen=True)
class HeisenbergPoint:
    """A point (z, theta) of the group C^n x R."""

    z: tuple
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(complex(v) for v in self.z))
        object.__setattr__(self, "theta", float(self.theta))
        if not (np.isfinite(self.z).all() and math.isfinite(self.theta)):
            raise NonFinite("group point coordinates must be finite")

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


def _split_complex(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != 2 * n:
        raise InvalidArgument(f"expected a flat real vector of length 2n = {2 * n}")
    if not np.isfinite(x).all():
        raise NonFinite("points must be finite")
    return x[0::2] + 1j * x[1::2]


@functools.lru_cache(maxsize=4)
def _mehler_frame(data: bytes, shape: tuple, t: float):
    """What mehler_kernel needs of its matrix at time t, kept for a few (A, t).

    From the complex entries (data, shape) of A: the order n, U^H for the
    eigenvectors U of the validated A, f = tanh_ratio(mu, 2t), the pair
    bose_pair(mu, 2t) and (2*pi)^-n * prod(bose(mu, 2t)), the arrays
    read-only.  A matrix that fails validation raises and is not kept.
    """
    Am = as_hermitian(np.frombuffer(data, dtype=complex).reshape(shape))
    n = Am.shape[0]
    es = eig_hermitian(Am)
    mu = es.eigenvalues
    uh = es.unitary.conj().T
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f = tanh_ratio(mu, 2.0 * t)
        gp, gm = bose_pair(mu, 2.0 * t)
        scale = (2.0 * math.pi) ** (-n) * float(np.prod(gp))
    for a in (uh, f, gp, gm):
        a.flags.writeable = False
    return n, uh, f, gp, gm, scale


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
    exp(-|z-w|^2/(2t))/(4*pi*t) of mass one under dv = 2^n dx.  A value
    that overflows (t near the smallest double, say) raises NonFinite.
    The eigensystem and scalars of the last few (A, t) are memoized (see
    _mehler_frame), so a sweep over x and y at one (A, t) validates and
    diagonalizes A once; the kernel shares no code with boxeta_kernel,
    which it checks.
    """
    _check_time(t)
    a = A.mat if isinstance(A, HermitianForm) else np.asarray(A, dtype=complex)
    n, uh, f, gp, gm, scale = _mehler_frame(a.tobytes(), a.shape, float(t))
    zx, zy = _split_complex(x, n), _split_complex(y, n)
    ze = uh @ zx
    we = uh @ zy
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cross = np.sum(we.conj() * gp * ze) + np.conj(np.sum(we.conj() * gm * ze))
        expo = -np.sum(f * (np.abs(ze) ** 2 + np.abs(we) ** 2)) + cross
        value = scale * complex(np.exp(expo))
    if not cmath.isfinite(value):
        raise NonFinite(f"Mehler kernel overflows at t={t!r}")
    return value


# Node-point pairs per Gaussian sub-block of _fiber_values.  A sub-block's
# temporaries have about this many entries (times 2n^2, the exponent's
# products), so peak memory stays near the size of the output however
# many points a round serves, while a one-point kernel assembles whole
# node stacks at once.
_BLOCK_PAIRS = 4096

# Entries per node stack of _fiber_values, counting dim^2 * q^2 per node
# (at q = 0, its n x n eigenvectors).  That bounds the exterior power's
# temporaries, a stack's largest, to 1 MB of complex entries at this cap:
# the top Laplace level's two gathers of (q, dim, dim) products per node
# (at q = n, the n x n matrix whose determinant is the one minor).  A
# high-degree kernel evaluates a few nodes per stack (one at n = 8,
# q = 4) while the small kernels take whole rounds in one stack.
_BLOCK_MINORS = 1 << 16


class _GaussianFrame(NamedTuple):
    """What the fiber kernels of a node (or a stack of nodes) read.

    coef holds the real coefficients of the node's two Hermitian forms
    F = U diag(f) U^H and V = -M(eta) (see _gaussian_block): F_aa
    for each a, then 2 Re F_ab and 2 Im F_ab for each a < b in row-major
    order, then the same n^2 coefficients of V without the factor 2.
    core = (2*pi)^-n times the core of _eta_nodes.  A node stack keeps
    arrays shaped (K, 2n^2) and (K, dim, dim); a boxeta_kernel memo entry
    keeps one node, its coefficients a tuple of floats.
    """

    coef: np.ndarray | tuple
    core: np.ndarray


@functools.lru_cache(maxsize=None)
def _coef_layout(n: int):
    """Where _GaussianFrame.coef reads the forms (F, V), shaped (2, n, n), viewed as flat floats.

    Returns the flat float index of each coefficient and its factor (2 for
    F's off-diagonal parts, else 1), both read-only.
    """
    a, b = np.triu_indices(n, 1)
    diag = np.arange(n) * (n + 1)
    upper = np.stack([a * n + b, a * n + b], axis=-1).ravel()
    parts = np.tile([0, 1], len(a))
    index, factor = [], []
    for form in (0, 1):
        base = form * n * n
        index += [2 * (base + diag), 2 * (base + upper) + parts]
        factor += [np.ones(n), np.full(len(upper), 2.0 if form == 0 else 1.0)]
    index, factor = np.concatenate(index), np.concatenate(factor)
    index.flags.writeable = factor.flags.writeable = False
    return index, factor


def _node_frame(U, bp, bm, M, core) -> _GaussianFrame:
    """The Gaussian frame of a stack of nodes: the arrays (es.unitary, b+, b-, core) of _eta_nodes and the pencils M.

    M stacks the nodes' M(eta) (_pencil).  F = U diag((b+ + b-)/2) U^H takes
    one matrix product per node; V = U diag(b- - b+) U^H is -M(eta), since
    b+ - b- = mu, so its coefficients are read off the negated pencil.
    """
    K, n = len(U), U.shape[-1]
    # F over V, (2n, n) per node
    forms = np.empty((K, 2 * n, n), dtype=complex)
    np.matmul(U * ((bp + bm) / 2.0)[:, None, :], U.conj().swapaxes(-1, -2), out=forms[:, :n])
    np.negative(M, out=forms[:, n:])
    index, factor = _coef_layout(n)
    coef = forms.reshape(K, -1).view(float)[:, index] * factor
    return _GaussianFrame(coef, core * (2.0 * math.pi) ** (-n))


def _point_terms(zr, zi, wr, wi) -> list:
    """The point terms that pair with _GaussianFrame.coef, from the parts of z and w.

    zr, zi, wr, wi hold, coordinate by coordinate, the real and imaginary
    parts of z and w, as arrays over points.  With d = z - w = x + i y:
    |d_a|^2, then x_a x_b + y_a y_b and y_a x_b - x_a y_b for a < b, whose
    sum against F's coefficients is d^H F d; then the parts of
    conj(z_a) w_b that V's coefficients weigh into Im(z^H V w).  This is
    the order the block path and a boxeta_kernel memo hit share: the n
    diagonal terms first, then each pair a < b in row-major order with
    its two parts, F's terms and V's alike.  A hit forms each term by the
    same operations in one pass over the coordinates of z and w.
    """
    n = len(zr)
    x = [zr[k] - wr[k] for k in range(n)]
    y = [zi[k] - wi[k] for k in range(n)]
    f_terms = [x[k] * x[k] + y[k] * y[k] for k in range(n)]
    v_terms = [zr[k] * wi[k] - zi[k] * wr[k] for k in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            f_terms += [x[a] * x[b] + y[a] * y[b], y[a] * x[b] - x[a] * y[b]]
            v_terms += [zr[a] * wi[b] - zi[a] * wr[b] + (zr[b] * wi[a] - zi[b] * wr[a]),
                        zr[a] * wr[b] + zi[a] * wi[b] - (zr[b] * wr[a] + zi[b] * wi[a])]
    return f_terms + v_terms


def _exponent(products):
    """(-d^H F d, Im(z^H V w)) from the products coef[i] * term[i], summed in index order.

    Index order is _point_terms' order, which a boxeta_kernel memo hit
    follows as it adds its products one by one.
    """
    m = len(products) // 2
    quad, im = products[0], products[m]
    for i in range(1, m):
        quad = quad + products[i]
        im = im + products[m + i]
    return -quad, im


def _gaussian_block(terms, frame: _GaussianFrame, phase, adjoint: bool, out):
    """Fiber heat kernels of a block of nodes, from their stacked frame.

    terms, shaped (2n^2, P), are the _point_terms of z and P points w_i;
    the frame's arrays stack, node by node, what _node_frame makes of the
    eigenvectors U of M(eta), the Bose values b+- = bose(+-mu, t) and the
    core of _eta_nodes.  Entry [k, i] of out, shaped (len(frame.coef), P,
    dim, dim), becomes

        exp(i*phase[k, i]) * (2*pi)^-n * g_k(z, w_i) * core_k

    with g_k the exponential of the Mehler quadratic forms at time t in
    the eigenframe (mu, U_k).  With ze = U^H z, we = U^H w and
    f = (b+ + b-)/2 = tanh_ratio(mu, t), the forms

        - f.|ze|^2 - f.|we|^2 + conj(we).(b+ ze) + conj(conj(we).(b- ze))

    equal -f.|ze - we|^2 + i (b+ - b-).Im(conj(we) ze).  Back in the
    original coordinates that is

        -(z - w)^H F (z - w) + i Im(z^H V w),  F = U diag(f) U^H,  V = U diag(b- - b+) U^H,

    since f.|U^H d|^2 = d^H F d for d = z - w, and with v = b- - b+,
    (b+ - b-).Im(conj(we) ze) = Im(sum_j v_j conj(ze_j) we_j) = Im(z^H V w).
    As b+ - b- = mu, V = -U diag(mu) U^H = -M(eta), which _node_frame
    reads off the pencil instead of the eigenvectors.
    The real part is <= 0, so |g| <= 1, and g = 1 at z = w.  adjoint
    conjugates g; phase None leaves out the phase.

    The node terms are the frame's coefficients and the point terms come
    formed (_block_terms), so the exponent is one broadcast product of
    the two and a sum in index order (_exponent): real products and sums,
    each rounded once, whether on arrays of any shape or on the floats of
    a boxeta_kernel memo hit, which therefore gets the bits of its block
    entry.  Each (node, point) pair then costs one complex exponential.
    """
    re, im = _exponent(frame.coef.T[:, :, None] * terms[:, None, :])
    if adjoint:
        im = -im
    if phase is not None:
        im = im + phase
    arg = np.empty(re.shape, dtype=complex)
    arg.real = re
    arg.imag = im
    np.multiply(np.exp(arg)[:, :, None, None], frame.core[:, None], out=out)


def _block_terms(z, ws) -> np.ndarray:
    """The _point_terms of z and each point of ws, shaped (2n^2, len(ws))."""
    return np.array(_point_terms(z.real.tolist(), z.imag.tolist(), list(ws.real.T), list(ws.imag.T)))


def _fiber_values(p: CurvaturePoint, q: int, t: float, etas, z, ws, gaps, adjoint: bool, terms=None):
    """Fiber heat kernels at every eta node, from z to every point of ws.

    Entry [k, i] of the (len(etas), len(ws), dim, dim) result is the
    _gaussian_block entry of node etas[k] and point ws[i], with phase
    gaps[i]*etas[k] (none when gaps is None).  terms, when given, is
    _block_terms(z, ws), which a caller evaluating many rounds at the same
    points forms once.  The nodes go in stacks of at most _BLOCK_MINORS
    entries, each evaluated by one _eta_nodes call, and a stack's frame is
    assembled by _gaussian_block in slices of at most _BLOCK_PAIRS
    node-point pairs.
    """
    etas = np.asarray(etas, dtype=float)
    dim = math.comb(p.n, q)
    out = np.empty((len(etas), len(ws), dim, dim), dtype=complex)
    if terms is None:
        terms = _block_terms(z, ws)
    stack = max(1, _BLOCK_MINORS // max(p.n, dim * q) ** 2)
    step = max(1, _BLOCK_PAIRS // max(1, len(ws)))
    for lo in range(0, len(etas), stack):
        nodes = etas[lo : lo + stack]
        es, bp, bm, core = _eta_nodes(p, q, t, nodes)
        frame = _node_frame(es.unitary, bp, bm, _pencil(p, nodes).mat, core)
        for k in range(0, len(nodes), step):
            block = nodes[k : k + step]
            phase = None if gaps is None else gaps[None, :] * block[:, None]
            _gaussian_block(terms, _GaussianFrame(*(a[k : k + step] for a in frame)), phase, adjoint,
                            out[lo + k : lo + k + len(block)])
    return out


# Cap on |z| * |w| * max|coef| in a boxeta_kernel exponent: each of its
# 2n^2 products then stays below 8e300, and their sums far below the
# float64 overflow.
_EXPONENT_CAP = 1e300


def _memo_node(p: CurvaturePoint, q: int, t: float, eta: float) -> tuple:
    """The memo entry (key, frame, bound) of _eta_node(p, q, t, eta) on p: its one boxeta_kernel entry.

    Callers sweep boxeta_kernel over z at a fixed (q, t, eta), so the
    frame (see _node_frame) of the last node is kept on the point, next
    to its cached pencil_roots, and reused while the key
    compares equal: its coefficients as a tuple of floats, its core as a
    read-only array.  The entry also keeps the node's coordinate bound
    sqrt(_EXPONENT_CAP / max(1, max|coef|)), which boxeta_kernel checks
    each coordinate of z and w against.  On a miss the new entry is
    returned unstored: boxeta_kernel stores it once its pass over the
    coordinates has succeeded.  The key, frame and bound are stored and
    read as one tuple, so concurrent callers can at worst recompute a
    node.
    """
    key = (q, t, eta)
    entry = p.__dict__.get("_boxeta_node")
    if entry is not None and entry[0] == key:
        return entry
    es, bp, bm, core = _finite_node(_eta_node, p, q, t, eta)
    stacked = _node_frame(es.unitary[None], bp[None], bm[None], _pencil(p, eta).mat[None], core[None])
    core = stacked.core[0]
    core.flags.writeable = False
    # a NaN coefficient makes the bound NaN, which every coordinate fails
    scale = float(np.max(np.abs(stacked.coef), initial=1.0))
    return key, _GaussianFrame(tuple(stacked.coef[0].tolist()), core), math.sqrt(_EXPONENT_CAP / scale)


def boxeta_kernel(p: CurvaturePoint, eta: float, q: int, t: float, z, w) -> KernelValue:
    """Heat kernel of the frequency-eta fiber operator between z and w in C^n.

    The node's Gaussian frame at (q, t, eta) is memoized on p (see
    _memo_node), so a sweep over z or w at one frequency evaluates the
    node once and each call pays only for the forms in z and w.  It sums
    them in Python floats in one pass over the coordinates, by the
    operations and in the order of _point_terms and _exponent, so the
    value has the bits of the group kernels' block entry.  The same pass
    checks each coordinate of z and w against the node's bound before
    that coordinate enters any sum: a NaN or infinite one, or one not
    below the bound in modulus, raises NonFinite, as does a NaN or
    infinite eta.  A failing call leaves the memo as it was; a miss
    stores its entry only after the whole pass.
    """
    _check_time(t)
    n = p.n
    b = basis(n, q)
    eta = float(eta)
    zl = np.asarray(z, dtype=complex).ravel().tolist()
    wl = np.asarray(w, dtype=complex).ravel().tolist()
    if len(zl) != n or len(wl) != n:
        raise InvalidArgument("point dimension does not match the curvature data")
    if not math.isfinite(eta):
        raise NonFinite("frequency must be finite")
    entry = _memo_node(p, q, t, eta)
    _, frame, bound = entry
    # _point_terms and _exponent in one pass: each term is formed by the
    # same operations and added in the same order; -0.0 + x is x, bit for bit
    coef = frame.coef
    m = n * n
    quad = im = -0.0
    parts = []
    for i, (zk, wk) in enumerate(zip(zl, wl)):
        try:
            below = abs(zk) < bound and abs(wk) < bound
        except OverflowError:  # Python's abs of a complex past the largest double
            below = False
        if not below:
            raise NonFinite(f"points must be finite and below {bound:.3g} in modulus at eta={eta!r}")
        zr, zi, wr, wi = zk.real, zk.imag, wk.real, wk.imag
        x, y = zr - wr, zi - wi
        quad += coef[i] * (x * x + y * y)
        im += coef[m + i] * (zr * wi - zi * wr)
        parts.append((zr, zi, wr, wi, x, y))
    i = n
    for a, (zra, zia, wra, wia, xa, ya) in enumerate(parts):
        for zrb, zib, wrb, wib, xb, yb in parts[a + 1:]:
            quad += coef[i] * (xa * xb + ya * yb)
            quad += coef[i + 1] * (ya * xb - xa * yb)
            im += coef[m + i] * (zra * wib - zia * wrb + (zrb * wia - zib * wra))
            im += coef[m + i + 1] * (zra * wrb + zia * wib - (zrb * wra + zib * wia))
            i += 2
    # a miss stores its entry only now; a hit stores the same one again
    p.__dict__["_boxeta_node"] = entry
    # numpy's product with the core, the scalar first, as in the block
    return KernelValue(FormEndomorphism(b, np.multiply(cmath.exp(complex(-quad, im)), frame.core)))


def _quadratic_forms(mat, z, w):
    """z^H mat z (scalar) and w^H mat w (batched along leading axes of w)."""
    vz = float((np.conj(z) @ (mat @ z)).real)
    vw = np.einsum("...i,ij,...j->...", np.conj(w), mat, w).real
    return vz, vw


def _group_kernel(p: CurvaturePoint, q: int, t: float, x: HeisenbergPoint, zs, thetas, delta,
                  adjoint: bool, tol: float) -> np.ndarray:
    """K(t; x, u_i), or K(t; u_i, x) when adjoint, for u_i = (zs[i], thetas[i]).

    Computes (prefactor / (2*pi)) * int exp(i*gap*eta) * fiber_kernel(eta; z, w) deta,
    with gap = theta_x - theta_u, L the Levi form, C the curvature form and

        prefactor = exp{(beta/2)*gap + i*(beta/2)*(w^H L w - z^H L z) + (z^H C z - w^H C w)/2}

    where the adjoint swaps z and w.  One eta panel set, refined to tol for
    the worst point and capped at width pi/(4*max|gap|+1), serves the batch.
    The full-line tail reuses the density certificate (|Gaussian| <= 1).
    """
    zs = np.asarray(zs, dtype=complex)
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    if x.n != p.n or zs.size != p.n * len(thetas):
        raise InvalidArgument("point dimension or batch length does not match the curvature data")
    if not (np.isfinite(zs).all() and np.isfinite(thetas).all()):
        raise NonFinite("group point coordinates must be finite")
    zs = zs.reshape(-1, p.n)
    if not len(zs):
        # No integral to take, but the checks it would make.
        _check_time(t)
        _check_delta(delta)
        dim = len(basis(p.n, q).indices)
        if delta is None:
            _two_sided_decay(p, q)
        return np.zeros((0, dim, dim), dtype=complex)
    z = np.asarray(x.z, dtype=complex)
    gaps = (thetas - x.theta) if adjoint else (x.theta - thetas)
    width = math.pi / (4.0 * float(np.max(np.abs(gaps))) + 1.0) if np.any(gaps) else None
    with np.errstate(over="ignore", invalid="ignore"):
        lz, lw = _quadratic_forms(p.levi.mat, z, zs)
        cz, cw = _quadratic_forms(p.curvature.mat, z, zs)
        if adjoint:
            lz, lw, cz, cw = lw, lz, cw, cz
        pref = np.exp(0.5 * p.beta * gaps + 0.5j * p.beta * (lw - lz) + 0.5 * (cz - cw))
    if not np.isfinite(pref).all():
        raise NonFinite("kernel prefactor overflows: the points are too far from the origin")

    terms = _block_terms(z, zs)

    def f(etas):
        return _fiber_values(p, q, t, etas, z, zs, gaps, adjoint, terms)

    total = _eta_integral(p, q, t, delta, f, tol, width, (2.0 * math.pi) ** (-p.n))
    return (pref / (2.0 * math.pi))[:, None, None] * total


def heisenberg_heat_kernel(
    p: CurvaturePoint,
    q: int,
    t: float,
    x: HeisenbergPoint,
    y: HeisenbergPoint,
    delta: float | None = None,
) -> KernelValue:
    """Heat kernel K(t; x, y) on C^n x R, full (delta None) or frequency-truncated.

    The one-point case of heisenberg_kernel_batch (see _group_kernel for
    the formula), with its eta-integral driven to 1e-10.
    """
    out = _group_kernel(p, q, t, x, [y.z], [y.theta], delta, False, 1e-10)
    return KernelValue(FormEndomorphism(basis(p.n, q), out[0]))


def heisenberg_kernel_batch(
    p: CurvaturePoint,
    q: int,
    t: float,
    x: HeisenbergPoint,
    zs,
    thetas,
    delta: float | None,
    adjoint: bool = False,
) -> np.ndarray:
    """Kernel K(t; x, u_i) for a batch of points u_i = (zs[i], thetas[i]).

    With adjoint=True returns K(t; u_i, x) instead; delta as in
    heisenberg_heat_kernel.  One eta panel set, driven to 1e-8 by the
    worst point, serves the whole batch, which is what makes grid
    convolution tests affordable.  Returns shape (len(zs), dim, dim).
    """
    return _group_kernel(p, q, t, x, zs, thetas, delta, adjoint, 1e-8)
