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
    _eta_nodes,
    _finite_nodes,
    _two_sided_decay,
)
from .errors import InvalidArgument, NonFinite
from .exterior import MAX_DEGREE_BYTES, FormEndomorphism, basis, sized_basis
from .hermitian import (
    HermitianForm,
    _check_time,
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
    Am = HermitianForm(np.frombuffer(data, dtype=complex).reshape(shape)).mat
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
# temporaries are a few arrays of this many entries (the exponent's two
# sums, one product at a time, the phase and the exponential), so peak
# memory stays near the size of the output however many points a round
# serves, while a one-point kernel assembles whole node stacks at once.
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

    forms stacks the node's two Hermitian forms F = U diag(f) U^H over
    V = -M(eta) (see _gaussian_block), 2n rows of n entries, which
    _exponent reads entry by entry.  core = (2*pi)^-n times the core of
    _eta_nodes.  A node stack keeps arrays shaped (K, 2n, n) and
    (K, dim, dim); a boxeta_kernel memo entry keeps one node, its forms
    a tuple of 2n rows, each a tuple of n Python complex.
    """

    forms: np.ndarray | tuple
    core: np.ndarray


def _node_frame(nodes) -> _GaussianFrame:
    """The Gaussian frame of the nodes (M, es, b+, b-, core) that _eta_nodes returns.

    Leading axes stack nodes, as in _eta_nodes.  F = U diag((b+ + b-)/2) U^H
    takes one matrix product per node; V = U diag(b- - b+) U^H is -M(eta),
    since b+ - b- = mu, so it is the negated pencil.  The forms are the
    (..., 2n, n) stack of F over V.
    """
    M, es, bp, bm, core = nodes
    U = es.unitary
    lead, n = U.shape[:-2], U.shape[-1]
    forms = np.empty(lead + (2 * n, n), dtype=complex)
    np.matmul(U * ((bp + bm) / 2.0)[..., None, :], U.conj().swapaxes(-1, -2), out=forms[..., :n, :])
    np.negative(M, out=forms[..., n:, :])
    return _GaussianFrame(forms, core * (2.0 * math.pi) ** (-n))


def _exponent(forms, z, w):
    """(-d^H F d, Im(z^H V w)) for d = z - w, from the forms (F over V) of a _GaussianFrame.

    One pass over the coordinates of z and w, read as their real and
    imaginary parts.  Each point term is formed from the parts: with
    d = x + i y, |d_a|^2, then x_a x_b + y_a y_b and y_a x_b - x_a y_b
    for a < b, whose sum against Re F_aa, 2 Re F_ab and 2 Im F_ab is
    d^H F d; and the parts of conj(z_a) w_b that Re V_aa, Re V_ab and
    Im V_ab weigh into Im(z^H V w).  Only the diagonal and the upper
    triangle are read.  Each product (coefficient * term, the doubling
    exact) is added to its sum from -0.0 (-0.0 + x is x, bit for bit):
    the n diagonal terms first, then each pair a < b in row-major order
    with its two parts.  The coordinates and entries may be Python
    numbers (a boxeta_kernel memo hit) or numpy arrays that broadcast (a
    block of nodes against a block of points): each operation is rounded
    once either way, so the two give the same bits.
    """
    n = len(z)
    quad = im = -0.0
    parts = []
    for a, (zk, wk) in enumerate(zip(z, w)):
        zr, zi, wr, wi = zk.real, zk.imag, wk.real, wk.imag
        x, y = zr - wr, zi - wi
        quad += forms[a][a].real * (x * x + y * y)
        im += forms[n + a][a].real * (zr * wi - zi * wr)
        parts.append((zr, zi, wr, wi, x, y))
    for a, (zra, zia, wra, wia, xa, ya) in enumerate(parts):
        Fa, Va = forms[a], forms[n + a]
        for b in range(a + 1, n):
            zrb, zib, wrb, wib, xb, yb = parts[b]
            f, v = Fa[b], Va[b]
            quad += 2.0 * f.real * (xa * xb + ya * yb)
            quad += 2.0 * f.imag * (ya * xb - xa * yb)
            im += v.real * (zra * wib - zia * wrb + (zrb * wia - zib * wra))
            im += v.imag * (zra * wrb + zia * wib - (zrb * wra + zib * wia))
    return -quad, im


def _gaussian_block(z, ws, frame: _GaussianFrame, phase, adjoint: bool, out):
    """Fiber heat kernels of a block of nodes, from their stacked frame, at the points z, ws[i].

    The frame's arrays stack, node by node, what _node_frame makes of the
    eigenvectors U of M(eta), the Bose values b+- = bose(+-mu, t) and the
    core of _eta_nodes.  Entry [k, i] of out, shaped (len(frame.forms),
    len(ws), dim, dim), becomes

        exp(i*phase[k, i]) * (2*pi)^-n * g_k(z, ws[i]) * core_k

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

    The exponent is _exponent's, with the node axis of the forms moved
    last, so each entry is a column over the block's nodes, and each
    coordinate of w a row over its points: the routine a boxeta_kernel
    memo hit runs on Python numbers, so a hit gets the bits of its block
    entry.  Each (node, point) pair then costs one complex exponential.
    """
    re, im = _exponent(frame.forms.transpose(1, 2, 0)[..., None], z.tolist(), list(ws.T))
    if adjoint:
        im = -im
    if phase is not None:
        im = im + phase
    arg = np.empty(re.shape, dtype=complex)
    arg.real = re
    arg.imag = im
    np.multiply(np.exp(arg)[:, :, None, None], frame.core[:, None], out=out)


def _fiber_values(p: CurvaturePoint, q: int, t: float, etas, z, ws, gaps, adjoint: bool):
    """Fiber heat kernels at every eta node, from z to every point of ws.

    Entry [k, i] of the (len(etas), len(ws), dim, dim) result is the
    _gaussian_block entry of node etas[k] and point ws[i], with phase
    gaps[i]*etas[k] (none when gaps is None).  The nodes go in stacks of
    at most _BLOCK_MINORS entries, each evaluated by one _eta_nodes call,
    and a stack's frame is assembled by _gaussian_block in slices of at
    most _BLOCK_PAIRS node-point pairs.  A result past
    exterior.MAX_DEGREE_BYTES raises InvalidArgument before any node of
    the round is computed.
    """
    etas = np.asarray(etas, dtype=float)
    dim = math.comb(p.n, q)
    need = 16 * len(etas) * len(ws) * dim * dim
    if need > MAX_DEGREE_BYTES:
        raise InvalidArgument(f"{len(ws)} points at {len(etas)} eta nodes with {dim} components would need "
                              f"{need:.3g} bytes; at most {MAX_DEGREE_BYTES} are supported: split the batch")
    out = np.empty((len(etas), len(ws), dim, dim), dtype=complex)
    stack = max(1, _BLOCK_MINORS // max(p.n, dim * q) ** 2)
    step = max(1, _BLOCK_PAIRS // max(1, len(ws)))
    for lo in range(0, len(etas), stack):
        nodes = etas[lo : lo + stack]
        frame = _node_frame(_eta_nodes(p, q, t, nodes))
        for k in range(0, len(nodes), step):
            block = nodes[k : k + step]
            phase = None if gaps is None else gaps[None, :] * block[:, None]
            _gaussian_block(z, ws, _GaussianFrame(*(a[k : k + step] for a in frame)), phase, adjoint,
                            out[lo + k : lo + k + len(block)])
    return out


# Cap on |z| * |w| * scale in a boxeta_kernel exponent, scale the largest
# part of 2F and of V (see _memo_node): each of its 2n^2 products then
# stays below 8e300, and their sums far below the float64 overflow.
_EXPONENT_CAP = 1e300


def _memo_node(p: CurvaturePoint, q: int, t: float, eta: float) -> tuple:
    """The memo entry (key, frame, bound) of the node eta on p: its one boxeta_kernel entry.

    Callers sweep boxeta_kernel over z at a fixed (q, t, eta), so the
    frame (see _node_frame) of the last node is kept on the point and
    reused while the key compares equal: its forms as nested tuples of
    Python complex (see _GaussianFrame), its core as a read-only array,
    with the coordinate bound sqrt(_EXPONENT_CAP / scale) that
    boxeta_kernel checks each coordinate of z and w against, where
    scale = max(1, 2 max|parts of F|, max|parts of V|) over every real
    and imaginary part.  Every coefficient _exponent weighs a term with
    is one of those parts, doubled for F, so scale bounds them all; it
    doubles F's diagonal as well, so the bound is at most a factor
    sqrt(2) below the one the coefficients alone would give.  A miss
    checks the degree's size (see sized_basis), evaluates the float node
    through _finite_nodes and returns the entry unstored: boxeta_kernel
    stores it once every coordinate has passed that check.  The entry is
    stored and read as one tuple, so concurrent callers can at worst
    recompute a node.
    """
    key = (q, t, eta)
    entry = p.__dict__.get("_boxeta_node")
    if entry is not None and entry[0] == key:
        return entry
    sized_basis(p.n, q)
    forms, core = _node_frame(_finite_nodes(p, q, t, eta))
    core.flags.writeable = False
    parts = np.abs(forms.view(float))
    parts[: p.n] *= 2.0
    # a NaN part makes the bound NaN, which every coordinate fails
    scale = float(np.max(parts, initial=1.0))
    return key, _GaussianFrame(tuple(map(tuple, forms.tolist())), core), math.sqrt(_EXPONENT_CAP / scale)


def boxeta_kernel(p: CurvaturePoint, eta: float, q: int, t: float, z, w) -> KernelValue:
    """Heat kernel of the frequency-eta fiber operator between z and w in C^n.

    The node's Gaussian frame at (q, t, eta) is memoized on p (see
    _memo_node), so a sweep over z or w at one frequency evaluates the
    node once and each call pays only for the forms in z and w.  First
    each coordinate of z and w is checked against the node's bound: a NaN
    or infinite one, or one not below the bound in modulus, raises
    NonFinite, as does a NaN or infinite eta.  Then _exponent sums the
    forms in Python floats, the routine the group kernels' blocks run on
    arrays, so the value has the bits of the block entry.  A failing
    call leaves the memo as it was; a miss stores its entry only once
    every coordinate has passed.  On a miss, a degree whose matrices pass
    exterior.MAX_DEGREE_BYTES raises InvalidArgument before the node is
    computed (see sized_basis); a hit's node passed that check when it
    was stored.
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
    for v in zl + wl:
        try:
            below = abs(v) < bound
        except OverflowError:  # Python's abs of a complex past the largest double
            below = False
        if not below:
            raise NonFinite(f"points must be finite and below {bound:.3g} in modulus at eta={eta!r}")
    re, im = _exponent(frame.forms, zl, wl)
    # a miss stores its entry only now; a hit stores the same one again
    p.__dict__["_boxeta_node"] = entry
    # numpy's product with the core, the scalar first, as in the block
    return KernelValue(FormEndomorphism(b, np.multiply(cmath.exp(complex(re, im)), frame.core)))


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
    the worst point, serves the batch.  Each panel spans at most half a
    period of exp(i*gap*eta), width pi/max|gap| (no cap when every gap is
    0): at a phase |theta| <= pi/2 on the half panel, Kronrod-15 (exact to
    degree 22) integrates exp(i*theta*x) to about (pi/2)^23/23! ~ 1e-18 and
    the embedded Gauss-7 (degree 13) to about (pi/2)^14/14! ~ 6e-9, so the
    first round resolves the theta phase and its error estimate means
    something.  The linear Levi phase 2*eta*Im(z^H L w) inside
    Im(z^H V w), damped by the Gaussian envelope, is left to the adaptive
    estimate, as at gap 0.  The full-line tail reuses the density certificate
    (|Gaussian| <= 1) and the same width.

    tol drives integrate_adaptive's Kronrod-Gauss estimate, an estimate and
    not a bound, below tol * (1 + |I|), |I| the batch's largest entry of the
    eta-integral before prefactor/(2*pi): absolute where |I| is small.  On
    the full line each window [H, 2H], [-2H, -H] gets its own target, and
    the errors add: n = 3, q = 3, |I| ~ 1e-6 at tol 1e-10 read 3.1e-10.

    A degree whose matrices pass exterior.MAX_DEGREE_BYTES raises
    InvalidArgument before any node is computed (see sized_basis).
    """
    zs = np.asarray(zs, dtype=complex)
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    if x.n != p.n or zs.size != p.n * len(thetas):
        raise InvalidArgument("point dimension or batch length does not match the curvature data")
    if not (np.isfinite(zs).all() and np.isfinite(thetas).all()):
        raise NonFinite("group point coordinates must be finite")
    zs = zs.reshape(-1, p.n)
    dim = len(sized_basis(p.n, q).indices)
    if not len(zs):
        # No integral to take, but the checks it would make.
        _check_time(t)
        _check_delta(delta)
        if delta is None:
            _two_sided_decay(p, q)
        return np.zeros((0, dim, dim), dtype=complex)
    z = np.asarray(x.z, dtype=complex)
    with np.errstate(over="ignore"):
        gaps = (thetas - x.theta) if adjoint else (x.theta - thetas)
    if not np.isfinite(gaps).all():
        raise NonFinite("theta gaps overflow: the points are too far apart")
    width = math.pi / float(np.max(np.abs(gaps))) if np.any(gaps) else None
    with np.errstate(over="ignore", invalid="ignore"):
        lz, lw = _quadratic_forms(p.levi.mat, z, zs)
        cz, cw = _quadratic_forms(p.curvature.mat, z, zs)
        if adjoint:
            lz, lw, cz, cw = lw, lz, cw, cz
        pref = np.exp(0.5 * p.beta * gaps + 0.5j * p.beta * (lw - lz) + 0.5 * (cz - cw))
    if not np.isfinite(pref).all():
        raise NonFinite("kernel prefactor overflows: the points are too far from the origin")

    def f(etas):
        return _fiber_values(p, q, t, etas, z, zs, gaps, adjoint)

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
    the formula and the eta panels, at most pi/|theta_x - theta_y| wide),
    at tol 1e-10, which is not a relative error (see _group_kernel).
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
    heisenberg_heat_kernel.  One eta panel set, at tol 1e-8 against the
    largest entry of the batch (see _group_kernel), serves the whole
    batch, which is what makes grid convolution tests affordable; its
    panels are at most half a period of the widest theta gap's phase
    wide.  Returns shape (len(zs), dim, dim).  A round whose fiber
    values, 16 * nodes * len(zs) * dim^2 bytes, pass
    exterior.MAX_DEGREE_BYTES raises InvalidArgument before its nodes are
    computed (see _fiber_values).
    """
    return _group_kernel(p, q, t, x, zs, thetas, delta, adjoint, 1e-8)
