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
# temporaries have about this many entries (times n), so peak memory
# stays near the size of the output however many points a round serves,
# while a one-point kernel assembles whole node stacks at once.
_BLOCK_PAIRS = 4096

# Entries per node stack of _fiber_values, counting a node's exterior
# minors (dim^2 * q^2) or, at q = 0, its n x n eigenvectors: the q x q
# minors are a stack's largest temporary, 1 MB of complex entries at this
# cap, so a high-degree kernel evaluates a few nodes per stack (one at
# n = 8, q = 4) while the small kernels take whole rounds in one stack.
_BLOCK_MINORS = 1 << 16


class _GaussianFrame(NamedTuple):
    """The arrays of a node (or a stack of nodes) that its fiber kernels read.

    Uc = conj(U) for the eigenvectors U of M(eta); neg_f = -f with
    f = (b+ + b-)/2 = tanh_ratio(mu, t); v = b- - b+; core = (2*pi)^-n
    times the core of _eta_nodes.  See _gaussian_block for the formula.
    """

    Uc: np.ndarray
    neg_f: np.ndarray
    v: np.ndarray
    core: np.ndarray


def _node_frame(U, bp, bm, core) -> _GaussianFrame:
    """The Gaussian frame of the node arrays (es.unitary, b+, b-, core) of _eta_nodes."""
    scale = (2.0 * math.pi) ** (-U.shape[-1])
    return _GaussianFrame(U.conj(), -((bp + bm) / 2.0), bm - bp, core * scale)


def _gaussian_block(z, ws, frame: _GaussianFrame, phase, adjoint: bool, out):
    """Fiber heat kernels of a block of nodes, from their stacked frame.

    The frame's arrays stack, node by node, what _node_frame makes of the
    eigenvectors U of M(eta), the Bose values b+- = bose(+-mu, t) and the
    core of _eta_nodes.  Entry [k, i] of out, shaped
    (len(frame.Uc), len(ws), dim, dim), becomes

        exp(i*phase[k, i]) * (2*pi)^-n * g_k(z, ws[i]) * core_k

    with g_k the exponential of the Mehler quadratic forms at time t in
    the eigenframe (mu, U_k).  With ze = U^H z, we = U^H w and
    f = (b+ + b-)/2 = tanh_ratio(mu, t), the forms

        - f.|ze|^2 - f.|we|^2 + conj(we).(b+ ze) + conj(conj(we).(b- ze))

    equal -f.|ze - we|^2 + i (b+ - b-).Im(conj(we) ze), which is how they
    are evaluated.  The real part is <= 0, so |g| <= 1, and g = 1 at z = w.
    adjoint conjugates g; phase None leaves out the phase.  The Gaussian
    factors of the block are built together as batched matrix products,
    with the phase folded into the exponent, so each (node, point) pair
    costs one complex exponential.  _gaussian_one is the same arithmetic
    for one node and one point.
    """
    ze = z @ frame.Uc
    we = ws @ frame.Uc
    d = ze[:, None, :] - we
    re = (d.real**2 + d.imag**2) @ frame.neg_f[:, :, None]
    # (b+ - b-).Im(conj(we) ze) = Im(we . conj(ze (b- - b+))); the
    # adjoint conjugates g, which flips the sign of the imaginary part.
    v = -frame.v if adjoint else frame.v
    im = (we @ (ze * v).conj()[:, :, None]).imag
    if phase is not None:
        im = im + phase[:, :, None]
    g = np.exp(re + 1j * im)
    np.multiply(g[:, :, :, None], frame.core[:, None], out=out)


def _gaussian_one(z, w, frame: _GaussianFrame) -> np.ndarray:
    """_gaussian_block for one node and one point, without phase or adjoint.

    The same operations in the same order on unstacked arrays, so the
    value has the bits of the block's entry; a new (dim, dim) array.
    """
    ze = z @ frame.Uc
    we = w @ frame.Uc
    d = ze - we
    re = (d.real**2 + d.imag**2) @ frame.neg_f
    im = (we @ (ze * frame.v).conj()).imag
    return np.exp(re + 1j * im) * frame.core


def _fiber_values(p: CurvaturePoint, q: int, t: float, etas, z, ws, gaps, adjoint: bool):
    """Fiber heat kernels at every eta node, from z to every point of ws.

    Entry [k, i] of the (len(etas), len(ws), dim, dim) result is the
    _gaussian_block entry of node etas[k] and point ws[i], with phase
    gaps[i]*etas[k] (none when gaps is None).  The nodes go in stacks of
    at most _BLOCK_MINORS entries, each evaluated by one _eta_nodes call,
    and a stack's frame is assembled by _gaussian_block in slices of at
    most _BLOCK_PAIRS node-point pairs.
    """
    etas = np.asarray(etas, dtype=float)
    dim = math.comb(p.n, q)
    out = np.empty((len(etas), len(ws), dim, dim), dtype=complex)
    stack = max(1, _BLOCK_MINORS // max(p.n, dim * q) ** 2)
    step = max(1, _BLOCK_PAIRS // max(1, len(ws)))
    for lo in range(0, len(etas), stack):
        nodes = etas[lo : lo + stack]
        es, bp, bm, core = _eta_nodes(p, q, t, nodes)
        frame = _node_frame(es.unitary, bp, bm, core)
        for k in range(0, len(nodes), step):
            block = nodes[k : k + step]
            phase = None if gaps is None else gaps[None, :] * block[:, None]
            _gaussian_block(z, ws, _GaussianFrame(*(a[k : k + step] for a in frame)), phase, adjoint,
                            out[lo + k : lo + k + len(block)])
    return out


# Cap on |z| * |w| * max(|f|, |v|) in a boxeta_kernel exponent: each of
# its sums of n such terms then stays far below the float64 overflow.
_EXPONENT_CAP = 1e300


def _memo_node(p: CurvaturePoint, q: int, t: float, eta: float, z, w) -> _GaussianFrame:
    """The Gaussian frame of _eta_node(p, q, t, eta), kept on p as its one boxeta_kernel memo entry.

    Callers sweep boxeta_kernel over z at a fixed (q, t, eta), so the
    frame (see _node_frame) of the last node is kept on the point, next
    to its cached det_poly and pencil_roots, and reused while the key
    compares equal.  Every array of the frame is read-only.  The entry
    also keeps the node's coordinate bound
    sqrt(_EXPONENT_CAP / max(1, max|f|, max|v|)): each coordinate of z
    and w must be below it in modulus, which one comparison per
    coordinate tells, and a NaN or infinite one fails it too.  Otherwise
    NonFinite is raised, and a miss stores nothing.  The key, frame and
    bound are stored and read as one tuple, so concurrent callers can at
    worst recompute a node.
    """
    key = (q, t, eta)
    entry = p.__dict__.get("_boxeta_node")
    hit = entry is not None and entry[0] == key
    if not hit:
        es, bp, bm, core = _finite_node(_eta_node, p, q, t, eta)
        frame = _node_frame(es.unitary, bp, bm, core)
        for a in frame:
            a.flags.writeable = False
        scale = max(1.0, float(np.max(np.abs(frame.neg_f))), float(np.max(np.abs(frame.v))))
        entry = (key, frame, math.sqrt(_EXPONENT_CAP / scale))
    bound = entry[2]
    try:
        below = all(abs(v) < bound for v in z.tolist()) and all(abs(v) < bound for v in w.tolist())
    except OverflowError:  # Python's abs of a complex past the largest double
        below = False
    if not below:
        raise NonFinite(f"points must be finite and below {bound:.3g} in modulus at eta={eta!r}")
    if not hit:
        p.__dict__["_boxeta_node"] = entry
    return entry[1]


def boxeta_kernel(p: CurvaturePoint, eta: float, q: int, t: float, z, w) -> KernelValue:
    """Heat kernel of the frequency-eta fiber operator between z and w in C^n.

    The node's Gaussian frame at (q, t, eta) is memoized on p (see
    _memo_node), so a sweep over z or w at one frequency evaluates the
    node once and each call pays only for the forms in z and w.  A NaN
    or infinite eta, or a coordinate that is not finite or past the
    node's bound, raises NonFinite.
    """
    _check_time(t)
    b = basis(p.n, q)
    eta = float(eta)
    z = np.asarray(z, dtype=complex).ravel()
    w = np.asarray(w, dtype=complex).ravel()
    if z.size != p.n or w.size != p.n:
        raise InvalidArgument("point dimension does not match the curvature data")
    if not math.isfinite(eta):
        raise NonFinite("frequency must be finite")
    return KernelValue(FormEndomorphism(b, _gaussian_one(z, w, _memo_node(p, q, t, eta, z, w))))


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
