"""Exterior-algebra combinatorics on the ordered basis of Lambda^q.

The degree-q endomorphism induced by an n x n Hermitian coefficient matrix
via wedge-and-contract, and its exponential computed along two independent
routes (dense matrix exponential vs diagonalization plus q-fold exterior
powers).  The multi-index basis is lexicographic everywhere in the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np
from scipy.linalg import expm

from .errors import DegreeOutOfRange, InvalidArgument, NonFinite, PathMismatch
from .hermitian import as_hermitian, eig_hermitian


@dataclass(frozen=True)
class MultiIndexBasis:
    """Strictly increasing q-tuples from {1..n} in lexicographic order."""

    n: int
    q: int
    indices: tuple

    @cached_property
    def membership(self) -> np.ndarray:
        """Read-only (dim, n) boolean matrix: entry (r, j) says j+1 is in indices[r].

        As a 0/1 matrix it maps n values to their subset sums over each
        multi-index.
        """
        inside = np.zeros((len(self.indices), self.n), dtype=bool)
        for r, J in enumerate(self.indices):
            inside[r, [j - 1 for j in J]] = True
        inside.flags.writeable = False
        return inside

    @cached_property
    def laplace_levels(self) -> tuple:
        """Index tables of the Laplace recursion for the q x q minors, one per level k = 2..q.

        Level k holds the k x k minors with row sets R_k and every k-set of
        columns, each row-major and lexicographic.  R_1 is every row; for
        k >= 2, R_k keeps the k-sets that are suffixes of q-sets (least
        element at least q - k), and R_q is the basis.  Expanding a minor
        along its first row i gives
            det U[I, J] = sum_m (-1)^m U[i, J_m] det U[I \\ i, J \\ J_m],
        so level k is read off U and level k-1 through a pair of read-only
        (k, |R_k|, C(n, k)) flat-index arrays: entry [m, a, b] of the first
        is the position of U[i, J_m] in the flattened U, that of the second
        the position of the minor (I \\ i, J \\ J_m) in flattened level k-1.
        """
        n, q = self.n, self.q
        rows_below = {(i,): i for i in range(n)}
        cols_below = rows_below
        levels = []
        for k in range(2, q + 1):
            rows = [I for I in combinations(range(n), k) if I[0] >= q - k]
            cols = list(combinations(range(n), k))
            first = np.array([I[0] * n for I in rows], dtype=np.intp)[:, None]
            rest = np.array([rows_below[I[1:]] * len(cols_below) for I in rows], dtype=np.intp)[:, None]
            pick = np.array(cols, dtype=np.intp).T[:, None, :]
            drop = np.array([[cols_below[J[:m] + J[m + 1 :]] for J in cols] for m in range(k)],
                            dtype=np.intp)[:, None, :]
            take_u, take_minor = first + pick, rest + drop
            take_u.flags.writeable = take_minor.flags.writeable = False
            levels.append((take_u, take_minor))
            rows_below = {I: a for a, I in enumerate(rows)}
            cols_below = {J: b for b, J in enumerate(cols)}
        return tuple(levels)


@dataclass(frozen=True)
class FormEndomorphism:
    """A complex matrix acting on the ordered Lambda^q basis."""

    basis: MultiIndexBasis
    matrix: np.ndarray

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


def check_degree(n, q, name: str = "q") -> None:
    """The one check of a form degree q (or Morse degree j) in dimension n.

    Both must be integers, bool excepted (numpy integers are fine), with
    n >= 1 and 0 <= q <= n.  A non-integer raises InvalidArgument and an
    integer out of range DegreeOutOfRange; name is the degree's name in
    the message.
    """
    for v in (n, q):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise InvalidArgument(f"dimension and degree must be integers, got {v!r}")
    if n < 1:
        raise DegreeOutOfRange(f"n out of range (n >= 1), got n={n}")
    if not 0 <= q <= n:
        raise DegreeOutOfRange(f"{name} out of range (0 <= {name} <= {n})")


@lru_cache(maxsize=256, typed=True)
def basis(n: int, q: int) -> MultiIndexBasis:
    """The ordered multi-index basis of (0,q) components in dimension n.

    Memoized: every caller asking for (n, q) shares one immutable basis.
    The memo is keyed by argument type as well, and only a call that
    passes check_degree stores an entry, so a bool or float degree is
    never answered from the entry of an integer that compares equal.
    """
    check_degree(n, q)
    n, q = int(n), int(q)
    return MultiIndexBasis(n, q, tuple(combinations(range(1, n + 1), q)))


def omega_endomorphism(M, q: int) -> FormEndomorphism:
    """The wedge-and-contract endomorphism with coefficient matrix M.

    Conventions: contracting away l from J gives (-1)^pos with pos the
    0-based position of l in J, and the coefficient attached to the pair
    (j, l) is the matrix entry M[j-1, l-1].  With these choices a diagonal
    M = diag(mu) acts on the component J as multiplication by
    sum(mu_j for j in J), which is the anchor every kernel formula needs.
    """
    Mm = as_hermitian(M)
    n = Mm.shape[0]
    b = basis(n, q)
    dim = len(b.indices)
    rank = {J: r for r, J in enumerate(b.indices)}
    out = np.zeros((dim, dim), dtype=complex)
    for col, J in enumerate(b.indices):
        for pos_l, l in enumerate(J):
            sign_l = -1.0 if pos_l % 2 else 1.0
            rest = J[:pos_l] + J[pos_l + 1 :]
            for j in range(1, n + 1):
                if j in rest:
                    continue
                c = Mm[j - 1, l - 1]
                if c == 0:
                    continue
                pos_j = sum(1 for m in rest if m < j)
                sign_j = -1.0 if pos_j % 2 else 1.0
                J_out = rest[:pos_j] + (j,) + rest[pos_j:]
                out[rank[J_out], col] += sign_l * sign_j * c
    return FormEndomorphism(b, out)


def _exterior_power(U: np.ndarray, q: int) -> np.ndarray:
    """exterior_power_matrix without its checks: the eta-node path's form.

    U must be a finite (stack of) square matrix.  For 2 <= q <= n - 1 the
    minors come from the Laplace recursion along their first rows (see
    MultiIndexBasis.laplace_levels): level k is one gather from U, one
    from level k-1, one product and the k terms of each minor added in
    the order m = 0..k-1, so every entry, alone or in a stack, gets the
    same bits.  At q = n the one minor is det U, by LAPACK's LU on U
    taken as complex; at q = 1 the result is a complex copy of U.
    """
    n = U.shape[-1]
    b = basis(n, q)
    lead = U.shape[:-2]
    if q == 0:
        return np.ones(lead + (1, 1), dtype=complex)
    if q == 1:
        return U.astype(complex)
    if q == n:
        return np.linalg.det(U.astype(complex, copy=False))[..., None, None]
    flat = U.reshape(lead + (n * n,)).astype(complex, copy=False)
    minors = flat
    for take_u, take_minor in b.laplace_levels:
        terms = flat.take(take_u, axis=-1)
        terms *= minors.take(take_minor, axis=-1)
        level = terms[..., 0, :, :] - terms[..., 1, :, :]
        for m in range(2, len(take_u)):
            if m % 2:
                level -= terms[..., m, :, :]
            else:
                level += terms[..., m, :, :]
        minors = level.reshape(lead + (-1,))
    return minors.reshape(lead + (len(b.indices),) * 2)


def exterior_power_matrix(U, q: int) -> np.ndarray:
    """q-fold exterior power of U on the lexicographic basis (q x q minors).

    Entry (r, c) is det U[J_r, J_c].  Leading axes of U stack matrices,
    as with numpy's det, and a stacked matrix gets the bits it gets
    alone.  The minors come from the Laplace recursion, and det U from
    LU at q = n (see _exterior_power); the result is never U itself,
    not even at q = 1.  A U that is not a (stack of) square matrix raises
    InvalidArgument; a NaN or infinite entry, or minors that overflow,
    raise NonFinite.
    """
    U = np.asarray(U)
    if U.ndim < 2 or U.shape[-1] != U.shape[-2]:
        raise InvalidArgument(f"expected a square matrix or a stack of them, got shape {U.shape}")
    if not np.isfinite(U).all():
        raise NonFinite("U must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        E = _exterior_power(U, q)
    if not np.isfinite(E).all():
        raise NonFinite(f"exterior power overflows at q={q}")
    return E


def exp_endo(M, q: int, t: float) -> FormEndomorphism:
    """exp(-t * omega_endomorphism(M, q)) computed two independent ways.

    Path (a) is a scaling-and-squaring matrix exponential of the induced
    endomorphism; path (b) diagonalizes M and conjugates the diagonal
    exp(-t * sum(mu_J)) by the exterior power of the eigenvector matrix.
    The two must agree to 1e-8 relative to the result norm, otherwise the
    sign conventions drifted and PathMismatch is raised.  Path (b) is
    returned.  A non-finite t raises NonFinite, and so does a t for which
    the exponential is too large to represent (path (b) is formed first,
    so the dense exponential never sees such a t).
    """
    if not math.isfinite(t):
        raise NonFinite("t must be finite")
    Mm = as_hermitian(M)
    omega = omega_endomorphism(Mm, q)
    es = eig_hermitian(Mm)
    E = exterior_power_matrix(es.unitary, q)
    sums = omega.basis.membership @ es.eigenvalues
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.exp(-t * sums)
        path_b = (E * d) @ E.conj().T
    if not np.isfinite(path_b).all():
        raise NonFinite(f"exp(-t*omega) overflows at t={t!r}")
    path_a = expm(-t * omega.matrix)
    scale = max(1.0, float(np.max(np.abs(path_b))))
    if float(np.max(np.abs(path_a - path_b))) > 1e-8 * scale:
        raise PathMismatch(
            f"exterior exponential paths disagree beyond 1e-8 (n={Mm.shape[0]}, q={q})"
        )
    return FormEndomorphism(omega.basis, path_b)
