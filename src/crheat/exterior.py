"""Exterior-algebra combinatorics on the ordered basis of Lambda^q.

The degree-q endomorphism induced by an n x n Hermitian coefficient matrix
via wedge-and-contract, and its exponential computed along two independent
routes (dense matrix exponential vs diagonalization plus q-fold exterior
powers).  The multi-index basis is lexicographic everywhere in the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.linalg import expm

from .errors import DegreeOutOfRange, PathMismatch
from .hermitian import as_hermitian, eig_hermitian


@dataclass(frozen=True)
class MultiIndexBasis:
    """Strictly increasing q-tuples from {1..n} in lexicographic order."""

    n: int
    q: int
    indices: tuple


@dataclass(frozen=True)
class FormEndomorphism:
    """A complex matrix acting on the ordered Lambda^q basis."""

    basis: MultiIndexBasis
    matrix: np.ndarray

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


def basis(n: int, q: int) -> MultiIndexBasis:
    """The ordered multi-index basis of (0,q) components in dimension n."""
    if n < 1 or not 0 <= q <= n:
        raise DegreeOutOfRange(f"degree q={q} outside 0..{n} (n={n})")
    return MultiIndexBasis(n, q, tuple(combinations(range(1, n + 1), q)))


def subset_sums(values: np.ndarray, indices) -> np.ndarray:
    """Sum of values[j-1] over each multi-index J (empty sum is 0)."""
    return np.array([sum(values[j - 1] for j in J) for J in indices], dtype=float)


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


def exterior_power_matrix(U: np.ndarray, q: int) -> np.ndarray:
    """q-fold exterior power of U on the lexicographic basis (q x q minors).

    Entry (r, c) is det U[J_r, J_c].  All C(n,q)^2 minors are gathered
    into one (dim, dim, q, q) stack and taken with a single determinant
    call.
    """
    n = U.shape[0]
    b = basis(n, q)
    if q == 0:
        return np.ones((1, 1), dtype=complex)
    idx = np.array(b.indices) - 1
    minors = U[idx[:, None, :, None], idx[None, :, None, :]]
    return np.linalg.det(minors.astype(complex, copy=False))


def exp_endo(M, q: int, t: float) -> FormEndomorphism:
    """exp(-t * omega_endomorphism(M, q)) computed two independent ways.

    Path (a) is a scaling-and-squaring matrix exponential of the induced
    endomorphism; path (b) diagonalizes M and conjugates the diagonal
    exp(-t * sum(mu_J)) by the exterior power of the eigenvector matrix.
    The two must agree to 1e-8 relative to the result norm, otherwise the
    sign conventions drifted and PathMismatch is raised.  Path (b) is
    returned.
    """
    Mm = as_hermitian(M)
    omega = omega_endomorphism(Mm, q)
    path_a = expm(-t * omega.matrix)
    es = eig_hermitian(Mm)
    E = exterior_power_matrix(es.unitary, q)
    sums = subset_sums(es.eigenvalues, omega.basis.indices)
    with np.errstate(over="ignore"):
        d = np.exp(-t * sums)
    path_b = (E * d) @ E.conj().T
    scale = max(1.0, float(np.max(np.abs(path_b))))
    if float(np.max(np.abs(path_a - path_b))) > 1e-8 * scale:
        raise PathMismatch(
            f"exterior exponential paths disagree beyond 1e-8 (n={Mm.shape[0]}, q={q})"
        )
    return FormEndomorphism(omega.basis, path_b)
