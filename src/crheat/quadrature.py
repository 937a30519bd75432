"""Adaptive panel quadrature: 15-point Kronrod rule with embedded 7-point Gauss.

Panels are refined in deterministic rounds (every failing panel splits at its
midpoint).  All nodes of a round go to the integrand in one vectorized call
on the calling thread; a NaN or infinite node value, or a panel sum that
overflows, raises NonFinite rather than being refined forever, and no call
evaluates more than MAX_NODES nodes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgument, MaxSubdivisions, NonFinite

# Kronrod 15-point nodes on [-1,1] with Kronrod weights and the embedded
# Gauss-7 weights (zero at Kronrod-only nodes), in ascending node order.
_GK = (
    (-0.991455371120813, 0.022935322010529, 0.000000000000000),
    (-0.949107912342759, 0.063092092629979, 0.129484966168870),
    (-0.864864423359769, 0.104790010322250, 0.000000000000000),
    (-0.741531185599394, 0.140653259715525, 0.279705391489277),
    (-0.586087235467691, 0.169004726639267, 0.000000000000000),
    (-0.405845151377397, 0.190350578064785, 0.381830050505119),
    (-0.207784955007898, 0.204432940075298, 0.000000000000000),
    (0.000000000000000, 0.209482141084728, 0.417959183673469),
    (0.207784955007898, 0.204432940075298, 0.000000000000000),
    (0.405845151377397, 0.190350578064785, 0.381830050505119),
    (0.586087235467691, 0.169004726639267, 0.000000000000000),
    (0.741531185599394, 0.140653259715525, 0.279705391489277),
    (0.864864423359769, 0.104790010322250, 0.000000000000000),
    (0.949107912342759, 0.063092092629979, 0.129484966168870),
    (0.991455371120813, 0.022935322010529, 0.000000000000000),
)
GK_NODES = np.array([row[0] for row in _GK])
GK_WEIGHTS = np.array([row[1] for row in _GK])
G7_WEIGHTS = np.array([row[2] for row in _GK])

# Refinement rounds one integrate_adaptive call may make.
MAX_ROUNDS = 60

# Integrand evaluations one integrate_adaptive call may make, counting the
# initial panels.  The library's own integrals stay far below it (see
# CHANGES.md); an integrand that never converges reaches it within a
# dozen rounds, where MAX_ROUNDS alone would allow exponential growth.
MAX_NODES = 50_000


def subdivide_width(breaks, max_width: float) -> list[float]:
    """Refine a sorted break list so no panel exceeds max_width."""
    out = [breaks[0]]
    for right in breaks[1:]:
        left = out[-1]
        pieces = max(1, int(np.ceil((right - left) / max_width)))
        for i in range(1, pieces + 1):
            out.append(left + (right - left) * i / pieces)
    return out


def integrate_adaptive(
    f,
    a: float,
    b: float,
    tol: float = 1e-9,
    *,
    interior_breaks=(),
    max_width: float | None = None,
):
    """Integrate a vectorized integrand over [a, b].

    f maps an array of m abscissas to an array of m values (scalars or
    equal-shaped ndarrays stacked on axis 0).  interior_breaks forces panel
    edges (the integrand may have removable kinks there, e.g. pencil roots);
    max_width caps the initial panel width for oscillatory integrands.
    Returns the accumulated value; the combined Kronrod-vs-Gauss error is
    driven below tol * (1 + |result|), with |result| the largest modulus
    of its entries.  Raises InvalidArgument for b < a, for a tol that is
    not finite and positive, or a max_width that is not positive (NaN
    included);
    NonFinite for an infinite limit, when f returns a NaN or infinite
    value at any node, or when a panel sum or the total overflows; and
    MaxSubdivisions when MAX_ROUNDS refinement rounds do not reach the
    tolerance or the rounds would exceed MAX_NODES nodes.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise NonFinite("integration limits must be finite")
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidArgument("tol must be finite and positive")
    if max_width is not None and not max_width > 0:
        raise InvalidArgument("max_width must be positive")
    if not b > a:
        if b == a:
            return 0.0
        raise InvalidArgument("integration interval is reversed")
    edges = [a] + [x for x in sorted(interior_breaks) if a < x < b] + [b]
    if max_width is not None:
        # each segment gets at most width / max_width + 1 pieces
        if 15 * ((b - a) / max_width + len(edges)) > MAX_NODES:
            raise MaxSubdivisions(f"panels of width {max_width} would exceed {MAX_NODES} nodes")
        edges = subdivide_width(edges, max_width)
    panels = [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
    nodes = 15 * len(panels)

    def rule(panel_list):
        pts = np.concatenate(
            [0.5 * (lo + hi) + 0.5 * (hi - lo) * GK_NODES for lo, hi in panel_list]
        )
        # Overflow, in f far out on the line or in a panel sum, leaves
        # non-finite values: they raise here or in the round check.
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(f(pts))
            if not np.isfinite(vals).all():
                raise NonFinite("integrand returned a NaN or infinite value")
            vals = vals.reshape((len(panel_list), 15) + vals.shape[1:])
            shape_tail = (1,) * (vals.ndim - 2)
            wk = GK_WEIGHTS.reshape((15,) + shape_tail)
            wg = G7_WEIGHTS.reshape((15,) + shape_tail)
            # Panel by panel, so no temporary as large as vals is ever built.
            ik, errs = [], []
            for v, (lo, hi) in zip(vals, panel_list):
                half = 0.5 * (hi - lo)
                k = (v * wk).sum(axis=0) * half
                ik.append(k)
                errs.append(float(np.max(np.abs(k - (v * wg).sum(axis=0) * half))))
        return ik, errs

    values, errors = rule(panels)
    total_width = b - a
    for _ in range(MAX_ROUNDS):
        with np.errstate(over="ignore", invalid="ignore"):
            total = values[0] * 0.0
            for v in values:
                total = total + v
        err_total = sum(errors)
        # not tol * (1 + |total|), which rounds differently
        target = tol + tol * float(np.max(np.abs(total)))
        if not math.isfinite(err_total + target):
            raise NonFinite("a panel sum overflows: the integral is too large to represent")
        if err_total <= target:
            return total
        failing = [
            i
            for i in range(len(panels))
            if errors[i] > target * (panels[i][1] - panels[i][0]) / total_width
        ]
        if not failing:
            # Global error still high but spread thinly: split the worst half.
            order = sorted(range(len(panels)), key=lambda i: -errors[i])
            failing = order[: max(1, len(order) // 2)]
        nodes += 30 * len(failing)
        if nodes > MAX_NODES:
            raise MaxSubdivisions(f"adaptive quadrature would exceed {MAX_NODES} nodes")
        children = []
        for i in failing:
            lo, hi = panels[i]
            mid = 0.5 * (lo + hi)
            children.append((lo, mid))
            children.append((mid, hi))
        child_vals, child_errs = rule(children)
        # Each panel's two children take its place, from the right so that
        # the indices still to come stay valid; panels stay in order.
        for pos, i in sorted(enumerate(failing), key=lambda e: e[1], reverse=True):
            pair = slice(2 * pos, 2 * pos + 2)
            panels[i : i + 1] = children[pair]
            values[i : i + 1] = child_vals[pair]
            errors[i : i + 1] = child_errs[pair]
    raise MaxSubdivisions(f"adaptive quadrature did not converge within {MAX_ROUNDS} rounds")
