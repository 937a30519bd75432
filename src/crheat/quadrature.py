"""Adaptive panel quadrature: 15-point Kronrod rule with embedded 7-point Gauss.

Panels are refined in deterministic rounds (every failing panel splits at its
midpoint).  All nodes of a round go to the integrand in one vectorized call
on the calling thread; a NaN or infinite node value raises NonFinite rather
than being refined forever.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFinite

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


def _norm(v) -> float:
    return float(np.max(np.abs(v))) if np.ndim(v) else abs(float(np.real(v))) + abs(
        float(np.imag(v))
    )


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
    tol_abs: float = 1e-9,
    tol_rel: float = 1e-9,
    interior_breaks=(),
    max_width: float | None = None,
    max_rounds: int = 60,
):
    """Integrate a vectorized integrand over [a, b].

    f maps an array of m abscissas to an array of m values (scalars or
    equal-shaped ndarrays stacked on axis 0).  interior_breaks forces panel
    edges (the integrand may have removable kinks there, e.g. pencil roots);
    max_width caps the initial panel width for oscillatory integrands.
    Returns the accumulated value; the combined Kronrod-vs-Gauss error is
    driven below tol_abs + tol_rel * |result|.  Raises NonFinite for an
    infinite limit or when f returns a NaN or infinite value at any node.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise NonFinite("integration limits must be finite")
    if not b > a:
        if b == a:
            return 0.0
        raise ValueError("integration interval is reversed")
    edges = [a] + [x for x in sorted(interior_breaks) if a < x < b] + [b]
    if max_width is not None:
        edges = subdivide_width(edges, max_width)
    panels = [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]

    def rule(panel_list):
        pts = np.concatenate(
            [0.5 * (lo + hi) + 0.5 * (hi - lo) * GK_NODES for lo, hi in panel_list]
        )
        vals = np.asarray(f(pts))
        if not np.isfinite(vals).all():
            raise NonFinite("integrand returned a NaN or infinite value")
        vals = vals.reshape((len(panel_list), 15) + vals.shape[1:])
        half = np.array([0.5 * (hi - lo) for lo, hi in panel_list])
        shape_tail = (1,) * (vals.ndim - 2)
        wk = GK_WEIGHTS.reshape((1, 15) + shape_tail)
        wg = G7_WEIGHTS.reshape((1, 15) + shape_tail)
        ik = (vals * wk).sum(axis=1) * half.reshape((-1,) + shape_tail)
        ig = (vals * wg).sum(axis=1) * half.reshape((-1,) + shape_tail)
        errs = [
            float(np.max(np.abs(ik[i] - ig[i]))) for i in range(len(panel_list))
        ]
        return list(ik), errs

    values, errors = rule(panels)
    total_width = b - a
    for _ in range(max_rounds):
        total = values[0] * 0.0
        for v in values:
            total = total + v
        err_total = sum(errors)
        target = tol_abs + tol_rel * _norm(total)
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
        children = []
        for i in failing:
            lo, hi = panels[i]
            mid = 0.5 * (lo + hi)
            children.append((lo, mid))
            children.append((mid, hi))
        child_vals, child_errs = rule(children)
        for pos, i in enumerate(sorted(failing, reverse=True)):
            panels[i : i + 1] = []
            values[i : i + 1] = []
            errors[i : i + 1] = []
        panels.extend(children)
        values.extend(child_vals)
        errors.extend(child_errs)
        order = sorted(range(len(panels)), key=lambda i: panels[i])
        panels = [panels[i] for i in order]
        values = [values[i] for i in order]
        errors = [errors[i] for i in order]
    raise RuntimeError("adaptive quadrature did not converge within the round budget")
