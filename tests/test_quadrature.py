"""Adaptive Gauss-Kronrod panel integration."""

import numpy as np
import pytest

from crheat import quadrature
from crheat.errors import InvalidArgument, MaxSubdivisions, NonFinite
from crheat.quadrature import MAX_NODES, integrate_adaptive, subdivide_width


def test_polynomial_exact():
    val = integrate_adaptive(lambda x: x**2, 0.0, 1.0)
    assert abs(val - 1.0 / 3.0) < 1e-12


def test_gaussian_against_erf():
    val = integrate_adaptive(lambda x: np.exp(-(x**2)), -8.0, 8.0)
    assert val == pytest.approx(np.sqrt(np.pi), abs=1e-10)


def test_empty_and_reversed_interval():
    assert integrate_adaptive(lambda x: x, 2.0, 2.0) == 0.0
    with pytest.raises(InvalidArgument):
        integrate_adaptive(lambda x: x, 1.0, 0.0)


def test_kink_with_interior_break():
    # |x| on [-1, 2] has a kink at 0; forcing a panel edge there keeps the
    # rule's smoothness assumption valid within every panel
    val = integrate_adaptive(np.abs, -1.0, 2.0, interior_breaks=(0.0,))
    assert abs(val - 2.5) < 1e-12


def test_half_period_width_cap_saves_nodes():
    # sin(kx) on [0, 3]: panels half a period wide (pi/k) resolve the phase
    # in the first round, so they reach 1e-9 on fewer nodes than no cap,
    # which bisects down to that width, and than the narrower pi/(4k+1)
    for k in (10.0, 40.0, 160.0):
        exact = (1.0 - np.cos(k * 3.0)) / k
        nodes = {}
        for name, width in (("half", np.pi / k), ("none", None), ("quarter", np.pi / (4 * k + 1))):
            calls = []

            def f(x):
                calls.append(len(x))
                return np.sin(k * x)

            val = integrate_adaptive(f, 0.0, 3.0, max_width=width)
            assert abs(val - exact) < 1e-9, (k, name)
            nodes[name] = sum(calls)
        assert nodes["half"] < min(nodes["none"], nodes["quarter"]), (k, nodes)


def test_matrix_valued_integrand():
    def f(x):
        out = np.empty((len(x), 2, 2))
        out[:, 0, 0] = x
        out[:, 0, 1] = x**2
        out[:, 1, 0] = np.sin(x)
        out[:, 1, 1] = 1.0
        return out

    val = integrate_adaptive(f, 0.0, 1.0)
    expect = np.array([[0.5, 1.0 / 3.0], [1.0 - np.cos(1.0), 1.0]])
    assert np.max(np.abs(val - expect)) < 1e-10


def test_complex_integrand():
    val = integrate_adaptive(lambda x: np.exp(1j * x), 0.0, np.pi)
    assert val == pytest.approx(2j, abs=1e-11)


def test_subdivide_width():
    out = subdivide_width([0.0, 1.0], 0.3)
    assert out[0] == 0.0 and out[-1] == 1.0
    assert max(np.diff(out)) <= 0.3 + 1e-15
    # existing break positions must survive refinement
    out2 = subdivide_width([0.0, 0.7, 1.0], 0.5)
    assert 0.7 in out2


def test_non_finite_values_raise_instead_of_refining():
    calls = []

    def f(x):
        calls.append(len(x))
        return np.where(x > 0.6, np.nan, np.sin(x))

    with pytest.raises(NonFinite):
        integrate_adaptive(f, 0.0, 1.0)
    assert calls == [15]
    with pytest.raises(NonFinite):
        integrate_adaptive(lambda x: np.full((len(x), 2, 2), np.inf), 0.0, 1.0)


def test_infinite_limits_raise():
    for a, b in ((0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0)):
        with pytest.raises(NonFinite):
            integrate_adaptive(np.cos, a, b)


def test_round_budget_exhaustion_is_typed(monkeypatch):
    def f(x):
        return np.sin(40.0 * x)

    assert integrate_adaptive(f, 0.0, 3.0) == pytest.approx((1.0 - np.cos(120.0)) / 40.0, abs=1e-9)
    monkeypatch.setattr(quadrature, "MAX_ROUNDS", 1)
    with pytest.raises(MaxSubdivisions):
        integrate_adaptive(f, 0.0, 3.0)


def test_overflowing_panel_sums_raise():
    # finite node values whose panel sums overflow: the Kronrod-minus-Gauss
    # error is NaN, which used to count as "not failing" and refine forever
    for f in (lambda x: np.full(len(x), 1e10), lambda x: np.full((len(x), 2, 2), 1e10 + 1e10j)):
        with pytest.raises(NonFinite):
            integrate_adaptive(f, -1e300, 1e300)
    # every panel finite, their total not
    with pytest.raises(NonFinite):
        integrate_adaptive(lambda x: np.full(len(x), 1e300), -1e8, 1e8, interior_breaks=(0.0,))


def test_node_budget_stops_a_never_converging_integrand():
    rng = np.random.default_rng(7)
    calls = []

    def noise(x):
        calls.append(len(x))
        return rng.standard_normal(len(x))

    with pytest.raises(MaxSubdivisions, match="nodes"):
        integrate_adaptive(noise, 0.0, 1.0)
    assert 0 < sum(calls) <= MAX_NODES
    assert len(calls) < 60
    # a width cap that would need too many panels is refused before any node
    calls.clear()
    with pytest.raises(MaxSubdivisions, match="nodes"):
        integrate_adaptive(noise, 0.0, 1e300, max_width=1.0)
    assert calls == []


def _resorting_rounds(f, a, b, tol):
    """Rounds of integrate_adaptive on a scalar integrand with the bookkeeping
    it used to have: children appended, then all panels re-sorted."""
    from crheat.quadrature import G7_WEIGHTS, GK_NODES, GK_WEIGHTS

    def rule(panel_list):
        pts = np.concatenate([0.5 * (lo + hi) + 0.5 * (hi - lo) * GK_NODES for lo, hi in panel_list])
        vals = np.asarray(f(pts)).reshape(len(panel_list), 15)
        ik, errs = [], []
        for v, (lo, hi) in zip(vals, panel_list):
            half = 0.5 * (hi - lo)
            k = (v * GK_WEIGHTS).sum(axis=0) * half
            ik.append(k)
            errs.append(float(np.max(np.abs(k - (v * G7_WEIGHTS).sum(axis=0) * half))))
        return ik, errs

    panels = [(a, b)]
    values, errors = rule(panels)
    while True:
        total = values[0] * 0.0
        for v in values:
            total = total + v
        target = tol + tol * abs(float(total))
        if sum(errors) <= target:
            return total
        failing = [i for i in range(len(panels)) if errors[i] > target * (panels[i][1] - panels[i][0]) / (b - a)]
        children = [c for i in failing for c in ((panels[i][0], 0.5 * sum(panels[i])), (0.5 * sum(panels[i]), panels[i][1]))]
        child_vals, child_errs = rule(children)
        for i in reversed(failing):
            del panels[i], values[i], errors[i]
        panels, values, errors = panels + children, values + child_vals, errors + child_errs
        order = sorted(range(len(panels)), key=lambda i: panels[i])
        panels = [panels[i] for i in order]
        values = [values[i] for i in order]
        errors = [errors[i] for i in order]


def test_spliced_refinement_matches_resorting():
    # a refinement-heavy integrand (narrow peaks): children spliced into
    # place give the bits and node sequence of appending and re-sorting
    peaks = np.array([-1.7, -0.31, 0.05, 0.9, 1.42])

    def recorder(log):
        def f(x):
            log.append(np.array(x))
            return np.sum(1.0 / ((x[:, None] - peaks) ** 2 + 1e-5), axis=1)
        return f

    got, ref = [], []
    value = integrate_adaptive(recorder(got), -2.0, 2.0, 1e-11)
    expect = _resorting_rounds(recorder(ref), -2.0, 2.0, 1e-11)
    assert len(got) == len(ref) > 8
    assert all(x.tobytes() == y.tobytes() for x, y in zip(got, ref))
    assert np.float64(value).tobytes() == np.float64(expect).tobytes()


def test_breaks_and_width_are_keyword_only():
    # a second tolerance in fifth place fails instead of becoming the breaks
    with pytest.raises(TypeError):
        integrate_adaptive(np.cos, 0.0, 1.0, 1e-9, 1e-9)
