"""Adaptive Gauss-Kronrod panel integration."""

import numpy as np
import pytest

from crheat.errors import NonFinite
from crheat.quadrature import integrate_adaptive, subdivide_width


def test_polynomial_exact():
    val = integrate_adaptive(lambda x: x**2, 0.0, 1.0)
    assert abs(val - 1.0 / 3.0) < 1e-12


def test_gaussian_against_erf():
    val = integrate_adaptive(lambda x: np.exp(-(x**2)), -8.0, 8.0)
    assert val == pytest.approx(np.sqrt(np.pi), abs=1e-10)


def test_empty_and_reversed_interval():
    assert integrate_adaptive(lambda x: x, 2.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x: x, 1.0, 0.0)


def test_kink_with_interior_break():
    # |x| on [-1, 2] has a kink at 0; forcing a panel edge there keeps the
    # rule's smoothness assumption valid within every panel
    val = integrate_adaptive(np.abs, -1.0, 2.0, interior_breaks=(0.0,))
    assert abs(val - 2.5) < 1e-12


def test_oscillatory_needs_max_width():
    k = 40.0
    exact = (1.0 - np.cos(k * 3.0)) / k
    val = integrate_adaptive(lambda x: np.sin(k * x), 0.0, 3.0, max_width=0.5)
    assert abs(val - exact) < 1e-9


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
