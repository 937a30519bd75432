"""The brute-force validators themselves: quadrature, PDE stepping, checks."""

import numpy as np
import pytest

from crheat.density import curvature_point
from crheat.errors import BoundaryContamination, MaxSubdivisions
from crheat.heisenberg import mehler_kernel
from crheat.oracles import (
    GridSpec,
    fiber_kernel_apply,
    heat_residual_check,
    pde_evolve,
    reference_quadrature,
    scaled_laplacian_applier,
    semigroup_check,
)
from crheat.quadrature import integrate_adaptive

P_MODEL = curvature_point([[1.0]], [[0.5]])


def gaussian(g, s2=0.81):
    ax = g.axis
    x1, x2 = np.meshgrid(ax, ax, indexing="ij")
    return np.exp(-(x1**2 + x2**2) / (2 * s2))


def test_gridspec_invariants():
    g = GridSpec(2.0, 0.5, 0.1)
    assert np.allclose(g.axis, [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        GridSpec(2.0, -0.5, 0.1)
    with pytest.raises(ValueError):
        GridSpec(500.0, 1.0, 0.5)  # more than 400 cells per half axis
    with pytest.raises(ValueError):
        GridSpec(2.0, 0.1, 0.5)  # dt above spacing^2


def test_reference_quadrature_basics():
    assert abs(reference_quadrature(lambda x: x**2, 0.0, 1.0, tol=1e-12) - 1 / 3) < 1e-12
    v = reference_quadrature(lambda e: 1.0 - 4.0 * e**2, -0.5, 0.5)
    assert v == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_reference_quadrature_matrix_valued():
    def f(x):
        return np.array([[np.cos(x), x], [0.0, np.exp(-x)]])

    got = reference_quadrature(f, 0.0, 2.0, tol=1e-11)
    want = np.array([[np.sin(2.0), 2.0], [0.0, 1.0 - np.exp(-2.0)]])
    assert np.max(np.abs(got - want)) < 1e-10


def test_reference_quadrature_agrees_with_main_rule():
    def f(x):
        return np.exp(-(x**2)) * np.cos(3.0 * x)

    a = reference_quadrature(f, -5.0, 5.0, tol=1e-11)
    b = integrate_adaptive(lambda x: np.exp(-(x**2)) * np.cos(3.0 * x), -5.0, 5.0, 1e-12)
    assert abs(a - b) < 1e-10


def test_reference_quadrature_budget():
    with pytest.raises(MaxSubdivisions):
        reference_quadrature(lambda x: np.sin(1e6 * x), 0.0, 1.0, tol=1e-13)


def test_pde_zero_time_is_identity():
    g = GridSpec(4.0, 0.1, 1e-3)
    u0 = gaussian(g, 0.25)
    out = pde_evolve(P_MODEL, 0.0, g, 0.0, u0)
    assert np.array_equal(out, u0.astype(complex))


def test_pde_requires_commensurate_time():
    g = GridSpec(4.0, 0.1, 1e-3)
    with pytest.raises(ValueError):
        pde_evolve(P_MODEL, 0.0, g, 0.0005, gaussian(g, 0.25))


def test_pde_rejects_boundary_mass():
    g = GridSpec(4.0, 0.1, 1e-3)
    with pytest.raises(BoundaryContamination):
        pde_evolve(P_MODEL, 0.0, g, 0.1, np.ones((len(g.axis), len(g.axis))))


def test_pde_free_flow_matches_heat_kernel():
    # curvature 0 makes the pencil value vanish, so the operator is -Lap/4
    # and a Gaussian of variance s2 spreads to s2 + t/2
    p0 = curvature_point([[0.0]], [[0.5]])
    g = GridSpec(6.0, 0.1, 4e-3)
    s2 = 0.81
    u = pde_evolve(p0, 0.0, g, 0.5, gaussian(g, s2))
    ax = g.axis
    x1, x2 = np.meshgrid(ax, ax, indexing="ij")
    s2t = s2 + 0.25
    exact = (s2 / s2t) * np.exp(-(x1**2 + x2**2) / (2 * s2t))
    assert np.max(np.abs(u - exact)) < 1e-3


def test_pde_contracts_l2_norm():
    # the zero-point shift puts the ground state at eigenvalue exactly 0,
    # so the discrete flow must not grow the L2 norm
    g = GridSpec(6.0, 0.1, 4e-3)
    u0 = gaussian(g)
    u = pde_evolve(P_MODEL, 1.0, g, 0.5, u0)
    assert np.sum(np.abs(u) ** 2) <= np.sum(np.abs(u0) ** 2)


def test_kernel_apply_matches_pde():
    g = GridSpec(6.0, 0.1, 4e-3)
    u0 = gaussian(g)
    u_pde = pde_evolve(P_MODEL, 0.0, g, 0.5, u0)
    u_ker = fiber_kernel_apply(P_MODEL, 0.0, g, 0.5, u0)
    rel = np.sqrt(np.sum(np.abs(u_pde - u_ker) ** 2) / np.sum(np.abs(u_ker) ** 2))
    assert rel < 1e-3


def test_semigroup_mehler():
    g = GridSpec(6.0, 0.2, 0.01)
    worst = semigroup_check(
        lambda tau, x, y: mehler_kernel([[1.0]], tau, x, y), 0.5, 0.5, g
    )
    assert worst < 1e-3


def test_semigroup_rejects_small_times():
    g = GridSpec(6.0, 0.2, 0.01)
    with pytest.raises(ValueError):
        semigroup_check(lambda tau, x, y: mehler_kernel([[1.0]], tau, x, y), 0.02, 0.5, g)


def test_residual_classical_heat_identity():
    # the zero-curvature Mehler kernel solves du/dt = Lap(u)/2
    rep = heat_residual_check(
        lambda tau, x: mehler_kernel([[0.0]], tau, x, np.array([0.3, -0.4])),
        scaled_laplacian_applier(0.5),
        0.7,
    )
    assert rep.max_residual < 1e-5
    assert rep.discretization_error < 1e-5


def test_residual_rejects_small_time():
    with pytest.raises(ValueError):
        heat_residual_check(
            lambda tau, x: mehler_kernel([[0.0]], tau, x, np.array([0.3, -0.4])),
            scaled_laplacian_applier(0.5),
            0.2,
        )
