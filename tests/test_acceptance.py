"""Acceptance gate: the eleven headline checks, one test and one line each.

Every test prints "ACCEPTANCE <k>: PASS <detail>" after its asserts,
carries its own runtime budget, and pins the tolerances stated in the
project contract.  Run with -s (or read captured output) for the lines.
"""

import math
import time

import numpy as np
import pytest

from crheat.cli import main
from crheat.density import (
    curvature_point,
    density_diagonal,
    density_integrand,
    tail_certificate,
    tail_decay,
    y_condition,
)
from crheat.exterior import exp_endo
from crheat.files import format_descriptor, load_descriptor, save_descriptor
from crheat.heisenberg import boxeta_kernel, mehler_kernel
from crheat.morse import Divergent, ManifoldDescriptor, heat_trace, morse_local
from crheat.oracles import (
    GridSpec,
    box_eta_applier,
    fiber_kernel_apply,
    heat_residual_check,
    pde_evolve,
    reference_quadrature,
    semigroup_check,
)

P_MODEL = curvature_point([[1.0]], [[0.5]])
R2 = np.diag([-1.0, 1.0])
I2 = np.eye(2)
TARGET3 = (2 * math.pi) ** -3 * 2.0 / 3.0


def rand_herm(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def report(k, detail):
    print(f"ACCEPTANCE {k}: PASS {detail}")


def test_criterion_01_euler_identity():
    start = time.monotonic()
    rng = np.random.default_rng(8)
    worst = 0.0
    for k in range(100):
        n = int(rng.integers(1, 6))
        p = curvature_point(rand_herm(rng, n), rand_herm(rng, n))
        eta = float(rng.uniform(-2, 2))
        t = (0.1, 1.0, 10.0)[k % 3]
        total = sum(
            (-1) ** q * density_integrand(p, q, t, eta).trace.real
            for q in range(n + 1)
        )
        det = np.linalg.det(p.curvature.mat - 2 * eta * p.levi.mat).real
        worst = max(worst, abs(total - det) / max(1e-300, abs(det)))
    elapsed = time.monotonic() - start
    assert worst < 1e-9
    assert elapsed < 10.0
    report(1, f"alternating-sum determinant identity, worst rel {worst:.3e} ({elapsed:.1f}s)")


def test_criterion_02_kernel_vs_pde_oracle():
    start = time.monotonic()
    g = GridSpec(6.0, 0.05, 1e-3)
    ax = g.axis
    x1, x2 = np.meshgrid(ax, ax, indexing="ij")
    u0 = np.exp(-(x1**2 + x2**2) / (2 * 0.81))
    u_pde = pde_evolve(P_MODEL, 0.0, g, 0.5, u0)
    u_ker = fiber_kernel_apply(P_MODEL, 0.0, g, 0.5, u0)
    rel = float(np.sqrt(np.sum(np.abs(u_pde - u_ker) ** 2) / np.sum(np.abs(u_ker) ** 2)))
    elapsed = time.monotonic() - start
    assert rel < 1e-3
    assert elapsed < 60.0
    report(2, f"closed-form kernel vs time-stepping, rel L2 {rel:.3e} ({elapsed:.1f}s)")


def test_criterion_03_semigroup():
    start = time.monotonic()
    g = GridSpec(6.0, 0.1, 1e-3)
    worst_m = semigroup_check(
        lambda tau, x, y: mehler_kernel([[1.0]], tau, x, y), 0.5, 0.5, g
    )

    def boxeta_scalar(tau, x, y):
        z = np.array([complex(x[0], x[1])])
        w = np.array([complex(y[0], y[1])])
        return boxeta_kernel(P_MODEL, 0.0, 0, tau, z, w).matrix[0, 0]

    worst_b = semigroup_check(boxeta_scalar, 0.5, 0.5, g)
    elapsed = time.monotonic() - start
    assert worst_m < 1e-3
    assert worst_b < 1e-3
    assert elapsed < 60.0
    report(3, f"Chapman-Kolmogorov, mehler {worst_m:.3e} boxeta {worst_b:.3e} ({elapsed:.1f}s)")


def test_criterion_04_heat_residual():
    start = time.monotonic()
    w_fix = np.array([0.3, -0.4])

    def kernel(tau, x):
        z = np.array([complex(x[0], x[1])])
        w = np.array([complex(w_fix[0], w_fix[1])])
        return boxeta_kernel(P_MODEL, 0.0, 0, tau, z, w).matrix[0, 0]

    rep = heat_residual_check(kernel, box_eta_applier(1.0), 0.7)
    fine = heat_residual_check(kernel, box_eta_applier(1.0), 0.7, h=0.025)
    elapsed = time.monotonic() - start
    assert rep.max_residual < 1e-4
    # fourth-order spatial stencil: halving h divides the residual by >= 8
    assert rep.max_residual / fine.max_residual >= 8.0
    assert elapsed < 30.0
    report(4, f"PDE residual {rep.max_residual:.3e} at 20 probes, halving ratio "
              f"{rep.max_residual / fine.max_residual:.1f} ({elapsed:.1f}s)")


def test_criterion_05_morse_exact_value(capsys, tmp_path):
    start = time.monotonic()
    assert abs(morse_local(R2, I2, 1) - 2.0 / 3.0) < 1e-14
    assert morse_local(R2, I2, 0) is Divergent
    assert abs(morse_local(R2, I2, 0, delta=1.0) - 2.0 / 3.0) < 1e-14

    def absdet(e):
        return np.abs((-1.0 - 2.0 * e) * (1.0 - 2.0 * e))

    simpson_j1 = reference_quadrature(absdet, -0.5, 0.5, tol=1e-11)
    simpson_j0 = reference_quadrature(absdet, -1.0, -0.5, tol=1e-11)
    assert abs(simpson_j1 - 2.0 / 3.0) < 1e-10
    assert abs(simpson_j0 - 2.0 / 3.0) < 1e-10

    path = tmp_path / "d.json"
    save_descriptor(
        ManifoldDescriptor("sample", (curvature_point(R2, I2),)), path
    )
    code = main(["morse", "--input", str(path), "--q", "1"])
    out = capsys.readouterr().out
    assert code == 0
    weak = float([l for l in out.splitlines() if l.startswith("1,")][0].split(",")[1])
    assert weak == pytest.approx(TARGET3, rel=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(5, f"exact 2/3 integrals and CLI value {weak!r} ({elapsed:.2f}s)")


def test_criterion_06_large_time_degeneration():
    start = time.monotonic()
    d = ManifoldDescriptor("sample", (curvature_point(R2, I2),))
    err200 = abs(heat_trace(d, 1, 200.0)[1] - TARGET3)
    err10 = abs(heat_trace(d, 1, 10.0)[1] - TARGET3)
    elapsed = time.monotonic() - start
    assert err200 < 0.05 * TARGET3
    assert err200 < err10
    assert elapsed < 30.0
    report(6, f"heat trace -> Morse bound, rel err {err200 / TARGET3:.3e} at t=200 ({elapsed:.1f}s)")


def test_criterion_07_shift_invariance():
    start = time.monotonic()
    rng = np.random.default_rng(77)
    worst = 0.0
    for k in range(10):
        n = 2 + k % 2
        levi = rand_herm(rng, n)
        levi += (1.0 + max(0.0, -float(np.linalg.eigvalsh(levi)[0]))) * np.eye(n)
        curv = rand_herm(rng, n)
        a = density_diagonal(curvature_point(curv, levi), 1, 1.0).matrix
        b = density_diagonal(curvature_point(curv + 0.7 * levi, levi), 1, 1.0).matrix
        worst = max(worst, float(np.max(np.abs(a - b)) / np.max(np.abs(a))))
    elapsed = time.monotonic() - start
    assert worst < 1e-9
    assert elapsed < 30.0
    report(7, f"eta-shift invariance over 10 draws, worst rel {worst:.3e} ({elapsed:.1f}s)")


def test_criterion_08_y_condition_implies_decay():
    start = time.monotonic()
    rng = np.random.default_rng(88)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        lam = rng.choice([-1.0, 0.0, 1.0], size=n) * rng.uniform(0.5, 2.0, size=n)
        q = int(rng.integers(0, n + 1))
        if y_condition(list(lam), q):
            rep = tail_decay(np.diag(lam), q)
            assert rep.plus_decays and rep.minus_decays
            checked += 1
    elapsed = time.monotonic() - start
    assert checked > 0
    assert elapsed < 5.0
    report(8, f"decay follows from the signature condition, {checked}/200 positive cases ({elapsed:.1f}s)")


def test_criterion_09_dual_path_exponential():
    start = time.monotonic()
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        q = int(rng.integers(0, n + 1))
        # exp_endo raises PathMismatch if its two routes differ past 1e-8
        # relative to the result norm
        exp_endo(rand_herm(rng, n), q, float(rng.uniform(0.1, 3.0)))
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(9, f"eigenbases of M and of omega agree on 100 draws ({elapsed:.1f}s)")


def test_criterion_10_truncation_certificate():
    start = time.monotonic()
    p = curvature_point(R2, I2)
    full = density_diagonal(p, 1, 1.0).matrix
    c_norm = float(np.linalg.norm(p.curvature.mat))
    l_norm = float(np.linalg.norm(p.levi.mat))
    rep = tail_decay(p.levi, 1)
    certs = {}
    for width in (6.0, 14.0):
        part = density_diagonal(p, 1, 1.0, delta=width).matrix
        cert = (
            tail_certificate(c_norm, l_norm, 2, 1, 1.0, rep.rate_plus, width)
            + tail_certificate(c_norm, l_norm, 2, 1, 1.0, rep.rate_minus, width)
        ) * (2 * math.pi) ** -3
        assert float(np.max(np.abs(part - full))) <= cert
        certs[width] = cert
    elapsed = time.monotonic() - start
    assert certs[14.0] < 1e-10
    assert elapsed < 30.0
    report(10, f"certified truncation, cert(6)={certs[6.0]:.2e} cert(14)={certs[14.0]:.2e} ({elapsed:.1f}s)")


def test_criterion_11_cli_determinism(capsys, tmp_path):
    start = time.monotonic()
    path = tmp_path / "p.json"
    save_descriptor(
        ManifoldDescriptor(
            "round-trip",
            (
                curvature_point(R2, I2, weight=0.5),
                curvature_point([[0.8, 0.2 - 0.1j], [0.2 + 0.1j, -0.6]], I2, weight=0.5),
            ),
        ),
        path,
    )
    again = load_descriptor(path)
    assert format_descriptor(again) == path.read_text()

    point = str(
        __import__("pathlib").Path(__file__).parent / "data" / "point_definite_levi.json"
    )
    outs = []
    for _ in range(2):
        code = main(["density", "--input", point, "--q", "1", "--t", "1.0",
                     "--eta-grid=-1:1:0.5"])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(11, f"byte-identical reruns and write-read identity ({elapsed:.1f}s)")
