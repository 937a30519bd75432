"""The four seeded, closed-loop workloads of the crheat benchmark.

Each workload turns a seed into an endless sequence of ops (one op is one
top-level library call or one CLI request), grouped in fixed cycles so that
every run measures the same mix whatever its length.  Inputs depend only on
(seed, cycle, position), never on timing.  `check_op` is the cheap per-op
check that every result gets; `check_sample` runs the heavier identities on
a seeded sample.  Both run after the timed loop, never inside it.  Ops
call the library through the `crheat` package namespace, where the tracer
(tracing.py) can wrap its functions.

Why each workload exists and which layer it stresses is written down in
DESIGN.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

import crheat
import crheat.cli
from crheat import HeisenbergPoint, ManifoldDescriptor, curvature_point, save_descriptor, save_point

WARMUP_CYCLE = 1 << 30  # a cycle no run reaches, so warm-up inputs are never timed

# Gauss-Legendre rule used by the reference integrals: exact for the
# polynomial det M(eta) (degree <= 11) on each piece.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


@dataclass
class Op:
    """One top-level call: what it is, how to run it and how to report it."""

    index: int
    kind: str
    params: dict
    run: object  # zero-argument callable
    expect: dict = field(default_factory=dict)  # what check_op needs beyond the result


class Failed(Exception):
    """A correctness check rejected a result."""


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, *path])


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def definite_levi(rng: np.random.Generator, n: int) -> np.ndarray:
    """Levi form with every eigenvalue of one sign, |lambda| in [0.5, 2].

    For 1 <= q <= n-1 such a form decays in both eta-directions, so the
    full-line density exists and the tail-window loop runs.
    """
    lam = rng.uniform(0.5, 2.0, n) * (1.0 if rng.random() < 0.5 else -1.0)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    levi = (u * lam) @ u.conj().T
    return (levi + levi.conj().T) / 2.0


def near(base: np.ndarray, rng: np.random.Generator, rel: float = 0.05) -> np.ndarray:
    """`base` plus a seeded Hermitian perturbation of about `rel` of its norm.

    Workloads that reuse a few inputs for a whole run draw them near fixed
    base inputs, so that no seed gets systematically cheaper or dearer
    inputs; workloads with fresh inputs per op average over ~100 ops instead.
    """
    n = base.shape[0]
    return base + rel * np.linalg.norm(base, 2) / (2.0 * math.sqrt(n)) * random_hermitian(rng, n)


def det_integral(curvature, levi, lo: float, hi: float, absolute: bool) -> float:
    """int_lo^hi det M(eta) (or |det M|) d eta with M = curvature - 2 eta levi.

    Independent of pencil_det_poly: the determinant comes from LAPACK at
    Gauss-Legendre nodes, and for |det| the pieces are split at the real
    generalized eigenvalues of (curvature, 2 levi), where det M changes sign.
    """
    edges = [lo, hi]
    if absolute:
        ev = scipy.linalg.eigvals(curvature, 2.0 * levi)
        real = [float(z.real) for z in ev if np.isfinite(z) and abs(z.imag) <= 1e-7 * (1.0 + abs(z))]
        edges = [lo] + sorted(r for r in real if lo < r < hi) + [hi]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        vals = np.array([np.linalg.det(curvature - 2.0 * (mid + half * x) * levi).real for x in _GL_X])
        total += half * float(np.dot(_GL_W, np.abs(vals) if absolute else vals))
    return total


def _finite(a) -> bool:
    return bool(np.all(np.isfinite(np.asarray(a))))


def _rel(a, b, scale) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / max(float(scale), 1e-300)


def _cmat(m) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _point_doc(p) -> dict:
    return {"curvature": _cmat(p.curvature.mat), "levi": _cmat(p.levi.mat)}


class Workload:
    """Base: fixed cycle of op templates, fresh inputs per op."""

    name = ""
    tag = 0  # the workload's own stream in every rng path
    cycle_ops = 0

    def __init__(self, seed: int, root: str, workdir: str):
        self.seed = seed
        self.root = root
        self.workdir = workdir

    def setup(self):
        """Build fixed inputs and write input files."""

    def op(self, cycle: int, pos: int) -> Op:
        raise NotImplementedError

    def ops(self):
        """Endless op stream; ops of a cycle are consecutive."""
        cycle = 0
        while True:
            for pos in range(self.cycle_ops):
                yield self.op(cycle, pos)
            cycle += 1

    def warmup(self):
        """Run one op of each kind untimed so lazy set-up and caches settle."""
        seen = set()
        for pos in range(self.cycle_ops):
            op = self.op(WARMUP_CYCLE, pos)
            if op.kind not in seen:
                seen.add(op.kind)
                op.run()

    def check_op(self, op: Op, result):
        """Raise Failed if the result of one op is wrong."""

    def check_sample(self, records, rng) -> list:
        """Heavier identities on a seeded sample; returns (index, reason) pairs."""
        return []


# ---------------------------------------------------------------------------


class DensityPencils(Workload):
    """density_diagonal on a fresh random pencil per op (node-engine workload)."""

    name, tag = "density_pencils", 1
    # (mode, n, t): two thirds delta=4, one third full line on definite Levi
    # forms.  n >= 6, and full-line n >= 5, are left out: at this commit they
    # take 1-3.5 s per op, which would leave fewer than 100 ops in a run.
    CYCLE = (
        ("delta", 3, 0.5), ("full", 3, 1.0), ("delta", 4, 1.0), ("delta", 4, 2.0),
        ("full", 3, 2.0), ("delta", 3, 2.0), ("delta", 4, 2.0), ("full", 3, 0.5),
        ("delta", 4, 0.5), ("delta", 3, 1.0), ("full", 4, 1.0), ("delta", 5, 0.5),
    )
    cycle_ops = len(CYCLE)
    DELTA = 4.0

    def inputs(self, cycle: int, pos: int):
        mode, n, t = self.CYCLE[pos]
        rng = _rng(self.seed, self.tag, cycle, pos)
        curvature = random_hermitian(rng, n)
        levi = definite_levi(rng, n) if mode == "full" else random_hermitian(rng, n)
        return mode, n, n // 2, t, curvature, levi

    def op(self, cycle, pos):
        mode, n, q, t, curvature, levi = self.inputs(cycle, pos)
        p = curvature_point(curvature, levi)
        delta = self.DELTA if mode == "delta" else None
        params = {"cycle": cycle, "pos": pos, "mode": mode, "n": n, "q": q, "t": t, "delta": delta, **_point_doc(p)}
        return Op(cycle * self.cycle_ops + pos, mode, params, lambda: crheat.density_diagonal(p, q, t, delta), {"point": p})

    def check_op(self, op, result):
        a = result.matrix
        if not _finite(a):
            raise Failed("non-finite density")
        scale = float(np.max(np.abs(a)))
        if _rel(a, a.conj().T, scale) > 1e-10:
            raise Failed("density is not Hermitian")
        lam = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
        if lam[0] < -1e-10 * max(scale, 1e-300):
            raise Failed(f"density is not PSD (min eigenvalue {lam[0]:.3e})")

    def check_sample(self, records, rng):
        """Sum_q (-1)^q tr D_q = (2 pi)^-(n+1) int det M over [-delta, delta].

        The op's own result stands in for its degree; the other degrees are
        recomputed.  Sampled among delta ops with n <= 4 to keep checking cheap.
        """
        pool = [r for r in records if r[0].kind == "delta" and r[0].params["n"] <= 4 and r[2] is None]
        out = []
        for k in rng.choice(len(pool), size=min(2, len(pool)), replace=False):
            op, result, _ = pool[int(k)]
            p, n, q0, t = op.expect["point"], op.params["n"], op.params["q"], op.params["t"]
            traces = [
                result.trace if q == q0 else crheat.density_diagonal(p, q, t, self.DELTA).trace
                for q in range(n + 1)
            ]
            alt = sum((-1) ** q * tr.real for q, tr in enumerate(traces))
            ref = (2.0 * math.pi) ** (-(n + 1)) * det_integral(
                p.curvature.mat, p.levi.mat, -self.DELTA, self.DELTA, absolute=False
            )
            scale = sum(abs(tr) for tr in traces)
            if not abs(alt - ref) <= 1e-8 * scale:
                out.append((op.index, f"alternating trace {alt!r} != det integral {ref!r}"))
        return out


# ---------------------------------------------------------------------------


class GroupKernel(Workload):
    """Heisenberg-group kernels at fixed rigid points, reused over and over."""

    name, tag = "group_kernel", 2
    # slice: theta-slice of a 3D (z, theta) grid, forward then adjoint batch;
    # point: truncated pointwise kernel with a theta gap; row: boxeta_kernel
    # along a row of a z-grid (the call pattern of the semigroup check).
    CYCLE = (
        ("row", 0), ("point", 1), ("row", 1), ("slice", 0), ("row", 2), ("point", 2),
        ("row", 3), ("slice", 1), ("row", 4), ("point", 3), ("row", 5), ("slice", 2),
    )
    cycle_ops = len(CYCLE)
    SLICE_THETAS = (-1.0, 0.0, 0.75)  # one per slice position, so every cycle costs the same
    ROW_CALLS = 300
    DELTA_GRID, DELTA_POINT, T = 6.0, 4.0, 0.5
    POINT_GAP = 1.5  # |theta_x - theta_y|; sets how many panels the width cap makes

    def setup(self):
        rng, base = _rng(self.seed, self.tag), _rng(0, self.tag)
        one = np.eye(1)
        # the convex point and grid of the semigroup test, over a smaller z-box
        self.grid_point = curvature_point(near(one, rng), near(one, rng))
        self.grid_x = HeisenbergPoint((complex(*rng.uniform(-0.8, 0.8, 2)),), 0.1)
        hz = 0.2
        zax = np.arange(-2.0, 2.0 + hz / 2, hz)
        x1, x2 = np.meshgrid(zax, zax, indexing="ij")
        self.grid_z = (x1 + 1j * x2).reshape(-1, 1)
        self.kernel_points = {
            n: curvature_point(near(random_hermitian(base, n), rng), near(random_hermitian(base, n), rng))
            for n in (1, 2, 3)
        }
        self.row_point = curvature_point(near(one, rng), near(0.5 * one, rng))

    def op(self, cycle, pos):
        kind, arg = self.CYCLE[pos]
        index = cycle * self.cycle_ops + pos
        rng = _rng(self.seed, self.tag, cycle, pos)
        if kind == "slice":
            theta = self.SLICE_THETAS[arg]
            p, x, zs = self.grid_point, self.grid_x, self.grid_z
            thetas = np.full(len(zs), theta)

            def run():
                fwd = crheat.heisenberg_kernel_batch(p, 0, self.T, x, zs, thetas, self.DELTA_GRID)
                adj = crheat.heisenberg_kernel_batch(p, 0, self.T, x, zs, thetas, self.DELTA_GRID, adjoint=True)
                return fwd, adj

            return Op(index, kind, {"cycle": cycle, "pos": pos, "theta": theta}, run, {"thetas": thetas})
        if kind == "point":
            n = arg
            p = self.kernel_points[n]
            gap = self.POINT_GAP * (1.0 if rng.random() < 0.5 else -1.0)
            zx = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n)
            zy = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n)
            x = HeisenbergPoint(tuple(zx), gap / 2.0)
            y = HeisenbergPoint(tuple(zy), -gap / 2.0)
            q = n // 2
            params = {"cycle": cycle, "pos": pos, "n": n, "q": q, "gap": gap, "x": repr(x), "y": repr(y)}
            return Op(index, kind, params,
                      lambda: crheat.heisenberg_heat_kernel(p, q, self.T, x, y, delta=self.DELTA_POINT),
                      {"point": p, "q": q, "x": x, "y": y})
        eta = float(rng.uniform(-1.0, 1.0))
        w = complex(*rng.uniform(-0.5, 0.5, 2))
        xs = np.linspace(-3.0, 3.0, self.ROW_CALLS) + 1j * float(rng.uniform(-1.0, 1.0))
        p = self.row_point

        def run():
            return np.array([crheat.boxeta_kernel(p, eta, 0, self.T, [z], [w]).matrix[0, 0] for z in xs])

        return Op(index, kind, {"cycle": cycle, "pos": pos, "eta": eta, "w": repr(w)}, run,
                  {"eta": eta, "w": w, "xs": xs})

    def check_op(self, op, result):
        arrays = result if op.kind == "slice" else (result.matrix if op.kind == "point" else result,)
        if not all(_finite(a) for a in arrays):
            raise Failed("non-finite kernel value")

    def check_sample(self, records, rng):
        out = []
        # Library consistency at the fixed points: K(0, 0) equals the density
        # (the grid point and one sampled pointwise-kernel point).
        m = int(rng.integers(1, 4))
        for n, p, q, delta in ((1, self.grid_point, 0, self.DELTA_GRID),
                               (m, self.kernel_points[m], m // 2, self.DELTA_POINT)):
            o = HeisenbergPoint((0j,) * n, 0.0)
            k = crheat.heisenberg_heat_kernel(p, q, self.T, o, o, delta=delta).matrix
            d = crheat.density_diagonal(p, q, self.T, delta).matrix
            if not _rel(k, d, np.max(np.abs(d))) <= 1e-8:
                out.append((-1, f"K(0,0) != density at n={n}"))
        by_kind = {}
        for r in records:
            if r[2] is None:
                by_kind.setdefault(r[0].kind, []).append(r)
        # Sampled batch entries, forward and adjoint, against the pointwise kernel.
        for op, (fwd, adj), _ in self._pick(by_kind.get("slice", []), rng, 1):
            mag = np.abs(fwd[:, 0, 0])
            big = np.flatnonzero(mag >= 1e-3 * mag.max())
            for i in rng.choice(big, size=min(2, len(big)), replace=False):
                u = HeisenbergPoint((complex(self.grid_z[i, 0]),), float(op.expect["thetas"][i]))
                kf = crheat.heisenberg_heat_kernel(self.grid_point, 0, self.T, self.grid_x, u, delta=self.DELTA_GRID)
                ka = crheat.heisenberg_heat_kernel(self.grid_point, 0, self.T, u, self.grid_x, delta=self.DELTA_GRID)
                if not _rel(fwd[i], kf.matrix, np.max(np.abs(fwd))) <= 1e-6:
                    out.append((op.index, f"batch entry {i} != pointwise kernel"))
                if not _rel(adj[i], ka.matrix, np.max(np.abs(adj))) <= 1e-6:
                    out.append((op.index, f"adjoint batch entry {i} != pointwise kernel"))
        # A pointwise op against a one-point batch.
        for op, result, _ in self._pick(by_kind.get("point", []), rng, 1):
            e = op.expect
            b = crheat.heisenberg_kernel_batch(e["point"], e["q"], self.T, e["x"], [e["y"].z], [e["y"].theta], self.DELTA_POINT)
            if not _rel(result.matrix, b[0], np.max(np.abs(result.matrix))) <= 1e-6:
                out.append((op.index, "pointwise kernel != one-point batch"))
        # Whole boxeta rows against Mehler's formula at time t/2.
        for op, row, _ in self._pick(by_kind.get("row", []), rng, 2):
            e = op.expect
            M = self.row_point.curvature.mat - 2.0 * e["eta"] * self.row_point.levi.mat
            wv = np.array([e["w"].real, e["w"].imag])
            ref = np.array([crheat.mehler_kernel(M, self.T / 2.0, np.array([z.real, z.imag]), wv) for z in e["xs"]])
            if not _rel(row, ref, np.max(np.abs(ref))) <= 1e-12:
                out.append((op.index, "boxeta row != Mehler kernel"))
        return out

    @staticmethod
    def _pick(items, rng, k):
        return [items[int(i)] for i in rng.choice(len(items), size=min(k, len(items)), replace=False)]


# ---------------------------------------------------------------------------


class MorseDescriptor(Workload):
    """morse_global on multi-point descriptors, plus a minority of heat_trace ops."""

    name, tag = "morse_descriptor", 3
    # (kind, n, points, delta).  n >= 10 and heat traces at n=4 are left out:
    # at this commit they take 0.8-2 s per op, which would leave fewer than
    # 100 ops in a run.
    CYCLE = (
        ("morse", 8, 3, 2.0), ("morse", 9, 3, None), ("morse", 8, 4, None), ("heat", 3, 2, 2.0),
        ("morse", 8, 3, None), ("morse", 8, 3, 2.0), ("morse", 9, 3, 2.0), ("morse", 8, 4, 2.0),
        ("heat", 3, 2, 2.0), ("morse", 8, 3, None), ("morse", 8, 4, None), ("morse", 8, 3, 2.0),
    )
    cycle_ops = len(CYCLE)
    HEAT_TIMES = (0.5, 1.0)

    def descriptor(self, cycle, pos):
        kind, n, count, delta = self.CYCLE[pos]
        rng = _rng(self.seed, self.tag, cycle, pos)
        pts = tuple(
            curvature_point(random_hermitian(rng, n), random_hermitian(rng, n), weight=float(rng.uniform(0.5, 2.0)))
            for _ in range(count)
        )
        return kind, n, delta, ManifoldDescriptor(f"bench-{cycle}-{pos}", pts)

    def op(self, cycle, pos):
        kind, n, delta, d = self.descriptor(cycle, pos)
        q = n // 2
        params = {"cycle": cycle, "pos": pos, "kind": kind, "n": n, "q": q, "delta": delta,
                  "points": [dict(_point_doc(p), weight=p.weight) for p in d.points]}
        if kind == "morse":
            run = lambda: crheat.morse_global(d, q, delta)  # noqa: E731
        else:
            run = lambda: [crheat.heat_trace(d, q, t, delta) for t in self.HEAT_TIMES]  # noqa: E731
        return Op(cycle * self.cycle_ops + pos, kind, params, run, {"descriptor": d, "q": q, "delta": delta})

    def check_op(self, op, result):
        if op.kind == "heat":
            for vals in result:
                if len(vals) != op.expect["q"] + 1 or not all(isinstance(v, float) and math.isfinite(v) and v >= 0 for v in vals):
                    raise Failed(f"heat trace values {vals!r} not finite and nonnegative")
            return
        weak, strong, feas = result.per_j_weak, result.strong_partial_sums, result.feasibility
        if len(weak) != op.expect["q"] + 1:
            raise Failed("wrong number of degrees")
        for j, (w, f) in enumerate(zip(weak, feas)):
            if f != (not math.isnan(w)) or (f and not (math.isfinite(w) and w >= 0)):
                raise Failed(f"weak bound {w!r} at j={j} inconsistent with feasibility {f}")
            if op.expect["delta"] is not None and not f:
                raise Failed(f"truncated weak bound at j={j} reported infeasible")
        for m, s in enumerate(strong):
            if not math.isnan(s):
                ref = sum((-1.0) ** (m - j) * weak[j] for j in range(m + 1))
                if not abs(s - ref) <= 1e-12 * sum(abs(w) for w in weak[: m + 1]):
                    raise Failed(f"strong sum at m={m} disagrees with the weak bounds")

    def check_sample(self, records, rng):
        out = []
        ok = [r for r in records if r[2] is None and r[0].expect["delta"] is not None]
        morse_ops = [r for r in ok if r[0].kind == "morse" and r[0].params["n"] == 8]
        heat_ops = [r for r in ok if r[0].kind == "heat" and r[0].params["n"] == 3]
        norm = lambda n: (2.0 * math.pi) ** (-(n + 1))  # noqa: E731
        for k in rng.choice(len(morse_ops), size=min(1, len(morse_ops)), replace=False):
            op, result, _ = morse_ops[int(k)]
            d, delta, n = op.expect["descriptor"], op.expect["delta"], op.params["n"]
            full = crheat.morse_global(d, n, delta)
            if tuple(full.per_j_weak[: op.expect["q"] + 1]) != tuple(result.per_j_weak):
                out.append((op.index, "weak bounds change with the requested degree"))
            ref = norm(n) * sum(
                p.weight * det_integral(p.curvature.mat, p.levi.mat, -delta, delta, absolute=True) for p in d.points
            )
            if not abs(sum(full.per_j_weak) - ref) <= 1e-8 * abs(ref):
                out.append((op.index, f"sum of weak bounds {sum(full.per_j_weak)!r} != |det| integral {ref!r}"))
        for k in rng.choice(len(heat_ops), size=min(1, len(heat_ops)), replace=False):
            op, result, _ = heat_ops[int(k)]
            d, delta, n = op.expect["descriptor"], op.expect["delta"], op.params["n"]
            t = self.HEAT_TIMES[0]
            full = crheat.heat_trace(d, n, t, delta)
            if list(full[: op.expect["q"] + 1]) != list(result[0]):
                out.append((op.index, "heat trace changes with the requested degree"))
            alt = sum((-1) ** j * v for j, v in enumerate(full))
            ref = norm(n) * sum(
                p.weight * det_integral(p.curvature.mat, p.levi.mat, -delta, delta, absolute=False) for p in d.points
            )
            if not abs(alt - ref) <= 1e-8 * sum(abs(v) for v in full):
                out.append((op.index, f"alternating heat trace {alt!r} != det integral {ref!r}"))
        return out


# ---------------------------------------------------------------------------


def run_cli(argv) -> tuple:
    """crheat.cli.main in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = crheat.cli.main(list(argv))
        except SystemExit as e:  # argparse usage errors
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue(), err.getvalue()


class CliMix(Workload):
    """A fixed request mix through crheat.cli.main, stdout and stderr captured."""

    name, tag = "cli_mix", 4
    SUITES = ("hermitian", "exterior", "density", "mehler", "heisenberg", "morse")

    def setup(self):
        rng, base = _rng(self.seed, self.tag), _rng(0, self.tag)
        os.makedirs(self.workdir, exist_ok=True)
        data = os.path.join(self.root, "tests", "data")
        convex = os.path.join(data, "point_convex.json")
        definite = os.path.join(data, "point_definite_levi.json")
        indefinite = os.path.join(data, "descriptor_indefinite.json")
        gen2 = os.path.join(self.workdir, "point_n2.json")
        gen3 = os.path.join(self.workdir, "point_n3.json")
        gend = os.path.join(self.workdir, "descriptor_n3.json")
        bad = os.path.join(self.workdir, "malformed.json")
        for path, n in ((gen2, 2), (gen3, 3)):
            save_point(curvature_point(near(random_hermitian(base, n), rng), near(definite_levi(base, n), rng)), path)
        save_descriptor(ManifoldDescriptor("bench", tuple(
            curvature_point(near(random_hermitian(base, 3), rng), near(random_hermitian(base, 3), rng),
                            weight=float(rng.uniform(0.5, 2.0)))
            for _ in range(2)
        )), gend)
        with open(bad, "w", encoding="utf-8") as f:
            f.write('{"schema_version": "1", "n": 1, "levi": [[[0.5, 0.0]]], "curvature": [[[1.0]]]}\n')
        def coords(n, theta):  # seeded z, fixed theta: the theta gap sets the kernel's cost
            return ",".join([repr(round(float(v), 6)) for v in rng.uniform(-0.6, 0.6, 2 * n)] + [repr(theta)])

        xa, ya, x5, y5 = coords(1, 0.3), coords(1, -0.2), coords(2, 0.2), coords(2, -0.1)
        # Values that start with '-' go as --opt=value: argparse reads
        # "--eta-grid -2:2:0.5" as two flags and exits 2 (a known defect).
        d, k, m = "density", "kernel", "morse"
        base = [
            (0, [d, "--input", convex, "--q", "0", "--t", "1", "--delta", "3"]),
            (0, [d, "--input", definite, "--q", "1", "--t", "1", "--eta-grid=-2:2:0.5", "--format", "json"]),
            (0, [k, "--input", convex, "--q", "0", "--t", "0.5", f"--x={xa}", f"--y={ya}", "--delta", "3"]),
            (0, [m, "--input", indefinite, "--q", "1", "--heat-t", "0.5,1", "--format", "json"]),
            (0, [d, "--input", gen2, "--q", "1", "--t", "0.5", "--format", "json"]),
            (0, [k, "--input", gen2, "--q", "1", "--t", "1", f"--x={x5}", f"--y={y5}", "--delta", "2", "--format", "json"]),
            (0, [m, "--input", gend, "--q", "1", "--delta", "2", "--heat-t", "0.5"]),
            (0, [d, "--input", gen3, "--q", "1", "--t", "2", "--delta", "2", "--eta-grid=-1:1:0.25"]),
            (0, [m, "--input", indefinite, "--q", "2", "--delta", "1.5"]),
            (2, [d, "--input", bad, "--q", "0", "--t", "1"]),
            (3, [d, "--input", convex, "--q", "0", "--t", "1"]),
            (2, [d, "--input", convex, "--q", "5", "--t", "1", "--delta", "2"]),
        ]
        # One cycle: every base request once per validate suite, suites in rotation.
        self.requests = []
        for k, suite in enumerate(self.SUITES):
            self.requests.append((0, ["validate", "--suite", suite]))
            self.requests.extend(base[k % 2 :: 2])
        self.cycle_ops = len(self.requests)

    def op(self, cycle, pos):
        code, argv = self.requests[pos]
        params = {"cycle": cycle, "pos": pos, "argv": argv}
        return Op(cycle * self.cycle_ops + pos, argv[0], params, lambda: run_cli(argv), {"code": code})

    def warmup(self):
        """One request per subcommand except validate, whose suites are the load."""
        seen = set()
        for pos in range(self.cycle_ops):
            op = self.op(WARMUP_CYCLE, pos)
            if op.kind != "validate" and op.kind not in seen:
                seen.add(op.kind)
                op.run()

    def check_op(self, op, result):
        code, out, err = result
        if code != op.expect["code"]:
            raise Failed(f"exit code {code}, expected {op.expect['code']}: {err.strip()[:200]}")
        if code != 0:
            if out or not err:
                raise Failed("error request wrote stdout or no message")
            return
        if op.kind == "validate":
            return
        if "--format" in op.params["argv"] and "json" in op.params["argv"]:
            doc = json.loads(out)
            text = json.dumps(doc)
            if "NaN" in text or "Infinity" in text:
                raise Failed("non-finite number in JSON output")
        elif "nan" in out or "inf" in out:
            raise Failed("non-finite number in CSV output")

    def check_sample(self, records, rng):
        """Every response is byte-identical to the first response to its argv."""
        first = {}
        out = []
        for op, result, error in records:
            if error is not None:
                continue
            key = tuple(op.params["argv"])
            if key not in first:
                first[key] = result[1]
            elif result[1] != first[key]:
                out.append((op.index, "stdout differs from the first response to the same argv"))
        return out


WORKLOADS = {cls.name: cls for cls in (DensityPencils, GroupKernel, MorseDescriptor, CliMix)}
