"""A fixed seeded battery of library calls, and a per-function comparison of two of its runs.

    python3 tools/same_numbers.py --out change.json
    python3 tools/same_numbers.py --out parent.json --src ../parent/src
    python3 tools/same_numbers.py --compare parent.json change.json

--out imports crheat from --src (default: the src directory of this
checkout), runs the battery and writes one record per call: the function,
the case, the SHA-256 of the bytes of its values and the values, or the
type of the error the call raised.  The battery covers density_diagonal
(truncated and full line), density_integrand, boxeta_kernel sweeps (the
first call at a frequency a memo miss, the rest hits, plus misses on a
fresh point, and calls that raise at the last coordinate: NaN in w on a
hit, a value past the node's bound on a hit and on a miss),
heisenberg_heat_kernel, heisenberg_kernel_batch forward and
adjoint, morse_global and heat_trace, at n = 1..3 and every degree q;
then density_diagonal (truncated and full line) at n = 4..6, q = 2, 3,
and heisenberg_heat_kernel at n = 4, q = 2.

--compare matches the records of two such files call by call and prints,
per function, the calls, how many are bitwise equal, the largest relative
drift on two scales, and each call whose error type differs.  Two calls
that raise the same error type count as equal.  A call's difference is
the largest difference of a real or imaginary part; its drift is that
difference over the largest part of the first file's values of the call
in modulus (max_drift), and over the largest of every call of the
function in the first file (fn_drift).  A heavily cancelled call, whose
values are far below the function's usual size, can read a large
max_drift for a difference at rounding level: fn_drift tells the two
apart.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 20261019


def _values(crheat, np, result):
    """A call's result as a flat float64 array: complex entries as (re, im), Divergent as NaN."""
    if isinstance(result, crheat.MorseReport):
        parts = list(result.per_j_weak) + list(result.strong_partial_sums) + [float(f) for f in result.feasibility]
        return np.array(parts, dtype=float)
    if isinstance(result, list):
        return np.array([math.nan if v is crheat.Divergent else float(v) for v in result], dtype=float)
    arr = np.asarray(result)
    if np.iscomplexobj(arr):
        return np.ascontiguousarray(arr, dtype=complex).reshape(-1).view(float)
    return np.ascontiguousarray(arr, dtype=float).reshape(-1)


def battery(crheat, np) -> list:
    """Run the seeded battery; one record {fn, case, sha256, values} or {fn, case, error} per call."""
    rng = np.random.default_rng(SEED)
    records = []

    def record(fn, case, call):
        try:
            vals = _values(crheat, np, call())
        except Exception as e:  # the error type is part of what is compared
            records.append({"fn": fn, "case": case, "error": type(e).__name__})
            return
        records.append({"fn": fn, "case": case, "sha256": hashlib.sha256(vals.tobytes()).hexdigest(),
                        "values": vals.tolist()})

    def herm(n):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return (a + a.conj().T) / 2

    def cz(n, scale=0.5):
        return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

    for n in (1, 2, 3):
        # truncations need beta = 0; the full line needs the Levi form's
        # signature to suit q (DivergentIntegral otherwise, which is recorded)
        p = crheat.curvature_point(herm(n), herm(n))
        gauged = crheat.curvature_point(p.curvature, p.levi, beta=float(rng.uniform(-0.5, 0.5)))
        points = [p, crheat.curvature_point(herm(n), herm(n), weight=float(rng.uniform(0.5, 2.0)))]
        t = float(rng.uniform(0.4, 1.5))
        x = crheat.HeisenbergPoint(tuple(cz(n)), 0.2)
        y = crheat.HeisenbergPoint(tuple(cz(n)), -0.3)
        zs = np.array([cz(n) for _ in range(4)])
        thetas = rng.uniform(-0.5, 0.5, 4)
        sweep = [cz(n) for _ in range(6)]
        w = cz(n)
        for q in range(n + 1):
            tag = f"n={n} q={q}"
            record("density_diagonal", f"{tag} delta=2", lambda: crheat.density_diagonal(p, q, t, 2.0).matrix)
            record("density_diagonal", f"{tag} full", lambda: crheat.density_diagonal(p, q, t).matrix)
            record("density_diagonal", f"{tag} full beta={gauged.beta!r}",
                   lambda: crheat.density_diagonal(gauged, q, t).matrix)
            for eta in (-1.3, -0.0, 0.0, 0.4):
                record("density_integrand", f"{tag} eta={eta!r}",
                       lambda: crheat.density_integrand(p, q, t, eta).matrix)
            for eta in (0.6, -0.2, 0.0):
                for k, z in enumerate(sweep):
                    record("boxeta_kernel", f"{tag} eta={eta!r} z{k}",
                           lambda: crheat.boxeta_kernel(p, eta, q, t, z, w).matrix)
                fresh = crheat.curvature_point(p.curvature, p.levi, beta=p.beta)
                record("boxeta_kernel", f"{tag} eta={eta!r} miss",
                       lambda: crheat.boxeta_kernel(fresh, eta, q, t, sweep[0], w).matrix)
                # calls that fail at the last coordinate, after the others
                # entered the sums: NaN in w on a hit, and past every
                # node's bound (at most 1e150) on a hit and on a miss
                nan_w = np.append(w[:-1], math.nan)
                far = np.append(sweep[1][:-1], 1e151)
                record("boxeta_kernel", f"{tag} eta={eta!r} nan last w",
                       lambda: crheat.boxeta_kernel(p, eta, q, t, sweep[1], nan_w).matrix)
                record("boxeta_kernel", f"{tag} eta={eta!r} far last z",
                       lambda: crheat.boxeta_kernel(p, eta, q, t, far, w).matrix)
                fresh = crheat.curvature_point(p.curvature, p.levi, beta=p.beta)
                record("boxeta_kernel", f"{tag} eta={eta!r} far last z miss",
                       lambda: crheat.boxeta_kernel(fresh, eta, q, t, far, w).matrix)
            for delta in (2.0, None):
                record("heisenberg_heat_kernel", f"{tag} delta={delta!r}",
                       lambda: crheat.heisenberg_heat_kernel(p, q, t, x, y, delta).matrix)
            record("heisenberg_heat_kernel", f"{tag} full beta={gauged.beta!r}",
                   lambda: crheat.heisenberg_heat_kernel(gauged, q, t, x, y).matrix)
            for adjoint in (False, True):
                record("heisenberg_kernel_batch", f"{tag} adjoint={adjoint}",
                       lambda: crheat.heisenberg_kernel_batch(p, q, t, x, zs, thetas, 2.0, adjoint))
            d = crheat.ManifoldDescriptor(f"n{n}", tuple(points))
            for delta in (2.0, None):
                record("morse_global", f"{tag} delta={delta!r}", lambda: crheat.morse_global(d, q, delta))
            record("heat_trace", f"{tag} delta=2", lambda: crheat.heat_trace(d, q, 0.5, 2.0))
            record("heat_trace", f"{tag} full", lambda: crheat.heat_trace(d, q, 0.5))
    # larger n at q = 2, 3: the exterior power's Laplace path, at q = n - 1
    # as well for n = 4
    for n in (4, 5, 6):
        p = crheat.curvature_point(herm(n), herm(n))
        t = float(rng.uniform(0.4, 1.5))
        for q in (2, 3):
            tag = f"n={n} q={q}"
            record("density_diagonal", f"{tag} delta=2", lambda: crheat.density_diagonal(p, q, t, 2.0).matrix)
            record("density_diagonal", f"{tag} full", lambda: crheat.density_diagonal(p, q, t).matrix)
        if n == 4:
            x = crheat.HeisenbergPoint(tuple(cz(n)), 0.2)
            y = crheat.HeisenbergPoint(tuple(cz(n)), -0.3)
            record("heisenberg_heat_kernel", "n=4 q=2 delta=2.0",
                   lambda: crheat.heisenberg_heat_kernel(p, 2, t, x, y, 2.0).matrix)
    return records


def _difference(a: list, b: list) -> float:
    """Largest |a_i - b_i|; inf when the lengths or the NaN places differ."""
    if len(a) != len(b):
        return math.inf
    worst = 0.0
    for u, v in zip(a, b):
        if math.isnan(u) or math.isnan(v):
            if not (math.isnan(u) and math.isnan(v)):
                return math.inf
            continue
        if u != v:
            worst = max(worst, abs(u - v))
    return worst


def _scale(a: list) -> float:
    """max |a_i| over the entries that are not NaN (0 if none)."""
    return max((abs(u) for u in a if not math.isnan(u)), default=0.0)


def _relative(worst: float, scale: float) -> float:
    """worst / scale; 0 for no difference, inf for a difference at scale 0."""
    if worst == 0.0:
        return 0.0
    return worst / scale if scale > 0 else math.inf


def compare(first: list, second: list) -> dict:
    """Per function: calls, bitwise-equal calls, largest drifts and error-type differences.

    Records are matched by (fn, case); a call present in one file only
    counts as an error difference ("missing" on the side that lacks it).
    """
    other = {(r["fn"], r["case"]): r for r in second}
    mine = {(r["fn"], r["case"]) for r in first}
    fn_scale = {}
    for r in first:
        if "values" in r:
            fn_scale[r["fn"]] = max(fn_scale.get(r["fn"], 0.0), _scale(r["values"]))
    out = {}

    def entry(fn):
        return out.setdefault(fn, {"calls": 0, "bitwise": 0, "max_drift": 0.0, "fn_drift": 0.0,
                                   "error_diffs": []})

    for r in first:
        e = entry(r["fn"])
        e["calls"] += 1
        s = other.get((r["fn"], r["case"]))
        ea, eb = r.get("error"), "missing" if s is None else s.get("error")
        if ea != eb:
            e["error_diffs"].append({"case": r["case"], "first": ea, "second": eb})
            continue
        if ea is not None or r["sha256"] == s["sha256"]:
            e["bitwise"] += 1
        else:
            worst = _difference(r["values"], s["values"])
            e["max_drift"] = max(e["max_drift"], _relative(worst, _scale(r["values"])))
            e["fn_drift"] = max(e["fn_drift"], _relative(worst, fn_scale[r["fn"]]))
    for s in second:
        if (s["fn"], s["case"]) not in mine:
            entry(s["fn"])["error_diffs"].append({"case": s["case"], "first": "missing", "second": s.get("error")})
    return out


def _report(summary: dict) -> str:
    lines = [f"{'function':<26}{'calls':>7}{'bitwise':>9}{'max_drift':>12}{'fn_drift':>12}{'error_diffs':>13}"]
    for fn in sorted(summary):
        e = summary[fn]
        lines.append(f"{fn:<26}{e['calls']:>7}{e['bitwise']:>9}{e['max_drift']:>12.3g}{e['fn_drift']:>12.3g}"
                     f"{len(e['error_diffs']):>13}")
    for fn in sorted(summary):
        for d in summary[fn]["error_diffs"]:
            lines.append(f"  {fn} [{d['case']}]: {d['first']} -> {d['second']}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="seeded battery of library calls; bitwise comparison of two runs")
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", metavar="FILE", help="run the battery and write its records to FILE")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two files written by --out")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory to import crheat from (--out)")
    args = ap.parse_args(argv)
    if args.compare:
        first, second = (json.load(open(path, encoding="utf-8"))["calls"] for path in args.compare)
        sys.stdout.write(_report(compare(first, second)))
        return 0
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    import crheat

    records = battery(crheat, np)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump({"src": os.path.abspath(args.src), "seed": SEED, "calls": records}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
