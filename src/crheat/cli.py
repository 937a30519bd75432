"""Command-line surface for the kernel and Morse calculators.

Exit codes: 0 success, 1 a `validate` suite failed, 2 usage or parse
error, 3 mathematical infeasibility (a divergent eta integral, or no
feasible Morse index).
Output is deterministic byte for byte: floats print in their shortest
round-trip form and rows follow a fixed order.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import files
from .density import _integrand_traces, _overflow_at, density_diagonal
from .errors import CrheatError, DivergentIntegral
from .heisenberg import HeisenbergPoint, heisenberg_heat_kernel
from .morse import Divergent, heat_trace, morse_global


def _fmt(x) -> str:
    return repr(float(x))


def _entry_rows(endo):
    mat = endo.matrix
    rows = []
    dim = mat.shape[0]
    for i in range(dim):
        for j in range(dim):
            rows.append(("entry", str(i), str(j), _fmt(mat[i, j].real), _fmt(mat[i, j].imag)))
    tr = complex(np.trace(mat))
    rows.append(("trace", "", "", _fmt(tr.real), _fmt(tr.imag)))
    return rows


def _emit_endo(endo, fmt, grid_rows, out):
    if fmt == "json":
        mat = endo.matrix
        doc = {
            "trace": [float(np.trace(mat).real), float(np.trace(mat).imag)],
            "matrix": [
                [[float(v.real), float(v.imag)] for v in row] for row in mat
            ],
        }
        if grid_rows is not None:
            doc["integrand"] = [[e, re, im] for e, re, im in grid_rows]
        out.write(json.dumps(doc, indent=2) + "\n")
        return
    out.write("kind,i,j,re,im\n")
    for row in _entry_rows(endo):
        out.write(",".join(row) + "\n")
    if grid_rows is not None:
        for e, re, im in grid_rows:
            out.write(f"integrand,{_fmt(e)},,{_fmt(re)},{_fmt(im)}\n")


def _number(text: str, what: str = "finite", ok=lambda v: True) -> float:
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not (math.isfinite(v) and ok(v)):
        raise argparse.ArgumentTypeError(f"expected a {what} number, got {text!r}")
    return v


def _time(text: str) -> float:
    return _number(text, "finite positive", lambda v: v > 0)


def _delta(text: str) -> float:
    return _number(text, "finite nonnegative", lambda v: v >= 0)


# Each --heat-t time is one heat_trace over the whole descriptor.
MAX_HEAT_TIMES = 100


def _times(text: str) -> list:
    parts = text.split(",")
    if len(parts) > MAX_HEAT_TIMES:
        raise argparse.ArgumentTypeError(f"more than {MAX_HEAT_TIMES} times")
    return [_time(v) for v in parts]


# Each --eta-grid sample is one node of one stacked eigensolve.
MAX_ETA_SAMPLES = 10_000


def _eta_grid(spec: str) -> list:
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected A:B:STEP")
    a, b, step = (_number(v) for v in parts)
    if step <= 0 or b < a:
        raise argparse.ArgumentTypeError("needs STEP > 0 and B >= A")
    steps = (b - a) / step + 1e-9
    if not steps < MAX_ETA_SAMPLES:
        raise argparse.ArgumentTypeError(f"A:B:STEP gives more than {MAX_ETA_SAMPLES} samples")
    return [a + k * step for k in range(int(steps) + 1)]


def cmd_density(args) -> int:
    """The density endomorphism, and with --eta-grid the integrand trace at each sample.

    The grid's traces come from one stacked eigensolve of the pencils at
    every sample (see density._integrand_traces): real by construction,
    so each row's imaginary part is 0.0.  The first sample whose trace
    overflows raises NonFinite naming its eta.
    """
    p = files.load_point(args.input)
    endo = density_diagonal(p, args.q, args.t, delta=args.delta)
    grid_rows = None
    if args.eta_grid is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            traces = _integrand_traces(p, args.q, args.t, args.eta_grid)
        _overflow_at(args.eta_grid, ~np.isfinite(traces))
        grid_rows = [(eta, tr, 0.0) for eta, tr in zip(args.eta_grid, traces.tolist())]
    _emit_endo(endo, args.format, grid_rows, sys.stdout)
    return 0


def _parse_coords(text: str, n: int):
    parts = text.split(",")
    if len(parts) != 2 * n + 1:
        raise CrheatError(f"expected {2 * n + 1} comma-separated reals (2n+1 with n={n})")
    try:
        vals = [float(v) for v in parts]
    except ValueError:
        raise CrheatError("coordinates must be real numbers") from None
    z = tuple(complex(vals[2 * j], vals[2 * j + 1]) for j in range(n))
    return HeisenbergPoint(z, vals[2 * n])


def cmd_kernel(args) -> int:
    p = files.load_point(args.input)
    x = _parse_coords(args.x, p.n)
    y = _parse_coords(args.y, p.n)
    val = heisenberg_heat_kernel(p, args.q, args.t, x, y, delta=args.delta)
    _emit_endo(val, args.format, None, sys.stdout)
    return 0


def cmd_morse(args) -> int:
    d = files.load_descriptor(args.input)
    rep = morse_global(d, args.q, delta=args.delta)
    if args.delta is None and not any(rep.feasibility):
        sys.stderr.write(
            "every Morse index diverges on the full line; pass --delta to truncate\n"
        )
        return 3
    heat_rows = []
    if args.heat_t:
        for t in args.heat_t:
            vals = heat_trace(d, args.q, t, delta=args.delta)
            for j, v in enumerate(vals):
                heat_rows.append((t, j, None if v is Divergent else float(v)))
    if args.format == "json":
        doc = {
            "q": args.q,
            "delta": args.delta,
            "rows": [
                {
                    "j": j,
                    "weak": None if math.isnan(w) else w,
                    "feasible": bool(f),
                    "strong": None if math.isnan(s) else s,
                }
                for j, (w, f, s) in enumerate(
                    zip(rep.per_j_weak, rep.feasibility, rep.strong_partial_sums)
                )
            ],
        }
        if heat_rows:
            doc["heat_trace"] = [
                {"t": t, "j": j, "value": v} for t, j, v in heat_rows
            ]
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
        return 0
    sys.stdout.write("j,weak,feasible,strong\n")
    for j, (w, f, s) in enumerate(
        zip(rep.per_j_weak, rep.feasibility, rep.strong_partial_sums)
    ):
        weak = "divergent" if math.isnan(w) else _fmt(w)
        strong = "" if math.isnan(s) else _fmt(s)
        sys.stdout.write(f"{j},{weak},{f},{strong}\n")
    for t, j, v in heat_rows:
        val = "divergent" if v is None else _fmt(v)
        sys.stdout.write(f"heat_t,{_fmt(t)},{j},{val}\n")
    return 0


def cmd_validate(args) -> int:
    from . import validate

    results = validate.run_suite(args.suite)
    ok = all(passed for _, passed, _ in results)
    if args.format == "json":
        doc = {
            "suite": args.suite,
            "passed": ok,
            "checks": [
                {"name": name, "passed": passed, "detail": detail}
                for name, passed, detail in results
            ],
        }
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        for name, passed, detail in results:
            mark = "ok  " if passed else "FAIL"
            line = f"{mark} {name}"
            if detail:
                line += f"  ({detail})"
            sys.stdout.write(line + "\n")
        sys.stdout.write(f"passed {sum(p for _, p, _ in results)}/{len(results)}\n")
    return 0 if ok else 1


@functools.cache
def _build_parser():
    """The crheat argument parser, built once per process (parsing leaves it unchanged)."""
    ap = argparse.ArgumentParser(
        prog="crheat",
        description="Model heat kernels and Morse bounds for curvature pencils.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("density", help="diagonal density endomorphism at one point")
    d.add_argument("--input", required=True, help="point file (JSON)")
    d.add_argument("--q", type=int, required=True, help="form degree")
    d.add_argument("--t", type=_time, required=True, help="time")
    d.add_argument("--delta", type=_delta, default=None, help="truncate eta to [-delta, delta]")
    d.add_argument("--eta-grid", type=_eta_grid, default=None, metavar="A:B:STEP",
                   help="also sample the integrand trace on this eta grid")
    d.add_argument("--format", choices=("csv", "json"), default="csv")

    k = sub.add_parser("kernel", help="heat kernel between two group points")
    k.add_argument("--input", required=True, help="point file (JSON)")
    k.add_argument("--q", type=int, required=True)
    k.add_argument("--t", type=_time, required=True)
    k.add_argument("--x", required=True, metavar="Z,THETA",
                   help="2n+1 comma-separated reals")
    k.add_argument("--y", required=True, metavar="Z,THETA")
    k.add_argument("--delta", type=_delta, default=None)
    k.add_argument("--format", choices=("csv", "json"), default="csv")

    m = sub.add_parser("morse", help="weak and strong Morse bounds for a descriptor")
    m.add_argument("--input", required=True, help="descriptor file (JSON)")
    m.add_argument("--q", type=int, required=True)
    m.add_argument("--delta", type=_delta, default=None)
    m.add_argument("--heat-t", type=_times,
                   default=None, metavar="LIST",
                   help="comma-separated times for heat-trace rows")
    m.add_argument("--format", choices=("csv", "json"), default="csv")

    v = sub.add_parser("validate", help="run the library self-check suites")
    v.add_argument("--suite", required=True,
                   choices=("hermitian", "exterior", "density", "mehler",
                            "heisenberg", "morse", "all"))
    v.add_argument("--format", choices=("text", "json"), default="text")
    return ap


# Options whose value may start with '-'.  argparse reads such a token as an
# option unless it is a plain negative number, so "--x -0.1,0,0" and
# "--eta-grid -2:2:1" are joined into the "--opt=value" form first.  The
# value "--" is never joined, and "--opt=--" is split: argparse would hand
# the option an empty list instead of refusing it.
_SIGNED_OPTIONS = ("--t", "--delta", "--eta-grid", "--x", "--y", "--heat-t")


def _join_signed_values(argv):
    out = []
    k = 0
    while k < len(argv):
        tok = argv[k]
        if (tok in _SIGNED_OPTIONS and k + 1 < len(argv) and argv[k + 1].startswith("-")
                and argv[k + 1] != "--"):
            out.append(f"{tok}={argv[k + 1]}")
            k += 2
        elif tok.startswith("--") and tok.endswith("=--"):
            out += [tok[:-3], "--"]
            k += 1
        else:
            out.append(tok)
            k += 1
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(
        _join_signed_values(sys.argv[1:] if argv is None else list(argv))
    )
    # Looked up at each call, not kept in the cached parser, so a wrapped or
    # patched cmd_* function takes effect.
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except DivergentIntegral as e:
        sys.stderr.write(f"divergent integral (toward {e.direction}): {e}\n")
        return 3
    except CrheatError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except OSError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
