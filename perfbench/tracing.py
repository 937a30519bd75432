"""Per-layer tracing of crheat from outside the library.

`Tracer.install()` replaces each public function below, in every loaded
crheat module namespace that binds it (`density.eig_hermitian`,
`heisenberg.eig_hermitian`, ...), by a wrapper that records a span: name,
layer, parent span, thread, start and end.  The integrand handed to
`integrate_adaptive` is wrapped as well, with the quadrature span as its
explicit parent, because the quadrature pool runs it on other threads.
Spans stay in memory until `summary()`, which turns them into per-op
layer metrics, and `write_spans()`, which dumps them to a file.

A layer is the crheat module that defines a function.  Self time is a
span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("hermitian", "exterior", "density", "quadrature", "heisenberg",
          "morse", "oracles", "files", "cli", "validate")

TRACED = {
    "hermitian": ("eig_hermitian", "bose_ratio", "tanh_ratio", "exp_neg",
                  "pencil_det_poly", "pencil_real_roots"),
    "exterior": ("exterior_power_matrix", "omega_endomorphism", "exp_endo"),
    "density": ("density_diagonal", "density_integrand", "limit_integrand",
                "component_scalars", "tail_decay", "tail_certificate"),
    "quadrature": ("integrate_adaptive",),
    "heisenberg": ("heisenberg_heat_kernel", "heisenberg_kernel_batch",
                   "boxeta_kernel", "mehler_kernel"),
    "morse": ("morse_global", "morse_local", "rx_partition", "heat_trace"),
    "oracles": ("reference_quadrature", "pde_evolve", "fiber_kernel_apply",
                "semigroup_check", "heat_residual_check"),
    "files": ("load_point", "load_descriptor", "save_point", "save_descriptor"),
    "cli": ("main", "cmd_density", "cmd_kernel", "cmd_morse", "cmd_validate"),
    "validate": ("run_suite",),
}

INTEGRAND = "quadrature.integrand"

# Per-layer metrics: name -> (unit, traced functions it needs).  A metric
# whose function is gone is reported missing, never as 0.
PER_LAYER = {
    "hermitian.eig_calls": ("count", ("hermitian.eig_hermitian",)),
    "hermitian.eig_self_s": ("s", ("hermitian.eig_hermitian",)),
    "hermitian.eig_repeat_ratio": ("ratio", ("hermitian.eig_hermitian",)),
    "hermitian.scalar_calls": ("count", ("hermitian.bose_ratio", "hermitian.tanh_ratio")),
    "hermitian.scalar_self_s": ("s", ("hermitian.bose_ratio", "hermitian.tanh_ratio")),
    "hermitian.detpoly_calls": ("count", ("hermitian.pencil_det_poly",)),
    "hermitian.detpoly_self_s": ("s", ("hermitian.pencil_det_poly",)),
    "hermitian.detpoly_repeat_ratio": ("ratio", ("hermitian.pencil_det_poly",)),
    "hermitian.roots_self_s": ("s", ("hermitian.pencil_real_roots",)),
    "exterior.power_calls": ("count", ("exterior.exterior_power_matrix",)),
    "exterior.power_self_s": ("s", ("exterior.exterior_power_matrix",)),
    "exterior.minors": ("count", ("exterior.exterior_power_matrix",)),
    "density.self_s": ("s", ("density.density_diagonal",)),
    "density.scalars_self_s": ("s", ("density.component_scalars",)),
    "density.tail_windows": ("count", ("density.tail_certificate",)),
    "density.tail_cert_s": ("s", ("density.tail_certificate",)),
    "quadrature.calls": ("count", ("quadrature.integrate_adaptive",)),
    "quadrature.nodes": ("count", ("quadrature.integrate_adaptive",)),
    "quadrature.rounds": ("count", ("quadrature.integrate_adaptive",)),
    "quadrature.self_s": ("s", ("quadrature.integrate_adaptive",)),
    "quadrature.integrand_s": ("s", ("quadrature.integrate_adaptive",)),
    "quadrature.useful_node_ratio": ("ratio", ("quadrature.integrate_adaptive",)),
    "quadrature.pool_share": ("ratio", ("quadrature.integrate_adaptive",)),
    "heisenberg.self_s": ("s", ("heisenberg.heisenberg_heat_kernel",)),
    "heisenberg.batch_points": ("count", ("heisenberg.heisenberg_kernel_batch",)),
    "heisenberg.boxeta_calls": ("count", ("heisenberg.boxeta_kernel",)),
    "heisenberg.boxeta_self_s": ("s", ("heisenberg.boxeta_kernel",)),
    "morse.local_calls": ("count", ("morse.morse_local",)),
    "morse.partition_calls": ("count", ("morse.rx_partition",)),
    "morse.self_s": ("s", ("morse.morse_global",)),
    "morse.heat_trace_s": ("s", ("morse.heat_trace",)),
    "files.parse_s": ("s", ("files.load_point", "files.load_descriptor")),
    "files.bytes_in": ("B", ("files.load_point", "files.load_descriptor")),
    "cli.self_s": ("s", ("cli.main",)),
    "cli.bytes_out": ("B", ("cli.main",)),
    "validate.self_s": ("s", ("validate.run_suite",)),
    "oracles.self_s": ("s", ("oracles.reference_quadrature",)),
    **{f"{layer}.share": ("ratio", ()) for layer in LAYERS},
    "trace.overhead": ("ratio", ()),
}


def _matrix_bytes(h) -> bytes:
    return np.ascontiguousarray(getattr(h, "mat", h)).tobytes()


def _union_length(intervals, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    """Wraps crheat's public functions and keeps their spans in memory."""

    def __init__(self):
        self.spans = []  # (id, parent, name, layer, thread, start, end)
        self.counts = defaultdict(float)
        self.found = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._seen = {"eig": set(), "detpoly": set()}
        self._restore = []

    # -- installation ------------------------------------------------------

    def install(self):
        homes = {}
        for layer in TRACED:
            try:  # some layers (validate) are otherwise imported lazily
                homes[layer] = importlib.import_module(f"crheat.{layer}")
            except ModuleNotFoundError:
                homes[layer] = None
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "crheat" or name.startswith("crheat."))]
        for layer, names in TRACED.items():
            home = homes[layer]
            for fname in names:
                original = getattr(home, fname, None)
                if not callable(original):
                    continue
                self.found.add(f"{layer}.{fname}")
                wrapper = self._wrap(original, f"{layer}.{fname}", layer)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        self._restore.append((mod, fname, original))
                        setattr(mod, fname, wrapper)

    def uninstall(self):
        for mod, fname, original in reversed(self._restore):
            setattr(mod, fname, original)
        self._restore.clear()

    def _wrap(self, fn, name, layer):
        special = {
            "hermitian.eig_hermitian": self._pre_eig,
            "hermitian.pencil_det_poly": self._pre_detpoly,
            "exterior.exterior_power_matrix": self._pre_exterior,
            "heisenberg.heisenberg_kernel_batch": self._pre_batch,
            "files.load_point": self._pre_file,
            "files.load_descriptor": self._pre_file,
        }.get(name)

        if name == "quadrature.integrate_adaptive":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self._integrate(fn, args, kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if special is not None:
                    special(args, kwargs)
                return self._span(fn, name, layer, args, kwargs)
        return wrapper

    # -- spans ---------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, fn, name, layer, args, kwargs, parent=None, sid=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if sid is None:
            sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, layer, threading.get_ident(), start, end))

    def begin_op(self):
        """Repeat ratios count inputs already seen within the same op."""
        with self._lock:
            for seen in self._seen.values():
                seen.clear()

    def _count(self, key, value=1.0):
        with self._lock:
            self.counts[key] += value

    def _repeat(self, kind, key):
        with self._lock:
            seen = self._seen[kind]
            self.counts[f"{kind}.inputs"] += 1
            if key in seen:
                self.counts[f"{kind}.repeats"] += 1
            else:
                seen.add(key)

    def _pre_eig(self, args, kwargs):
        self._repeat("eig", _matrix_bytes(args[0] if args else kwargs["H"]))

    def _pre_detpoly(self, args, kwargs):
        r = args[0] if args else kwargs["R"]
        l = args[1] if len(args) > 1 else kwargs["L"]
        self._repeat("detpoly", _matrix_bytes(r) + b"|" + _matrix_bytes(l))

    def _pre_exterior(self, args, kwargs):
        u = args[0] if args else kwargs["U"]
        q = args[1] if len(args) > 1 else kwargs["q"]
        self._count("exterior.minors", math.comb(np.shape(u)[0], q) ** 2)

    def _pre_batch(self, args, kwargs):
        zs = args[4] if len(args) > 4 else kwargs["zs"]
        n = args[0].n if args else kwargs["p"].n
        self._count("heisenberg.batch_points", np.size(zs) // max(n, 1))

    def _pre_file(self, args, kwargs):
        path = args[0] if args else kwargs["path"]
        self._count("files.bytes_in", os.path.getsize(path))

    def count_bytes_out(self, nbytes: int):
        self._count("cli.bytes_out", nbytes)

    # -- quadrature ------------------------------------------------------------

    def _integrate(self, fn, args, kwargs):
        """Span the quadrature call and each integrand batch; group batches into rounds.

        A batch on the calling thread is a whole round.  Pool batches of one
        round share a fresh executor, whose thread names share a prefix.
        """
        f = args[0] if args else kwargs["f"]
        layer = (getattr(f, "__module__", "") or "").rsplit(".", 1)[-1] or "quadrature"
        sid = next(self._ids)
        caller = threading.get_ident()
        rounds = {}
        serial = itertools.count()
        lock = threading.Lock()

        def integrand(etas):
            if threading.get_ident() == caller:
                key = ("caller", next(serial))
            else:
                key = ("pool", threading.current_thread().name.rsplit("_", 1)[0])
            with lock:
                rounds[key] = rounds.get(key, 0) + len(etas)
            return self._span(f, INTEGRAND, layer, (etas,), {}, parent=sid)

        functools.update_wrapper(integrand, f)
        args = (integrand,) + tuple(args[1:]) if args else args
        if not args:
            kwargs = dict(kwargs, f=integrand)
        try:
            return self._span(fn, "quadrature.integrate_adaptive", "quadrature", args, kwargs, sid=sid)
        finally:
            sizes = list(rounds.values())
            nodes = sum(sizes)
            with self._lock:
                self.counts["quadrature.rounds"] += len(sizes)
                self.counts["quadrature.nodes"] += nodes
                if nodes:
                    # 15 nodes per initial panel, 30 per split; every split
                    # leaves one more final panel.
                    first = sizes[0] / 15.0
                    splits = (nodes - sizes[0]) / 30.0
                    self.counts["quadrature.useful_nodes"] += 15.0 * (first + splits)

    # -- results -------------------------------------------------------------

    def summary(self, ops: int, op_seconds: float) -> tuple[dict, list]:
        """Per-op layer metrics and the names of metrics that are missing."""
        children = defaultdict(list)
        for s in self.spans:
            if s[1] is not None:
                children[s[1]].append((s[5], s[6]))
        by_name = defaultdict(lambda: [0, 0.0, 0.0])  # calls, self, inclusive
        layer_self = defaultdict(float)
        threads_of = {s[0]: s[4] for s in self.spans}
        pool_s = root_s = 0.0
        for sid, parent, name, layer, thread, start, end in self.spans:
            own = (end - start) - _union_length(children.get(sid, ()), start, end)
            entry = by_name[name]
            entry[0] += 1
            entry[1] += own
            entry[2] += end - start
            layer_self[layer] += own
            if name == INTEGRAND and threads_of.get(parent) != thread:
                pool_s += end - start
            if parent is None:
                root_s += end - start

        c = self.counts
        calls = lambda *names: sum(by_name[n][0] for n in names)  # noqa: E731
        own = lambda *names: sum(by_name[n][1] for n in names)  # noqa: E731
        incl = lambda *names: sum(by_name[n][2] for n in names)  # noqa: E731
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
        integrand_s = incl(INTEGRAND)
        values = {
            "hermitian.eig_calls": calls("hermitian.eig_hermitian"),
            "hermitian.eig_self_s": own("hermitian.eig_hermitian"),
            "hermitian.scalar_calls": calls("hermitian.bose_ratio", "hermitian.tanh_ratio"),
            "hermitian.scalar_self_s": own("hermitian.bose_ratio", "hermitian.tanh_ratio"),
            "hermitian.detpoly_calls": calls("hermitian.pencil_det_poly"),
            "hermitian.detpoly_self_s": own("hermitian.pencil_det_poly"),
            "hermitian.roots_self_s": own("hermitian.pencil_real_roots"),
            "exterior.power_calls": calls("exterior.exterior_power_matrix"),
            "exterior.power_self_s": own("exterior.exterior_power_matrix"),
            "exterior.minors": c["exterior.minors"],
            "density.self_s": layer_self["density"],
            "density.scalars_self_s": own("density.component_scalars"),
            "density.tail_windows": calls("density.tail_certificate") / 2.0,
            "density.tail_cert_s": incl("density.tail_certificate"),
            "quadrature.calls": calls("quadrature.integrate_adaptive"),
            "quadrature.nodes": c["quadrature.nodes"],
            "quadrature.rounds": c["quadrature.rounds"],
            "quadrature.self_s": layer_self["quadrature"],
            "quadrature.integrand_s": integrand_s,
            "heisenberg.self_s": layer_self["heisenberg"],
            "heisenberg.batch_points": c["heisenberg.batch_points"],
            "heisenberg.boxeta_calls": calls("heisenberg.boxeta_kernel"),
            "heisenberg.boxeta_self_s": own("heisenberg.boxeta_kernel"),
            "morse.local_calls": calls("morse.morse_local"),
            "morse.partition_calls": calls("morse.rx_partition"),
            "morse.self_s": layer_self["morse"],
            "morse.heat_trace_s": incl("morse.heat_trace"),
            "files.parse_s": incl("files.load_point", "files.load_descriptor"),
            "files.bytes_in": c["files.bytes_in"],
            "cli.self_s": layer_self["cli"],
            "cli.bytes_out": c["cli.bytes_out"],
            "validate.self_s": layer_self["validate"],
            "oracles.self_s": layer_self["oracles"],
        }
        per_op = {k: v / ops for k, v in values.items()}
        per_op["hermitian.eig_repeat_ratio"] = ratio(c["eig.repeats"], c["eig.inputs"])
        per_op["hermitian.detpoly_repeat_ratio"] = ratio(c["detpoly.repeats"], c["detpoly.inputs"])
        per_op["quadrature.useful_node_ratio"] = ratio(c["quadrature.useful_nodes"], c["quadrature.nodes"])
        per_op["quadrature.pool_share"] = ratio(pool_s, integrand_s)
        # Shares of traced time: every span's self time plus op time that no
        # span covers (the client's own bookkeeping).
        outside = max(op_seconds - root_s, 0.0)
        total = sum(layer_self.values()) + outside
        for layer in LAYERS:
            per_op[f"{layer}.share"] = ratio(layer_self[layer], total)
        missing = sorted(
            name for name, (_, needs) in PER_LAYER.items()
            if any(fn not in self.found for fn in needs)
        )
        return {k: v for k, v in per_op.items() if k not in missing}, missing

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tparent\tname\tlayer\tthread\tstart\tend\n")
            for s in self.spans:
                f.write("\t".join("" if v is None else str(v) for v in s) + "\n")
