"""One workload process: set up, run the closed loop, check, report.

run.py starts this in a fresh process for every sample, so that set-up
time and peak memory belong to one workload:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --mode run|setup --t0 MONOTONIC_AT_SPAWN

`--mode setup` stops just before the first timed op.  The last stdout line
is one JSON object.  Correctness checks run after the timed loop.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# Typical time of reference_seconds() on the machine the benchmark was
# written on (2-CPU VM, Python 3.11.7, numpy 2.4.6).  That machine's CPU
# speed drifts by 15-40% over minutes, and CPU time per op drifts with it,
# so timed metrics are scaled to this nominal speed: a time is multiplied
# by REFERENCE_S / (the median reference time of its own run).  The
# unscaled values are reported beside them.
REFERENCE_S = 0.060


def reference_seconds(np) -> float:
    """Time a fixed mix of interpreter work and small-matrix numpy calls.

    It shares no code with crheat, so no change to crheat can move it; it
    only tracks how fast this machine runs Python and small LAPACK calls
    right now.
    """
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = (a + a.conj().T) / 2.0
    start = perf_counter()
    s = 0
    for i in range(240000):
        s += i * i % 7
    for k in range(1000):
        w, v = np.linalg.eigh(a + k * 1e-3)
        np.linalg.det(v[:3, :3])
        (v * np.exp(-w)) @ v.conj().T
    return perf_counter() - start


def machine_facts() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):  # numpy builds without the dict form
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "crheat_threads_set": "CRHEAT_THREADS" in os.environ,
        "platform": platform.platform(),
    }


def run_loop(wl, seconds: float, tracer, np):
    """Closed loop, one client, whole cycles only.

    The run ends at the cycle boundary nearest to `seconds`, so every run
    measures the same op mix and runs about `seconds` long.  Wall and CPU
    time are also taken per cycle, since the machine's speed drifts by
    10-20% over a few seconds and the median cycle is steadier than the
    total.  Between cycles, outside the timed ops, the reference routine
    is timed.
    """
    records, latencies, cycles, references = [], [], [], []
    ops = wl.ops()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu_mark = usage.ru_utime + usage.ru_stime
    start = wall_mark = perf_counter()
    deadline = start + seconds
    while True:
        op = next(ops)
        if tracer is not None:
            tracer.begin_op()
        t0 = perf_counter()
        try:
            result, error = op.run(), None
        except Exception as e:  # an unexpected raise is a failed op
            result, error = None, f"{type(e).__name__}: {e}"
        t1 = perf_counter()
        latencies.append(t1 - t0)
        records.append((op, result, error))
        if op.index % wl.cycle_ops == wl.cycle_ops - 1:
            usage = resource.getrusage(resource.RUSAGE_SELF)
            cpu = usage.ru_utime + usage.ru_stime
            cycles.append((t1 - wall_mark, cpu - cpu_mark))
            if t1 + (t1 - start) / len(cycles) / 2.0 >= deadline:
                break
            references.append(reference_seconds(np))
            usage = resource.getrusage(resource.RUSAGE_SELF)
            wall_mark, cpu_mark = perf_counter(), usage.ru_utime + usage.ru_stime
    references.append(reference_seconds(np))
    return records, latencies, cycles, references, usage.ru_maxrss / 1024.0


def check(wl, records, seed: int):
    """Per-op checks on every result, then the sampled identities."""
    import numpy as np
    from workloads import Failed

    failures = {}
    for op, result, error in records:
        if error is None:
            try:
                wl.check_op(op, result)
            except Failed as e:
                error = f"check: {e}"
            except Exception as e:  # a check that cannot even read the result
                error = f"check raised {type(e).__name__}: {e}"
        if error is not None:
            failures[op.index] = (op, error)
    ok = [(op, result, None if op.index not in failures else "failed") for op, result, _ in records]
    general = []
    try:
        sampled = wl.check_sample(ok, np.random.default_rng([seed, 99]))
    except Exception as e:  # the reference computation itself broke
        sampled = [(-1, f"sampled check raised {type(e).__name__}: {e}")]
    by_index = {op.index: op for op, _, _ in records}
    for index, reason in sampled:
        if index in by_index:
            failures.setdefault(index, (by_index[index], f"check: {reason}"))
        else:
            general.append(reason)
    report = [{"index": op.index, "kind": op.kind, "reason": reason, "inputs": op.params}
              for op, reason in failures.values()]
    return report, general


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("run", "setup"), default="run")
    ap.add_argument("--t0", type=float, default=None, help="time.monotonic() when the parent spawned us")
    args = ap.parse_args(argv)
    t_spawn = time.monotonic() if args.t0 is None else args.t0

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import numpy as np
    import workloads
    from tracing import PER_LAYER, Tracer

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, workdir)
        wl.setup()
        wl.warmup()
        setup_s = time.monotonic() - t_spawn
        setup_references = [reference_seconds(np) for _ in range(3)]
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s, "setup_reference_s": setup_references}))
            return 0

        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            records, latencies, cycles, references, peak_rss_mb = run_loop(wl, args.seconds, tracer, np)
        finally:
            if tracer is not None:
                tracer.uninstall()
        failures, general = check(wl, records, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(records)
    lat_ms = np.asarray(latencies) * 1e3
    p50, p90 = (float(v) for v in np.percentile(lat_ms, [50, 90]))
    cycle_wall, cycle_cpu = (float(np.median(v)) for v in zip(*cycles))
    raw = {
        "throughput_ops_s": wl.cycle_ops / cycle_wall,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "cpu_s_per_op": cycle_cpu / wl.cycle_ops,
    }
    speed = REFERENCE_S / float(np.median(references))  # < 1 while the machine runs slow
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": n,
        "cycles": len(cycles),
        "elapsed_s": float(np.sum([c[0] for c in cycles])),
        "throughput_ops_s": raw["throughput_ops_s"] / speed,
        "latency_p50_ms": p50 * speed,
        "latency_p90_ms": p90 * speed,
        "beyond_p90": int(np.sum(lat_ms > p90)),
        "cpu_s_per_op": raw["cpu_s_per_op"] * speed,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
        "setup_reference_s": setup_references,
        "raw": raw,
        "speed": speed,
        "reference_s": references,
        "failed": len(failures),
        "failures": failures,
        "general_failures": general,
        "op_kinds": dict(sorted(Counter(op.kind for op, _, _ in records).items())),
        "machine": machine_facts(),
    }
    if tracer is not None:
        if args.workload == "cli_mix":  # results are (exit code, stdout, stderr)
            tracer.count_bytes_out(sum(len(r[1].encode()) for _, r, e in records if e is None))
        layers, missing = tracer.summary(n, float(np.sum(latencies)))
        out["layers"] = {k: [v, PER_LAYER[k][0]] for k, v in layers.items()}
        out["missing"] = missing
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv")
        tracer.write_spans(spans_path)
        out["spans_file"] = os.path.relpath(spans_path, ROOT)
        out["span_count"] = len(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
