"""crheat benchmark: four seeded closed-loop workloads, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; crheat is imported from src/.
With --trace 0 it prints every end-to-end metric of the workload; with
--trace 1 it prints the per-layer metrics of a traced run and
trace.overhead.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  Each sample runs in a fresh
worker process (worker.py); the full result, with machine facts and any
failing inputs, is also written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("density_pencils", "group_kernel", "morse_descriptor", "cli_mix")
SETUP_SAMPLES = 3  # fresh processes whose set-up times give the setup_s median
BUDGET_S = 170.0  # every run must end well within 180 s

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: int, mode: str, deadline: float) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--mode", mode, "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped it
        raise WorkerError(f"worker {mode} timed out") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {mode} exited with {proc.returncode}")
    return json.loads(lines[-1])


def report_failures(result: dict):
    for f in result["failures"]:
        print(f"FAILED op {f['index']} ({f['kind']}): {f['reason']}")
        print(f"  inputs: {json.dumps(f['inputs'])}")
    for reason in result["general_failures"]:
        print(f"FAILED check: {reason}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="crheat benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "crheat", "__init__.py")):
        sys.stderr.write("perfbench: no crheat sources under src/crheat; run from a source checkout\n")
        return 2
    deadline = time.monotonic() + BUDGET_S
    w = args.workload
    try:
        if args.trace:
            # Same seed and length traced and untraced, so their ratio is the
            # cost of tracing alone.
            half = args.seconds / 2.0
            base = spawn(w, args.seed, half, 0, "run", deadline)
            main_run = spawn(w, args.seed, half, 1, "run", deadline)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in main_run["layers"].items()}
            metrics["trace.overhead"] = {
                "value": main_run["throughput_ops_s"] / base["throughput_ops_s"], "unit": "ratio"}
            runs = [base, main_run]
        else:
            main_run = spawn(w, args.seed, args.seconds, 0, "run", deadline)
            setups = [main_run] + [spawn(w, args.seed, 0.0, 0, "setup", deadline)
                                   for _ in range(SETUP_SAMPLES - 1)]
            # set-up is scaled like the other times, by the reference times
            # taken right after each set-up
            references = [x for r in setups for x in r["setup_reference_s"]]
            main_run["setup_samples_s"] = [r["setup_s"] for r in setups]
            main_run["raw"]["setup_s"] = statistics.median(main_run["setup_samples_s"])
            main_run["setup_s"] = main_run["raw"]["setup_s"] * REFERENCE_S / statistics.median(references)
            metrics = {k: {"value": main_run[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
            runs = [main_run]
    except WorkerError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1

    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and not any(r["general_failures"] for r in runs)
    print(f"workload {w}  seed {args.seed}  trace {args.trace}  ops {main_run['ops']} "
          f"({', '.join(f'{k} {v}' for k, v in main_run['op_kinds'].items())})  "
          f"samples beyond p90 {main_run['beyond_p90']}")
    print(f"machine {json.dumps(main_run['machine'], sort_keys=True)}")
    print(f"machine speed {main_run['speed']:.4f} of nominal; unscaled: "
          + ", ".join(f"{k} {v:.6g}" for k, v in main_run["raw"].items()))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':34s} {failed / attempted:.6g} ratio ({failed} of {attempted} ops failed)")
    if args.trace:
        for name in main_run["missing"]:
            print(f"  {name:34s} missing (its traced function is gone)")
        print(f"  spans: {main_run['span_count']} written to {main_run['spans_file']}")
    for r in runs:
        report_failures(r)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", f"result-{w}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump({"result": result, "runs": runs}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
