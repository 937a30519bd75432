"""Alternating parent/change pairs of the benchmark, summarized into BENCH_<tag>.json.

    python3 tools/bench_pairs.py --tag NAME --run group_kernel:10 --run cli_mix:4 --seed 2101

The change is the working tree of this checkout.  The parent is --parent
(a git revision, default HEAD), checked out with `git worktree add
--detach` into a temporary directory that is removed afterwards, or an
existing checkout of it given as --parent-dir.  Each --run WORKLOAD:PAIRS
runs that many pairs; every pair gets its own seed, counting up from
--seed across all runs, and runs `perfbench/run.py --trace 0` on both
sides with that seed, the parent first in even pairs and the change first
in odd ones.  Run length is BENCHMARK.json's run_seconds unless --seconds
says otherwise, the same on both sides.

BENCH_<tag>.json, at the root of this checkout and rewritten after every
pair, holds the machine facts, the revisions, the seeds, every pair's
metrics and correctness, and per workload and metric the medians and
quartiles of both sides, the change/parent ratios and the pairs won (see
summarize), and per workload and side the runs that errored and the
failed and attempted ops (see failures) and the median and quartiles
of the ops attempted per run (see ops_per_run), and per workload the
slope of peak_rss_mb on ops attempted (see rss_per_kop) and the ops per
run at which peak_rss_mb would cross its bound (see rss_ceiling).  A pair in which either
side errored has no metrics to compare, so the summary leaves it out
and counts it in pairs_left_out.  After a workload's last pair one
line (see summary_line) names its held gains and broken bounds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Fewest pairs on which summarize lets a gain hold: 4 of 4 won by chance
# has odds 1 in 16, 9 of 10 about 1 in 100.
MIN_GAIN_PAIRS = 10


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs, better, bounds=None):
    """Per-metric summary of pairs [{"parent": {metric: value}, "change": {...}}].

    better maps each metric to "higher" or "lower"; bounds optionally maps
    it to the fraction by which the change's median may be worse.  For
    each metric present on both sides of every pair it gives each side's
    median and quartiles, the ratio of the medians and the median, min
    and max of the per-pair ratios (change/parent), the pairs the change
    won (strictly better; ties count for neither), and whether a gain
    holds: at least MIN_GAIN_PAIRS pairs, won in at least nine tenths of
    them, and the medians apart by more than the parent's interquartile
    range.  With a bound,
    within_bound says the change's median is not worse by more than it.
    """
    bounds = bounds or {}
    out = {}
    for metric, direction in better.items():
        rows = [(p["parent"][metric], p["change"][metric]) for p in pairs
                if metric in p.get("parent", {}) and metric in p.get("change", {})]
        if not rows or len(rows) != len(pairs):
            continue
        sign = 1.0 if direction == "higher" else -1.0
        par = [a for a, _ in rows]
        chg = [b for _, b in rows]
        won = sum(1 for a, b in rows if sign * (b - a) > 0)
        ties = sum(1 for a, b in rows if b == a)
        ratios = [b / a for a, b in rows if a != 0]
        pm, cm = statistics.median(par), statistics.median(chg)
        pq, cq = _quartiles(par), _quartiles(chg)
        entry = {
            "better": direction,
            "parent": {"median": pm, "q1": pq[0], "q3": pq[1]},
            "change": {"median": cm, "q1": cq[0], "q3": cq[1]},
            "ratio_of_medians": cm / pm if pm else None,
            "pair_ratios": ({"median": statistics.median(ratios), "min": min(ratios), "max": max(ratios)}
                            if ratios else None),
            "pairs": len(rows),
            "pairs_won": won,
            "ties": ties,
            "gain_holds": (len(rows) >= MIN_GAIN_PAIRS and won >= math.ceil(0.9 * len(rows))
                           and sign * (cm - pm) > pq[1] - pq[0]),
        }
        if metric in bounds:
            worse = -sign * (cm - pm) / abs(pm) if pm else 0.0
            entry["bound"] = bounds[metric]
            entry["within_bound"] = worse <= bounds[metric]
        out[metric] = entry
    return out


def failures(pairs):
    """Per side of pairs (as in BENCH_<tag>.json): errored runs and failed ops.

    errored_seeds lists the seeds of the runs that produced no result;
    failed_ops and attempted_ops add up the runs that did, and
    failed_share is their ratio (None when no op was attempted).
    """
    out = {}
    for side in ("parent", "change"):
        runs = [p[side] for p in pairs]
        failed = sum(r.get("failed", 0) for r in runs)
        attempted = sum(r.get("attempted", 0) for r in runs)
        out[side] = {
            "errored_seeds": [p["seed"] for p in pairs if "error" in p[side]],
            "failed_ops": failed,
            "attempted_ops": attempted,
            "failed_share": failed / attempted if attempted else None,
        }
    return out


def ops_per_run(pairs):
    """Per side of pairs: median and quartiles of the ops each run attempted.

    The benchmark worker keeps every op's record until its run ends, so
    peak_rss_mb grows with the op count; these let an RSS move be read
    against the op growth.  Runs that errored are left out, and a side
    with no run left gets None.
    """
    out = {}
    for side in ("parent", "change"):
        ops = [p[side]["attempted"] for p in pairs if "attempted" in p[side]]
        if not ops:
            out[side] = None
            continue
        q1, q3 = _quartiles(ops)
        out[side] = {"median": statistics.median(ops), "q1": q1, "q3": q3, "runs": len(ops)}
    return out


def rss_per_kop(pairs):
    """Least-squares slope of peak_rss_mb on ops attempted, over every run of both sides.

    In MB per 1000 ops, with the number of runs it rests on: runs that
    errored are left out, and the slope is None below 3 runs or when every
    run attempted as many ops.  Since the worker keeps every op's record,
    a change that runs more ops moves peak_rss_mb by about this slope
    times the op growth; the rest of the move is the code's.
    """
    runs = [(p[side]["attempted"], p[side]["metrics"]["peak_rss_mb"]) for p in pairs
            for side in ("parent", "change")
            if "attempted" in p[side] and "peak_rss_mb" in p[side].get("metrics", {})]
    slope = None
    if len(runs) >= 3 and len({ops for ops, _ in runs}) > 1:
        mx = statistics.fmean(ops for ops, _ in runs)
        my = statistics.fmean(rss for _, rss in runs)
        sxy = sum((ops - mx) * (rss - my) for ops, rss in runs)
        sxx = sum((ops - mx) ** 2 for ops, _ in runs)
        slope = 1000.0 * sxy / sxx
    return {"mb_per_kop": slope, "runs": len(runs)}


def rss_ceiling(pairs, bound):
    """Ops per run at which the change's median peak_rss_mb would cross its bound.

    Reads peak_rss_mb as the parent's median plus rss_per_kop per 1000 ops
    past the parent's median ops_per_run, and solves for the op count at
    which that is bound (a fraction) above the parent's median: the
    ceiling on ops per run that any speed-up must stay under while the
    worker keeps every op's record.  Given beside the change's median
    ops_per_run; the ceiling is None without a positive slope, a parent
    run with both numbers, or a bound.
    """
    slope = rss_per_kop(pairs)["mb_per_kop"]
    ops = ops_per_run(pairs)
    rss = [p["parent"]["metrics"]["peak_rss_mb"] for p in pairs
           if "peak_rss_mb" in p["parent"].get("metrics", {})]
    ceiling = None
    if bound is not None and slope is not None and slope > 0 and rss and ops["parent"]:
        ceiling = ops["parent"]["median"] + 1000.0 * bound * statistics.median(rss) / slope
    return {"ops_per_run": ceiling, "change_ops_per_run": ops["change"]["median"] if ops["change"] else None}


def summary_line(workload: str, entry: dict) -> str:
    """One line on a workload's entry in BENCH_<tag>.json, printed after its last pair.

    It names the metrics whose gain holds and those not within their
    bound (see summarize), and gives the change's median ops per run
    against the rss_ceiling (n/a where either is None).
    """
    summary = entry["summary"]
    gains = [m for m, e in summary.items() if e["gain_holds"]]
    past = [m for m, e in summary.items() if e.get("within_bound") is False]
    ceiling = entry["rss_ceiling"]

    def ops(x):
        return "n/a" if x is None else f"{x:.0f}"

    return (f"{workload}: gain holds: {', '.join(gains) or 'none'}; past bound: {', '.join(past) or 'none'}; "
            f"ops/run {ops(ceiling['change_ops_per_run'])} against rss_ceiling {ops(ceiling['ops_per_run'])}")


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def run_side(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in a checkout: metrics, correctness and machine facts."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    side = {"wall_s": time.monotonic() - t0, "exit": proc.returncode}
    if proc.returncode != 0 or not lines:
        side["error"] = f"perfbench exited with {proc.returncode}"
        return side
    result = json.loads(lines[-1])
    side.update(correct=result["correct"], attempted=result["attempted"], failed=result["failed"],
                metrics={k: v["value"] for k, v in result["metrics"].items()})
    for line in lines:
        if line.startswith("machine {"):
            side["machine"] = json.loads(line[len("machine "):])
    return side


def _parse_run(text: str):
    name, _, count = text.partition(":")
    if not name or not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:PAIRS, got {text!r}")
    return name, int(count)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="alternating parent/change benchmark pairs")
    ap.add_argument("--tag", required=True, help="output is BENCH_<tag>.json")
    ap.add_argument("--run", type=_parse_run, action="append", required=True,
                    metavar="WORKLOAD:PAIRS")
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    ap.add_argument("--parent-dir", help="existing checkout of the parent, instead of a worktree")
    ap.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json run_seconds)")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else float(bench["run_seconds"])
    report = {
        "tag": args.tag,
        "parent": _git("rev-parse", args.parent),
        "change": _git("rev-parse", "HEAD") + (" + working tree" if _git("status", "--porcelain") else ""),
        "seconds": seconds,
        "order": "parent first in even pairs, change first in odd pairs",
        "machine": None,
        "workloads": {},
    }
    out_path = os.path.join(ROOT, f"BENCH_{args.tag}.json")

    worktree = None
    parent_dir = args.parent_dir
    if parent_dir is None:
        worktree = tempfile.mkdtemp(prefix="bench_parent_")
        os.rmdir(worktree)
        _git("worktree", "add", "--detach", worktree, report["parent"])
        parent_dir = worktree
    try:
        seed = args.seed
        for workload, count in args.run:
            entry = report["workloads"].setdefault(workload, {"pairs": [], "summary": {}})
            for k in range(count):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_side(parent_dir if side == "parent" else ROOT, workload, seed, seconds)
                    report["machine"] = report["machine"] or pair[side].get("machine")
                    pair[side].pop("machine", None)
                seed += 1
                entry["pairs"].append(pair)
                ok = [p for p in entry["pairs"] if "metrics" in p["parent"] and "metrics" in p["change"]]
                entry["summary"] = summarize(
                    [{"parent": p["parent"]["metrics"], "change": p["change"]["metrics"]} for p in ok],
                    better, bounds)
                entry["pairs_left_out"] = len(entry["pairs"]) - len(ok)
                entry["failures"] = failures(entry["pairs"])
                entry["ops_per_run"] = ops_per_run(entry["pairs"])
                entry["rss_per_kop"] = rss_per_kop(entry["pairs"])
                entry["rss_ceiling"] = rss_ceiling(entry["pairs"], bounds.get("peak_rss_mb"))
                entry["seeds"] = [p["seed"] for p in entry["pairs"]]
                with open(out_path, "w", encoding="utf-8") as f:
                    json.dump(report, f, indent=1)
                    f.write("\n")
                tp = entry["summary"].get("throughput_ops_s")
                print(f"{workload} pair {k + 1}/{count} seed {pair['seed']}: throughput "
                      + " -> ".join(f"{pair[s].get('metrics', {}).get('throughput_ops_s', float('nan')):.4g}"
                                    for s in ("parent", "change"))
                      + (f"  (won {tp['pairs_won']}/{tp['pairs']})" if tp else ""), flush=True)
            print(summary_line(workload, entry), flush=True)
    finally:
        if worktree is not None:
            _git("worktree", "remove", "--force", worktree)
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
