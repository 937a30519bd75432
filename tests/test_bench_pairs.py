"""tools/bench_pairs.py: medians, quartiles, ratios and pairs won, and the failures it records."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pairs(parent, change, metric):
    return [{"parent": {metric: a}, "change": {metric: b}} for a, b in zip(parent, change)]


def test_higher_is_better_gain():
    parent = [40.0, 42.0, 44.0, 46.0, 48.0]
    change = [70.0, 80.0, 75.0, 45.0, 90.0]
    s = bench_pairs.summarize(_pairs(parent, change, "tp"), {"tp": "higher"}, {"tp": 0.25})["tp"]
    assert s["parent"] == {"median": 44.0, "q1": 42.0, "q3": 46.0}
    assert s["change"] == {"median": 75.0, "q1": 70.0, "q3": 80.0}
    assert s["ratio_of_medians"] == pytest.approx(75.0 / 44.0)
    assert s["pair_ratios"]["min"] == pytest.approx(45.0 / 46.0)
    assert s["pair_ratios"]["max"] == pytest.approx(80.0 / 42.0)
    assert s["pair_ratios"]["median"] == pytest.approx(70.0 / 40.0)
    # 4 of 5 won is below nine tenths, so no gain holds despite the medians
    assert (s["pairs"], s["pairs_won"], s["ties"]) == (5, 4, 0)
    assert not s["gain_holds"] and s["within_bound"]


def test_lower_is_better_and_ties():
    parent = [10.0, 10.0, 12.0, 14.0]
    change = [9.0, 10.0, 11.0, 13.0]
    s = bench_pairs.summarize(_pairs(parent, change, "ms"), {"ms": "lower"})["ms"]
    assert (s["pairs_won"], s["ties"]) == (3, 1)
    assert "bound" not in s and not s["gain_holds"]
    # all pairs won, but the medians (11 -> 10.5) are closer than the
    # parent's interquartile range (10 .. 12.5)
    s = bench_pairs.summarize(_pairs(parent, [9.0, 9.5, 11.5, 13.5], "ms"), {"ms": "lower"})["ms"]
    assert s["pairs_won"] == 4 and s["parent"]["q3"] - s["parent"]["q1"] == pytest.approx(2.5)
    assert not s["gain_holds"]
    s = bench_pairs.summarize(_pairs(parent * 3, [5.0, 6.0, 7.0, 8.0] * 3, "ms"), {"ms": "lower"})["ms"]
    assert s["pairs"] == 12 and s["gain_holds"]


def test_four_of_four_wins_is_no_gain():
    # every pair won, by far more than the parent's interquartile range,
    # but 4 of 4 happens by chance 1 time in 16: below 10 pairs no gain holds
    parent, change = [10.0, 10.0, 12.0, 14.0], [5.0, 6.0, 7.0, 8.0]
    s = bench_pairs.summarize(_pairs(parent, change, "ms"), {"ms": "lower"})["ms"]
    assert (s["pairs"], s["pairs_won"]) == (4, 4) and not s["gain_holds"]
    s = bench_pairs.summarize(_pairs(parent * 3, change * 3, "ms")[:9], {"ms": "lower"})["ms"]
    assert s["pairs_won"] == 9 and not s["gain_holds"]
    assert bench_pairs.summarize(_pairs(parent * 3, change * 3, "ms")[:10], {"ms": "lower"})["ms"]["gain_holds"]


def test_bound_and_missing_metrics():
    pairs = _pairs([70.0, 70.0, 72.0], [77.5, 78.0, 79.0], "rss")
    s = bench_pairs.summarize(pairs, {"rss": "lower", "tp": "higher"}, {"rss": 0.1, "tp": 0.25})
    # 70 -> 78 MB is 11.4% worse, past a 10% bound; tp is in no pair
    assert set(s) == {"rss"} and not s["rss"]["within_bound"]
    pairs[0]["change"].pop("rss")
    assert bench_pairs.summarize(pairs, {"rss": "lower"}) == {}
    one = bench_pairs.summarize(_pairs([3.0], [2.0], "x"), {"x": "lower"})["x"]
    assert one["parent"] == {"median": 3.0, "q1": 3.0, "q3": 3.0} and not one["gain_holds"]


def test_run_argument_is_checked():
    assert bench_pairs._parse_run("group_kernel:10") == ("group_kernel", 10)
    for bad in ("group_kernel", "group_kernel:0", ":3", "cli_mix:x"):
        with pytest.raises(Exception):
            bench_pairs._parse_run(bad)


def test_failures_count_errored_runs_and_failed_ops():
    pairs = [
        {"seed": 5, "parent": {"attempted": 100, "failed": 0, "metrics": {}},
         "change": {"attempted": 90, "failed": 3, "metrics": {}}},
        {"seed": 6, "parent": {"exit": 1, "error": "perfbench exited with 1"},
         "change": {"attempted": 110, "failed": 1, "metrics": {}}},
    ]
    f = bench_pairs.failures(pairs)
    assert f["parent"] == {"errored_seeds": [6], "failed_ops": 0, "attempted_ops": 100,
                           "failed_share": 0.0}
    assert f["change"] == {"errored_seeds": [], "failed_ops": 4, "attempted_ops": 200,
                           "failed_share": 0.02}
    only_errors = [{"seed": 7, "parent": {"error": "x"}, "change": {"error": "y"}}]
    assert bench_pairs.failures(only_errors)["change"] == {
        "errored_seeds": [7], "failed_ops": 0, "attempted_ops": 0, "failed_share": None}


def test_ops_per_run_medians_and_quartiles():
    pairs = [
        {"seed": 1, "parent": {"attempted": 1164}, "change": {"attempted": 1488}},
        {"seed": 2, "parent": {"attempted": 1200}, "change": {"error": "perfbench exited with 1"}},
        {"seed": 3, "parent": {"attempted": 1100}, "change": {"attempted": 1500}},
        {"seed": 4, "parent": {"attempted": 1300}, "change": {"attempted": 1400}},
    ]
    ops = bench_pairs.ops_per_run(pairs)
    assert ops["parent"] == {"median": 1182.0, "q1": 1148.0, "q3": 1225.0, "runs": 4}
    # the errored run has no op count and is left out
    assert ops["change"] == {"median": 1488, "q1": 1444.0, "q3": 1494.0, "runs": 3}
    assert bench_pairs.ops_per_run([{"seed": 5, "parent": {"error": "x"}, "change": {"attempted": 7}}]) == {
        "parent": None, "change": {"median": 7, "q1": 7, "q3": 7, "runs": 1}}


def _run(ops, rss):
    return {"attempted": ops, "failed": 0, "metrics": {"peak_rss_mb": rss}}


def test_rss_per_kop_slope_over_both_sides():
    # an exact line, 60 MB + 11.5 KB per op, through both sides' runs
    line = [(1100, 1400), (1200, 1500), (1000, 1450)]
    pairs = [{"seed": k, "parent": _run(a, 60 + 0.0115 * a), "change": _run(b, 60 + 0.0115 * b)}
             for k, (a, b) in enumerate(line)]
    pairs.append({"seed": 9, "parent": {"error": "perfbench exited with 1"}, "change": _run(1300, 0.0)})
    pairs[-1]["change"]["metrics"] = {}  # a run without the metric is left out too
    got = bench_pairs.rss_per_kop(pairs)
    assert got["runs"] == 6 and got["mb_per_kop"] == pytest.approx(11.5, rel=1e-9)
    # constant op counts, or fewer than 3 runs, give no slope
    flat = [{"seed": k, "parent": _run(1200, 70.0 + k), "change": _run(1200, 71.0)} for k in range(3)]
    assert bench_pairs.rss_per_kop(flat) == {"mb_per_kop": None, "runs": 6}
    assert bench_pairs.rss_per_kop(pairs[:1]) == {"mb_per_kop": None, "runs": 2}


def test_rss_ceiling_from_the_slope_and_the_parent_medians():
    # 60 MB + 12 KB per op on both sides: the parent's medians are 1200 ops
    # and 74.4 MB, and 10% of 74.4 MB buys 7.44 / 0.012 = 620 more ops
    line = [(1100, 1500), (1200, 1600), (1300, 1700)]
    pairs = [{"seed": k, "parent": _run(a, 60 + 0.012 * a), "change": _run(b, 60 + 0.012 * b)}
             for k, (a, b) in enumerate(line)]
    got = bench_pairs.rss_ceiling(pairs, 0.1)
    assert got["ops_per_run"] == pytest.approx(1200 + 620, rel=1e-9)
    assert got["change_ops_per_run"] == 1600
    # the change's median RSS at the ceiling is the bound exactly
    assert 60 + 0.012 * got["ops_per_run"] == pytest.approx(1.1 * (60 + 0.012 * 1200), rel=1e-12)
    # no bound, no positive slope, or no parent run: no ceiling
    assert bench_pairs.rss_ceiling(pairs, None)["ops_per_run"] is None
    flat = [{"seed": k, "parent": _run(1200 + k, 70.0), "change": _run(1300 + k, 70.0)} for k in range(3)]
    assert bench_pairs.rss_ceiling(flat, 0.1) == {"ops_per_run": None, "change_ops_per_run": 1301}
    errored = [{"seed": 1, "parent": {"error": "x"}, "change": _run(1300, 70.0)}]
    assert bench_pairs.rss_ceiling(errored, 0.1) == {"ops_per_run": None, "change_ops_per_run": 1300}


def test_summary_line_names_gains_broken_bounds_and_the_ceiling():
    pairs = _pairs([4.0, 4.2, 4.1] * 4, [3.0, 3.1, 3.2] * 4, "p50")[:10]
    for p, rss in zip(pairs, ([80.0, 90.0], [81.0, 91.0], [82.0, 92.0]) * 4):
        p["parent"]["rss"], p["change"]["rss"] = rss
    summary = bench_pairs.summarize(pairs, {"p50": "lower", "rss": "lower"}, {"p50": 0.25, "rss": 0.1})
    entry = {"summary": summary, "rss_ceiling": {"ops_per_run": 1820.4, "change_ops_per_run": 1600}}
    assert bench_pairs.summary_line("group_kernel", entry) == (
        "group_kernel: gain holds: p50; past bound: rss; ops/run 1600 against rss_ceiling 1820")
    entry = {"summary": {}, "rss_ceiling": {"ops_per_run": None, "change_ops_per_run": None}}
    assert bench_pairs.summary_line("cli_mix", entry) == (
        "cli_mix: gain holds: none; past bound: none; ops/run n/a against rss_ceiling n/a")
