"""tools/same_numbers.py: the per-function comparison of two battery runs."""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys

import numpy as np

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "same_numbers.py")
_spec = importlib.util.spec_from_file_location("same_numbers", _PATH)
same_numbers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_numbers)


def _call(fn, case, values=None, error=None):
    if error is not None:
        return {"fn": fn, "case": case, "error": error}
    vals = np.array(values, dtype=float)
    return {"fn": fn, "case": case, "sha256": hashlib.sha256(vals.tobytes()).hexdigest(), "values": vals.tolist()}


def test_bitwise_counts_drift_and_error_differences():
    first = [
        _call("f", "a", [1.0, 2.0]),
        _call("f", "b", [4.0, -2.0]),
        _call("f", "c", [0.0, -0.0]),
        _call("f", "d", [1e-3]),
        _call("g", "a", error="DivergentIntegral"),
        _call("g", "b", [1.0]),
        _call("g", "c", [math.nan, 3.0]),
        _call("h", "gone", [1.0]),
    ]
    second = [
        _call("f", "a", [1.0, 2.0]),
        _call("f", "b", [4.0, -2.0 + 1e-12]),
        # the sign of a zero is a bit: equal values, not the same bits
        _call("f", "c", [0.0, 0.0]),
        # a small value drifts far on its own scale, little on the function's
        _call("f", "d", [1e-3 + 1e-15]),
        _call("g", "a", error="DivergentIntegral"),
        _call("g", "b", error="NonFinite"),
        _call("g", "c", [math.nan, 3.0]),
        _call("h", "new", [1.0]),
    ]
    s = same_numbers.compare(first, second)
    assert (s["f"]["calls"], s["f"]["bitwise"], s["f"]["error_diffs"]) == (4, 1, [])
    # the largest difference over the call's largest value, and over the
    # largest value of any call of the function
    assert s["f"]["max_drift"] == (1e-3 + 1e-15 - 1e-3) / 1e-3
    assert s["f"]["fn_drift"] == (-2.0 + 1e-12 - -2.0) / 4.0
    # the same error on both sides is equal; NaN in the same place is too
    assert (s["g"]["calls"], s["g"]["bitwise"], s["g"]["max_drift"]) == (3, 2, 0.0)
    assert s["g"]["error_diffs"] == [{"case": "b", "first": None, "second": "NonFinite"}]
    assert s["h"]["error_diffs"] == [{"case": "gone", "first": None, "second": "missing"},
                                     {"case": "new", "first": "missing", "second": None}]
    report = same_numbers._report(s)
    assert "g [b]: None -> NonFinite" in report and report.splitlines()[0].startswith("function")


def test_drift_of_mismatched_shapes_or_nans_is_infinite():
    assert same_numbers._difference([1.0], [1.0, 2.0]) == math.inf
    assert same_numbers._difference([math.nan], [1.0]) == math.inf
    # a difference where the first file's values are all zero
    assert same_numbers._relative(same_numbers._difference([0.0], [1e-300]), 0.0) == math.inf
    assert same_numbers._difference([2.0, math.nan], [2.0, math.nan]) == 0.0


def test_compare_command_reads_two_files(tmp_path, capsys):
    paths = []
    for k, calls in enumerate(([_call("f", "a", [1.0])], [_call("f", "a", [1.5])])):
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps({"calls": calls}))
        paths.append(str(path))
    assert same_numbers.main(["--compare", *paths]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row == ["f", "1", "0", "0.5", "0.5", "0"]


def test_battery_is_bitwise_equal_at_one_and_two_blas_threads(tmp_path):
    # each run in its own interpreter, since OpenBLAS reads its thread
    # count when it loads
    paths = []
    for threads in ("1", "2"):
        path = tmp_path / f"threads{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, _PATH, "--out", str(path)], env=env, check=True, timeout=300)
        paths.append(path)
    first, second = (json.loads(p.read_text())["calls"] for p in paths)
    summary = same_numbers.compare(first, second)
    assert sum(e["calls"] for e in summary.values()) == len(first) > 400
    assert all(e["bitwise"] == e["calls"] and not e["error_diffs"] for e in summary.values()), \
        same_numbers._report(summary)
