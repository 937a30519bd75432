"""CLI numbers on tests/data compared with recorded outputs.

tests/data/golden/NAME.csv and NAME.json are the stdout of the command
CASES[NAME] with --format csv and --format json, recorded before the
three eta-integral paths were merged into one driver; the two n = 3
heat-trace cases were recorded before heat_trace stopped building the
density matrix at each eta node.  Every number must
agree to 1e-12 relative and every other field exactly, so a change that
moves a printed result shows here even when it keeps each identity the
other tests check.  Rerecord a file only for a change that means to
alter the numbers, and say so in CHANGES.md.
"""

import json
import math
import pathlib

import pytest

from crheat.cli import main

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
POINT_CONVEX = str(DATA / "point_convex.json")
POINT_DEFINITE = str(DATA / "point_definite_levi.json")
DESC_INDEF = str(DATA / "descriptor_indefinite.json")
DESC_DEFINITE_N3 = str(DATA / "descriptor_definite_n3.json")
REL = 1e-12

CASES = {
    "density_convex_q0_delta6": (
        "density", "--input", POINT_CONVEX, "--q", "0", "--t", "1.0", "--delta", "6.0"),
    "density_convex_q1_delta3_grid": (
        "density", "--input", POINT_CONVEX, "--q", "1", "--t", "0.5", "--delta", "3.0",
        "--eta-grid=-2:2:0.5"),
    "density_definite_q1_full": (
        "density", "--input", POINT_DEFINITE, "--q", "1", "--t", "1.0"),
    "density_definite_q2_delta2_grid": (
        "density", "--input", POINT_DEFINITE, "--q", "2", "--t", "0.7", "--delta", "2.0",
        "--eta-grid", "-1:1:0.25"),
    "kernel_convex_q0_delta6": (
        "kernel", "--input", POINT_CONVEX, "--q", "0", "--t", "1.0", "--x", "0.3,0.2,0.1",
        "--y=-0.1,-0.4,0.0", "--delta", "6.0"),
    "kernel_definite_q1_full": (
        "kernel", "--input", POINT_DEFINITE, "--q", "1", "--t", "1.0",
        "--x", "0.3,0.2,-0.1,0.1,0.4", "--y", "0.0,0.1,0.2,-0.3,-0.2"),
    "kernel_definite_q1_delta3": (
        "kernel", "--input", POINT_DEFINITE, "--q", "1", "--t", "0.8",
        "--x", "0.1,0.0,0.2,0.1,0.0", "--y", "0.0,0.1,0.0,-0.2,0.3", "--delta", "3.0"),
    "morse_indef_q1_heat": (
        "morse", "--input", DESC_INDEF, "--q", "1", "--heat-t", "1.0"),
    "morse_indef_q2_delta2_heat": (
        "morse", "--input", DESC_INDEF, "--q", "2", "--delta", "2.0", "--heat-t", "0.5,1.0"),
    "morse_definite_n3_q3_heat": (
        "morse", "--input", DESC_DEFINITE_N3, "--q", "3", "--heat-t", "0.5,2"),
    "morse_definite_n3_q3_delta2_heat": (
        "morse", "--input", DESC_DEFINITE_N3, "--q", "3", "--delta", "2.0", "--heat-t", "0.5,2"),
}


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL * max(abs(a), abs(b))


def _as_number(field: str):
    try:
        return float(field)
    except ValueError:
        return None


def _compare_csv(got: str, want: str):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    for g_line, w_line in zip(got_lines, want_lines):
        g_fields, w_fields = g_line.split(","), w_line.split(",")
        assert len(g_fields) == len(w_fields), (g_line, w_line)
        for g, w in zip(g_fields, w_fields):
            gv, wv = _as_number(g), _as_number(w)
            if wv is None or not math.isfinite(wv):
                assert g == w, (g_line, w_line)
            else:
                assert gv is not None and _close(gv, wv), (g_line, w_line)


def _compare_json(got, want, path="$"):
    if isinstance(want, bool) or want is None or isinstance(want, str):
        assert got == want and type(got) is type(want), path
    elif isinstance(want, (int, float)):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        assert _close(float(got), float(want)), (path, got, want)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, f"{path}[{k}]")
    else:
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            _compare_json(got[key], want[key], f"{path}.{key}")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_numbers_match_golden(capsys, name, fmt):
    code = main(list(CASES[name]) + ["--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    want = (GOLDEN / f"{name}.{fmt}").read_text()
    if fmt == "csv":
        _compare_csv(out, want)
    else:
        _compare_json(json.loads(out), json.loads(want))
