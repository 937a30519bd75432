"""File formats and the command-line interface, driven in process.

One check runs `python -m crheat` in a subprocess, so that a hang is cut
off by a timeout instead of stalling the suite.
"""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import crheat
from crheat.cli import main
from crheat.density import curvature_point, density_diagonal
from crheat.errors import FileFormatError, NonHermitian
from crheat.files import (
    format_descriptor,
    format_point,
    load_descriptor,
    parse_descriptor,
    parse_point,
    save_descriptor,
)
from crheat.morse import ManifoldDescriptor

DATA = pathlib.Path(__file__).parent / "data"
POINT_CONVEX = str(DATA / "point_convex.json")
POINT_DEFINITE = str(DATA / "point_definite_levi.json")
DESC_INDEF = str(DATA / "descriptor_indefinite.json")


def test_parse_point_round_trip():
    p = curvature_point(
        [[1.5, 0.25 + 0.5j], [0.25 - 0.5j, -2.0]],
        [[1.0, 0.0], [0.0, 0.75]],
        beta=0.3,
        weight=0.125,
    )
    q = parse_point(format_point(p))
    assert q.n == 2
    assert np.array_equal(q.curvature.mat, p.curvature.mat)
    assert np.array_equal(q.levi.mat, p.levi.mat)
    assert (q.beta, q.weight) == (0.3, 0.125)
    # the canonical form is a fixed point of write -> read -> write
    assert format_point(q) == format_point(p)


def test_parse_errors_are_specific():
    with pytest.raises(FileFormatError, match="line 1, column"):
        parse_point("{not json")
    good = format_point(curvature_point([[1.0]], [[1.0]]))
    with pytest.raises(FileFormatError, match="schema_version"):
        parse_point(good.replace('"1"', '"7"'))
    with pytest.raises(FileFormatError, match="unknown key 'extra'"):
        parse_point(good.replace('"beta": 0.0', '"extra": 1, "beta": 0.0'))
    with pytest.raises(FileFormatError, match="'n' must be a positive integer"):
        parse_point(good.replace('"n": 1', '"n": 0'))
    with pytest.raises(FileFormatError, match=r"\[re, im\] pair"):
        parse_point(good.replace("[[1.0, 0.0]]", "[[1.0]]", 1))
    with pytest.raises(FileFormatError, match="'weight' must be a real number"):
        parse_point(good.replace('"weight": 1.0', '"weight": true'))
    with pytest.raises(NonHermitian):
        # a nonzero imaginary part on the 1x1 diagonal breaks Hermiticity
        parse_point(good.replace("[[1.0, 0.0]]", "[[1.0, 1.0]]", 1))


def test_parse_descriptor_prefixes_point_errors():
    text = format_descriptor(
        ManifoldDescriptor("two", (curvature_point([[1.0]], [[1.0]]),) * 2)
    )
    broken = text.replace('"n": 1', '"n": -1', 1)
    with pytest.raises(FileFormatError, match=r"points\[0\]"):
        parse_descriptor(broken)
    with pytest.raises(FileFormatError, match="'name' must be text"):
        parse_descriptor('{"schema_version": "1", "name": 3, "points": []}')


def test_descriptor_save_load_identity(tmp_path):
    d = ManifoldDescriptor(
        "pair",
        (
            curvature_point([[1.0]], [[0.5]], weight=0.5),
            curvature_point([[2.0 + 0j]], [[1.0]], beta=-0.25, weight=0.5),
        ),
    )
    path = tmp_path / "d.json"
    save_descriptor(d, path)
    d2 = load_descriptor(path)
    assert d2.name == d.name
    assert len(d2.points) == 2
    assert format_descriptor(d2) == format_descriptor(d)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_density_csv_matches_library(capsys):
    code, out, err = run_cli(
        capsys, "density", "--input", POINT_DEFINITE, "--q", "1", "--t", "1.0"
    )
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "kind,i,j,re,im"
    trace_line = [l for l in lines if l.startswith("trace")][0]
    got = float(trace_line.split(",")[3])
    p = curvature_point(np.diag([0.8, -0.6]), [[1.0, 0.2], [0.2, 0.8]])
    want = density_diagonal(p, 1, 1.0).trace.real
    assert got == pytest.approx(want, rel=1e-9)
    # shortest round-trip printing preserves every bit
    assert got == want


def test_density_delta_zero(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--input", POINT_CONVEX, "--q", "0", "--t", "1.0",
        "--delta", "0",
    )
    assert code == 0
    assert "entry,0,0,0.0,0.0" in out


def test_density_q_out_of_range(capsys):
    code, out, err = run_cli(
        capsys, "density", "--input", POINT_CONVEX, "--q", "3", "--t", "1.0"
    )
    assert code == 2
    assert "q out of range (0 <= q <= 1)" in err


def test_density_divergent_exit(capsys):
    code, _, err = run_cli(
        capsys, "density", "--input", POINT_CONVEX, "--q", "0", "--t", "1.0"
    )
    assert code == 3
    assert "divergent integral (toward" in err


def test_density_eta_grid_rows(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--input", POINT_DEFINITE, "--q", "1", "--t", "1.0",
        "--eta-grid=-2:2:0.5",
    )
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith("integrand,")]
    assert len(rows) == 9
    assert rows[0].split(",")[1] == "-2.0"


def test_density_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--input", POINT_DEFINITE, "--q", "1", "--t", "1.0",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["matrix"]) == 2
    assert doc["trace"][1] == pytest.approx(0.0, abs=1e-12)


def test_density_reruns_are_byte_identical(capsys):
    args = ("density", "--input", POINT_DEFINITE, "--q", "1", "--t", "0.7")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_kernel_at_origin_matches_density(capsys):
    # same rows, same layout; values agree to the tighter of the two
    # adaptive tolerances rather than byte for byte
    _, out_k, _ = run_cli(
        capsys, "kernel", "--input", POINT_DEFINITE, "--q", "1", "--t", "1.0",
        "--x", "0,0,0,0,0", "--y", "0,0,0,0,0",
    )
    _, out_d, _ = run_cli(
        capsys, "density", "--input", POINT_DEFINITE, "--q", "1", "--t", "1.0"
    )
    rows_k = out_k.strip().splitlines()
    rows_d = out_d.strip().splitlines()
    assert len(rows_k) == len(rows_d)
    assert rows_k[0] == rows_d[0]
    for rk, rd in zip(rows_k[1:], rows_d[1:]):
        pk, pd = rk.split(","), rd.split(",")
        assert pk[:3] == pd[:3]
        for a, b in zip(pk[3:], pd[3:]):
            assert float(a) == pytest.approx(float(b), rel=1e-9, abs=1e-12)


def test_kernel_coincident_point_finite(capsys):
    code, out, _ = run_cli(
        capsys, "kernel", "--input", POINT_CONVEX, "--q", "0", "--t", "1.0",
        "--x", "0.4,0.2,0.7", "--y", "0.1,-0.3,0.2", "--delta", "3.0",
    )
    assert code == 0
    re = float([l for l in out.splitlines() if l.startswith("trace")][0].split(",")[3])
    assert math.isfinite(re) and re != 0.0


def test_kernel_coordinate_errors(capsys):
    code, _, err = run_cli(
        capsys, "kernel", "--input", POINT_CONVEX, "--q", "0", "--t", "1.0",
        "--x", "0,0", "--y", "0,0,0", "--delta", "1.0",
    )
    assert code == 2
    assert "expected 3 comma-separated reals" in err
    code, _, err = run_cli(
        capsys, "kernel", "--input", POINT_CONVEX, "--q", "0", "--t", "1.0",
        "--x", "a,b,c", "--y", "0,0,0", "--delta", "1.0",
    )
    assert code == 2
    assert "real numbers" in err


def test_kernel_full_line_divergence(capsys):
    code, _, err = run_cli(
        capsys, "kernel", "--input", POINT_CONVEX, "--q", "0", "--t", "1.0",
        "--x", "0,0,0.5", "--y", "0,0,0",
    )
    assert code == 3
    assert "divergent" in err


def test_morse_table(capsys):
    code, out, _ = run_cli(capsys, "morse", "--input", DESC_INDEF, "--q", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j,weak,feasible,strong"
    assert lines[1].startswith("0,divergent,False,")
    cells = lines[2].split(",")
    assert cells[0] == "1" and cells[2] == "True"
    assert float(cells[1]) == pytest.approx((2 * math.pi) ** -3 * 2 / 3, rel=1e-12)


def test_morse_delta_zero_table(capsys):
    code, out, _ = run_cli(
        capsys, "morse", "--input", DESC_INDEF, "--q", "1", "--delta", "0"
    )
    assert code == 0
    assert "0,0.0,True,0.0" in out
    assert "1,0.0,True,0.0" in out


def test_morse_infeasible_exit(capsys):
    code, _, err = run_cli(capsys, "morse", "--input", DESC_INDEF, "--q", "0")
    assert code == 3
    assert "pass --delta" in err


def test_morse_heat_rows(capsys):
    code, out, _ = run_cli(
        capsys, "morse", "--input", DESC_INDEF, "--q", "1", "--heat-t", "10"
    )
    assert code == 0
    assert "heat_t,10.0,0,divergent" in out
    row = [l for l in out.splitlines() if l.startswith("heat_t,10.0,1,")][0]
    assert float(row.split(",")[3]) > 0


def test_morse_json(capsys):
    code, out, _ = run_cli(
        capsys, "morse", "--input", DESC_INDEF, "--q", "1", "--format", "json",
        "--heat-t", "10",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["weak"] is None
    assert doc["rows"][1]["feasible"] is True
    assert doc["heat_trace"][0]["value"] is None


def test_validate_suite(capsys):
    code, out, _ = run_cli(capsys, "validate", "--suite", "exterior")
    assert code == 0
    assert out.splitlines()[-1].startswith("passed ")
    assert "FAIL" not in out


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_missing_input_file(capsys):
    code, _, err = run_cli(
        capsys, "density", "--input", "no/such/file.json", "--q", "0", "--t", "1.0"
    )
    assert code == 2
    assert "error:" in err


def test_non_finite_point_file_exits_2_quickly(tmp_path):
    good = format_point(curvature_point([[1.0]], [[0.5]]))
    src = str(pathlib.Path(crheat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for broken in (
        good.replace("[[0.5, 0.0]]", "[[NaN, 0.0]]"),
        good.replace('"weight": 1.0', '"weight": Infinity'),
        good.replace('"beta": 0.0', '"beta": NaN'),
    ):
        assert broken != good
        path = tmp_path / "p.json"
        path.write_text(broken)
        proc = subprocess.run(
            [sys.executable, "-m", "crheat", "density", "--input", str(path),
             "--q", "0", "--t", "1", "--delta", "2"],
            capture_output=True, text=True, timeout=5, env=env,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == "" and "error:" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("density", "--input", POINT_CONVEX, "--q", "0", "--t", "-1", "--delta", "2"),
        ("density", "--input", POINT_CONVEX, "--q", "0", "--t", "nan", "--delta", "2"),
        ("density", "--input", POINT_CONVEX, "--q", "0", "--t", "0", "--delta", "2"),
        ("density", "--input", POINT_CONVEX, "--q", "0", "--t", "1", "--delta=-1"),
        ("density", "--input", POINT_CONVEX, "--q", "0", "--t", "1", "--delta", "inf"),
        ("density", "--input", POINT_CONVEX, "--q", "0", "--t", "1", "--delta", "2",
         "--eta-grid", "0:nan:1"),
        ("kernel", "--input", POINT_CONVEX, "--q", "0", "--t", "1", "--x", "0,0,0",
         "--y", "0,0,0", "--delta", "-2"),
        ("morse", "--input", DESC_INDEF, "--q", "1", "--heat-t", "1,-1"),
    ],
)
def test_bad_reals_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_non_finite_coordinate_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "kernel", "--input", POINT_CONVEX, "--q", "0", "--t", "1.0",
        "--x", "0,nan,0", "--y", "0,0,0", "--delta", "1.0",
    )
    assert code == 2 and out == ""
    assert "finite" in err


def test_dash_led_values_are_accepted(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--input", POINT_DEFINITE, "--q", "1", "--t", "1.0",
        "--eta-grid", "-2:2:0.5",
    )
    assert code == 0
    _, joined, _ = run_cli(
        capsys, "density", "--input", POINT_DEFINITE, "--q", "1", "--t", "1.0",
        "--eta-grid=-2:2:0.5",
    )
    assert out == joined
    args = ("kernel", "--input", POINT_CONVEX, "--q", "0", "--t", "1.0", "--delta", "6.0")
    code, out, _ = run_cli(capsys, *args, "--x", "-0.1,-0.4,0.0", "--y", "0.3,0.2,-0.1")
    assert code == 0
    _, joined, _ = run_cli(capsys, *args, "--x=-0.1,-0.4,0.0", "--y=0.3,0.2,-0.1")
    assert out == joined
