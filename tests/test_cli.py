"""File formats and the command-line interface, driven in process.

One check runs `python -m crheat` in a subprocess, so that a hang is cut
off by a timeout instead of stalling the suite.
"""

import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import crheat
from crheat.cli import MAX_ETA_SAMPLES, MAX_HEAT_TIMES, _build_parser, _eta_grid, main
from crheat.density import curvature_point, density_diagonal
from crheat.errors import FileFormatError, InvalidArgument, NonHermitian
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
HOSTILE = DATA / "hostile"


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
        # argparse hands "--opt=--" an empty list instead of a string, which
        # used to reach the library and end in a TypeError traceback
        ("density", "--input", POINT_CONVEX, "--q", "0", "--t=--"),
        ("density", "--input", POINT_CONVEX, "--q", "0", "--t", "--"),
        ("density", "--input", POINT_CONVEX, "--q=--", "--t", "1"),
        ("kernel", "--input", POINT_CONVEX, "--q", "0", "--t", "1", "--x=--", "--y", "0,0,0"),
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


def test_non_positive_weight_exits_2(capsys, tmp_path):
    good = format_point(curvature_point([[1.0]], [[0.5]]))
    path = tmp_path / "p.json"
    for weight in ("-1.0", "0.0"):
        path.write_text(good.replace('"weight": 1.0', f'"weight": {weight}'))
        code, out, err = run_cli(
            capsys, "density", "--input", str(path), "--q", "0", "--t", "1", "--delta", "2"
        )
        assert code == 2 and out == ""
        assert "'weight' must be positive" in err and "Traceback" not in err


def test_invalid_argument_exits_2(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise InvalidArgument("t must be positive")

    monkeypatch.setattr(crheat.cli, "density_diagonal", refuse)
    code, out, err = run_cli(capsys, "density", "--input", POINT_CONVEX, "--q", "0", "--t", "1")
    assert code == 2 and out == ""
    assert err == "error: t must be positive\n"


def test_eta_grid_sample_count_is_bounded(capsys):
    assert len(_eta_grid(f"0:{MAX_ETA_SAMPLES - 1}:1")) == MAX_ETA_SAMPLES
    start = time.perf_counter()
    for spec in (f"0:{MAX_ETA_SAMPLES}:1", "0:1e9:1e-9", "0:1:1e-320"):
        with pytest.raises(SystemExit) as exc:
            main(["density", "--input", POINT_CONVEX, "--q", "0", "--t", "1",
                  "--delta", "2", f"--eta-grid={spec}"])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0


def test_heat_time_count_is_bounded(capsys):
    argv = ["morse", "--input", DESC_INDEF, "--q", "1", "--delta", "2", "--heat-t"]
    args = _build_parser().parse_args(argv + [",".join(["1"] * MAX_HEAT_TIMES)])
    assert args.heat_t == [1.0] * MAX_HEAT_TIMES
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(argv + [",".join(["1"] * (MAX_HEAT_TIMES + 1))])
    assert exc.value.code == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"more than {MAX_HEAT_TIMES} times" in err and "Traceback" not in err


def _as_descriptor(point_text: str) -> str:
    """A one-point descriptor around the body of a point file's text."""
    version = '"schema_version": "1",'
    assert version in point_text
    return point_text.replace(version, version + ' "name": "hostile", "points": [{', 1).rstrip() + "]}"


_HUGE = "1" + "0" * 400  # an integer past the float range


@pytest.mark.parametrize(
    "name, message",
    [
        ("huge_integer.json", r"'levi'\[0\]\[0\] is beyond the float range"),
        ("long_integer.json", "a number has too many digits"),
        ("deep_arrays.json", "arrays or objects nested too deeply"),
        ("beta", "'beta' is beyond the float range"),
        ("weight", "'weight' is beyond the float range"),
    ],
)
def test_hostile_files_are_format_errors(capsys, tmp_path, name, message):
    # each used to end in a traceback and exit 1 (OverflowError, a ValueError
    # from json.loads, RecursionError), as a point file and as a descriptor
    if name.endswith(".json"):
        text = (HOSTILE / name).read_text()
    else:  # a key of a valid point file, set past the float range
        good = format_point(curvature_point([[1.0]], [[0.5]]))
        text = re.sub(f'"{name}": [0-9.]+', f'"{name}": {_HUGE}', good)
        assert text != good
    point, descriptor = tmp_path / "p.json", tmp_path / "d.json"
    point.write_text(text)
    descriptor.write_text(_as_descriptor(text))
    with pytest.raises(FileFormatError, match=message):
        crheat.files.load_point(point)
    with pytest.raises(FileFormatError, match=message):
        load_descriptor(descriptor)
    for argv in (("density", "--input", str(point), "--q", "0", "--t", "1", "--delta", "1"),
                 ("morse", "--input", str(descriptor), "--q", "0", "--delta", "1")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and re.search(message, err)


@pytest.mark.parametrize(
    "argv",
    [
        ("density", "--q", "0", "--t", "1", "--delta", "2"),
        ("kernel", "--q", "0", "--t", "1", "--x", "0,0,0", "--y", "0,0,0", "--delta", "2"),
        ("morse", "--q", "1", "--delta", "2"),
    ],
)
def test_unreadable_input_exits_2(capsys, tmp_path, argv):
    # a directory, and a file that is not UTF-8: one line on stderr, no traceback
    source = DESC_INDEF if argv[0] == "morse" else POINT_CONVEX
    latin = tmp_path / "latin1.json"
    latin.write_bytes(b"\xff" + pathlib.Path(source).read_bytes())
    for path, message in ((tmp_path, "Is a directory"), (latin, "not UTF-8")):
        code, out, err = run_cli(capsys, argv[0], "--input", str(path), *argv[1:])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_undecodable_file_is_a_format_error(tmp_path):
    path = tmp_path / "p.json"
    path.write_bytes(format_point(curvature_point([[1.0]], [[0.5]])).encode().replace(b"1.0", b"1.\xe9"))
    with pytest.raises(FileFormatError, match="not UTF-8"):
        crheat.files.load_point(path)
    with pytest.raises(FileFormatError, match="not UTF-8"):
        load_descriptor(path)


def test_calls_in_one_process_print_as_separate_runs(capsys):
    # the parser is built once per process: a usage error and a change of
    # subcommand must leave nothing behind for the next call
    sequence = [
        ("density", "--input", POINT_CONVEX, "--q", "0", "--t", "-1", "--delta", "2"),
        ("density", "--input", POINT_CONVEX, "--q", "0", "--t", "1", "--delta", "2"),
        ("kernel", "--input", POINT_CONVEX, "--q", "0", "--t", "1", "--x", "0.3,0.2,0.1",
         "--y=-0.1,-0.4,0.0", "--delta", "2", "--format", "json"),
        ("morse", "--input", DESC_INDEF, "--q", "1", "--delta", "2"),
    ]
    src = str(pathlib.Path(crheat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for argv in sequence:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "crheat", *argv],
                              capture_output=True, text=True, timeout=60, env=env)
        assert (code, captured.out, captured.err) == (proc.returncode, proc.stdout, proc.stderr), argv


@pytest.mark.parametrize(
    "argv",
    [
        # the j = 0 cell integral of |det| over [-1e300, 1e300] overflows; it
        # used to print inf (csv) or the invalid JSON token Infinity
        ("morse", "--input", DESC_INDEF, "--q", "1", "--delta", "1e300"),
        ("morse", "--input", DESC_INDEF, "--q", "1", "--delta", "1e300", "--format", "json"),
        # so does the integrand at eta = -1e300, which used to print inf
        ("density", "--input", POINT_DEFINITE, "--q", "0", "--t", "1", "--delta", "1",
         "--eta-grid=-1e300:1e300:1e300"),
    ],
)
def test_overflow_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "overflows" in err


@pytest.mark.parametrize("command", ["density", "kernel"])
def test_huge_truncation_exits_2_quickly(command):
    # the panel sums overflow in the first round; the refinement used to
    # grow without bound (still running after 120 s)
    src = str(pathlib.Path(crheat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "crheat", command, "--input", POINT_CONVEX,
            "--q", "0", "--t", "1", "--delta", "1e300"]
    if command == "kernel":
        argv += ["--x", "0,0,0", "--y", "0,0,0"]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=5, env=env)
    assert time.monotonic() - start < 5.0
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and proc.stderr.startswith("error: ")
    assert "Warning" not in proc.stderr
