"""Random command lines through the CLI, in process.

Every argv built from the subcommands, their option names and a pool of
hostile values must end in exit 0, 2 or 3 (an argparse SystemExit counts
as its code), with no traceback, no RuntimeWarning and no NaN or
infinite number on stdout, within a per-example deadline.
"""

import argparse
import contextlib
import io
import json
import math
import pathlib
import signal
import time
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from crheat.cli import _build_parser, main

DATA = pathlib.Path(__file__).parent / "data"
POINT = str(DATA / "point_convex.json")
POINT_2 = str(DATA / "point_definite_levi.json")
DESCRIPTOR = str(DATA / "descriptor_indefinite.json")
BAD_INPUTS = [str(DATA), str(DATA / "missing.json")]
# Files that used to end in a traceback: an integer past the float range,
# one past Python's digit limit, and arrays nested past the recursion limit.
HOSTILE_FILES = [str(DATA / "hostile" / name)
                 for name in ("huge_integer.json", "long_integer.json", "deep_arrays.json")]

# Group points for n = 1 (point_convex) and n = 2 (point_definite_levi).
COORDS = ["0,0,0", "0.3,-0.2,0.1", "0,0,1e300", "0,0,-1e5", "0,1e300,0", "0.3,0.2,-0.1,0.1,0.4"]
# Benign values first: hypothesis shrinks towards the start of the pool.
POOL = [
    "1", "0", "2", "0.5", "-1", "1e300", "1e-300", "-1e300", "nan", "inf", "-inf", "",
    "-", "--", "-x", "--q", *COORDS, "nan,0,0", "-1:1:0.5", "0:1e300:1", "1,0.5",
    "1e-300,1e300", "csv", "json", "text", "mehler", "all",
    POINT, POINT_2, DESCRIPTOR, *BAD_INPUTS, *HOSTILE_FILES,
]
# Pool values that an option parses, so that most examples run a computation;
# the hostile rest of the pool comes in at random.
LIKELY = {
    "--input": [POINT, POINT_2],
    "--q": ["0", "1"],
    "--t": ["1", "0.5", "1e-300", "1e300"],
    "--delta": ["1", "2", "0", "1e300", "1e-300"],
    "--x": COORDS,
    "--y": COORDS,
    "--eta-grid": ["-1:1:0.5", "0:1e300:1"],
    "--heat-t": ["1", "1,0.5", "1e-300,1e300"],
    "--format": ["csv", "json"],
    "--suite": ["mehler", "all"],
}

# Seconds one example may take: a hang or an unbounded loop fails the test
# instead of stalling the suite.
DEADLINE_S = 3.0


def _options():
    """{subcommand: option names}, read from the parser itself."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: sorted(s for a in parser._actions for s in a.option_strings if s.startswith("--")
                     and s != "--help")
        for name, parser in sub.choices.items()
    }


OPTIONS = _options()


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for option in draw(st.permutations(OPTIONS[command])):
        # seven times in eight a likely value, else any pool value or none
        # morse reads a descriptor, the others a point
        likely = [DESCRIPTOR] if (command, option) == ("morse", "--input") else LIKELY.get(option)
        if draw(st.integers(0, 7)) < 7 and likely:
            value = draw(st.sampled_from(likely))
        else:
            value = draw(st.sampled_from([None] + POOL))
        if value is not None:
            argv += [option, value]
    if draw(st.integers(0, 7)) == 7:
        argv.append(draw(st.sampled_from(POOL)))
    return argv


class _Timeout(Exception):
    """Not an OSError (as TimeoutError is), which cli.main would turn into exit 2."""


def _on_alarm(signum, frame):
    raise _Timeout(f"example ran past {DEADLINE_S} s")


def _non_finite_numbers(out: str) -> list:
    """NaN or infinite numbers printed as CSV fields or JSON values."""
    if out.startswith(("{", "[")):
        bad = []
        json.loads(out, parse_constant=bad.append)
        return bad
    fields = [f for line in out.splitlines() for f in line.split(",")]
    bad = []
    for field in fields:
        try:
            value = float(field)
        except ValueError:
            continue
        if not math.isfinite(value):
            bad.append(field)
    return bad


def run_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught
                                                   if issubclass(w.category, RuntimeWarning)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
@example(["density", "--input", POINT, "--q", "0", "--t", "1", "--delta", "1e300"])
@example(["kernel", "--input", POINT, "--q", "0", "--t", "1", "--x", "0,0,0", "--y", "0,0,0",
          "--delta", "1e300"])
@example(["morse", "--input", DESCRIPTOR, "--q", "1", "--delta", "1e300", "--format", "json"])
@example(["kernel", "--input", POINT, "--q", "0", "--t", "1", "--x", "0,0,1e300",
          "--y", "0,0,0", "--delta", "1"])
def _check_command_line(argv):
    code, out, err, runtime_warnings = run_argv(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert runtime_warnings == [], (argv, runtime_warnings)
    assert _non_finite_numbers(out) == [], (argv, out)


def test_random_command_lines_end_in_a_documented_exit():
    start = time.monotonic()
    _check_command_line()
    assert time.monotonic() - start < 15.0
