"""Hostile numeric arguments through the public library API.

The API counterpart of test_cli_fuzz.py.  Every function crheat exports,
the oracles apart, gets one valid base call.  Each numeric argument in
turn (a scalar, or the first entry of a numeric array) is then replaced
by each value of HOSTILE.  Under warnings-as-errors every such call must
return a finite result or raise a CrheatError.
"""

import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest

import crheat
from crheat import (
    HeisenbergPoint,
    HermitianForm,
    ManifoldDescriptor,
    curvature_point,
    eig_hermitian,
)
from crheat.errors import CrheatError, DegreeOutOfRange, InvalidArgument, NonFinite
from crheat.morse import Cell, Divergent

HOSTILE = (math.nan, math.inf, -math.inf, 0, -1, 1e300, 1.5e308, True, 1.5)

C = np.array([[-1.0, 0.3], [0.3, 1.0]])
L = np.diag([1.0, 0.5])
P = curvature_point(C, L)
D = ManifoldDescriptor("two", (P, curvature_point(np.diag([0.5, -1.0]), L, weight=0.5)))
X = HeisenbergPoint((0.1 + 0.2j, -0.3j), 0.2)
Y = HeisenbergPoint((0.2, 0.1j), -0.1)

# One valid call per function: positional arguments.
BASE = {
    "basis": (2, 1),
    "bose_ratio": (0.5, 1.0),
    "boxeta_kernel": (P, 0.3, 1, 1.0, np.array([0.1 + 0.2j, -0.3j]), np.array([0.2, 0.1j])),
    "curvature_point": (C, L, 0.0, 1.0),
    "density_diagonal": (P, 1, 1.0, 2.0),
    "density_integrand": (P, 1, 1.0, 0.3),
    "eig_hermitian": (C,),
    "exp_endo": (C, 1, 0.5),
    "exterior_power_matrix": (eig_hermitian(C).unitary, 1),
    "heat_trace": (D, 1, 1.0, 2.0),
    "heisenberg_heat_kernel": (P, 1, 1.0, X, Y, 2.0),
    "heisenberg_kernel_batch": (P, 1, 1.0, X, np.array([[0.2, 0.1j], [0.0, 0.3]]),
                                np.array([-0.1, 0.4]), 2.0),
    "integrate_adaptive": (np.cos, 0.0, 2.0, 1e-9),
    "mehler_kernel": (C, 1.0, np.array([0.1, 0.2, 0.0, -0.3]), np.array([0.2, 0.0, 0.0, 0.1])),
    "morse_global": (D, 1, 2.0),
    "morse_local": (C, L, 1, 2.0),
    "omega_endomorphism": (C, 1),
    "pencil_det_poly": (C, L),
    "pencil_real_roots": ([1.0, -3.0, 2.0],),
    "rx_partition": (C, L),
    "tail_certificate": (1.0, 1.0, 2, 1, 1.0, 2.0, 8.0),
    "tail_decay": (L, 1),
    "tanh_ratio": (0.5, 1.0),
    "y_condition": ([1.0, -1.0], 1),
}

# Keyword-only arguments of a base call, fuzzed like the positional ones.
KEYWORDS = {"integrate_adaptive": {"interior_breaks": [1.0], "max_width": 0.5}}

# Exported functions that take no numeric argument.
NO_NUMBERS = ("load_descriptor", "load_point", "save_descriptor", "save_point")

# Arguments left out, as (function, position), with the reason.
LEFT_OUT = set()


def _numeric(arg) -> bool:
    if isinstance(arg, bool):
        return False
    if isinstance(arg, (int, float)):
        return True
    if isinstance(arg, (list, np.ndarray)):
        return np.asarray(arg).dtype.kind in "ifc"
    return False


def _replace(arg, value):
    """arg with value in its place, or in the place of its first entry."""
    if isinstance(arg, list):
        return [value] + arg[1:]
    if isinstance(arg, np.ndarray):
        out = arg.astype(np.result_type(arg.dtype, float))
        out.flat[0] = value
        return out
    return value


def _finite(value) -> bool:
    """Every number in value is finite, apart from documented markers.

    The Divergent marker stands for an infinite Morse integral, and the
    two outer cells of a signature partition end at -inf and +inf.
    """
    if value is None or value is Divergent or isinstance(value, (bool, str)):
        return True
    if isinstance(value, Cell):
        return not (math.isnan(value.lo) or math.isnan(value.hi))
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return all(_finite(v) for v in value)
    if isinstance(value, HermitianForm):
        return _finite(value.mat)
    return bool(np.isfinite(np.asarray(value)).all())


def _outcome(name, args, kwargs):
    """None when the call ends well, else a description of how it ended."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = getattr(crheat, name)(*args, **kwargs)
        except CrheatError:
            return None
        except Exception as exc:  # noqa: BLE001 - any other exception is the finding
            return f"{type(exc).__name__}: {exc}"
    if name == "tail_certificate" and result == math.inf:
        return None  # documented: the bound's validity condition fails at this H
    return None if _finite(result) else f"non-finite result {result!r}"


def test_every_exported_function_has_a_base_call():
    functions = {
        name for name in crheat.__all__
        if callable(getattr(crheat, name)) and not inspect.isclass(getattr(crheat, name))
        and not getattr(crheat, name).__module__.endswith(".oracles")
    }
    assert functions == set(BASE) | set(NO_NUMBERS)


@pytest.mark.parametrize("name", sorted(BASE))
def test_hostile_numbers_end_in_a_finite_result_or_a_typed_error(name):
    base, keywords = BASE[name], KEYWORDS.get(name, {})
    assert _outcome(name, base, keywords) is None
    assert _finite(getattr(crheat, name)(*base, **keywords))
    bad = []
    for pos, arg in enumerate(base):
        if not _numeric(arg) or (name, pos) in LEFT_OUT:
            continue
        for value in HOSTILE:
            args = base[:pos] + (_replace(arg, value),) + base[pos + 1:]
            outcome = _outcome(name, args, keywords)
            if outcome is not None:
                bad.append((pos, value, outcome))
    for key, arg in keywords.items():
        for value in HOSTILE:
            outcome = _outcome(name, base, {**keywords, key: _replace(arg, value)})
            if outcome is not None:
                bad.append((key, value, outcome))
    assert bad == []


# Holes found by probing the library: each call used to return NaN or
# False, warn, or raise an untyped error.
HOLES = [
    ("y_condition", ([math.nan], 0), NonFinite),
    ("y_condition", ([math.inf, 1.0], 1), NonFinite),
    ("tail_certificate", (math.nan, 1.0, 2, 1, 1.0, 2.0, 8.0), NonFinite),
    ("tail_certificate", (1.0, 1.0, 2, 1, math.nan, 2.0, 8.0), NonFinite),
    ("tail_certificate", (1.0, 1.0, 2, 1, 1.0, 2.0, math.inf), NonFinite),
    ("tail_certificate", (1.0, 1.0, -1, 0, 1.0, 2.0, 8.0), DegreeOutOfRange),
    ("pencil_real_roots", ([1.0, math.nan],), NonFinite),
    ("pencil_real_roots", ([1.0, math.inf, 1.0],), NonFinite),
    ("bose_ratio", (0.5, 0.0), InvalidArgument),
    ("bose_ratio", (0.5, math.nan), NonFinite),
    ("tanh_ratio", (0.5, 0.0), InvalidArgument),
    ("tanh_ratio", (0.5, math.nan), NonFinite),
    ("exp_endo", (C, 1, math.nan), NonFinite),
    ("exp_endo", (C, 1, math.inf), NonFinite),
    ("exp_endo", (C, 1, -1e3), NonFinite),
    # a companion matrix that overflows, and a near-real pair of roots at
    # 1e150 where the polynomial's value overflows
    ("pencil_real_roots", ([1.0, 0.0, 1e-309],), NonFinite),
    ("pencil_real_roots", ([-1.00000000000001e300, 1.00000000000001e300, -2e150, 1.0],), NonFinite),
    ("morse_local", (C, L, 1.5), InvalidArgument),
    ("tail_decay", (L, 0.5), InvalidArgument),
    ("basis", (2, True), InvalidArgument),
    ("heisenberg_heat_kernel", (P, 1, 1.0, HeisenbergPoint((1e200, 0j), 0.0), Y, 2.0), NonFinite),
]


@pytest.mark.parametrize("name, args, error", HOLES,
                         ids=[f"{name}-{k}" for k, (name, _, _) in enumerate(HOLES)])
def test_probed_holes_raise_typed_errors(name, args, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            getattr(crheat, name)(*args)


def test_degree_check_wording():
    assert crheat.basis(2, np.int64(1)) == crheat.basis(2, 1)
    with pytest.raises(DegreeOutOfRange, match=r"^q out of range \(0 <= q <= 2\)$"):
        crheat.basis(2, 3)
    with pytest.raises(DegreeOutOfRange, match=r"^j out of range \(0 <= j <= 2\)$"):
        crheat.morse_local(C, L, -1)
