"""Strict JSON point and descriptor files.

Complex matrix entries are stored as [re, im] pairs, never strings, and
unknown keys are rejected so that a typo cannot silently change a run.
The canonical writers emit beta and weight explicitly and rely on the
shortest round-trip float form, so write -> read is the identity.
"""

from __future__ import annotations

import json

from .density import CurvaturePoint, curvature_point
from .errors import FileFormatError
from .morse import ManifoldDescriptor

SCHEMA_VERSION = "1"

_POINT_KEYS = ("n", "levi", "curvature", "beta", "weight")


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FileFormatError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except ValueError:  # an integer past Python's digit limit for int()
        raise FileFormatError("a number has too many digits") from None
    except RecursionError:
        raise FileFormatError("arrays or objects nested too deeply") from None


def _check_version(obj):
    if not isinstance(obj, dict):
        raise FileFormatError("top level must be an object")
    v = obj.get("schema_version")
    if v != SCHEMA_VERSION:
        raise FileFormatError(f"schema_version must be \"{SCHEMA_VERSION}\", got {v!r}")


def _real(body, key, default):
    v = body.get(key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise FileFormatError(f"'{key}' must be a real number")
    try:
        return float(v)
    except OverflowError:  # an integer past the float range
        raise FileFormatError(f"'{key}' is beyond the float range") from None


def _matrix(body, key, n):
    rows = body.get(key)
    if not isinstance(rows, list) or len(rows) != n:
        raise FileFormatError(f"'{key}' must be an {n}x{n} array of [re, im] pairs")
    out = []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise FileFormatError(f"'{key}' row {r} must have {n} entries")
        line = []
        for c, cell in enumerate(row):
            ok = (
                isinstance(cell, list)
                and len(cell) == 2
                and all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in cell
                )
            )
            if not ok:
                raise FileFormatError(f"'{key}'[{r}][{c}] must be an [re, im] pair")
            try:
                line.append(complex(cell[0], cell[1]))
            except OverflowError:  # an integer past the float range
                raise FileFormatError(f"'{key}'[{r}][{c}] is beyond the float range") from None
        out.append(line)
    return out


def _point_from_body(body) -> CurvaturePoint:
    if not isinstance(body, dict):
        raise FileFormatError("point body must be an object")
    for key in body:
        if key not in _POINT_KEYS:
            raise FileFormatError(f"unknown key '{key}' in point body")
    n = body.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise FileFormatError("'n' must be a positive integer")
    levi = _matrix(body, "levi", n)
    curvature = _matrix(body, "curvature", n)
    beta = _real(body, "beta", 0.0)
    weight = _real(body, "weight", 1.0)
    if weight <= 0:
        raise FileFormatError("'weight' must be positive")
    return curvature_point(curvature, levi, beta=beta, weight=weight)


def parse_point(text: str) -> CurvaturePoint:
    obj = _loads(text)
    _check_version(obj)
    body = {k: v for k, v in obj.items() if k != "schema_version"}
    return _point_from_body(body)


def parse_descriptor(text: str) -> ManifoldDescriptor:
    obj = _loads(text)
    _check_version(obj)
    for key in obj:
        if key not in ("schema_version", "name", "points"):
            raise FileFormatError(f"unknown key '{key}' in descriptor")
    name = obj.get("name")
    if not isinstance(name, str):
        raise FileFormatError("'name' must be text")
    bodies = obj.get("points")
    if not isinstance(bodies, list):
        raise FileFormatError("'points' must be an array")
    points = []
    for i, body in enumerate(bodies):
        try:
            points.append(_point_from_body(body))
        except FileFormatError as e:
            raise FileFormatError(f"points[{i}]: {e}") from None
    return ManifoldDescriptor(name, tuple(points))


def _read_text(path) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise FileFormatError(f"not UTF-8 text: byte {e.start}: {e.reason}") from None


def load_point(path) -> CurvaturePoint:
    return parse_point(_read_text(path))


def load_descriptor(path) -> ManifoldDescriptor:
    return parse_descriptor(_read_text(path))


def _matrix_text(mat, pad: str) -> str:
    rows = []
    for row in mat:
        cells = ", ".join(
            f"[{json.dumps(float(v.real))}, {json.dumps(float(v.imag))}]" for v in row
        )
        rows.append(f"{pad}  [{cells}]")
    return "[\n" + ",\n".join(rows) + f"\n{pad}]"


def _point_body_lines(p: CurvaturePoint, pad: str):
    return [
        f'{pad}"n": {p.n},',
        f'{pad}"levi": {_matrix_text(p.levi.mat, pad)},',
        f'{pad}"curvature": {_matrix_text(p.curvature.mat, pad)},',
        f'{pad}"beta": {json.dumps(float(p.beta))},',
        f'{pad}"weight": {json.dumps(float(p.weight))}',
    ]


def format_point(p: CurvaturePoint) -> str:
    lines = ['{', f'  "schema_version": "{SCHEMA_VERSION}",']
    lines.extend(_point_body_lines(p, "  "))
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_descriptor(d: ManifoldDescriptor) -> str:
    lines = [
        "{",
        f'  "schema_version": "{SCHEMA_VERSION}",',
        f'  "name": {json.dumps(d.name)},',
        '  "points": [',
    ]
    for i, p in enumerate(d.points):
        lines.append("    {")
        lines.extend(_point_body_lines(p, "      "))
        lines.append("    }" + ("," if i + 1 < len(d.points) else ""))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_point(p: CurvaturePoint, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_point(p))


def save_descriptor(d: ManifoldDescriptor, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_descriptor(d))
