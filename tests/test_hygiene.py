"""Source hygiene of the package itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "crheat"


def _unused_imports(source: str) -> list:
    """Names a module imports (at any depth) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_import_scan_sees_both_forms():
    src = "import os\nimport scipy.linalg\nfrom x import y, w as v\nscipy.linalg.eigh(v)\n"
    assert _unused_imports(src) == ["os", "y"]


def test_no_unused_imports():
    # __init__ imports only to re-export, so it is left out
    found = {
        path.name: _unused_imports(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: unused for name, unused in found.items() if unused} == {}
