"""Source hygiene of the package itself."""

import ast
import importlib
import pathlib

from crheat.errors import CrheatError

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "crheat"

# Independent checkers of the library, not part of it: they may raise
# plain exceptions.
UNTYPED_RAISES_ALLOWED = ("oracles.py", "validate.py")


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


# The CLI finds its subcommand handlers by name, so nothing references them.
DISPATCHED_BY_NAME = ("cmd_",)


def _unreferenced_functions(sources: dict) -> list:
    """module:function for each module-level function no module references.

    sources maps module names to their source.  A reference is a Name or an
    attribute access anywhere in any module, or an entry of a module's
    __all__; functions named with a DISPATCHED_BY_NAME prefix are exempt.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return sorted(
        f"{name}:{f.name}"
        for name, tree in trees.items()
        for f in tree.body
        if isinstance(f, ast.FunctionDef)
        and f.name not in used
        and not f.name.startswith(DISPATCHED_BY_NAME)
    )


def test_unreferenced_function_scan():
    sources = {
        "a": "def _used():\n    def _inner():\n        pass\n"
             "def _dead():\n    pass\n"
             "def cmd_run():\n    pass\n"
             "def public():\n    pass\n"
             "def orphan():\n    pass\n"
             "__all__ = ['public']\n",
        "b": "from a import _used\nimport a\n_used()\na.x = 1\n",
    }
    assert _unreferenced_functions(sources) == ["a:_dead", "a:orphan"]


def test_every_library_function_is_referenced():
    # a private helper nothing calls any more is dead code
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _unreferenced_functions(sources) == []


def _resolve(node, namespace):
    """The object a Name or dotted Attribute expression names in namespace, or None."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id)
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(node.value, namespace), node.attr, None)
    return None


def _argparse_type_functions(tree) -> set:
    """Module functions given to add_argument as type=, and those they call."""
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    todo = [
        kw.value.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for kw in node.keywords
        if kw.arg == "type" and isinstance(kw.value, ast.Name)
    ]
    found = set()
    while todo:
        name = todo.pop()
        if name in funcs and name not in found:
            found.add(name)
            todo.extend(
                n.func.id
                for n in ast.walk(funcs[name])
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            )
    return found


def _untyped_raises(source: str, namespace_of) -> list:
    """Line numbers of raises whose exception class is not a CrheatError.

    namespace_of() gives the module's namespace, in which the raised names
    are looked up.  A bare re-raise passes; so does
    argparse.ArgumentTypeError inside an argparse type function, which
    argparse reports as a usage error (exit 2).
    """
    tree = ast.parse(source)
    raises = [n for n in ast.walk(tree) if isinstance(n, ast.Raise) and n.exc is not None]
    if not raises:
        return []
    namespace = namespace_of()
    in_type_functions = {
        id(n)
        for f in tree.body
        if isinstance(f, ast.FunctionDef) and f.name in _argparse_type_functions(tree)
        for n in ast.walk(f)
    }
    argparse = namespace.get("argparse")
    bad = []
    for node in raises:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        cls = _resolve(exc, namespace)
        if isinstance(cls, type) and issubclass(cls, CrheatError):
            continue
        if id(node) in in_type_functions and argparse and cls is argparse.ArgumentTypeError:
            continue
        bad.append(node.lineno)
    return bad


def test_untyped_raise_scan():
    src = (
        "def f(x):\n"
        "    if x:\n"
        "        raise CrheatError('typed')\n"
        "    raise ValueError('plain')\n"
        "def g(e):\n"
        "    try:\n"
        "        pass\n"
        "    except Exception:\n"
        "        raise\n"
        "    raise e\n"
        "def number(text):\n"
        "    raise argparse.ArgumentTypeError(text)\n"
        "def h():\n"
        "    raise argparse.ArgumentTypeError('outside a type function')\n"
        "parser.add_argument('--t', type=number)\n"
    )
    import argparse

    namespace = {"CrheatError": CrheatError, "ValueError": ValueError, "argparse": argparse}
    assert _untyped_raises(src, lambda: namespace) == [4, 10, 14]


def test_library_raises_only_typed_errors():
    found = {
        path.name: _untyped_raises(
            path.read_text(), lambda: vars(importlib.import_module(f"crheat.{path.stem}"))
        )
        for path in sorted(SRC.glob("*.py"))
        if path.name not in UNTYPED_RAISES_ALLOWED
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
