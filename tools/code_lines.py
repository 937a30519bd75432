"""Count the lines of Python code in files or directories, without docstrings, comments or blank lines.

    python3 tools/code_lines.py src/crheat
    python3 tools/code_lines.py src/crheat --src ../parent/src/crheat

A line counts when a token other than a comment starts or continues on
it and it is not part of a module, class or function docstring.  Prints
one line per file and the total; with --src, the same for a second tree
and the difference.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import sys
import tokenize

_LAYOUT = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER)
_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in source: no docstring, comment or blank line."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOC_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docs.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def _files(root: str) -> list:
    path = pathlib.Path(root)
    return sorted(path.rglob("*.py")) if path.is_dir() else [path]


def _total(root: str) -> int:
    total = 0
    for path in _files(root):
        n = code_lines(path.read_text(encoding="utf-8"))
        print(f"{n:>6}  {path}")
        total += n
    print(f"{total:>6}  total")
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="lines of Python code without docstrings, comments or blanks")
    ap.add_argument("path", help="a .py file or a directory searched for them")
    ap.add_argument("--src", help="a second file or directory to compare against")
    args = ap.parse_args(argv)
    total = _total(args.path)
    if args.src:
        other = _total(args.src)
        print(f"{total - other:>+6}  {args.path} - {args.src}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
