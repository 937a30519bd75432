"""tools/code_lines.py: code lines without docstrings, comments or blank lines."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "code_lines.py")
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_docstrings_comments_and_blanks_are_not_counted():
    source = '''"""Module docstring,
over two lines."""

import math  # a trailing comment leaves the line counted


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring."""
        # a comment line
        s = """a string that is
not a docstring"""
        return (math.pi
                + x)
'''
    # import, class, def, the two lines of s, the two lines of the return
    assert code_lines.code_lines(source) == 7


def test_a_tree_and_its_difference_against_another(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "m.py").write_text("x = 1\ny = 2\n")
    (b / "m.py").write_text('"""doc"""\nx = 1\n')
    assert code_lines.main([str(a), "--src", str(b)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split()[0] == "+1"
