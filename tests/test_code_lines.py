"""``tools/code_lines`` on a small synthetic module: docstrings, comments
and blank lines do not count, every line of a multi-line statement and of
a string that is not a docstring does."""

import importlib.util
import os

HERE = os.path.dirname(__file__)
TOOL = os.path.join(HERE, os.pardir, "tools", "code_lines.py")

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts as code


# a comment line
def f(x):
    """Function docstring."""
    y = (x +
         1)
    return y


class C:
    """Class docstring,

    with a blank line inside."""

    TEXT = """a string that is
    not a docstring"""

    def g(self):
        return "g"
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import, def, y = (two lines), return, class, TEXT (two lines), def g, return
    assert _tool().code_lines(SOURCE) == 10


def test_count_lists_modules_by_name_and_main_prints_the_total(tmp_path, capsys):
    tool = _tool()
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert tool.count(str(tmp_path)) == [("a.py", 1), ("b.py", 10)]
    assert tool.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["a.py", "1"], ["b.py", "10"], ["total", "11"]]
