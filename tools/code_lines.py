"""Code lines of each module of ``src/xmod2``, and their total.

    python3 tools/code_lines.py [DIR]

A code line is a source line that holds part of a token other than a
comment, and is not part of a docstring (the string that opens a module,
class or function body).  So blank lines, comment lines and docstrings do
not count, and a statement that spans several lines counts every line it
spans.  DIR defaults to ``src/xmod2`` of the working tree this script
belongs to.  Prints one line per module, sorted by file name, then the
total.  Standard library only.
"""

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring in the parsed module tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of a module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def count(directory):
    """[(file name, code lines)] for the modules of directory, by name."""
    out = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                out.append((name, code_lines(fh.read())))
    return out


def main(argv):
    directory = argv[0] if argv else os.path.join(ROOT, "src", "xmod2")
    rows = count(directory)
    width = max([len(name) for name, _ in rows] + [len("total")])
    for name, n in rows:
        print("%-*s %6d" % (width, name, n))
    print("%-*s %6d" % (width, "total", sum(n for _, n in rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
