"""Functions of ``src/xmod2`` that a set of command runs never enters.

    python3 tools/reach.py [XMOD2 ARGS...]

Runs ``xmod2.cli.main`` in this process under ``sys.setprofile`` and
prints, by module, every function defined under ``src/xmod2`` whose code
object was never entered, then the count.  A function is a ``def`` at any
depth (methods and nested functions included); lambdas, comprehensions
and class bodies are not counted.  With arguments, they are one xmod2
command line, run alone; with none, the default runs are
``selftest --seed 0 --samples 3`` and, on ``fixtures.json``, ``validate``,
``simplicial`` on F0, F2, F3 and K2, ``groupoid tcm`` (F3 -> F2),
``groupoid cm`` (F1 -> F1) and the four ``homotopy`` ops on h1..h3,
each writing its ``--json`` report into a temporary directory.  Printed
reports are discarded, and a run that exits non-zero still counts.
Relative paths are read from the root of the checkout this script belongs
to.  Standard library only.
"""

import contextlib
import inspect
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "xmod2")

DEFAULT_RUNS = [
    ["selftest", "--seed", "0", "--samples", "3"],
    ["validate", "fixtures.json"],
    *(["simplicial", "fixtures.json", "--module", m] for m in ("F0", "F2", "F3", "K2")),
    ["groupoid", "tcm", "fixtures.json", "--source", "F3", "--target", "F2"],
    ["groupoid", "cm", "fixtures.json", "--source", "F1", "--target", "F1"],
    ["homotopy", "apply", "fixtures.json", "--names", "h1,h2,h3"],
    ["homotopy", "compose", "fixtures.json", "--names", "h1,h2"],
    ["homotopy", "invert", "fixtures.json", "--names", "h1,h2,h3"],
    ["homotopy", "assoc", "fixtures.json", "--names", "h1,h2,h3"],
]


def _name(code):
    """The qualified name of a code object (its plain name before 3.11)."""
    return getattr(code, "co_qualname", code.co_name)


def functions(path):
    """The sorted (first line, qualified name) of every function defined in
    the module at path, found by compiling its source."""
    with open(path, encoding="utf-8") as fh:
        stack = [compile(fh.read(), path, "exec")]
    out = []
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
            out.append((code.co_firstlineno, _name(code)))
    return sorted(out)


def entered_by(runs):
    """The (file, first line, name) of every code object entered while
    ``xmod2.cli.main`` runs each argument list of runs."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from xmod2.cli import main

    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno, _name(code)))

    os.chdir(ROOT)
    for argv in runs:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            sys.setprofile(profile)
            try:
                main(argv)
            finally:
                sys.setprofile(None)
    return seen


def never_entered(runs):
    """{module: [qualified name, ...]} of the functions under src/xmod2 that
    no run entered, each module's in source order, and the number of
    functions looked at."""
    seen = entered_by(runs)
    out, total = {}, 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        found = functions(path)
        total += len(found)
        missed = [q for line, q in found if (path, line, q) not in seen]
        if missed:
            out[name[:-3]] = missed
    return out, total


def main(argv):
    with tempfile.TemporaryDirectory() as tmp:
        runs = [argv] if argv else [run + ["--json", os.path.join(tmp, "%d.json" % i)]
                                    for i, run in enumerate(DEFAULT_RUNS)]
        missed, total = never_entered(runs)
    for module, names in missed.items():
        print(module)
        for q in names:
            print("  %s.%s" % (module, q))
    print("%d of %d functions never entered" % (sum(map(len, missed.values())), total))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
