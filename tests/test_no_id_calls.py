"""No module of ``src/xmod2`` calls the builtin ``id``: every cache and
memo is keyed by the objects or values themselves, never by an id that an
object made after the first is collected can reuse."""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "xmod2")


def test_no_module_calls_the_builtin_id():
    calls = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            calls += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "id"]
    assert calls == []
