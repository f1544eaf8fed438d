"""Exit codes and output digests of a fixed set of xmod2 command runs.

    python3 tools/outputs.py [XMOD2 ARGS...]

Runs each command as ``python -m xmod2`` in a child process, with the
``src`` of the checkout this script belongs to on its path, and prints one
line per run: the exit code, the sha256 of the ``--json`` report it wrote
(``-`` when it wrote none), the sha256 of its printed text (stdout), and
the command.  With arguments, they are one xmod2 command line, run alone;
with none, the runs are ``tools/reach.py``'s ``DEFAULT_RUNS``,
``selftest --seed S --samples 10`` for S in 0, 7 and 42, ``validate``
on each document of ``verdictbench/workloads.corrupted_docs()``, and
``validate`` on ``ESCAPING_DOC``, whose report and text must escape
non-ASCII names and a label holding ``"`` and ``\\``, and ``validate``
and ``homotopy apply --names h`` on ``FREE_PAIR_DOC``, whose map and
homotopy leave a generator without an image.  Every
run gets ``--json`` with a path in a temporary directory, where the
documents are written too; a document run starts in that directory and
names its document relative to it, and every other run starts at the root
of the checkout, so no printed line depends on the temporary path.  Run it
on two checkouts and diff the two outputs to see whether a change moved
any output.  Standard library only.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SELFTEST_SEEDS = (0, 7, 42)
# Non-ASCII algebra names, and a non-associative table whose witness
# prints the label x"\ in the report and the text.
_LABEL = 'x"\\'
ESCAPING_DOC = {
    "ring": "Q",
    "algebras": {
        "Ωμέγα": {"type": "finite", "basis": ["u"], "products": {}},
        "代数": {"type": "finite", "basis": [_LABEL, "y"],
                 "products": {_LABEL: {_LABEL: {"y": "1"}, "y": {_LABEL: "1"}},
                              "y": {_LABEL: {_LABEL: "1"}}}},
    },
}
# R free on x and y, the domain D = (0 -> 0 -> R) and the target F2 of
# fixtures.json: f gives only f0(x) = p and h only s(y) = a, so each
# reads its other generator's image as zero, and g0(x) = g0(y) = p.
FREE_PAIR_DOC = {
    "ring": "Q",
    "algebras": {
        "R": {"type": "free", "generators": ["x", "y"]},
        "Z": {"type": "finite", "basis": [], "products": {}},
        "R2": {"type": "finite", "basis": ["p"], "products": {}},
        "E2": {"type": "finite", "basis": ["a", "b"], "products": {"a": {"a": {"b": "1"}}}},
        "L2": {"type": "finite", "basis": ["b̂"], "products": {}},
    },
    "actions": {
        "zero_R_Z": {"acting": "R", "acted": "Z", "zero": True},
        "zero_R2_E2": {"acting": "R2", "acted": "E2", "zero": True},
        "zero_R2_L2": {"acting": "R2", "acted": "L2", "zero": True},
    },
    "two_crossed": {
        "D": {"L": "Z", "E": "Z", "R": "R", "d2": {}, "d1": {},
              "action_e": "zero_R_Z", "action_l": "zero_R_Z", "lifting": {}},
        "F2": {"L": "L2", "E": "E2", "R": "R2", "d2": {"b̂": {"b": "1"}}, "d1": {"a": {"p": "1"}},
               "action_e": "zero_R2_E2", "action_l": "zero_R2_L2", "lifting": {"a": {"a": {"b̂": "1"}}}},
    },
    "maps": {"f": {"source": "D", "target": "F2", "f0": {"x": {"p": "1"}}}},
    "quadratic_derivations": {"h": {"base": "f", "s": {"y": {"a": "1"}}}},
}


def default_runs():
    """(document, argument list) of every default run: document is None,
    or the (name, JSON document) of ``corrupted_docs``, ``ESCAPING_DOC`` or
    ``FREE_PAIR_DOC`` that the run reads, written before it runs."""
    sys.dont_write_bytecode = True  # read verdictbench/, leave nothing in it
    sys.path[:0] = [os.path.join(ROOT, "tools"), os.path.join(ROOT, "src"), os.path.join(ROOT, "verdictbench")]
    from reach import DEFAULT_RUNS
    from workloads import corrupted_docs

    runs = [(None, run) for run in DEFAULT_RUNS]
    runs += [(None, ["selftest", "--seed", str(seed), "--samples", "10"]) for seed in SELFTEST_SEEDS]
    runs += [((name, doc), ["validate", name + ".json"]) for name, doc in corrupted_docs().items()]
    runs.append((("escaping", ESCAPING_DOC), ["validate", "escaping.json"]))
    free_pair = ("free-pair", FREE_PAIR_DOC)
    runs += [(free_pair, ["validate", "free-pair.json"]),
             (free_pair, ["homotopy", "apply", "free-pair.json", "--names", "h"])]
    return runs


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def run(argv, cwd, report):
    """(exit code, sha256 of the JSON report or "-", sha256 of stdout) of
    ``python -m xmod2 argv --json report`` started in cwd."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-m", "xmod2", *argv, "--json", report],
                          cwd=cwd, env=env, capture_output=True)
    json_sha = "-"
    if os.path.exists(report):
        with open(report, "rb") as fh:
            json_sha = _sha256(fh.read())
    return done.returncode, json_sha, _sha256(done.stdout)


def main(argv):
    runs = [(None, argv)] if argv else default_runs()
    with tempfile.TemporaryDirectory() as tmp:
        for i, (document, command) in enumerate(runs):
            cwd = ROOT
            if document is not None:
                name, doc = document
                cwd = tmp
                with open(os.path.join(tmp, name + ".json"), "w", encoding="utf-8") as fh:
                    json.dump(doc, fh, ensure_ascii=False)
            code, json_sha, text_sha = run(command, cwd, os.path.join(tmp, "%d.report.json" % i))
            print(code, json_sha, text_sha, " ".join(command), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
