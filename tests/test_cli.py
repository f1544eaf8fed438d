import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from xmod2 import cli

HERE = os.path.dirname(__file__)
ROOT = os.path.join(HERE, os.pardir)
FIXTURES = os.path.join(ROOT, "fixtures.json")
SRC = os.path.abspath(os.path.join(ROOT, "src"))


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "xmod2", *args],
        capture_output=True, text=True, cwd=ROOT, env=env,
    )


def test_validate_fixture_file_exits_zero():
    out = run_cli("validate", FIXTURES)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "pass" in out.stdout


def test_compose_prints_worked_value():
    out = run_cli("homotopy", "compose", FIXTURES, "--names", "h1,h2")
    assert out.returncode == 0
    assert "(s[+]s')(x^2)" in out.stdout and "4*b" in out.stdout


def test_invert_prints_inverse_values():
    out = run_cli("homotopy", "invert", FIXTURES, "--names", "h1")
    assert out.returncode == 0
    assert "sbar(x)" in out.stdout and "-a" in out.stdout


def test_assoc_reports_w_change():
    out = run_cli("homotopy", "assoc", FIXTURES, "--names", "h1,h2,h3")
    assert out.returncode == 0
    assert "w-change(x^2)" in out.stdout


# sha256 of ``xmod2 homotopy OP fixtures.json --names NAMES --samples 10
# --seed 0 --json``: the composition, inversion and w-change outputs
# byte for byte, for the 2-crossed h1..h3 and the crossed d1.
_HOMOTOPY_DIGESTS = {
    ("apply", "h1"): "b4f1f019fc78822364f32c49353f3d5cb440382f337652c926c1c7aa2acf1f73",
    ("compose", "h1,h2"): "44535e7af9e37485fc58943fca205ee7f599358b6f1c578774ec96a7a9d9bfe1",
    ("invert", "h1"): "36d8ae3c6beed19ecd722badf770ab1a74f429eecbedd34d112eaf9e7990f1de",
    ("assoc", "h1,h2,h3"): "c03e44ab9da83d41c9c96977ec424f8231ace984b0203bf6ac0d491750bbe0ef",
    ("apply", "d1"): "cfe623b8ed6da5644b0d0b3466cf1a8b5ad5341e4aebef9b746a9fd13d3416a5",
    ("invert", "d1"): "e935926c3bab3df399da47e68a570e8723e4a645e6d1a176fd090c2193945302",
}


@pytest.mark.parametrize("op, names", list(_HOMOTOPY_DIGESTS),
                         ids=["-".join(case) for case in _HOMOTOPY_DIGESTS])
def test_homotopy_json_is_pinned(tmp_path, capsys, op, names):
    out = tmp_path / "out.json"
    argv = ["homotopy", op, FIXTURES, "--names", names,
            "--samples", "10", "--seed", "0", "--json", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _HOMOTOPY_DIGESTS[op, names]


# A crossed-layer chain on F1 = (x2) -> R1 = <x, x2; x^2 = x2>: d over the
# identity id1, d2 over d's target g1 and d3 over d2's target g2, with
# s(x) = x2, 2*x2 and -x2.
_CROSSED_CHAIN = {
    "ring": "Q",
    "algebras": {"R1": {"type": "finite", "basis": ["x", "x2"], "products": {"x": {"x": {"x2": "1"}}}}},
    "crossed": {"F1": {"ideal": {"R": "R1", "labels": ["x2"]}}},
    "maps": {
        "id1": {"kind": "crossed", "source": "F1", "target": "F1", "identity": True},
        "g1": {"kind": "crossed", "source": "F1", "target": "F1",
               "f0": {"x": {"x": "1", "x2": "1"}, "x2": {"x2": "1"}}, "f1": {"x2": {"x2": "1"}}},
        "g2": {"kind": "crossed", "source": "F1", "target": "F1",
               "f0": {"x": {"x": "1", "x2": "3"}, "x2": {"x2": "1"}}, "f1": {"x2": {"x2": "1"}}},
    },
    "derivations": {
        "d": {"base": "id1", "s": {"x": {"x2": "1"}}},
        "d2": {"base": "g1", "s": {"x": {"x2": "2"}}},
        "d3": {"base": "g2", "s": {"x": {"x2": "-1"}}},
    },
}

# sha256 of ``xmod2 homotopy OP crossed.json --names NAMES --samples 10
# --seed 0 --json`` on the chain above: the crossed composition and
# associativity outputs byte for byte.
_CROSSED_DIGESTS = {
    ("compose", "d,d2"): "de4cb5390fe0ae4f71071d80e9e8426babc1ebf2c344a285dd12f68f7b240035",
    ("assoc", "d,d2,d3"): "107f883fe3c8d8700cb21b163692e812d214c4cf1fbb4dc571ee539214b96093",
}


@pytest.mark.parametrize("op, names", list(_CROSSED_DIGESTS),
                         ids=["-".join(case) for case in _CROSSED_DIGESTS])
def test_crossed_homotopy_json_is_pinned(tmp_path, capsys, op, names):
    doc = tmp_path / "crossed.json"
    doc.write_text(json.dumps(_CROSSED_CHAIN))
    out = tmp_path / "out.json"
    argv = ["homotopy", op, str(doc), "--names", names,
            "--samples", "10", "--seed", "0", "--json", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _CROSSED_DIGESTS[op, names]


@pytest.mark.parametrize("op, names, entry", [
    ("compose", "d,d3", "homotopy/compose/composable"),
    ("assoc", "d,d3,d2", "assoc/composable"),
])
def test_non_composable_homotopies_fail_their_composable_entry(tmp_path, capsys, op, names, entry):
    """Homotopies that do not compose (d's target g1 is not d3's base g2)
    are a failed composable entry under the op's own header, with the
    error as witness, and exit 1; nothing else is reported."""
    doc = tmp_path / "crossed.json"
    doc.write_text(json.dumps(_CROSSED_CHAIN))
    out = tmp_path / "out.json"
    argv = ["homotopy", op, str(doc), "--names", names, "--seed", "0", "--json", str(out)]
    assert cli.main(argv) == 1
    report = json.loads(out.read_text())
    assert report["command"] == "homotopy " + op
    assert report["params"] == {"file": "crossed.json", "names": names.split(","), "seed": 0}
    assert [(c["name"], c["status"]) for c in report["checks"]] == [(entry, "fail")]
    assert "differs from the base of the second" in report["checks"][0]["witness"]


def test_mixed_kinds_report_is_the_same_under_every_hash_seed():
    """Naming a quadratic and a crossed derivation together is refused,
    with the same bytes whatever the string hash seed."""
    outs = [run_cli("homotopy", "apply", FIXTURES, "--names", "h1,d1",
                    env_extra={"PYTHONHASHSEED": seed}) for seed in ("0", "1")]
    assert outs[0].returncode == 1
    assert "mixed derivation kinds ['cm', 'tcm']" in outs[0].stdout
    assert outs[0].stdout == outs[1].stdout


def test_an_empty_name_list_is_refused_as_such(capsys):
    """--names with no name in it is refused by that, not read as mixed
    derivation kinds."""
    assert cli.main(["homotopy", "compose", FIXTURES, "--names", ","]) == 1
    out = capsys.readouterr().out
    assert "[homotopy compose: no homotopy names given]" in out and "mixed" not in out


# sha256 of ``xmod2 simplicial fixtures.json --module M --samples 10 --seed S
# --json``: every identity, action, face and degeneracy entry of the tower.
_SIMPLICIAL_DIGESTS = {
    ("F0", "0"): "f9eda2f3232789513558a5cdcbff2a59a9ccbc1d6864982bdfb51342c827e272",
    ("F2", "0"): "1c092013ebb3432a4454cd5f7b26fa3180d7a070c13e0ba9740dfe8ef4a1d7c4",
    ("F3", "0"): "ae9eea2945ece4c8ec7ffc652996e242f2c110234d45f4c087e168046f4eefb9",
    ("K2", "0"): "77bbb8d05890f1eca89b2fa3fcc539c1fe2890e900ff59f193a7a0dc860ef066",
    ("F0", "7"): "a1a1fc4ebdf0953b7d52cd88e9e5ae1fef26fc4058bc2ad9280969abdb91c30f",
    ("F2", "7"): "0da23a614fd5afa8a21a4ddb6c9f51a1bd0c9d6a4c2eb08eb4b509ba3d933a32",
    ("F3", "7"): "bdf2b602c9da489027832d015374855de3adeeaa30237a4638488810adf4dad5",
    ("K2", "7"): "3acbc24b7113eb6fdf4bccd3d9da423843226fce26c4786d3e8bdb22b50d6521",
}

# F3's pins before its faces d0 and degeneracies s0 were built as the
# semidirect projection and inclusion, algebra maps by construction
# (``simplex._by_construction``).  Over F3's free R the six were certified
# on the policy's samples; now they are EXHAUSTIVE, and no other byte moved.
_SIMPLICIAL_DIGESTS_BEFORE_D0_S0 = {
    ("F3", "0"): "62b4339f4a90cdace2996ab606a3514e6c99f3811ca4eb3811fa891fb2e8090b",
    ("F3", "7"): "f5367839bedb81bc7f056f90cdb488ba769c7d160f75d0030ef8addd7430f9b3",
}
_D0_S0 = ("face/d0@1", "face/d0@2", "face/d0@3", "degeneracy/s0@0", "degeneracy/s0@1",
          "degeneracy/s0@2")


@pytest.mark.parametrize("module, seed", list(_SIMPLICIAL_DIGESTS),
                         ids=["-".join(case) for case in _SIMPLICIAL_DIGESTS])
def test_simplicial_json_is_pinned(tmp_path, capsys, module, seed):
    """The F3 pins moved when d0 and s0 became exhaustive: the new JSON with
    exactly those six certificates set back to the sampled one of the run's
    policy hashes to the old pin."""
    out = tmp_path / "out.json"
    argv = ["simplicial", FIXTURES, "--module", module,
            "--samples", "10", "--seed", seed, "--json", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _SIMPLICIAL_DIGESTS[module, seed]
    if (module, seed) in _SIMPLICIAL_DIGESTS_BEFORE_D0_S0:
        doc = json.loads(out.read_text(encoding="utf-8"))
        reverted = [c for c in doc["checks"] if c["name"] in _D0_S0]
        assert [c["certificate"] for c in reverted] == [{"exhaustive": True}] * 6
        for c in reverted:
            c["certificate"] = {"exhaustive": False, "max_degree": 4, "samples": 10, "seed": int(seed)}
        old = json.dumps(doc, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
        digest = hashlib.sha256(old.encode("utf-8")).hexdigest()
        assert digest == _SIMPLICIAL_DIGESTS_BEFORE_D0_S0[module, seed]


# sha256 of ``xmod2 groupoid FLAVOR fixtures.json --source S --target T
# --samples 10 --seed SEED --json``: every groupoid law entry of the ten
# sampled triples, crossed on F1 -> F1 and 2-crossed on F3 -> F2.
_GROUPOID_DIGESTS = {
    ("cm", "F1", "F1", "0"): "4b31c518f263fc42c6ede995f97f4f624baa5d00a0b1de0236701f3bbbd8280d",
    ("cm", "F1", "F1", "7"): "bbbb78e638b6ae6542c1cf17ea349281d47f8f657e08fa80fd9a94090d6d4736",
    ("tcm", "F3", "F2", "0"): "246e813b7b6c8a3013b340b94766bfc58b2a2c974a04643bbbdc38498d122159",
    ("tcm", "F3", "F2", "7"): "665e1070bd7c1949eee2c8e8095a3d7cb8b9d850e452cd4dc5070cb53f024b80",
}


@pytest.mark.parametrize("flavor, source, target, seed", list(_GROUPOID_DIGESTS),
                         ids=["-".join(case) for case in _GROUPOID_DIGESTS])
def test_groupoid_json_is_pinned(tmp_path, capsys, flavor, source, target, seed):
    out = tmp_path / "out.json"
    argv = ["groupoid", flavor, FIXTURES, "--source", source, "--target", target,
            "--samples", "10", "--seed", seed, "--json", str(out)]
    assert cli.main(argv) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == _GROUPOID_DIGESTS[flavor, source, target, seed]


@pytest.mark.parametrize("module, target, name", [
    ("tcm_homotopy", "_qd_target", "h1"), ("tcm_homotopy", "_qd_target", "d1"),
])
def test_apply_reports_a_target_that_fails_certification(tmp_path, capsys, monkeypatch,
                                                         module, target, name):
    """A target map that fails a law is a failed target-valid check with
    the error as witness, and exit 1; the other checks are not reported."""
    import importlib

    from xmod2.errors import SquareViolation

    def refuse(_):
        raise SquareViolation(("w",), msg="target square fails")

    monkeypatch.setattr(importlib.import_module("xmod2." + module), target, refuse)
    out = tmp_path / "out.json"
    argv = ["homotopy", "apply", FIXTURES, "--names", name, "--samples", "10", "--json", str(out)]
    assert cli.main(argv) == 1
    checks = json.loads(out.read_text())["checks"]
    assert [(c["name"], c["status"], c["witness"]) for c in checks] == [
        ("homotopy/%s/target-valid" % name, "fail", "target square fails"),
    ]


def test_groupoid_tcm_without_free_basis_fails_with_exit_1():
    out = run_cli("groupoid", "tcm", FIXTURES, "--source", "F2", "--target", "F2")
    assert out.returncode == 1
    assert "FreeBasisRequired" in out.stdout


def test_groupoid_tcm_on_f3_needs_no_declared_free_basis(tmp_path, capsys):
    """F3's R is a free algebra, so F3 is free up to order one whether or
    not the document declares its free_basis."""
    with open(FIXTURES, encoding="utf-8") as fh:
        data = json.load(fh)
    del data["two_crossed"]["F3"]["free_basis"]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out.json"
    argv = ["groupoid", "tcm", str(path), "--source", "F3", "--target", "F2", "--samples", "2",
            "--json", str(out)]
    assert cli.main(argv) == 0
    checks = json.loads(out.read_text())["checks"]
    assert len(checks) == 22 and all(c["status"] == "pass" for c in checks)


def _semidirect_domain_doc(layer):
    """R = X |x U, with X free on x, U = <u> finite and the zero action: an
    infinite R that is not free.  The "tcm" layer takes D = (0 -> 0 -> R)
    and a quadratic derivation over its identity; the "cm" layer takes the
    crossed module U -> R with the zero map, and a derivation over its
    identity when ``layer`` is "cm-derivation"."""
    doc = {
        "ring": "Q",
        "algebras": {"X": {"type": "free", "generators": ["x"]},
                     "U": {"type": "finite", "basis": ["u"], "products": {}},
                     "R": {"type": "semidirect", "acting": "X", "acted": "U", "action": "zXU"},
                     "Z": {"type": "finite", "basis": [], "products": {}}},
        "actions": {"zXU": {"acting": "X", "acted": "U", "zero": True},
                    "zRZ": {"acting": "R", "acted": "Z", "zero": True},
                    "zRU": {"acting": "R", "acted": "U", "zero": True}},
    }
    if layer == "tcm":
        doc["two_crossed"] = {"D": {"L": "Z", "E": "Z", "R": "R", "d2": {}, "d1": {},
                                    "action_e": "zRZ", "action_l": "zRZ", "lifting": {}}}
        doc["maps"] = {"id": {"kind": "two_crossed", "source": "D", "target": "D", "identity": True}}
        doc["quadratic_derivations"] = {"q": {"base": "id", "s": {}, "t": {}}}
    else:
        doc["crossed"] = {"C": {"E": "U", "R": "R", "map": {}, "action": "zRU"}}
        if layer == "cm-derivation":
            doc["maps"] = {"id": {"kind": "crossed", "source": "C", "target": "C", "identity": True}}
            doc["derivations"] = {"s": {"base": "id", "s": {}}}
    return doc


@pytest.mark.parametrize("layer, command, check", [
    ("tcm", ["validate"], "load/ValidationError"),
    ("cm-derivation", ["validate"], "load/ValidationError"),
    ("cm", ["groupoid", "cm"], "load/BadShape"),
], ids=["quadratic-derivation", "crossed-derivation", "groupoid-cm"])
def test_infinite_r_that_is_not_free_fails_by_name(tmp_path, capsys, layer, command, check):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_semidirect_domain_doc(layer)))
    out = tmp_path / "out.json"
    argv = [*command, str(path), "--json", str(out)]
    if command[0] == "groupoid":
        argv += ["--source", "C", "--target", "C", "--samples", "2"]
    assert cli.main(argv) == 1
    (entry,) = json.loads(out.read_text())["checks"]
    assert entry["name"] == check and entry["status"] == "fail"
    assert entry["witness"].endswith("Semidirect<FreeAlgebra<x> |x FiniteAlgebra<u>> is neither finite nor free")


def test_groupoid_cm_passes():
    out = run_cli("groupoid", "cm", FIXTURES, "--source", "F1", "--target", "F1", "--samples", "4")
    assert out.returncode == 0


@pytest.mark.parametrize("flavor, name", [("cm", "F2"), ("tcm", "F1")])
def test_groupoid_module_from_the_other_layer_is_unresolved(flavor, name):
    """A groupoid looks its modules up in its own layer's section: a
    2-crossed module named for the crossed groupoid, or a crossed one for
    the 2-crossed groupoid, is an unresolved reference, not a traceback."""
    out = run_cli("groupoid", flavor, FIXTURES, "--source", name, "--target", name)
    assert out.returncode == 1
    assert "load/UnresolvedReference" in out.stdout
    assert "Traceback" not in out.stderr


def test_groupoid_cm_runs_over_a_free_r(tmp_path):
    """The crossed groupoid needs no finite R: over R = Q[x]+ and E = Q{a},
    with the zero boundary and action, every law passes."""
    doc = {
        "ring": "Q",
        "algebras": {"R": {"type": "free", "generators": ["x"]},
                     "E": {"type": "finite", "basis": ["a"], "products": {}}},
        "actions": {"z": {"acting": "R", "acted": "E", "zero": True}},
        "crossed": {"L1": {"E": "E", "R": "R", "map": {"a": {}}, "action": "z"}},
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = run_cli("groupoid", "cm", str(path), "--source", "L1", "--target", "L1", "--samples", "3")
    assert out.returncode == 0, out.stdout + out.stderr


def test_crossed_commands_run_over_a_free_e(tmp_path):
    """A crossed module with an infinite E: R = Q[x]+ acting on E = Q[y]+
    by x > y^k = y^(k+1), tabled up to y^12, past every degree the laws
    sample, with d(y) = x.  Its derivation validates, inverts by the
    formula sbar(x^n) = -(2^n - 1) y^n of s(x) = y, and every groupoid law
    passes."""
    table = {"x": {"y" if k == 1 else "y^%d" % k: {"y^%d" % (k + 1): "1"} for k in range(1, 12)}}
    doc = {
        "ring": "Q",
        "algebras": {"R": {"type": "free", "generators": ["x"]},
                     "E": {"type": "free", "generators": ["y"]}},
        "actions": {"m": {"acting": "R", "acted": "E", "table": table}},
        "crossed": {"C": {"E": "E", "R": "R", "map": {"y": {"x": "1"}}, "action": "m"}},
        "maps": {"id": {"kind": "crossed", "source": "C", "target": "C", "identity": True}},
        "derivations": {"h": {"base": "id", "s": {"x": {"y": "1"}}}},
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = run_cli("validate", str(path), "--samples", "5")
    assert out.returncode == 0 and "ok    derivation/h" in out.stdout, out.stdout + out.stderr
    out = run_cli("homotopy", "invert", str(path), "--names", "h", "--samples", "5")
    assert out.returncode == 0 and "sbar(x^2)  [-3*y^2]" in out.stdout, out.stdout + out.stderr
    out = run_cli("groupoid", "cm", str(path), "--source", "C", "--target", "C", "--samples", "2")
    assert out.returncode == 0, out.stdout + out.stderr


def test_simplicial_command():
    out = run_cli("simplicial", FIXTURES, "--module", "F2")
    assert out.returncode == 0
    assert "identity/" in out.stdout


def test_usage_error_exit_2():
    out = run_cli("frobnicate")
    assert out.returncode == 2


def test_missing_file_exit_3():
    out = run_cli("validate", os.path.join(HERE, "nope.json"))
    assert out.returncode == 3


def test_parse_error_exit_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = run_cli("validate", str(bad))
    assert out.returncode == 3
    assert "parse error" in out.stderr


def test_non_utf8_document_is_parse_error(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe" + json.dumps({"ring": "Q"}).encode("utf-16-le"))
    assert cli.main(["validate", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "UTF-8" in err


@pytest.mark.parametrize("text, named", [
    ('{"ring": %s}' % ("9" * 5001), "5001 digits"),
    ("[" * 100000 + "]" * 100000, "maximum recursion depth"),
], ids=["integer-past-the-digit-limit", "nesting-past-the-recursion-limit"])
def test_json_that_json_loads_cannot_read_is_parse_error(tmp_path, capsys, text, named):
    """json.loads raises ValueError or RecursionError, not JSONDecodeError,
    on these two documents; each is a parse error, exit 3, not a traceback."""
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert cli.main(["validate", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error: document is not readable JSON: ") and named in err


@pytest.mark.parametrize("flag, value", [("--samples", "-1"), ("--max-degree", "0")])
def test_policy_flag_below_its_floor_is_usage_error(capsys, flag, value):
    """A certificate stamps the sample count and degree bound it was
    drawn with; a value that draws nothing or cannot be drawn is refused."""
    with pytest.raises(SystemExit) as stop:
        cli.main(["simplicial", FIXTURES, "--module", "F0", flag, value])
    assert stop.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_policy_flag_floors_are_accepted():
    args = cli.build_parser().parse_args(["selftest", "--samples", "0", "--max-degree", "1"])
    assert (args.samples, args.max_degree) == (0, 1)


@pytest.mark.parametrize("document", [FIXTURES, "unresolved"], ids=["report", "load-error"])
def test_unwritable_json_path_is_an_io_error_after_the_text(tmp_path, capsys, document):
    """Both the report of a document and the report of a load error print
    their text, then fail to write --json: exit 3 with the OSError on
    stderr.  A missing directory and a directory as the path both fail."""
    if document == "unresolved":
        document = tmp_path / "doc.json"
        document.write_text(json.dumps({"ring": "Q", "maps": {"f": {"kind": "crossed", "source": "S"}}}))
    for path in (tmp_path / "missing" / "x.json", tmp_path):
        assert cli.main(["validate", str(document), "--json", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out.startswith("# xmod2 validate\n") and out.endswith(" skipped\n")
        assert err.startswith("i/o error: ") and "Traceback" not in err


def test_unresolved_reference_exit_1(tmp_path):
    doc = {"ring": "Q", "crossed": {"C": {"ideal": {"R": "missing", "labels": []}}}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = run_cli("validate", str(path))
    assert out.returncode == 1
    assert "UnresolvedReference" in out.stdout


def test_selftest_deterministic_json(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    out1 = run_cli("selftest", "--seed", "7", "--samples", "6", "--json", str(a))
    out2 = run_cli("selftest", "--seed", "7", "--samples", "6", "--json", str(b))
    assert out1.returncode == 0 and out2.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["status"] == "pass"
    assert payload["params"]["seed"] == 7


def test_selftest_reads_f2_and_f3_with_their_ring(monkeypatch):
    """Every call of the F2 and F3 builders in a selftest names the ring, as
    ``fixtures.fixture`` does: ``functools.cache`` keys a call with no
    argument apart, and would build and certify the fixture a second time."""
    from xmod2 import fixtures
    from xmod2.selftest import run_selftest

    calls = []
    for name in ("square_two_crossed", "free_line_two_crossed"):
        def recorded(*args, real=getattr(fixtures, name), name=name, **kwargs):
            calls.append((name, args + tuple(kwargs.values())))
            return real(*args, **kwargs)

        monkeypatch.setattr(fixtures, name, recorded)
    assert run_selftest(seed=0, samples=3).ok
    assert {name for name, _ in calls} == {"square_two_crossed", "free_line_two_crossed"}
    assert [call for call in calls if not call[1]] == []


def test_selftest_builds_each_fixture_tower_once(monkeypatch):
    """The tower suite reads the F0, F2 and F3 towers through get_tower, and
    the corrupted-face check, the groupoid check and the worked instance
    find F2's kept tower: one build_tower call per fixture."""
    from xmod2 import fixtures, simplex
    from xmod2.selftest import run_selftest

    from helpers import patch_everywhere

    real, built = simplex.build_tower, []
    patch_everywhere(monkeypatch, real, lambda A, *args, **kwargs: built.append(A) or real(A, *args, **kwargs))
    assert run_selftest(seed=11, samples=2).ok
    assert [sum(A is fixtures.fixture(name) for A in built) for name in ("F0", "F2", "F3")] == [1, 1, 1]


def test_no_user_facing_text_shows_a_fraction(tmp_path, capsys):
    """Q scalars are printed by value, never as ``Fraction(...)``: the text
    and JSON of validate, the corrupted F2 error texts and the selftest text."""
    from xmod2 import fixtures

    report = tmp_path / "validate.json"
    assert cli.main(["validate", FIXTURES, "--json", str(report)]) == 0
    texts = [capsys.readouterr().out, report.read_text()]
    for _, thunk, exc, _, _ in fixtures.corrupted_f2_variants():
        with pytest.raises(exc) as err:
            thunk()
        texts.append("%s: %s" % (type(err.value).__name__, err.value))
    assert cli.main(["selftest", "--seed", "0", "--samples", "10"]) == 0
    texts.append(capsys.readouterr().out)
    assert len(texts) == 11 and all(texts)
    for text in texts:
        assert "Fraction(" not in text


def test_env_seed_fallback(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("groupoid", "cm", FIXTURES, "--source", "F1", "--target", "F1",
            "--samples", "3", "--json", str(a), env_extra={"XMOD2_SEED": "9"})
    run_cli("groupoid", "cm", FIXTURES, "--source", "F1", "--target", "F1",
            "--samples", "3", "--seed", "9", "--json", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_malformed_env_seed_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("XMOD2_SEED", "abc")
    with pytest.raises(SystemExit) as stop:
        cli.main(["groupoid", "cm", FIXTURES, "--source", "F1", "--target", "F1",
                  "--samples", "2"])
    assert stop.value.code == 2
    assert "XMOD2_SEED" in capsys.readouterr().err


_FREE_LINE_WITH_STRING_BASIS = {
    "ring": "Q",
    "algebras": {"X": {"type": "free", "generators": ["x"]},
                 "Z": {"type": "finite", "basis": [], "products": {}}},
    "actions": {"zero": {"acting": "X", "acted": "Z", "zero": True}},
    "two_crossed": {"D": {"L": "Z", "E": "Z", "R": "X", "d2": {}, "d1": {},
                          "action_e": "zero", "action_l": "zero", "lifting": {},
                          "free_basis": "x"}},
}


@pytest.mark.parametrize("doc, named", [
    ({"ring": "Q", "algebras": {"N": {"type": "finite", "basis": 5, "products": {}}}}, "algebra 'N'"),
    ({"ring": "Q", "algebras": {"N": {"type": "finite", "basis": ["u"], "products": []}}}, "algebra 'N'"),
    ({"ring": "Q", "algebras": {"N": None}}, "algebra 'N'"),
    (_FREE_LINE_WITH_STRING_BASIS, "two_crossed 'D'"),
    ({"ring": {"prime": 4}, "algebras": {"N": {"type": "finite", "basis": ["u"], "products": {}}}},
     "ring spec {'prime': 4}"),
    ({"ring": "Q", "algebras": {"N\ud800": {"type": "finite", "basis": ["u"], "products": {}}}},
     "document['algebras']: 'N\\ud800' is not UTF-8 text"),
], ids=["basis-not-a-list", "products-a-list", "algebra-spec-null", "free-basis-a-string",
        "prime-not-prime", "lone-surrogate-name"])
def test_malformed_document_is_parse_error(tmp_path, capsys, doc, named):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and named in err


def test_huge_prime_modulus_is_rejected_within_a_second(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"ring": {"prime": 2305843009213693951}}))
    start = time.perf_counter()
    assert cli.main(["validate", str(path)]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("parse error: ")


def test_exponent_notation_scalar_is_parse_error(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"ring": "Q", "algebras": {"N": {
        "type": "finite", "basis": ["u"], "products": {"u": {"u": {"u": "1e999999999"}}}}}}))
    assert cli.main(["validate", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "'1e999999999'" in err


def test_zero_denominator_scalar_over_a_prime_field_is_parse_error(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"ring": {"prime": 5}, "algebras": {"N": {
        "type": "finite", "basis": ["u"], "products": {"u": {"u": {"u": "1/0"}}}}}}))
    out = run_cli("validate", str(path))
    assert out.returncode == 3, out.stderr
    assert out.stderr.startswith("parse error: ") and "'1/0'" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("products", [{"u": {"w": {"u": "1"}}}, {"u": {"u": {"w": "1"}}}],
                         ids=["pair-label", "constant-target"])
def test_unknown_label_in_products_is_parse_error(tmp_path, products):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"algebras": {"A": {"type": "finite", "basis": ["u"],
                                                   "products": products}}}))
    out = run_cli("validate", str(path))
    assert out.returncode == 3, out.stderr
    assert out.stderr.startswith("parse error: ") and "Traceback" not in out.stderr
    assert "algebra 'A' products" in out.stderr and "'w'" in out.stderr


_FREE_X = {"type": "free", "generators": ["x"]}
_N_AND_X = {"N": {"type": "finite", "basis": ["u"], "products": {}}, "X": _FREE_X}


@pytest.mark.parametrize("doc, named", [
    ({"ring": "Q", "actions": {"a": None}}, "action 'a'"),
    ({"ring": "Q", "algebras": {"N": {"type": "finite", "basis": ["u"], "products": {}}},
      "crossed": {"C": {"ideal": {"R": "N", "labels": 3}}}}, "crossed 'C' ideal labels"),
    ({"ring": "Q", "algebras": {"X": _FREE_X},
      "actions": {"a": {"acting": "X", "acted": "X", "table": {"y": {}}}}}, "action 'a' table"),
    ({"ring": "Q", "algebras": {"X": _FREE_X},
      "actions": {"a": {"acting": "X", "acted": "X", "table": {"x": {"y": {"x": "1"}}}}}},
     "action 'a'"),
    ({"ring": "Q", "algebras": _N_AND_X,
      "actions": {"zero": {"acting": "X", "acted": "N", "zero": True}},
      "precrossed": {"P": {"E": "N", "R": "X", "map": {"u": {"y": "1"}}, "action": "zero"}}},
     "precrossed 'P' map"),
    ({"ring": "Q", "algebras": {"N": {"type": "finite", "basis": ["u"], "products": {}}},
      "crossed": {"C": {"ideal": {"R": "N", "labels": ["u"]}}},
      "maps": {"i": {"kind": "crosed", "source": "C", "target": "C", "identity": True}}},
     "map 'i': unknown kind 'crosed'"),
    ({"ring": "Q", "algebras": {"N": {"type": "finite", "basis": ["u"], "products": {}}},
      "actions": {"a": {"acting": "N", "acted": "N", "zero": "no", "table": {"u": {"u": {"u": "1"}}}}}},
     "action 'a': 'zero' must be true or false, got 'no'"),
    ({"ring": "Q", "algebras": {"N": {"type": "finite", "basis": ["u"], "products": {}}},
      "crossed": {"C": {"ideal": {"R": "N", "labels": ["u"]}}},
      "maps": {"i": {"kind": "crossed", "source": "C", "target": "C", "identity": "no"}}},
     "map 'i': 'identity' must be true or false, got 'no'"),
], ids=["action-spec-null", "ideal-labels-not-a-list", "unknown-generator-table-row",
        "unknown-generator-in-element", "unknown-generator-in-map", "map-kind-typo",
        "zero-not-a-bool", "identity-not-a-bool"])
def test_malformed_section_entry_is_parse_error(tmp_path, capsys, doc, named):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and named in err


_N = {"type": "finite", "basis": ["u"], "products": {}}
_ZERO_N = {"acting": "N", "acted": "N", "zero": True}


def _two_crossed_doc(**fields):
    """A document whose 2-crossed module D is N -> N -> N with zero maps,
    actions and lifting, with the given fields of D replaced."""
    spec = {"L": "N", "E": "N", "R": "N", "d2": {}, "d1": {},
            "action_e": "zero", "action_l": "zero", "lifting": {}}
    spec.update(fields)
    return {"ring": "Q", "algebras": {"N": _N}, "actions": {"zero": _ZERO_N},
            "two_crossed": {"D": spec}}


def _map_doc(**images):
    doc = _two_crossed_doc()
    doc["maps"] = {"f": {"source": "D", "target": "D", "f0": {}, "f1": {}, "f2": {}, **images}}
    return doc


def _quadratic_doc(**images):
    doc = _map_doc()
    doc["quadratic_derivations"] = {"q": {"base": "f", **images}}
    return doc


def _module_doc(section, linmap):
    return {"ring": "Q", "algebras": {"N": _N}, "actions": {"zero": _ZERO_N},
            section: {"P": {"E": "N", "R": "N", "map": linmap, "action": "zero"}}}


@pytest.mark.parametrize("doc, named", [
    ({"ring": "Q", "algebras": {"N": _N},
      "actions": {"a": {"acting": "N", "acted": "N", "table": []}}}, "action 'a' table"),
    ({"ring": "Q", "algebras": {"N": _N},
      "actions": {"a": {"acting": "N", "acted": "N", "table": {"u": 3}}}}, "action 'a' table row 'u'"),
    (_two_crossed_doc(lifting=[]), "two_crossed 'D' lifting"),
    (_two_crossed_doc(lifting={"u": 3}), "two_crossed 'D' lifting row 'u'"),
    (_module_doc("precrossed", []), "precrossed 'P' map"),
    (_module_doc("crossed", [{"u": "1"}]), "crossed 'P' map"),
    (_two_crossed_doc(d2=[{"u": "1"}]), "two_crossed 'D' d2"),
    (_two_crossed_doc(d1=[{"u": "1"}]), "two_crossed 'D' d1"),
    (_map_doc(f0=[{"u": "1"}]), "map 'f' f0"),
    (_map_doc(f1=[{"u": "1"}]), "map 'f' f1"),
    (_map_doc(f2=[{"u": "1"}]), "map 'f' f2"),
    ({"ring": "Q", "algebras": {"N": _N},
      "crossed": {"C": {"ideal": {"R": "N", "labels": ["u"]}}},
      "maps": {"i": {"kind": "crossed", "source": "C", "target": "C", "identity": True}},
      "derivations": {"d": {"base": "i", "s": [{"u": "1"}]}}}, "derivation 'd' s"),
    (_quadratic_doc(s=[{"u": "1"}]), "quadratic_derivation 'q' s"),
    (_quadratic_doc(t=[{"u": "1"}]), "quadratic_derivation 'q' t"),
], ids=["table-a-list", "table-row-not-an-object", "lifting-a-list", "lifting-row-not-an-object",
        "map-empty-list", "map-a-list", "d2-a-list", "d1-a-list", "f0-a-list", "f1-a-list",
        "f2-a-list", "s-a-list", "quadratic-s-a-list", "quadratic-t-a-list"])
def test_malformed_table_or_linear_map_is_parse_error(tmp_path, capsys, doc, named):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and named in err



@pytest.mark.parametrize("doc, named", [
    ({"ring": "Q", "algebras": {"N": {"type": "finite", "basis": [["u"]], "products": {}}}},
     "algebra 'N' basis"),
    ({"ring": "Q", "algebras": {"X": {"type": "free", "generators": [["x"]]}}},
     "algebra 'X' generators"),
    ({"ring": "Q", "algebras": {"N": _N},
      "crossed": {"C": {"ideal": {"R": "N", "labels": [["u"]]}}}}, "crossed 'C' ideal labels"),
    ({"ring": "Q", "algebras": {"N": _N},
      "actions": {"a": {"acting": ["N"], "acted": "N", "zero": True}}}, "action 'a'"),
    ({**_two_crossed_doc(), "maps": {"f": {"source": {"a": 1}, "target": "D"}}}, "map 'f'"),
], ids=["basis-label-a-list", "generator-a-list", "ideal-label-a-list", "acting-a-list",
        "map-source-an-object"])
def test_name_that_is_not_a_string_is_parse_error(tmp_path, capsys, doc, named):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("parse error: ") and named in err

@pytest.mark.parametrize("doc, named", [
    ({"ring": "Q", "algebras": {"N": {"type": "finite", "products": {}}}},
     "algebra 'N': missing required field 'basis'"),
    ({"ring": "Q", "algebras": {"X": {"type": "free"}}},
     "algebra 'X': missing required field 'generators'"),
    ({"ring": "Q", "algebras": {"N": _N, "S": {"type": "semidirect", "acting": "N", "acted": "N"}},
      "actions": {"zero": _ZERO_N}}, "algebra 'S': missing required field 'action'"),
    ({"ring": "Q", "algebras": {"N": _N}, "actions": {"a": {"acted": "N", "zero": True}}},
     "action 'a': missing required field 'acting'"),
    ({**_module_doc("precrossed", {}), "precrossed": {"P": {"R": "N", "action": "zero"}}},
     "precrossed 'P': missing required field 'E'"),
    ({**_module_doc("crossed", {}), "crossed": {"P": {"E": "N", "R": "N"}}},
     "crossed 'P': missing required field 'action'"),
    ({"ring": "Q", "algebras": {"N": _N}, "crossed": {"C": {"ideal": {"labels": ["u"]}}}},
     "crossed 'C' ideal: missing required field 'R'"),
    ({**_two_crossed_doc(), "two_crossed": {"D": {"L": "N", "E": "N", "R": "N",
                                                   "action_e": "zero"}}},
     "two_crossed 'D': missing required field 'action_l'"),
    ({**_two_crossed_doc(), "maps": {"f": {"target": "D"}}},
     "map 'f': missing required field 'source'"),
    ({**_quadratic_doc(), "quadratic_derivations": {"q": {"s": {}}}},
     "quadratic_derivation 'q': missing required field 'base'"),
], ids=["finite-basis", "free-generators", "semidirect-action", "action-acting", "precrossed-E",
        "crossed-action", "ideal-R", "two-crossed-action-l", "map-source", "quadratic-base"])
def test_missing_required_field_is_parse_error(tmp_path, capsys, doc, named):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and named in err


@pytest.mark.parametrize("scalar", [True, False, None, ["1"], {"u": "1"}],
                         ids=["true", "false", "null", "list", "object"])
@pytest.mark.parametrize("where", ["products", "element"])
def test_scalar_that_is_not_a_string_or_number_is_parse_error(tmp_path, capsys, scalar, where):
    if where == "products":
        doc = {"ring": "Q", "algebras": {"N": {"type": "finite", "basis": ["u"],
                                               "products": {"u": {"u": {"u": scalar}}}}}}
    else:
        doc = _map_doc(f0={"u": {"u": scalar}})
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "is not a string or a number" in err


def test_in_process_calls_each_see_only_their_own_arguments(tmp_path, monkeypatch, capsys):
    """The parser is built once per process; every call of main still
    parses its own arguments, with the defaults of its own subcommand."""
    monkeypatch.delenv("XMOD2_SEED", raising=False)
    seen = []
    real_policy = cli._policy

    def policy(args):
        seen.append(dict(vars(args)))
        return real_policy(args)

    monkeypatch.setattr(cli, "_policy", policy)
    out = tmp_path / "groupoid.json"
    assert cli.main(["groupoid", "cm", FIXTURES, "--source", "F1", "--target", "F1",
                     "--samples", "3", "--seed", "9", "--json", str(out)]) == 0
    assert cli.main(["simplicial", FIXTURES, "--module", "F2", "--max-degree", "2"]) == 0
    assert seen == [
        {"command": "groupoid", "flavor": "cm", "file": FIXTURES, "source": "F1", "target": "F1",
         "json": str(out), "samples": 3, "max_degree": 4, "seed": 9},
        {"command": "simplicial", "file": FIXTURES, "module": "F2", "json": None,
         "samples": 100, "max_degree": 2, "seed": None},
    ]
    assert json.loads(out.read_text())["params"]["seed"] == 9
    assert cli.build_parser() is cli.build_parser()


def test_report_text_summary_counts_every_status():
    from xmod2.report import Report

    rep = Report("validate", {"seed": 0})
    rep.add("b/ok", "ok", True)
    rep.add("a/broken", "broken", False, witness="at x")
    rep.add("c/none", "none", None)
    rep.add("d/ok", "ok", True)
    assert rep.to_text() == (
        "# xmod2 validate\n"
        'params: {"seed": 0}\n'
        "FAIL  a/broken  [at x]\n"
        "ok    b/ok\n"
        "skip  c/none\n"
        "ok    d/ok\n"
        "fail: 2 pass, 1 fail, 1 skipped\n"
    )
    obj = rep.to_json_obj()
    assert obj["status"] == "fail" and obj["counts"] == {"pass": 2, "fail": 1, "skipped": 1}
    rep.checks.pop(1)  # the failing check
    assert rep.to_text().endswith("\npass: 2 pass, 0 fail, 1 skipped\n")
