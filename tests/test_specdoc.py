import json
import os

import pytest

from xmod2 import fixtures
from xmod2.errors import ParseError, UnresolvedReference, ValidationError
from xmod2.maps import Policy
from xmod2.specdoc import load_spec

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, os.pardir, "fixtures.json")
POL = Policy(samples=20, seed=0)


def fixture_data():
    with open(FIXTURES, encoding="utf-8") as fh:
        return json.load(fh)


def test_fixture_file_loads_and_validates():
    doc = load_spec(FIXTURES, POL)
    assert set(doc.two_crossed) == {"F0", "F2", "F3", "K2"}
    assert "F1" in doc.crossed
    F2 = doc.two_crossed["F2"]
    a = F2.E.basis_element("a")
    assert F2.lift(a, a) == F2.L.basis_element(fixtures.BH)
    assert doc.two_crossed["F3"].free_basis == ("x",)
    # the kernel-of build reproduces the explicit F2 lifting
    K2 = doc.two_crossed["K2"]
    ak = K2.E.basis_element("a")
    assert K2.d2(K2.lift(ak, ak)) == K2.E.basis_element("b")


def test_fixture_file_agrees_with_code_fixtures():
    doc = load_spec(FIXTURES, POL)
    code_f2 = fixtures.square_two_crossed()
    file_f2 = doc.two_crossed["F2"]
    assert file_f2.E.compatible(code_f2.E)
    assert file_f2.R.compatible(code_f2.R)
    assert file_f2.L.compatible(code_f2.L)


def test_named_homotopies_resolve():
    doc = load_spec(FIXTURES, POL)
    h1 = doc.quadratic["h1"]
    R3 = h1.f.src.R
    E2 = h1.f.tgt.E
    assert h1.s(R3.monomial("x", "x")) == E2.basis_element("b")
    d1 = doc.derivations["d1"]
    assert d1.certificates["s-law"].exhaustive


def test_semidirect_algebra_in_document():
    doc = load_spec(FIXTURES, POL)
    lam1 = doc.algebras["Lambda1"]
    assert lam1.dim() == 3


def test_corrupted_lifting_flagged_with_axiom_and_witness():
    data = fixture_data()
    data["two_crossed"]["F2"]["lifting"] = {}
    with pytest.raises(ValidationError) as err:
        load_spec(data, POL)
    assert "F2" in str(err.value)
    cause = err.value.cause
    assert getattr(cause, "axiom", None) == "2XM1"
    e1, e2 = cause.witness
    assert sorted(e1.coeffs) == ["a"] and sorted(e2.coeffs) == ["a"]


def test_unresolved_reference():
    data = fixture_data()
    data["two_crossed"]["F2"]["E"] = "Q_undefined"
    with pytest.raises(UnresolvedReference) as err:
        load_spec(data, POL)
    assert err.value.name == "Q_undefined"


def test_parse_error_carries_position():
    bad = os.path.join(HERE, "_bad.json")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write('{"ring": "Q",\n  "algebras": {troub}\n}')
    try:
        with pytest.raises(ParseError) as err:
            load_spec(bad, POL)
        assert err.value.line == 2
    finally:
        os.unlink(bad)


def test_bad_scalar_and_bad_monomial():
    data = {"ring": {"prime": 5}, "algebras": {"A": {"type": "finite", "basis": ["u"], "products": {"u": {"u": {"u": "2 mod 7"}}}}}}
    with pytest.raises(ParseError):
        load_spec(data, POL)
    data = {"ring": "Q", "algebras": {"P": {"type": "free", "generators": ["x"]}},
            "actions": {"bad": {"acting": "P", "acted": "P", "table": {"y": {}}}}}
    with pytest.raises(ParseError):
        load_spec(data, POL)


def test_missing_file_raises_oserror():
    with pytest.raises(OSError):
        load_spec(os.path.join(HERE, "does_not_exist.json"), POL)


def _with_basis(label):
    return {"ring": "Q", "algebras": {"A": {"type": "finite", "basis": [label], "products": {}}}}


def test_lone_surrogate_string_is_refused_in_a_file_and_a_dict(tmp_path):
    """A \\u escape can write a lone surrogate, which no report can print;
    the loader refuses it wherever it sits, naming the path to it."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_with_basis("u\ud800")))
    for source in (str(path), _with_basis("u\ud800")):
        with pytest.raises(ParseError) as err:
            load_spec(source, POL)
        assert str(err.value) == "document['algebras']['A']['basis'][0]: 'u\\ud800' is not UTF-8 text"


def test_escaped_surrogate_pair_loads(tmp_path):
    """An escaped surrogate pair is one astral character, which UTF-8 encodes."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_with_basis("u\U0001d538")))
    assert "\\ud835\\udd38" in path.read_text()
    assert load_spec(str(path), POL).algebras["A"].labels == ("u\U0001d538",)
