"""``report.canonical_json`` writes exactly the bytes of ``json.dumps(v,
sort_keys=True, ensure_ascii=False, indent=2)`` plus a newline, and raises
what ``json.dumps`` raises, for any JSON-like value."""

import enum
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmod2.report import canonical_json


def _reference(value):
    return json.dumps(value, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


# characters json escapes, or that a naive writer gets wrong: quotes,
# backslashes, controls, non-ASCII, a line separator, astral and a lone
# surrogate
_SPECIAL = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ",
                            "代", "\U0001d538", "\ud800"])
_TEXT = st.text(st.one_of(st.characters(), _SPECIAL), max_size=8)
_SCALARS = st.one_of(
    _TEXT,
    st.integers(min_value=-2**70, max_value=2**70),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.floats(),
    st.booleans(),
    st.none(),
)
_VALUES = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(_TEXT, inner, max_size=4),
    st.dictionaries(st.integers(), inner, max_size=3),
), max_leaves=24)


@settings(deadline=None, database=None)
@given(_VALUES)
def test_canonical_json_writes_the_bytes_of_json_dumps(value):
    assert canonical_json(value) == _reference(value)


class _Rank(enum.IntEnum):
    ONE = 1


class _Label(str):
    pass


@pytest.mark.parametrize("value", [
    {"a": [{}, [], (), {"b": _Rank.ONE}], "c": _Label("d")},
    {"z": {1: "x", 2: [2.5]}, "a": 0},
    [[[[]]], {"": None}],
], ids=["subclasses-and-empties", "int-keys-nested", "empty-key"])
def test_values_handed_to_json_dumps_keep_its_bytes(value):
    assert canonical_json(value) == _reference(value)


def _circular():
    value = {"a": []}
    value["a"].append(value)
    return value


@pytest.mark.parametrize("value", [
    Fraction(1, 2),
    {1, 2},
    {"checks": [{"name": "n", "certificate": Fraction(3, 4)}]},
    {"a": 1, 2: "mixed keys"},
    _circular(),
], ids=["fraction", "set", "nested-fraction", "mixed-keys", "circular"])
def test_unsupported_values_raise_what_json_dumps_raises(value):
    with pytest.raises(Exception) as expected:
        _reference(value)
    with pytest.raises(type(expected.value)) as got:
        canonical_json(value)
    assert str(got.value) == str(expected.value)
