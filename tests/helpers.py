"""Helpers shared by the test modules."""

import sys

from xmod2.algebra import unit_key
from xmod2.crossed import make_2cm_morphism
from xmod2.maps import DEFAULT_POLICY, zero_map


def zero_2cm_morphism(A, B, policy=DEFAULT_POLICY):
    """The zero map A -> B, certified by make_2cm_morphism.  Its level maps
    are formula maps that carry no multiplicativity certificate."""
    return make_2cm_morphism(A, B, zero_map(A.R, B.R), zero_map(A.E, B.E), zero_map(A.L, B.L), policy)


def patch_everywhere(monkeypatch, real, replacement):
    """Replace ``real`` by ``replacement`` in every xmod2 module that holds it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("xmod2") and getattr(mod, real.__name__, None) is real:
            monkeypatch.setattr(mod, real.__name__, replacement)


def assert_failing_basis_tuple(error, lhs, rhs):
    """error's witness is a tuple of basis elements at which the law
    lhs == rhs fails: lhs and rhs there give error's two sides, which
    differ.  Any such tuple certifies the failure, first in basis order or
    not."""
    witness = error.witness
    assert all(unit_key(u) is not None for u in witness)
    assert error.lhs != error.rhs
    assert (lhs(*witness), rhs(*witness)) == (error.lhs, error.rhs)
