import functools
import gc
import os
import random
import sys
import weakref

import pytest

from xmod2 import fixtures, maps, simplex
from xmod2.algebra import SemidirectAlgebra, make_finite_algebra, unit_key
from xmod2.crossed import kernel_two_crossed, make_2cm_morphism, make_precrossed, make_two_crossed
from xmod2.errors import (
    A1Violation, A2Violation, EquivarianceViolation, LawViolation, MorphismViolation, XmodError,
)
from xmod2.maps import LinearMap, Policy, certify_action, random_element
from xmod2.randgen import random_two_crossed
from xmod2.rings import PrimeField, rref
from xmod2.simplex import (
    build_tower,
    check_simplicial_identities,
    get_tower,
    simplicial_identity_list,
    with_face,
)
from xmod2.specdoc import load_spec

from helpers import assert_failing_basis_tuple, patch_everywhere

POL = Policy(samples=30, seed=5)
FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures.json")


def f2_tower():
    return build_tower(fixtures.square_two_crossed(), POL)


def f2_elements(T):
    F2 = T.base
    R, E, L = F2.R, F2.E, F2.L
    return (
        R.basis_element("p"),
        E.basis_element("a"),
        E.basis_element("b"),
        L.basis_element(fixtures.BH),
    )


def test_bullet_action_values():
    T = f2_tower()
    p, a, b, bh = f2_elements(T)
    lam1, el = T.levels[1], T.levels[2].right
    bullet = T.actions["bullet"]
    assert bullet(lam1.pair(p, a.algebra.zero()), el.pair(a, bh.algebra.zero())).is_zero()
    got = bullet(lam1.pair(p.algebra.zero(), a), el.pair(a, bh.algebra.zero()))
    assert got == el.pair(b, -bh)
    assert bullet(lam1.zero(), el.pair(a, bh)).is_zero()


def test_star_action_values():
    T = f2_tower()
    p, a, b, bh = f2_elements(T)
    star, el = T.actions["star"], T.levels[2].right
    assert star(el.pair(a, bh.algebra.zero()), bh).is_zero()
    assert star(el.pair(a.algebra.zero(), bh), bh).is_zero()


def test_one_action_values():
    T = f2_tower()
    p, a, b, bh = f2_elements(T)
    lam1 = T.levels[1]
    one, el, ell = T.actions["one"], T.levels[2].right, T.levels[3].right
    zE, zL = a.algebra.zero(), bh.algebra.zero()
    x = ell.pair(el.pair(a, zL), zL)
    assert one(lam1.pair(p.algebra.zero(), a), x) == ell.pair(el.pair(b, -bh), zL)
    assert one(lam1.pair(p, zE), ell.pair(el.pair(a, bh), bh)).is_zero()
    assert one(lam1.pair(p, a), ell.zero()).is_zero()


def test_two_action_values():
    T = f2_tower()
    p, a, b, bh = f2_elements(T)
    zE, zL = a.algebra.zero(), bh.algebra.zero()
    two, el, ell = T.actions["two"], T.levels[2].right, T.levels[3].right
    x = ell.pair(el.pair(a, zL), zL)
    assert two(el.pair(a, zL), x) == ell.pair(el.pair(b, zL), -bh)
    assert two(el.pair(zE, bh), x).is_zero()
    assert two(el.zero(), x).is_zero()


def test_dagger_action_reduces_to_one_and_two():
    T = f2_tower()
    p, a, b, bh = f2_elements(T)
    zE, zL = a.algebra.zero(), bh.algebra.zero()
    dag, el, ell = T.actions["dagger"], T.levels[2].right, T.levels[3].right
    x = ell.pair(el.pair(a, zL), zL)
    assert dag(T.simplex2(p, a, zE, zL), x) == ell.pair(el.pair(b, -bh), zL)
    assert dag(T.simplex2(p.algebra.zero(), zE, a, zL), x) == ell.pair(el.pair(b, zL), -bh)
    assert dag(T.levels[2].zero(), x).is_zero()


def test_sub_actions_certified():
    T = f2_tower()
    for name in ("one_e", "one_r", "two_e", "two_l", "bullet", "star", "one", "two", "dagger"):
        assert T.actions[name].certificate is not None, name
        assert T.actions[name].certificate.exhaustive


def test_tower_dims():
    T0 = build_tower(fixtures.zero_two_crossed(), POL)
    assert [alg.dim() for alg in T0.levels] == [1, 2, 4, 7]
    T2 = f2_tower()
    assert T2.levels[2].dim() == 1 + 2 + 2 + 1


def test_face_values():
    T = f2_tower()
    p, a, b, bh = f2_elements(T)
    lam1 = T.levels[1]
    u = T.simplex2(p, a, a, bh)
    assert T.faces[(2, 0)](u) == lam1.pair(p, a)
    assert T.faces[(2, 1)](u) == lam1.pair(p, 2 * a)
    assert T.faces[(2, 2)](u) == lam1.pair(2 * p, a + b)  # (p + d1(a), a + d2(bh))
    v = T.simplex3(p, a, a, bh, b, bh, bh)
    assert T.faces[(3, 0)](v) == T.simplex2(p, a, a, bh)
    assert T.faces[(3, 1)](v) == T.simplex2(p, a, a + b, 2 * bh)
    assert T.faces[(3, 2)](v) == T.simplex2(p, 2 * a, b, 2 * bh)
    assert T.faces[(3, 3)](v) == T.simplex2(2 * p, a + b, b + b, bh)
    assert T.faces[(3, 0)](T.levels[3].zero()).is_zero()


def test_degeneracy_values():
    T = f2_tower()
    p, a, b, bh = f2_elements(T)
    lam1 = T.levels[1]
    zE, zL = a.algebra.zero(), bh.algebra.zero()
    assert T.degeneracies[(1, 1)](lam1.pair(p, a)) == T.simplex2(p, zE, a, zL)
    assert T.degeneracies[(1, 0)](lam1.pair(p, a)) == T.simplex2(p, a, zE, zL)
    u = T.simplex2(p, a, a, bh)
    assert T.degeneracies[(2, 2)](u) == T.simplex3(p, zE, a, zL, a, zL, bh)
    assert T.degeneracies[(0, 0)](p.algebra.zero()).is_zero()


def test_faces_and_degeneracies_are_morphisms():
    T = f2_tower()
    for (n, i), f in {**T.faces, **T.degeneracies}.items():
        assert f.multiplicative is not None and f.multiplicative.exhaustive, (n, i)


def test_f3_levels_never_take_the_finite_rule():
    """F3's R is free, so Lam1..Lam3 are infinite and their products are
    certified on samples.  No generator slot over them takes a generating
    set: every face and degeneracy but d0 and s0 keeps its sampled
    certificate, on the tuples law_tuples gives with no generator slot.
    d0 and s0 are the projection of Lam_n = Lam_{n-1} |x X and its
    inclusion, algebra maps by construction, so they are EXHAUSTIVE on
    every level, F3's included."""
    T = build_tower(fixtures.free_line_two_crossed(), POL)
    for level in T.levels[1:]:
        assert not level.is_finite() and level.certificate is POL.certificate
        assert maps._generating(level) is None
    by_construction = []
    for f in [*T.faces.values(), *T.degeneracies.values()]:
        slots = [f.source, f.source]
        assert maps.law_tuples(slots, POL, (0,)) == maps.law_tuples(slots, POL)
        if f.note[:2] in ("d0", "s0"):
            assert f.multiplicative is maps.EXHAUSTIVE
            by_construction.append(f.note)
        else:
            assert f.multiplicative is POL.certificate
    assert by_construction == ["d0@1", "d0@2", "d0@3", "s0@0", "s0@1", "s0@2"]


def test_identity_list_is_complete_standard_list():
    kinds = {}
    for kind, _, _ in simplicial_identity_list():
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds == {"dd": 3 + 6, "ss": 1 + 3, "ds": 2 + 6 + 12}


def test_simplicial_identities_pass_exhaustively_on_fixtures():
    for name in ("F0", "F2"):
        T = build_tower(fixtures.fixture(name), POL)
        entries = check_simplicial_identities(T, POL)
        assert all(ok for _, ok, _ in entries), [e for e in entries if not e[1]]
    T3 = build_tower(fixtures.free_line_two_crossed(), POL)
    assert all(ok for _, ok, _ in check_simplicial_identities(T3, POL))


def test_face_degeneracy_identity_cases_exact():
    T = f2_tower()
    lam1 = T.levels[1]
    p, a, b, bh = f2_elements(T)
    for u in [lam1.pair(p, a), lam1.pair(2 * p, a + b)]:
        assert T.faces[(2, 0)](T.degeneracies[(1, 0)](u)) == u
        assert T.faces[(2, 1)](T.degeneracies[(1, 0)](u)) == u
        assert T.faces[(2, 1)](T.degeneracies[(1, 1)](u)) == u
        assert T.faces[(2, 2)](T.degeneracies[(1, 1)](u)) == u


def _mutant(T, n, i, fn):
    src = T.levels[n]
    tgt = T.levels[n - 1]
    return with_face(T, n, i, LinearMap(src, tgt, "function", fn=fn))


def test_single_term_face_mutations_detected():
    T = f2_tower()
    F2 = T.base
    lam1 = T.levels[1]

    def d22_drop_d2l(u):
        r, e, e2, l = T.split2(u)
        return lam1.pair(r + F2.d1(e), e2)

    def d22_drop_d1e(u):
        r, e, e2, l = T.split2(u)
        return lam1.pair(r, e2 + F2.d2(l))

    def d21_drop_e2(u):
        r, e, e2, l = T.split2(u)
        return lam1.pair(r, e)

    def d11_drop_d1e(u):
        r, e = lam1.split(u)
        return r

    def d31_drop_l2(u):
        r, e, e2, l, e3, l2, l3 = T.split3(u)
        return T.simplex2(r, e, e2 + e3, l)

    def d33_drop_d2l2(u):
        r, e, e2, l, e3, l2, l3 = T.split3(u)
        return T.simplex2(r + F2.d1(e), e2 + F2.d2(l), e3, l3)

    mutants = [
        (2, 2, d22_drop_d2l),
        (2, 2, d22_drop_d1e),
        (2, 1, d21_drop_e2),
        (1, 1, d11_drop_d1e),
        (3, 1, d31_drop_l2),
        (3, 3, d33_drop_d2l2),
    ]
    for n, i, fn in mutants:
        mutated = _mutant(T, n, i, fn)
        entries = check_simplicial_identities(mutated, POL)
        failing = [name for name, ok, _ in entries if not ok]
        assert failing, "mutation of d%d@%d escaped detection" % (i, n)
        # failures carry a printable witness
        for name, ok, witness in entries:
            if not ok:
                assert witness and "!=" in witness


def test_random_towers_satisfy_identities():
    F5 = PrimeField(5)
    rng = random.Random(23)
    for _ in range(8):
        A = random_two_crossed(F5, rng, max_dim=2, policy=POL)
        T = build_tower(A, POL)
        entries = check_simplicial_identities(T, POL)
        assert all(ok for _, ok, _ in entries)


def test_towers_are_per_module():
    from xmod2.errors import OwnerMismatch

    T2 = f2_tower()
    T3 = build_tower(fixtures.free_line_two_crossed(), POL)
    foreign = T3.levels[2].zero() + T3.simplex2(
        T3.base.R.monomial("x"), T3.base.E.zero(), T3.base.E.zero(), T3.base.L.zero()
    )
    with pytest.raises(OwnerMismatch):
        T2.faces[(2, 0)](foreign)


TOWER_ACTIONS = ("bullet", "star", "one_e", "one_r", "one", "two_e", "two_l", "two", "dagger")
SUMS = ("one", "two", "dagger")


def test_memoised_maps_agree_with_their_closures():
    """Actions, faces and degeneracies evaluate their table entries on basis
    keys only and extend (bi)linearly; on general elements the result must
    still equal the element-level reference formula's value
    (``_reference_action``, ``_reference_map``).  A sum >1, >2 or >t reads a
    key's image from the part on the key's side; on general elements it
    must equal x >left m + y >right m for the actor (x, y), computed from
    its parts."""
    rng = random.Random(31)
    structures = [fixtures.fixture(name) for name in ("F0", "F2", "F3")]
    structures += [random_two_crossed(PrimeField(5), rng, max_dim=2, policy=POL) for _ in range(3)]
    for A in structures:
        T = build_tower(A, POL)
        for name in TOWER_ACTIONS:
            act = T.actions[name]
            for _ in range(4):
                r = random_element(act.acting, rng, max_degree=3)
                m = random_element(act.acted, rng, max_degree=3)
                if name in SUMS:
                    x, y = act.acting.split(r)
                    want = act.parts[0](x, m) + act.parts[1](y, m)
                else:
                    want = _reference_action(T, name)(r, m)
                assert act(r, m) == want, (A, name)
        for key, f in _tower_maps(T):
            for _ in range(4):
                u = random_element(f.source, rng, max_degree=3)
                assert f(u) == _reference_map(T, *key)(u), (A, f.note)


def _codec_structures(seed):
    """F0, F2, F3 and K2, then three random F5 structures."""
    rng = random.Random(seed)
    structures = [fixtures.fixture(name) for name in ("F0", "F2", "F3")]
    structures.append(load_spec(FIXTURES, POL).two_crossed["K2"])
    return structures + [random_two_crossed(PrimeField(5), rng, max_dim=2, policy=POL) for _ in range(3)]


def _nested_split(u):
    """The components of u by the semidirect products' own split, part by
    part down to R, E and L: what a flat codec must give."""
    if not isinstance(u.algebra, SemidirectAlgebra):
        return (u,)
    x, y = u.algebra.split(u)
    return _nested_split(x) + _nested_split(y)


def test_codecs_split_and_pack_are_inverse(monkeypatch):
    """On every level of the F0, F2, F3, K2 and random F5 towers, split
    gives the components the nested semidirect split gives, pack(*split(u))
    is u, and a basis element (a basis key, or a generator of a free part,
    with coefficient one) splits on its key's route exactly as the one-pass
    split does; with ``unit_key`` finding no key, every split is one pass."""
    rng = random.Random(43)
    for A in _codec_structures(43):
        T = build_tower(A, POL)
        for codec in T.codecs:
            keys = list(maps._skeleton(codec.level))
            elements = keys + [random_element(codec.level, rng, max_degree=3) for _ in range(6)]
            routed = [codec.split(u) for u in keys]
            for u, parts in zip(keys, routed):  # the kept basis element and shared zeros
                assert sum(not p.is_zero() for p in parts) == 1
                assert all(p is part.zero() for p, part in zip(parts, codec.parts) if p.is_zero())
                if codec.level.is_finite():
                    assert all(p is part.basis_element(unit_key(p)) for p, part in zip(parts, codec.parts)
                               if not p.is_zero())
            for u in elements:
                parts = codec.split(u)
                assert len(parts) == len(codec.parts) and parts == _nested_split(u)
                assert codec.pack(*parts) == u
            with monkeypatch.context() as patch:
                patch.setattr(simplex, "unit_key", lambda u: None)
                assert [codec.split(u) for u in keys] == routed


# The entries d0 and s0 had in the formula tables before they were built as
# the projection of Lam_n = Lam_{n-1} |x X and its inclusion: the reference
# the maps must still equal, keyed by (face or degeneracy, level).
def _d0_s0_formulas(A):
    zE, zL = A.E.zero(), A.L.zero()
    return {
        ("d", 1): lambda r, e: (r,),
        ("d", 2): lambda r, e, e2, l: (r, e),
        ("d", 3): lambda r, e, e2, l, e3, l2, l3: (r, e, e2, l),
        ("s", 0): lambda r: (r, zE),
        ("s", 1): lambda r, e: (r, e, zE, zL),
        ("s", 2): lambda r, e, e2, l: (r, e, e2, l, zE, zL, zL),
    }


def test_d0_and_s0_equal_the_formulas_they_replace():
    """d0@1..3 and s0@0..2 are EXHAUSTIVE by construction, and equal the
    table formulas they replace, read through the codecs: on every basis
    key of the finite towers, and on sampled elements (and the generator
    skeleton) of F3's infinite levels."""
    rng = random.Random(47)
    for A in _codec_structures(47):
        T = build_tower(A, POL)
        for (kind, n), formula in _d0_s0_formulas(A).items():
            f, step = (T.faces[(n, 0)], -1) if kind == "d" else (T.degeneracies[(n, 0)], 1)
            source, target = T.codecs[n], T.codecs[n + step]
            assert f.multiplicative is maps.EXHAUSTIVE and f.note == "%s0@%d" % (kind, n)
            elements = list(maps._skeleton(source.level))
            if not source.level.is_finite():
                elements += [random_element(source.level, rng, max_degree=3) for _ in range(20)]
            for u in elements:
                assert f(u) == target.pack(*formula(*source.split(u))), (A, f.note)


# The tower's formulas as closures on components, before they became term
# tables: the element-level reference the tables must equal.  Faces and
# degeneracies take the components (r, e, e', l, e'', l', l'') of their
# level; a leaf action takes its actor's components, then the acted ones.
def _reference_faces(A):
    d1, d2 = A.d1, A.d2
    return {
        (1, 1): lambda r, e: (r + d1(e),),
        (2, 1): lambda r, e, e2, l: (r, e + e2),
        (2, 2): lambda r, e, e2, l: (r + d1(e), e2 + d2(l)),
        (3, 1): lambda r, e, e2, l, e3, l2, l3: (r, e, e2 + e3, l + l2),
        (3, 2): lambda r, e, e2, l, e3, l2, l3: (r, e + e2, e3, l2 + l3),
        (3, 3): lambda r, e, e2, l, e3, l2, l3: (r + d1(e), e2 + d2(l), e3 + d2(l2), l3),
    }


def _reference_degeneracies(A):
    zE, zL = A.E.zero(), A.L.zero()
    return {
        (1, 1): lambda r, e: (r, zE, e, zL),
        (2, 1): lambda r, e, e2, l: (r, e, zE, zL, e2, l, zL),
        (2, 2): lambda r, e, e2, l: (r, zE, e, zL, e2, zL, l),
    }


def _reference_actions(A):
    d1, d2, lift = A.d1, A.d2, A.lift
    act_e, act_l, act_prime = A.act_e, A.act_l, A.act_prime
    zE = A.E.zero()
    return {
        # (r, e) >. (e', l) = (ee' + r>e', d1(e)>l + r>l - {e' (x) e})
        "bullet": lambda r, e, e2, l: (
            e * e2 + act_e(r, e2), act_l(d1(e), l) + act_l(r, l) - lift(e2, e)),
        # (e, l'') >* l' = e >' l' + l''l'
        "star": lambda e, l3, l2: (act_prime(e, l2) + l3 * l2,),
        # e >1e (e', l, l') = (ee', d1(e)>l - {e' (x) e}, d1(e)>l')
        "one_e": lambda e, e2, l, l2: (
            e * e2, act_l(d1(e), l) - lift(e2, e), act_l(d1(e), l2)),
        # r >1r (e', l, l') = (r>e', r>l, r>l')
        "one_r": lambda r, e2, l, l2: (act_e(r, e2), act_l(r, l), act_l(r, l2)),
        # e >2e (e', l, l') = (ee', e>'l, d1(e)>l' - {d2(l)+e' (x) e})
        "two_e": lambda e, e2, l, l2: (
            e * e2, act_prime(e, l), act_l(d1(e), l2) - lift(d2(l) + e2, e)),
        # k >2l (e', l, l') = (0, e'>'k + kl, -{d2(l)+e' (x) d2(k)})
        "two_l": lambda k, e2, l, l2: (
            zE, act_prime(e2, k) + k * l, -lift(d2(l) + e2, d2(k))),
    }


def _tower_maps(T):
    """((kind, n, i), map) for every face ("d") and degeneracy ("s") of T."""
    return [(("d", n, i), f) for (n, i), f in T.faces.items()] + [
        (("s", n, i), f) for (n, i), f in T.degeneracies.items()]


def _reference_map(T, kind, n, i):
    """The reference of d_i or s_i at level n on elements, through the
    codecs: split, the formula on components, pack."""
    if i == 0:
        formula = _d0_s0_formulas(T.base)[(kind, n)]
    else:
        formula = (_reference_faces if kind == "d" else _reference_degeneracies)(T.base)[(n, i)]
    source, target = T.codecs[n], T.codecs[n - 1 if kind == "d" else n + 1]
    return lambda u: target.pack(*formula(*source.split(u)))


def _leaf_codecs(T):
    """The (actor, acted) codecs of each leaf action of the whole tower T."""
    R, lam1, lam2 = T.codecs[0], T.codecs[1], T.codecs[2]
    el, ell = lam2.halves[1], T.codecs[3].halves[1]
    E, L = el.halves
    return {"bullet": (lam1, el), "star": (el, L), "one_e": (E, ell), "one_r": (R, ell),
            "two_e": (E, ell), "two_l": (L, ell)}


def _reference_action(T, name):
    """The reference of the leaf action ``name`` of T on elements."""
    formula = _reference_actions(T.base)[name]
    actor, acted = _leaf_codecs(T)[name]
    return lambda x, m: acted.pack(*formula(*actor.split(x), *acted.split(m)))


def test_term_tables_equal_the_reference_formulas():
    """Every face, degeneracy and leaf action reads its key images from
    its term table entry; each equals the element-level reference: on
    every basis key, and every key pair, of the F0, F2, K2, asymmetric
    kernel and random F5 towers, and on sampled elements (with the
    generator skeleton) of F3's infinite levels."""
    rng = random.Random(53)
    structures = [fixtures.fixture(name) for name in ("F0", "F2", "F3")]
    structures += [load_spec(FIXTURES, POL).two_crossed["K2"], _mutant_inputs()[3]]
    structures += [random_two_crossed(PrimeField(5), rng, max_dim=2, policy=POL) for _ in range(4)]
    for A in structures:
        T = build_tower(A, POL)
        for key, f in _tower_maps(T):
            want = _reference_map(T, *key)
            elements = list(maps._skeleton(f.source))
            if not f.source.is_finite():
                elements += [random_element(f.source, rng, max_degree=3) for _ in range(12)]
            for u in elements:
                assert f(u) == want(u), (A, f.note)
        for name, (actor, acted) in _leaf_codecs(T).items():
            act, want = T.actions[name], _reference_action(T, name)
            xs, ms = maps._skeleton(actor.level), maps._skeleton(acted.level)
            pairs = [(x, m) for x in xs for m in ms]
            if not (actor.level.is_finite() and acted.level.is_finite()):
                pairs += [(random_element(actor.level, rng, max_degree=3),
                           random_element(acted.level, rng, max_degree=3)) for _ in range(12)]
            for x, m in pairs:
                assert act(x, m) == want(x, m), (A, name)


def test_towers_are_kept_on_their_structure():
    A = random_two_crossed(PrimeField(5), random.Random(8), max_dim=2, policy=POL)
    T = get_tower(A, POL)
    assert get_tower(A, POL) is T
    assert get_tower(A, Policy(samples=5, seed=1)) is not T
    structure, tower = weakref.ref(A), weakref.ref(T)
    del A, T
    gc.collect()
    assert structure() is None and tower() is None


def test_a_dropped_tower_is_freed_without_the_collector():
    """Nothing in a tower refers back to it: the faces, degeneracies and
    actions close over the levels' codecs, not over the tower."""
    gc.disable()
    try:
        tower = weakref.ref(f2_tower())
        assert tower() is None
    finally:
        gc.enable()


def test_composite_actions_are_built_from_the_stored_components():
    """>1, >2 and >t read their key images from the very component objects
    kept in the tower (their ``parts``), and keep no memo of their own; so
    evaluating >t fills the memos of the four leaves, and certifying >t
    certifies what T.actions holds."""
    T = f2_tower()
    acts = T.actions
    assert acts["one"].parts[0] is acts["one_r"] and acts["one"].parts[1] is acts["one_e"]
    assert acts["two"].parts[0] is acts["two_e"] and acts["two"].parts[1] is acts["two_l"]
    assert acts["dagger"].parts[0] is acts["one"] and acts["dagger"].parts[1] is acts["two"]
    leaves = ("one_e", "one_r", "two_e", "two_l")
    for name in leaves:
        acts[name]._memo.clear()
    dagger = acts["dagger"]
    for x in dagger.acting.basis_elements():
        for m in dagger.acted.basis_elements():
            dagger(x, m)
    for name in leaves:
        assert acts[name]._memo, name
    for name in SUMS:
        assert not acts[name]._memo, name
    for name in leaves + ("one", "two"):
        assert acts[name].certificate is dagger.certificate, name


# Each component of >t, as a one-term mutant: x > m gains c(x) m, where c(x)
# is the coefficient of x on the first basis key.  F2's R-actions are zero
# and its lifting is symmetric, so the single-term drops of the formulas
# leave A1/A2 of a component alone intact on F2 (the face checks reject
# them); this term breaks A2 of every component, since every actor algebra
# of F2 is nilpotent.  A component gains it in its key images: (k1, k2)
# gains the basis element of k2 when k1 is the actor's first basis key,
# which is c(x) m on basis elements; a leaf is a ``maps.FunctionAction``
# and a sum >1 or >2 a ``simplex._SumAction``.
COMPONENTS = ("one_e", "one_r", "one", "two_e", "two_l", "two")


def _with_identity_term(base, name):
    """The action class ``base`` whose action ``name`` gains the identity
    term c(x) m in its key images."""

    class Mutant(base):
        def _image(self, k1, k2):
            image = super()._image(k1, k2)
            if self.note != name or k1 != self.acting.basis_keys()[0]:
                return image
            return image + self.acted.basis_element(k2)

    return Mutant


@pytest.mark.parametrize("name", COMPONENTS)
def test_component_mutant_raises_its_own_error_from_build_tower(monkeypatch, name):
    """>t's check holds every component's law instances, so a broken
    component, which fails A1 or A2 when certified alone, makes
    build_tower raise >t's A1Violation or A2Violation, at a tuple whose
    actor lies in Lam2, >t's acting algebra."""
    F2 = fixtures.square_two_crossed()
    T = build_tower(F2, POL)
    real = T.actions[name]
    if name in SUMS:
        alone = _with_identity_term(simplex._SumAction, name)(real.origin, real.acting, real.parts, name)
    else:
        reference = _reference_action(T, name)
        alone = _with_identity_term(maps.FunctionAction, name)(
            real.acting, real.acted,
            lambda k1, k2: reference(real.acting.basis_element(k1), real.acted.basis_element(k2)), note=name)
    assert any(
        alone(x, m) != real(x, m)
        for x in real.acting.basis_elements()
        for m in real.acted.basis_elements()
    )
    with pytest.raises((A1Violation, A2Violation)):
        certify_action(alone, POL)
    _patch_component(monkeypatch, name)
    with pytest.raises((A1Violation, A2Violation)) as got:
        build_tower(F2, POL)
    assert got.value.witness[0].algebra.compatible(T.actions["dagger"].acting)
    assert got.value.lhs != got.value.rhs


def _patch_component(monkeypatch, name):
    """Give the component `name` of >t the identity term in the tower's
    construction."""
    base = "_SumAction" if name in SUMS else "FunctionAction"
    monkeypatch.setattr(simplex, base, _with_identity_term(getattr(simplex, base), name))


@pytest.mark.parametrize("variant", ["zero", "double", "one-sided"])
def test_semidirect_mixed_product_mutant_rejected_by_the_faces(monkeypatch, variant):
    """The semidirect products are certified by the lemma, not by a law
    check; a wrong mixed product r > e is still caught, by the
    multiplicativity checks of the faces and degeneracies."""
    real = SemidirectAlgebra.key_mul

    def key_mul(alg, k1, k2):
        out = real(alg, k1, k2)
        if k1[0] == k2[0]:
            return out
        if variant == "zero" or (variant == "one-sided" and k1[0] == 1):
            return alg.zero()
        if variant == "double":
            return out + out
        return out

    F2 = fixtures.square_two_crossed()
    monkeypatch.setattr(SemidirectAlgebra, "key_mul", key_mul)
    with pytest.raises(MorphismViolation):
        build_tower(F2, POL)


def test_work_count_of_one_tower_build(monkeypatch):
    """The law tuples one finite tower build evaluates.  Before the
    semidirect lemma it was 43 calls and 2,767 tuples: 10 calls and 1,504
    tuples re-proved commutativity and associativity of the five
    semidirect products, and 12 calls and 304 tuples certified the six
    components of >t, whose instances >t's own basis check contains.

    Then it was [21, 959], every law on the full bases.  The finite
    generator rule takes it to [21, 631]: each face and degeneracy is
    checked for a on a generating set of its proved source
    (``maps.certify_multiplicative``), and each action's A2 for r1 and A1
    for r and m1 on generating sets (``maps.certify_action``); F2's E has
    a^2 = b, so G(E) = {a}, and the levels' sets are unions of the parts'.

    Then it was [21, 631].  The d0/s0 lemma takes it to [15, 500]: d0@1..3
    and s0@0..2 are the projection of Lam_n = Lam_{n-1} |x X onto Lam_{n-1}
    and its inclusion, algebra maps for any bilinear action since
    (x, y)(x', y') = (xx', ...) (``simplex._by_construction``), so their six
    multiplicativity checks (131 tuples) are not run; the simplicial
    identities still check them against the other maps.

    Then it was [15, 500].  The slot-triangle lemma takes it to [15, 366]:
    each face and degeneracy out of Lam_n = X |x Y is checked on a pair
    (g, b), g in the generating set and b in the basis, only when b's slot
    is not before g's (``maps.certify_multiplicative``: f|X and f|Y by the
    generator lemma, X x Y because Y is an ideal, Y x X by commutativity);
    the 134 pairs outside the triangle are decided by the symmetry of the
    source product instead, which is not a law tuple.

    Then it was [15, 366].  The left-part lemma takes it to [15, 299]: on
    the left part Lam_{n-1} of Lam_n = Lam_{n-1} |x X, d1 is the identity
    and d_i (i >= 2) and s_i (i >= 1) are s0 o g for a map g certified
    before them (d1 s0 = id, d_i s0 = s0 d_{i-1}, s_i s0 = s0 s_{i-1}).
    Once f(0, k) = s0(g(k)) holds on the dim Lam_{n-1} basis keys k, f
    restricted to Lam_{n-1} is that algebra map, so the pairs of
    Lam_{n-1}'s block of the slot triangle, and the symmetry checks among
    them, are implied (``maps.certify_multiplicative``); the pairs of
    Lam_{n-1}'s generators with X's basis and X's own triangle are checked
    as before.
    A change that checks less must edit this pin and say why."""
    F2 = fixtures.square_two_crossed()
    seen = _count_law_tuples(monkeypatch)
    build_tower(F2, Policy(10, 4, 0))
    assert seen == [15, 299]


def _count_law_tuples(monkeypatch):
    """[calls, tuples] of law_tuples wherever xmod2 calls it, as a list
    that fills while the patch lasts."""
    real = maps.law_tuples
    seen = [0, 0]

    def counting(*args, **kwargs):
        tuples, exhaustive = real(*args, **kwargs)
        seen[0] += 1
        seen[1] += len(tuples)
        return tuples, exhaustive

    for name, module in list(sys.modules.items()):
        if name.startswith("xmod2") and getattr(module, "law_tuples", None) is real:
            monkeypatch.setattr(module, "law_tuples", counting)
    return seen


def _truncated_kernel(n, ring, pol):
    """The kernel 2-crossed module of E -> R with E = <u0..u(n-1);
    ui uj = u(i+j+1)>, R = <r> with r^2 = 0, d = 0: L = E."""
    labels = ["u%d" % i for i in range(n)]
    E = make_finite_algebra(labels, {
        (labels[i], labels[j]): {labels[i + j + 1]: 1}
        for i in range(n) for j in range(n) if i + j + 1 < n
    }, ring)
    R = make_finite_algebra(["r"], {}, ring)
    d = maps.algebra_morphism(E, R, images={k: R.zero() for k in labels}, policy=pol)
    return kernel_two_crossed(make_precrossed(E, R, d, maps.zero_action(R, E), pol), pol)


def test_work_count_of_build_and_identities(monkeypatch):
    """[calls, tuples] of law_tuples in build_tower plus
    check_simplicial_identities, wherever xmod2 calls it, on F2, K2 and the
    n = 3 and n = 12 truncated kernels at Policy(10, 4, 0).  A speed-up
    must not come from checking less: a change that checks less must edit
    this pin and say why.

    With every law on the full bases the pin was F2 and K2 [54, 1139], T3
    [54, 4524] and T12 [54, 150468].  The finite generator rule checks the
    multiplicativity of faces and degeneracies, A1 and A2 and the
    simplicial identities on generating sets; the lemmas are in
    ``maps.certify_multiplicative``, ``maps.certify_action`` and
    ``simplex.check_simplicial_identities``.  The truncated kernels' E = L
    is generated by u0, so G(Lam3) of T12 has 7 of its 73 basis elements.

    That pin was F2 and K2 [54, 754], T3 [54, 1510] and T12 [54, 10240].
    The d0/s0 lemma (``simplex._by_construction``: d0 is the projection of
    Lam_n = Lam_{n-1} |x X, s0 the inclusion, algebra maps for any bilinear
    action) leaves out the six multiplicativity checks of d0@1..3 and
    s0@0..2 on every tower; the 33 identities are checked as before.

    That pin was F2 and K2 [48, 623], T3 [48, 1280] and T12 [48, 9380].
    The slot-triangle lemma (``maps.certify_multiplicative``: out of a
    proved finite X |x Y into a proved target, the law on G_X x B_X,
    G_X x B_Y and G_Y x B_Y suffices, so, down the nested parts, a pair is
    checked only when its basis element's slot is not before its
    generator's) leaves the other pairs of the faces' and degeneracies'
    multiplicativity checks to the symmetry of the source product.

    That pin was F2 and K2 [48, 489], T3 [48, 1077] and T12 [48, 8664].
    The left-part lemma (``maps.certify_multiplicative``: a face or
    degeneracy f with i >= 1 is s0 o g on the left part Lam_{n-1} of
    Lam_n, or the identity for d1, and once f(0, k) = s0(g(k)) on a basis
    of Lam_{n-1}, the block of Lam_{n-1} in its slot triangle is implied)
    leaves out that block of each check.  Those comparisons are the
    identities d1.s0=id@0..2, d2.s0=s0.d1@1, d2.s0=s0.d1@2, d3.s0=s0.d2@2,
    s1.s0=s0.s0@0, s1.s0=s0.s0@1 and s2.s0=s0.s1@1 on a basis, so
    check_simplicial_identities reports those nine without checking them
    again: 9 calls fewer."""
    pol = Policy(10, 4, 0)
    structures = {
        "F2": fixtures.square_two_crossed(),
        "K2": load_spec(FIXTURES, pol).two_crossed["K2"],
        "T3": _truncated_kernel(3, PrimeField(5), pol),
        "T12": _truncated_kernel(12, PrimeField(5), pol),
    }
    seen = _count_law_tuples(monkeypatch)
    counts = {}
    for name, A in structures.items():
        seen[:] = [0, 0]
        T = build_tower(A, pol)
        assert all(ok for _, ok, _ in check_simplicial_identities(T, pol))
        counts[name] = list(seen)
    assert counts == {"F2": [39, 400], "K2": [39, 400], "T3": [39, 941], "T12": [39, 8213]}


# One wrong term in one entry of a term table (DeMillo, Lipton and Sayward,
# 1978), generated from the tables: for every entry of ``simplex._FACES``,
# ``_DEGENERACIES`` and ``_ACTIONS``, each term dropped ("-without-"), each
# term's sign flipped ("-flipped-"), and each lifting term's arguments
# swapped ("-swapped"); where the table splits one lifting of the paper,
# {d2(l) + e' (x) e}, into a term per summand, that whole lifting swapped
# too ("-lift-swapped").  A term is named as the paper writes it, and an
# entry's only lifting "lift"; the entry (n, i) of d_i or s_i at level n is
# named d<n>@<i> or s<n>@<i>, level first, as the hand-written mutants were.
# One hand-made mutant adds a term: s1@1 with e in both its E slots.  Each
# value is (table, key, entry).  ``tests/test_t_laws.py`` generates the
# t-laws' mutants with the same ``_entry_mutants``; an argument that is a
# chain of maps is named as it is written, s(d1(e)).
def _arg_name(arg):
    return arg if isinstance(arg, str) else "(".join(arg) + ")" * (len(arg) - 1)


def _term_name(term, lifts):
    if len(term) == 3:
        return _arg_name(term[2])
    op, x, y = term[2], _arg_name(term[3]), _arg_name(term[4])
    if op == "lift":
        return "lift" if lifts == 1 else "{%s(x)%s}" % (x, y)
    return {"mul": "%s%s", "act_e": "%s>%s", "act_l": "%s>%s", "act_prime": "%s>'%s"}[op] % (x, y)


def _swapped(term):
    return term[:3] + (term[4], term[3])


def _entry_mutants(prefix, table, key, terms, wrap):
    """{name: (table, key, entry)} for the one-term mutants of an entry's
    terms; wrap(terms) is the entry that holds them."""
    lifts = [i for i, t in enumerate(terms) if len(t) == 5 and t[2] == "lift"]
    out = {}

    def add(name, new_terms):
        out["%s-%s" % (prefix, name)] = (table, key, wrap(tuple(new_terms)))

    for i, term in enumerate(terms):
        name = _term_name(term, len(lifts))
        add("without-" + name, terms[:i] + terms[i + 1:])
        add("flipped-" + name, terms[:i] + ((-term[0],) + term[1:],) + terms[i + 1:])
        if i in lifts and len(lifts) > 1:
            add(name + "-swapped", terms[:i] + (_swapped(term),) + terms[i + 1:])
    if lifts:
        add("lift-swapped", [_swapped(t) if i in lifts else t for i, t in enumerate(terms)])
    return out


def _generated_mutants():
    out = {}
    for table, tag in (("_FACES", "d"), ("_DEGENERACIES", "s")):
        for (n, i), terms in getattr(simplex, table).items():
            out.update(_entry_mutants("%s%d@%d" % (tag, n, i), table, (n, i), terms, lambda t: t))
    for note, (actor, acted, terms) in simplex._ACTIONS.items():
        out.update(_entry_mutants(note, "_ACTIONS", note, terms, lambda t, a=actor, m=acted: (a, m, t)))
    s11 = simplex._DEGENERACIES[(1, 1)]
    out["s1@1-with-e-twice"] = ("_DEGENERACIES", (1, 1), s11 + ((1, "e", "e"),))
    return out


FORMULA_MUTANTS = _generated_mutants()

# The mutants no input rejects, each equivalent to the tables or untested
# for a stated reason: the names MUTANTS.md lists in its ledger, the
# tower's and the t-laws' alike, one "- `name`: reason" line each.
MUTANTS_LEDGER = os.path.join(os.path.dirname(__file__), os.pardir, "MUTANTS.md")


def _ledger():
    with open(MUTANTS_LEDGER, encoding="utf-8") as fh:
        return {line.split("`")[1] for line in fh if line.startswith("- `")}


def _square_kernel(c, v, ring, pol, labels=("a", "b")):
    """Kernel 2-crossed module of E = <a, b; a^2 = b> -> R = <p; p^2 = 0>,
    d(a) = c p, p > a = v b, with E's basis listed in the order ``labels``."""
    R = make_finite_algebra(["p"], {}, ring)
    E = make_finite_algebra(list(labels), {("a", "a"): {"b": 1}}, ring)
    act = maps.make_action(R, E, {"p": {"a": E.element({"b": v})}}, pol)
    d = maps.algebra_morphism(E, R, images={"a": R.element({"p": c}), "b": R.zero()}, policy=pol)
    return kernel_two_crossed(make_precrossed(E, R, d, act, pol), pol)


def _asymmetric_kernel(ring, pol):
    """Kernel 2-crossed module of E = <u0, u1, u2> -> R = <u0>, all products
    zero, d(u1) = 4 u0, d(u2) = u0, u0 > u2 = 2 u0 (over F5 the structure
    random_two_crossed draws from Random(48) at max_dim=3).  Its lifting is
    asymmetric and R > L is nonzero, which the other inputs lack."""
    R = make_finite_algebra(["u0"], {}, ring)
    E = make_finite_algebra(["u0", "u1", "u2"], {}, ring)
    d = maps.algebra_morphism(
        E, R, images={"u0": R.zero(), "u1": R.element({"u0": 4}), "u2": R.basis_element("u0")}, policy=pol
    )
    act = maps.make_action(R, E, {"u0": {"u2": E.element({"u0": 2})}}, pol)
    return kernel_two_crossed(make_precrossed(E, R, d, act, pol), pol)


@functools.cache
def _mutant_inputs():
    F5 = PrimeField(5)
    return (
        fixtures.square_two_crossed(),
        _truncated_kernel(3, F5, POL),
        _square_kernel(1, 2, F5, POL),
        _asymmetric_kernel(F5, POL),
    )


def test_asymmetric_kernel_is_a_valid_input():
    T = build_tower(_mutant_inputs()[3], POL)
    assert [len(level.basis_keys()) for level in T.levels] == [1, 4, 9, 16]
    assert all(ok for _, ok, _ in check_simplicial_identities(T, POL))


def _rejected(structures):
    """Whether a tower over one of the structures is rejected: build_tower
    raises, or a simplicial identity fails."""
    for A in structures:
        try:
            T = build_tower(A, POL)
        except XmodError:
            return True
        if not all(ok for _, ok, _ in check_simplicial_identities(T, POL)):
            return True
    return False


@pytest.mark.parametrize("table, key, mutant", [
    pytest.param(*entry, id=name) for name, entry in FORMULA_MUTANTS.items()
])
def test_formula_table_mutant_is_rejected(monkeypatch, request, table, key, mutant):
    """Every face, degeneracy and leaf action is built from its entry in a
    term table, so a wrong entry reaches the tower, where it is rejected
    on F2, on the n = 3 truncated kernel over F5, on the square kernel
    with d(a) = p, p > a = 2b over F5, or on the asymmetric kernel over F5
    (the only input with an asymmetric lifting and R > L nonzero):
    build_tower raises (a face or degeneracy is not multiplicative, an
    action breaks A1 or A2), or a simplicial identity fails.  A mutant in
    the ledger of MUTANTS.md survives every input instead, so the set of
    survivors is the ledger."""
    name = request.node.callspec.id
    _patch_formula(monkeypatch, table, key, mutant)
    assert _rejected(_mutant_inputs()) is (name not in _ledger()), name


def test_the_mutant_ledger_names_generated_mutants():
    """Every tower survivor the ledger names is a generated mutant, so a
    change to the tables that renames or removes one must update the
    ledger.  The t-law survivors, whose names begin with their law's,
    are checked in ``tests/test_t_laws.py``."""
    tower = {name for name in _ledger() if not name.startswith("t-")}
    assert tower and tower <= set(FORMULA_MUTANTS)


def _patch_formula(monkeypatch, table, key, entry):
    monkeypatch.setitem(getattr(simplex, table), key, entry)


def _element_path(monkeypatch):
    """Make every law check evaluate its tuples on elements over the full
    bases: no key kernel and no generator rule.  A check on generating sets
    must reach the verdict this reaches; where its first failure is also
    the first on the bases, it finds the same witness."""
    real = maps.check_law
    patch_everywhere(
        monkeypatch, real, lambda *args, on_keys=None, generators=(), **kwargs: real(*args, **kwargs))


def _build_outcome(A):
    """None, or the error build_tower raises: its type, message, witness
    tuple and both sides, as text."""
    try:
        build_tower(A, POL)
    except XmodError as exc:
        witness = getattr(exc, "witness", None)
        return (type(exc), str(exc), witness and [str(u) for u in witness],
                str(getattr(exc, "lhs", None)), str(getattr(exc, "rhs", None)))
    return None


def _agreement_structures():
    F5 = PrimeField(5)
    rng = random.Random(2024)
    return [
        fixtures.zero_two_crossed(),
        fixtures.square_two_crossed(),
        load_spec(FIXTURES, POL).two_crossed["K2"],
        _truncated_kernel(3, F5, POL),
        _square_kernel(1, 2, F5, POL),
    ] + [random_two_crossed(F5, rng, policy=POL) for _ in range(5)]


def _generated_dim(alg, gens):
    """The dimension of the subalgebra of alg that the elements gens
    generate, by element products and ``rings.rref``: each round multiplies
    the elements that raised the rank by every generator."""
    keys, ring, rows = alg.basis_keys(), alg.ring, []

    def raises_rank(u):
        rows.append([u.coeffs.get(k, ring.zero) for k in keys])
        if len(rref([list(row) for row in rows], len(keys), ring)) == len(rows):
            return True
        rows.pop()
        return False

    frontier = [g for g in gens if raises_rank(g)]
    while frontier:
        frontier = [p for p in (u * g for u in frontier for g in gens) if raises_rank(p)]
    return len(rows)


def test_key_path_certifies_what_the_element_path_certifies(monkeypatch):
    """Every finite action, face and degeneracy of the towers gets the same
    certificate from its basis-key check as from check_law on elements,
    and the generating set each level records generates it."""
    checked = 0
    for A in _agreement_structures():
        T = build_tower(A, POL)
        for level in T.levels:
            basis = level.basis_elements()
            gens = [basis[i] for i in level.generating_positions()]
            assert _generated_dim(level, gens) == level.dim(), level
        laws = [(certify_action, act) for act in T.actions.values()
                if act.acting.is_finite() and act.acted.is_finite()]
        laws += [(maps.certify_multiplicative, f)
                 for f in list(T.faces.values()) + list(T.degeneracies.values())]
        by_keys = [certify(x, POL) for certify, x in laws]
        with monkeypatch.context() as patch:
            _element_path(patch)
            on_elements = [certify(x, POL) for certify, x in laws]
        assert by_keys == on_elements == [maps.EXHAUSTIVE] * len(laws)
        checked += len(laws)
    assert checked == 10 * (10 + 15)


def _multiplicative_outcome(f):
    """The certificate certify_multiplicative gives f, or the error it
    raises: its type, message, witness tuple and both sides, as text."""
    try:
        return maps.certify_multiplicative(f, POL)
    except XmodError as exc:
        return type(exc), str(exc), [str(u) for u in exc.witness], str(exc.lhs), str(exc.rhs)


def _perturbed_faces(rng, count):
    """Table copies of every face of ``count`` towers drawn over F3 and
    ``count`` over F5, each with one or two key images moved by a random
    multiple (zero included) of a random basis element of its target."""
    out = []
    for field in (PrimeField(3), PrimeField(5)):
        for _ in range(count):
            T = build_tower(random_two_crossed(field, rng, max_dim=2, policy=POL), POL)
            for f in T.faces.values():
                keys, targets = f.source.basis_keys(), f.target.basis_elements()
                images = {k: f._image(k) for k in keys}
                for k in rng.sample(keys, rng.choice((1, 2))):
                    images[k] = images[k] + rng.choice(targets).scale(field.random(rng))
                out.append(maps.linear_map(f.source, f.target, images))
    return out


def test_slot_triangle_decides_what_the_full_basis_decides(monkeypatch):
    """Multiplicativity out of a semidirect product is checked on the slot
    triangle of its generating set and basis (``maps.certify_multiplicative``).
    On faces with one or two key images perturbed, over towers drawn over
    F3 and F5, its verdict, error, witness and sides are those of the
    element check on the full basis, and it evaluates fewer tuples."""
    faces = _perturbed_faces(random.Random(61), 40)
    seen = _count_law_tuples(monkeypatch)
    by_triangle = [_multiplicative_outcome(f) for f in faces]
    triangle_tuples = seen[1]
    monkeypatch.undo()
    _element_path(monkeypatch)
    seen = _count_law_tuples(monkeypatch)
    assert by_triangle == [_multiplicative_outcome(f) for f in faces]
    rejected = sum(outcome is not maps.EXHAUSTIVE for outcome in by_triangle)
    assert 0 < rejected < len(faces) == 720 and triangle_tuples < seen[1]


def _without_left_parts(monkeypatch):
    """The plain path of the left-part lemma: build_tower certifies each
    face and degeneracy with no left part, so it shows no identity, and
    check_simplicial_identities evaluates all of them."""
    real = maps.certify_multiplicative
    monkeypatch.setattr(simplex, "certify_multiplicative",
                        lambda f, policy=maps.DEFAULT_POLICY, left=None: real(f, policy))


def _left_part_structures():
    """F2, towers drawn over F2 and F5, and the truncated kernels of
    dimension 2 to 5, whose Lam3 has dimension 13 to 31."""
    rng = random.Random(37)
    drawn = [random_two_crossed(PrimeField(p), rng, max_dim=2, policy=POL) for p in (2, 5) for _ in range(6)]
    rungs = [_truncated_kernel(n, PrimeField(5), POL) for n in (2, 3, 4, 5)]
    return [fixtures.square_two_crossed()] + drawn + rungs


def _tower_report(A):
    """The certificates of a tower over A (actions, faces, degeneracies),
    its identity entries, and those of the tower with d2@2 replaced by one
    without its d2(l) term (``with_face``)."""
    T = build_tower(A, POL)
    certs = [act.certificate for act in T.actions.values()]
    certs += [f.multiplicative for f in (*T.faces.values(), *T.degeneracies.values())]
    broken = check_simplicial_identities(_without_d2l(T), POL)
    return certs, check_simplicial_identities(T, POL), broken, len(T.shown)


def _mutant_report(A):
    """The error build_tower raises over A (``_build_outcome``), or the
    identity entries of its tower."""
    return _build_outcome(A) or check_simplicial_identities(build_tower(A, POL), POL)


def test_left_part_lemma_decides_what_the_plain_path_decides(monkeypatch):
    """Each face and degeneracy d_i, s_i (i >= 1) is certified with the maps
    it equals on the left part Lam_{n-1} of Lam_n = Lam_{n-1} |x X
    (``maps.certify_multiplicative``'s left-part lemma), and the nine
    identities those comparisons show are not evaluated again.  With the
    left parts withheld (so nothing is shown), every certificate, identity
    entry and witness is the same, on F2, drawn towers and the rungs, and on
    each with a with_face replacement of d2@2, which still fails
    d3.s0=s0.d2@2; and the lemma evaluates fewer law tuples.  A formula
    mutant that changes a term of the left slots, d2@2 without d1(e), fails
    the comparison and takes the plain path: where its tower builds, the
    identity d2.s0=s0.d1@1 is evaluated and fails on F2, and on two other
    inputs it raises the plain path's error and witness."""
    structures = _left_part_structures()
    seen = _count_law_tuples(monkeypatch)
    by_lemma = [_tower_report(A) for A in structures]
    lemma_tuples = seen[1]
    _patch_formula(monkeypatch, *FORMULA_MUTANTS["d2@2-without-d1(e)"])
    mutant = [_mutant_report(A) for A in _mutant_inputs()]
    monkeypatch.undo()
    _without_left_parts(monkeypatch)
    seen = _count_law_tuples(monkeypatch)
    plain = [_tower_report(A) for A in structures]
    assert [report[:3] for report in by_lemma] == [report[:3] for report in plain]
    assert [report[3] for report in by_lemma] == [9] * len(structures)
    assert [report[3] for report in plain] == [0] * len(structures)
    assert lemma_tuples < seen[1]
    assert "d3.s0=s0.d2@2" in {name for name, ok, _ in by_lemma[0][2] if not ok}  # F2
    _patch_formula(monkeypatch, *FORMULA_MUTANTS["d2@2-without-d1(e)"])
    assert mutant == [_mutant_report(A) for A in _mutant_inputs()]
    assert "d2.s0=s0.d1@1" in {name for name, ok, _ in mutant[0] if not ok}  # F2
    assert [outcome[0] for outcome in mutant[2:]] == [MorphismViolation] * 2


# The element path is slow, so it takes the kinds of mutants the hand-written
# suite held: the drops, the whole-lifting swaps and the added term, on
# every entry but d0 and s0, which no law check reads (the simplicial
# identities check them, and ``test_identity_witnesses_are_the_full_basis_checks``
# compares those checks with the element path).
ELEMENT_PATH_MUTANTS = {
    name: (table, key, entry) for name, (table, key, entry) in FORMULA_MUTANTS.items()
    if ("-without-" in name or name.endswith("-lift-swapped") or name == "s1@1-with-e-twice")
    and not (table != "_ACTIONS" and key[1] == 0)
}


@pytest.mark.parametrize("table, key, mutant", [
    pytest.param(*entry, id=name) for name, entry in ELEMENT_PATH_MUTANTS.items()
])
def test_formula_mutant_raises_what_the_element_path_raises(monkeypatch, table, key, mutant):
    """A mutant fails at the same first tuple on basis keys as on elements:
    the error's type, witness and both sides are the element check's."""
    _patch_formula(monkeypatch, table, key, mutant)
    by_keys = [_build_outcome(A) for A in _mutant_inputs()]
    _element_path(monkeypatch)
    assert by_keys == [_build_outcome(A) for A in _mutant_inputs()]


def _without_d2l(T):
    """T with d2@2 replaced by an uncertified map without its d2(l) term."""
    lam1, d1 = T.levels[1], T.base.d1

    def fn(u):
        r, e, e2, _ = T.split2(u)
        return lam1.pair(r + d1(e), e2)

    return _mutant(T, 2, 2, fn)


def _recorded_failures(patch):
    """Every LawViolation that check_law raises, wherever xmod2 calls it,
    with the law's two sides, as a list that fills while ``patch`` lasts."""
    real, failures = maps.check_law, []

    def recording(algebras, lhs, rhs, *args, **kwargs):
        try:
            return real(algebras, lhs, rhs, *args, **kwargs)
        except LawViolation as exc:
            failures.append((exc, lhs, rhs))
            raise

    patch_everywhere(patch, real, recording)
    return failures


def test_identity_witnesses_are_the_full_basis_checks(monkeypatch):
    """On the broken-d2 tower five identities fail, checked on the basis
    because their broken face is uncertified.  With d1@1 replaced by the
    certified d0@1, or d2@2 by d1@2, the identities through it are algebra
    maps, checked on a generating set and raised where they fail there.
    Over the square kernel that lists b before a, the first failing basis
    element is not a generator, so the two checks may report different
    witnesses.  Each tower gives the verdicts of element checks over the
    full bases, and every witness is a failing basis element."""
    T = f2_tower()
    S = build_tower(_square_kernel(1, 2, PrimeField(5), POL, labels=("b", "a")), POL)
    towers = [_without_d2l(T), with_face(T, 1, 1, T.faces[(1, 0)]), with_face(S, 2, 2, S.faces[(2, 1)])]
    with monkeypatch.context() as patch:
        failures = _recorded_failures(patch)
        by_keys = [check_simplicial_identities(t, POL) for t in towers]
    assert len(failures) == 5 + 3 + 7
    for exc, lhs, rhs in failures:
        assert_failing_basis_tuple(exc, lhs, rhs)
    _element_path(monkeypatch)
    plain = [check_simplicial_identities(t, POL) for t in towers]
    assert [[e[:2] for e in entries] for entries in by_keys] == [[e[:2] for e in entries] for entries in plain]
    assert [len([e for e in entries if not e[1]]) for entries in by_keys] == [5, 3, 7]


@pytest.mark.parametrize("name", COMPONENTS)
def test_component_mutant_raises_what_the_element_path_raises(monkeypatch, name):
    F2 = fixtures.square_two_crossed()
    _patch_component(monkeypatch, name)
    by_keys = _build_outcome(F2)
    assert by_keys is not None
    _element_path(monkeypatch)
    assert by_keys == _build_outcome(F2)


# [calls, tuples] of law_tuples up to the error: one law_tuples call per
# law, a failing one included, since a failing basis-key check finds its
# witness in that call's tuples.  The history below ends with the pins of
# the replay, when a failure on a generating set took one more call, on the
# full bases, for the witness the basis check finds.
#
# star-without-l''l' on T3: with every law on the bases it was [6, 1455],
# A1 and A2 of >. and >*, A1 of >t, which fails, then A1 of its first
# component >1e, which fails too.  On generating sets A2 comes first and
# each A1 that fails is decided again on the bases: >. and >* 2 calls
# each, >t and >1e 3 each (A2 on G, A1 on G, A1 on the bases), [10, 1689].
#
# d2@2-without-d2(l) on F2: it was [11, 432], A1 and A2 of the three
# actions of the tower and then d0@1, d1@1, d0@2, d1@2 and d2@2, which
# fails.  With a on generating sets and the failing d2@2 decided again on
# the basis, it was [12, 302].  d0@1 and d0@2 are the semidirect
# projections, algebra maps by construction (``simplex._by_construction``),
# so their two checks (30 tuples) are not run: [10, 272].  The slot-triangle
# lemma (``maps.certify_multiplicative``) checks d1@1, d1@2 and the failing
# d2@2 on the pairs whose basis element's slot is not before the generator's
# (d2@2 is then decided again on the full basis, for its witness): [10, 253].
# The left-part lemma (``maps.certify_multiplicative``) leaves out the block
# of the left part Lam_{n-1} in the triangles of d1@1, d1@2 and d2@2: d1 is
# the identity there, and the failing d2@2 loses only its d2(l) term, which
# reads the l slot, so it still agrees with s0 o d1@1 on Lam1.  It fails on
# the smaller triangle and is decided again on the full basis, for the same
# witness: [10, 242].
#
# Without the replay.  The lemma: a failing tuple on a generating set (or on
# the slot triangle) is a tuple of basis elements where the law fails, so
# the rejection is proved there, and no second call is needed to find one.
# star-without-l''l' was [10, 1689] and is [6, 582]: A2 and then A1 of >.,
# >* and >t, each once, on generating sets; A1 of >t fails, and is raised
# as >t's error, with no component certified after it.  d2@2-without-d2(l)
# was [10, 242] and is [9, 206]: the failing d2@2 is not decided again.
@pytest.mark.parametrize("name, structure, error, counts", [
    ("star-without-l''l'", 1, A1Violation, [6, 582]),  # A1 of >t on T3
    ("d2@2-without-d2(l)", 0, MorphismViolation, [9, 206]),  # d2 at level 2 on F2
])
def test_work_count_of_a_rejected_build(monkeypatch, name, structure, error, counts):
    _patch_formula(monkeypatch, *FORMULA_MUTANTS[name])
    A = _mutant_inputs()[structure]
    seen = _count_law_tuples(monkeypatch)
    with pytest.raises(error):
        build_tower(A, POL)
    assert seen == counts


def test_each_law_is_decided_once_and_every_failure_has_two_sides(monkeypatch):
    """check_law calls law_tuples once per call, on a law that fails on a
    generating set too: over E = <b, a; a^2 = b>, G = {a}, the map with
    f(b) = t idempotent and f(a) = 0 fails at (a, a), on the 2 tuples of
    G x E.  Every LawViolation raised from the corrupted F2 variants, and
    from the tower's inputs under each formula mutant, has two different
    sides."""
    F5 = PrimeField(5)
    E = make_finite_algebra(["b", "a"], {("a", "a"): {"b": 1}}, F5)
    T = make_finite_algebra(["t"], {("t", "t"): {"t": 1}}, F5)
    seen = _count_law_tuples(monkeypatch)
    with pytest.raises(MorphismViolation):
        maps.algebra_morphism(E, T, images={"b": T.basis_element("t"), "a": T.zero()})
    assert seen == [1, 2]

    failures, raised = _recorded_failures(monkeypatch), []
    for _, thunk, _, _, _ in fixtures.corrupted_f2_variants():
        with pytest.raises(XmodError) as err:
            thunk()
        raised.append(err.value)
    for table, key, entry in FORMULA_MUTANTS.values():
        with monkeypatch.context() as patch:
            patch.setitem(getattr(simplex, table), key, entry)
            _rejected(_mutant_inputs())
    laws = [exc for exc, _, _ in failures] + [exc for exc in raised if isinstance(exc, LawViolation)]
    assert len(laws) > len(FORMULA_MUTANTS)
    assert all(exc.lhs != exc.rhs for exc in laws)


def _finite_generated_module():
    """A 2-crossed module over the finite R = <u0, u1; u0^2 = u1> over F5,
    generated by u0 alone, acting on E = F5{a, b} (zero product) by
    u0 > a = b; d1, d2, the action on L = F5{l} and the lifting vanish."""
    F5 = PrimeField(5)
    R = make_finite_algebra(["u0", "u1"], {("u0", "u0"): {"u1": 1}}, F5)
    E = make_finite_algebra(["a", "b"], {}, F5)
    L = make_finite_algebra(["l"], {}, F5)
    act_e = maps.make_action(R, E, {"u0": {"a": E.basis_element("b")}}, POL)
    return make_two_crossed(
        L, E, R, maps.algebra_morphism(L, E, images={"l": E.zero()}),
        maps.algebra_morphism(E, R, images={"a": R.zero(), "b": R.zero()}),
        act_e, maps.zero_action(R, L), maps.zero_bilinear(E, E, L), POL,
    )


def _morphism_outcome(A, f1):
    """The error make_2cm_morphism(A, A, id, f1, id) raises: its type,
    message, witness tuple and both sides, as text."""
    try:
        make_2cm_morphism(A, A, maps.identity_map(A.R), f1, maps.identity_map(A.L), POL)
    except XmodError as exc:
        return type(exc), str(exc), [str(u) for u in exc.witness], str(exc.lhs), str(exc.rhs)
    return None


def test_equivariance_over_a_finite_r_takes_the_generator_rule(monkeypatch):
    """f1- and f2-equivariance take r on G_R over a finite R too: the
    closure lemma of make_2cm_morphism uses only A2 of both actions and f0.
    So f1-equivariance is EXHAUSTIVE on |G_R| dim E = 2 tuples, where the
    basis check takes dim R dim E = 4, and f2-equivariance on |G_R| dim L
    = 1 instead of 2.  A map that breaks f1-equivariance fails on G_R at
    u0, which the basis lists first, so it raises what the basis check
    raises."""
    A = _finite_generated_module()
    R, E, L = A.R, A.E, A.L
    gens = maps._generating(R)
    assert [u.coeffs for u in gens] == [{"u0": 1}] and len(gens) < R.dim()
    seen = _count_law_tuples(monkeypatch)
    f = make_2cm_morphism(A, A, maps.identity_map(R), maps.identity_map(E), maps.identity_map(L), POL)
    assert f.certificates["f1-equivariance"] == maps.EXHAUSTIVE
    # d1-square, d2-square, f1- and f2-equivariance on G_R, lifting
    assert seen == [5, E.dim() + L.dim() + len(gens) * E.dim() + len(gens) * L.dim() + E.dim() ** 2]
    a, b = E.basis_element("a"), E.basis_element("b")
    broken = maps.linear_map(E, E, {"a": a, "b": 2 * b})  # f1(u0 > a) = 2b, u0 > f1(a) = b
    by_generators = _morphism_outcome(A, broken)
    assert by_generators[0] is EquivarianceViolation and by_generators[2] == ["u0", "a"]
    _element_path(monkeypatch)
    assert by_generators == _morphism_outcome(A, broken)
