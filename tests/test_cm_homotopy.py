import random

import pytest

from xmod2 import fixtures
from xmod2.algebra import make_finite_algebra, make_free_algebra
from xmod2.cm_homotopy import (
    cm_groupoid_check,
    concat_cm,
    invert_cm,
    make_cm_derivation,
    zero_cm_derivation,
)
from xmod2.crossed import identity_cm_morphism, ideal_inclusion_cm, make_cm_morphism, make_crossed
from xmod2.errors import BadShape, CompositionMismatch, DerivationLawViolation
from xmod2.maps import DEFAULT_POLICY, Certificate, Policy, algebra_morphism, zero_action
from xmod2.randgen import random_cm_derivation, random_cm_morphism
from xmod2.rings import QQ
from xmod2.simplex import get_tower


def f1_setup():
    cm = fixtures.ideal_crossed()
    return cm, identity_cm_morphism(cm)


def test_derivation_accepted_and_law_checked_by_hand():
    cm, f = f1_setup()
    E = cm.E
    s = make_cm_derivation(f, {"x": E.basis_element("x2"), "x2": E.zero()})
    # law at (x, x): s(x^2) = 2 x > s(x) + s(x)^2 = 0
    x = cm.R.basis_element("x")
    assert s.s(x * x).is_zero()
    assert s.certificates["s-law"].exhaustive


def test_zero_derivation_connects_f_to_f():
    cm, f = f1_setup()
    z = zero_cm_derivation(f)
    assert z.target.equal(f)


def test_derivation_law_violation_witnessed():
    cm, f = f1_setup()
    E = cm.E
    with pytest.raises(DerivationLawViolation) as err:
        make_cm_derivation(f, {"x": E.basis_element("x2"), "x2": E.basis_element("x2")})
    r1, r2 = err.value.witness
    assert r1 == cm.R.basis_element("x") and r2 == cm.R.basis_element("x")


def test_apply_homotopy_target_values():
    cm, f = f1_setup()
    E, R = cm.E, cm.R
    s = make_cm_derivation(f, {"x": E.basis_element("x2")})
    g = s.target
    x, x2 = R.basis_element("x"), R.basis_element("x2")
    assert g.f0(x) == x + x2
    assert g.f0(x2) == x2
    assert g.f1(E.basis_element("x2")) == E.basis_element("x2")
    # g0 is multiplicative: g0(x)^2 = x^2 = g0(x^2)
    assert g.f0(x) * g.f0(x) == g.f0(x * x)


def test_invert_round_trip_exact():
    cm, f = f1_setup()
    E = cm.E
    s = make_cm_derivation(f, {"x": E.basis_element("x2")})
    sbar = invert_cm(s)
    assert sbar.s(cm.R.basis_element("x")) == -E.basis_element("x2")
    assert sbar.f.equal(s.target)
    assert sbar.target.equal(f)
    both = concat_cm(s, sbar)
    assert all(both.s(r).is_zero() for r in cm.R.basis_elements())


def test_concat_requires_composability():
    cm, f = f1_setup()
    E = cm.E
    s = make_cm_derivation(f, {"x": E.basis_element("x2")})
    s2 = make_cm_derivation(f, {"x": 2 * E.basis_element("x2")})
    with pytest.raises(CompositionMismatch):
        concat_cm(s, s2)  # target of s is not f
    g = s.target
    s3 = make_cm_derivation(make_cm_morphism(cm, cm, g.f0, g.f1), {"x": -E.basis_element("x2")})
    out = concat_cm(s, s3)
    assert all(out.s(r).is_zero() for r in cm.R.basis_elements())


def test_cross_term_in_derivation_law_is_load_bearing():
    # On E = R (the whole algebra as an ideal) the law forces
    # s(x^2) = 2x*s(x) + s(x)^2; dropping the quadratic term gives a
    # candidate the validator must reject.
    R = make_finite_algebra(["x", "x2"], {("x", "x"): {"x2": 1}}, QQ)
    cm = ideal_inclusion_cm(R, ["x", "x2"])
    f = identity_cm_morphism(cm)
    E = cm.E
    x_e, x2_e = E.basis_element("x"), E.basis_element("x2")
    good = make_cm_derivation(f, {"x": x_e, "x2": 3 * x2_e})  # 2*1 + 1^2 = 3
    assert good.s(R.basis_element("x2")) == 3 * x2_e
    with pytest.raises(DerivationLawViolation) as err:
        make_cm_derivation(f, {"x": x_e, "x2": 2 * x2_e})  # cross term dropped
    assert err.value.witness[0] == R.basis_element("x")
    # over g (g0(x) = 2x) the law gives s'(x^2) = 2*(2x)*x + x^2 = 5x^2,
    # and the sum must satisfy (s+s')(x^2) = 2*x*(2x) + (2x)^2 = 8x^2
    g = good.target
    s2 = make_cm_derivation(g, {"x": x_e, "x2": 5 * x2_e})
    out = concat_cm(good, s2)
    assert out.s(R.basis_element("x2")) == 8 * x2_e


def test_groupoid_check_f1_f1():
    cm = fixtures.ideal_crossed()
    entries = cm_groupoid_check(cm, cm, samples=10, seed=3)
    assert entries and all(ok for _, ok, _ in entries)


def test_groupoid_check_trivial_target():
    cm = fixtures.ideal_crossed()
    R0 = make_finite_algebra(["r0"], {}, QQ)
    zero_cm = ideal_inclusion_cm(R0, [])
    entries = cm_groupoid_check(zero_cm, cm, samples=3, seed=0)
    assert all(ok for _, ok, _ in entries)


def test_zero_boundary_target_leaves_f0_fixed():
    # when the target boundary is zero, g0 = f0 + d' o s = f0 for every s
    cm = fixtures.ideal_crossed()
    R0 = make_finite_algebra(["r0"], {}, QQ)
    E0 = make_finite_algebra(["e0"], {}, QQ)
    from xmod2.crossed import make_crossed
    from xmod2.maps import zero_action

    zero_cm = make_crossed(
        E0, R0, algebra_morphism(E0, R0, images={"e0": R0.zero()}), zero_action(R0, E0)
    )
    f0 = algebra_morphism(cm.R, R0, images={"x": R0.basis_element("r0"), "x2": R0.zero()})
    f1 = algebra_morphism(cm.E, E0, images={"x2": E0.zero()})
    f = make_cm_morphism(cm, zero_cm, f0, f1)
    s = make_cm_derivation(f, {"x": E0.basis_element("e0")})
    g = s.target
    for r in cm.R.basis_elements():
        assert g.f0(r) == f.f0(r)


def test_random_generators_produce_valid_objects():
    cm = fixtures.ideal_crossed()
    rng = random.Random(17)
    f = random_cm_morphism(cm, cm, rng)
    d = random_cm_derivation(f, rng)
    assert d.target is not None
    # determinism given the seed
    rng2 = random.Random(17)
    f2 = random_cm_morphism(cm, cm, rng2)
    d2 = random_cm_derivation(f2, rng2)
    assert f.equal(f2) and d.equal(d2)


def test_slice_edge_algebra_is_certified_under_the_derivations_policy():
    """Over a free R the derivation is realized through R |x E, Lambda1 of
    the target slice's tower, which is kept on the slice per policy and
    carries the derivation's own policy's certificate."""
    R = make_free_algebra(["x"], QQ)
    E = make_finite_algebra(["a"], {}, QQ)
    cm = make_crossed(E, R, algebra_morphism(E, R, images={"a": R.zero()}), zero_action(R, E))
    f = identity_cm_morphism(cm)
    pol = Policy(samples=6, max_degree=2, seed=13)
    s = make_cm_derivation(f, {"x": E.basis_element("a")}, pol)
    assert s.s(R.monomial("x", "x")).is_zero()
    assert list(f.tgt._towers) == [pol]
    edge = s.s.edge_map.target
    assert edge is get_tower(f.tgt, pol, top=2).levels[1]
    assert edge.certificate == Certificate(False, 2, 6, 13)
    assert get_tower(f.tgt, DEFAULT_POLICY, top=2).levels[1].certificate == Certificate(False, 4, 100, 0)


def _free_line_cm():
    R = make_free_algebra(["x"], QQ)
    E = make_finite_algebra(["a"], {}, QQ)
    cm = make_crossed(E, R, algebra_morphism(E, R, images={"a": R.zero()}), zero_action(R, E))
    return cm, identity_cm_morphism(cm)


def test_declared_monomial_value_is_checked_over_a_free_r():
    """Over a free R, s is fixed by its generator images: a value declared
    on a monomial must be the one s takes there, s(x^2) = s(x)^2 = 0, or
    the derivation is refused with the monomial as witness."""
    cm, f = _free_line_cm()
    a, x2 = cm.E.basis_element("a"), cm.R.monomial("x", "x")
    with pytest.raises(DerivationLawViolation) as err:
        make_cm_derivation(f, {"x": a, ("x", "x"): 5 * a})
    assert err.value.witness == (x2,)
    assert err.value.lhs == 5 * a and err.value.rhs.is_zero()
    d = make_cm_derivation(f, {"x": a, ("x", "x"): cm.E.zero()})
    assert d.s(x2).is_zero() and d.s_images == {"x": a}


def test_an_s_image_on_a_key_that_is_not_a_generator_is_refused_by_name():
    cm, f = _free_line_cm()
    a = cm.E.basis_element("a")
    with pytest.raises(BadShape, match="image given for unknown key 'y' of "):
        make_cm_derivation(f, {"x": a, "y": a})


def test_groupoid_check_over_a_free_r():
    """The crossed groupoid needs no freeness and no finite R: the maps,
    derivations and their targets are drawn on the generator x."""
    cm, _ = _free_line_cm()
    entries = cm_groupoid_check(cm, cm, samples=2, seed=3)
    assert len(entries) == 18 and all(ok for _, ok, _ in entries)


def test_a_free_e_runs_through_the_crossed_layer():
    """The identity crossed module R -> R of R = Q[x]+, acting by
    multiplication, has an infinite E.  Its maps, derivations and groupoid
    laws run as over any free R: s(x) = x gives s(x^2) = 3x^2 (r + s(r) is
    the substitution x -> 2x), whose target doubles x, inverts back to the
    base map, and a wrong declared value at x^2 breaks the law."""
    from xmod2.maps import FunctionAction, certify_action, identity_map

    R = make_free_algebra(["x"], QQ)
    pol = Policy(samples=3)
    act = FunctionAction(R, R, R.key_mul)
    certify_action(act, pol)
    cm = make_crossed(R, R, identity_map(R), act, pol)
    f = identity_cm_morphism(cm)
    assert make_cm_morphism(cm, cm, identity_map(R), identity_map(R), pol).equal(f)
    assert random_cm_morphism(cm, cm, random.Random(2), pol) is not None
    x, x2 = R.monomial("x"), R.monomial("x", "x")
    d = make_cm_derivation(f, {"x": x}, pol)
    assert d.s(x2) == 3 * x2
    assert d.target.f0(x) == 2 * x and d.target.f1(x2) == 4 * x2
    inv = invert_cm(d, pol)
    assert inv.target.equal(f)
    assert concat_cm(d, inv, pol).equal(zero_cm_derivation(f, pol))
    with pytest.raises(DerivationLawViolation) as err:
        make_cm_derivation(f, {"x": x, ("x", "x"): x2}, pol)
    assert err.value.witness == (x2,)
    entries = cm_groupoid_check(cm, cm, samples=2, seed=0, policy=pol)
    assert len(entries) == 18 and all(ok for _, ok, _ in entries)


def test_an_e_neither_finite_nor_free_takes_crossed_derivations():
    """E = X |x U, X free on x and U = <u> finite with the zero action, is
    neither finite nor free.  The crossed module E -> X projecting onto X,
    with X acting by multiplication in E, takes a derivation: its t is
    given on no key, so no key of E is asked for."""
    from xmod2.maps import FunctionAction, semidirect

    X, U = make_free_algebra(["x"], QQ), make_finite_algebra(["u"], {}, QQ)
    E = semidirect(X, U, zero_action(X, U))
    pol = Policy(samples=3)

    def project(e):  # (a, u) -> a
        return X.from_coeffs({k: c for (side, k), c in e.coeffs.items() if side == 0})

    d = algebra_morphism(E, X, fn=project, policy=pol)
    cm = make_crossed(E, X, d, FunctionAction(X, E, lambda k1, k2: E.key_mul((0, k1), k2)), pol)
    u = E.basis_element((1, "u"))
    assert make_cm_derivation(identity_cm_morphism(cm), {"x": u}, pol).s(X.monomial("x", "x")).is_zero()


def test_a_crossed_derivation_law_fails_alike_from_every_entry():
    """Over the slices of crossed modules the s-law is the derivation law:
    certified through make_cm_derivation or through the 2-crossed entry
    that the groupoid operations use on a miss, it fails as
    DerivationLawViolation with the same witness."""
    from xmod2.tcm_homotopy import make_quadratic_derivation

    cm, f = f1_setup()
    bad = {"x": cm.E.basis_element("x2"), "x2": cm.E.basis_element("x2")}
    witnesses = []
    for certify in (make_cm_derivation, lambda f, s: make_quadratic_derivation(f, s, {})):
        with pytest.raises(DerivationLawViolation) as err:
            certify(f, bad)
        witnesses.append(err.value.witness)
    assert witnesses[0] == witnesses[1]


def test_a_target_that_fails_certification_fails_its_entry(monkeypatch):
    """target-valid reports a drawn derivation whose target does not
    certify: the sample's entry is false, with the error naming the law,
    and the check goes on to the next sample instead of raising."""
    from xmod2 import tcm_homotopy

    def wrong_target(d):  # g0 sends every basis element to x, but x^2 = x2
        R = d.f.tgt.R
        x = R.basis_element("x")
        return algebra_morphism(d.f.src.R, R, fn=lambda r: x, policy=d.policy, note="g0")

    monkeypatch.setattr(tcm_homotopy, "_qd_target", wrong_target)
    cm = fixtures.ideal_crossed()
    entries = cm_groupoid_check(cm, cm, samples=2, seed=3)
    assert [(name, ok) for name, ok, _ in entries] == [
        ("cm/00/target-valid", False), ("cm/01/target-valid", False),
    ]
    assert all(witness.startswith("multiplicativity fails") for _, _, witness in entries)


def test_target_is_certified_under_the_derivations_own_policy():
    """A derivation keeps the policy it was certified under, and its target
    carries that policy's certificates."""
    cm, f = _free_line_cm()
    first, second = Policy(samples=3, seed=1), Policy(samples=7, seed=2)
    d = make_cm_derivation(f, {"x": cm.E.basis_element("a")}, first)
    assert d.policy == first and d.target is d.target
    assert d.target.f0.multiplicative == Certificate(False, first.max_degree, 3, 1)
    other = make_cm_derivation(f, d.s_images, second)
    assert other.policy == second and other.target is not d.target
    assert other.target.equal(d.target)
    assert other.target.f0.multiplicative == Certificate(False, second.max_degree, 7, 2)


def test_groupoid_check_certifies_only_under_its_policy(monkeypatch):
    """Every morphism and derivation the check draws or builds is
    certified under the policy it was given."""
    from xmod2 import cm_homotopy, randgen, tcm_homotopy

    cm = fixtures.ideal_crossed()
    pol = Policy(samples=10, seed=4)
    seen = []
    for module, name in ((randgen, "make_2cm_morphism"), (tcm_homotopy, "make_2cm_morphism"),
                         (tcm_homotopy, "make_quadratic_derivation"),
                         (cm_homotopy, "make_cm_derivation")):
        real = getattr(module, name)

        def recording(*args, _real=real):
            seen.append(args[-1])
            return _real(*args)

        monkeypatch.setattr(module, name, recording)
    entries = cm_groupoid_check(cm, cm, samples=2, seed=5, policy=pol)
    assert entries and all(ok for _, ok, _ in entries)
    assert seen and set(seen) == {pol}


def test_groupoid_returns_the_derivations_already_certified(monkeypatch):
    """Zeros, units and both bracketings come back as the derivations
    certified out of their base map; make_cm_derivation certifies every
    call."""
    from xmod2 import maps

    cm = fixtures.ideal_crossed()
    rng = random.Random(4)
    f = random_cm_morphism(cm, cm, rng)
    d1 = random_cm_derivation(f, rng)
    d2 = random_cm_derivation(d1.target, rng)
    d3 = random_cm_derivation(d2.target, rng)
    zf = zero_cm_derivation(f)
    assert zero_cm_derivation(f) is zf
    assert concat_cm(zf, d1) is d1
    assert concat_cm(d1, zero_cm_derivation(d1.target)) is d1
    left = concat_cm(concat_cm(d1, d2), d3)
    assert concat_cm(d1, concat_cm(d2, d3)) is left

    calls = []
    real_tuples = maps.law_tuples
    monkeypatch.setattr(
        maps, "law_tuples", lambda *args, **kwargs: calls.append(args[0]) or real_tuples(*args, **kwargs)
    )
    again = make_cm_derivation(f, d1.s_images)
    assert again is not d1 and len(calls) == 1 and again.certificates == d1.certificates
    other = Policy(samples=3, seed=9)
    assert concat_cm(zero_cm_derivation(f, other), d1, other) is not d1


def _oracle_cases(ring, rng, modules):
    """Random ideal crossed modules E -> R over ``ring`` (R a random
    finite algebra, E a random ideal of it, else R itself)."""
    from xmod2.errors import NotAnIdeal
    from xmod2.randgen import random_finite_algebra

    out = []
    for _ in range(modules):
        R = random_finite_algebra(ring, rng, max_dim=3)
        labels = [k for k in R.basis_keys() if rng.random() < 0.6] or R.basis_keys()
        try:
            out.append(ideal_inclusion_cm(R, labels))
        except NotAnIdeal:
            out.append(ideal_inclusion_cm(R, R.basis_keys()))
    return out


def _small_element(alg, rng):
    """A combination of the basis with coefficients in {-1, 0, 1, 2}."""
    out = alg.zero()
    for k in alg.basis_keys():
        out = out + rng.choice((-1, 0, 0, 1, 2)) * alg.basis_element(k)
    return out


def _check_against_formulas(C, f, images, s_of, points, declared_ok, pol):
    """One s-table over f: C's derivation, target, inverse and zero
    against the formulas, with s_of the oracle's own s.  Returns the
    derivation, or None when make_cm_derivation refused it."""
    f0 = f.f0
    law = declared_ok and all(
        s_of(r * r2) == C.act(f0(r), s_of(r2)) + C.act(f0(r2), s_of(r)) + s_of(r) * s_of(r2)
        for r in C.R.basis_elements() for r2 in C.R.basis_elements()
    ) if C.R.is_finite() else declared_ok
    try:
        d = make_cm_derivation(f, images, pol)
    except DerivationLawViolation:
        assert not law, images
        return None
    assert law, images
    g = d.target
    skeleton = C.R.basis_elements() if C.R.is_finite() else [C.R.monomial("x")]
    assert all(g.f0(r) == f0(r) + C.d(s_of(r)) for r in skeleton)
    assert all(g.f1(e) == f.f1(e) + s_of(C.d(e)) for e in C.E.basis_elements())
    assert all(d.s(r) == s_of(r) for r in points)
    inv = invert_cm(d, pol)
    assert all(inv.s(r) == -s_of(r) for r in points)
    assert zero_cm_derivation(f, pol).target.equal(f)
    back = concat_cm(d, inv, pol)
    assert all(back.s(r).is_zero() for r in points)
    return d


def test_crossed_layer_matches_its_formulas():
    """A check of the crossed layer that reads no layer internals: on F1,
    on random ideal crossed modules over F5 and Q and on the free line,
    every s-table drawn (unfiltered) is accepted exactly when the
    derivation law s(rr') = f0(r) > s(r') + f0(r') > s(r) + s(r)s(r')
    holds on the basis, and an accepted one has target (f0 + d'.s,
    f1 + s.d) on the skeleton, is undone by invert_cm (-s), and
    concatenates pointwise with concat_cm; the zero derivation's target
    is its base."""
    from xmod2.rings import PrimeField

    rng = random.Random(20231)
    pol = Policy(samples=4, max_degree=3)
    for ring, modules in ((PrimeField(5), 20), (QQ, 20)):
        cases = [fixtures.ideal_crossed(ring)] + _oracle_cases(ring, rng, modules)
        tables = accepted = 0
        for C in cases:
            f, last = identity_cm_morphism(C), None
            for _ in range(10):
                table = {k: _small_element(C.E, rng) for k in C.R.basis_keys()}

                def s_of(r, table=table):
                    out = C.E.zero()
                    for k, c in r.coeffs.items():
                        out = out + c * table[k]
                    return out

                tables += 1
                d = _check_against_formulas(C, f, table, s_of, C.R.basis_elements(), True, pol)
                if d is not None:  # concatenate with the last one, over d's base
                    if last is not None:
                        both = concat_cm(last[0], d, pol)
                        assert all(both.s(r) == last[1](r) + s_of(r) for r in C.R.basis_elements())
                    accepted += 1
                    f, last = d.target, (d, s_of)
        assert tables >= 200 and 0 < accepted < tables

    C, _ = _free_line_cm()
    a, x = C.E.basis_element("a"), C.R.monomial("x")
    points = [x, C.R.monomial("x", "x"), C.R.monomial("x", "x", "x")]
    tables = accepted = 0
    for i in range(200):
        if i % 10 == 0:
            f = random_cm_morphism(C, C, rng, pol)
        sx = rng.choice((-1, 0, 1, 2)) * a
        images = {"x": sx}
        declared_ok = True
        if rng.random() < 0.5:  # a declared value at x^2, forced by the law
            images[("x", "x")] = rng.choice((-1, 0, 0, 1)) * a
            forced = C.act(f.f0(x), sx) + C.act(f.f0(x), sx) + sx * sx
            declared_ok = images[("x", "x")] == forced

        def s_of(r, sx=sx):  # E^2 = 0 and the action is zero: s(x^n) = 0 for n > 1
            return r.coeffs.get(("x",), 0) * sx

        tables += 1
        accepted += _check_against_formulas(C, f, images, s_of, points, declared_ok, pol) is not None
    assert tables == 200 and 0 < accepted < tables
