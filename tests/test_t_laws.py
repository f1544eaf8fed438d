"""The t-laws of a quadratic derivation, decided on their term tables.

``tcm_homotopy._T_LAWS`` writes t-product, t-action and their boundary
forms once, as terms in the syntax of the tower's tables on chains of maps
applied to basis keys, and ``_t_laws`` decides each on keys.  Here:

* ROADMAP item 1's two inputs, and a third into the asymmetric kernel of
  the tower's mutant inputs, are valid derivations on which terms that no
  drawn derivation reaches are nonzero on a basis tuple;
* every one-term drop, sign flip and lifting-argument swap of t-product
  and t-action is generated from the tables by the tower's generator
  (``test_simplex._entry_mutants``) and run in-process on those inputs and
  on derivations drawn into ``_mutant_inputs()``; the survivors are the
  t-law lines of the MUTANTS.md ledger;
* a differential property decides drawn candidates law by law on keys and
  with the element form below, evaluated on every tuple.
"""

import functools
import random
from functools import partial, reduce
from operator import add

import pytest

from xmod2 import fixtures, maps, tcm_homotopy
from xmod2.algebra import make_finite_algebra, make_free_algebra
from xmod2.crossed import kernel_two_crossed, make_2cm_morphism, make_precrossed, make_two_crossed
from xmod2.errors import LawViolation, QDLawViolation, XmodError
from xmod2.maps import (
    EXHAUSTIVE, BilinearMap, Certificate, Policy, algebra_morphism, identity_map, make_action, zero_action,
)
from xmod2.randgen import random_2cm_morphism, random_free_two_crossed, random_quadratic_derivation
from xmod2.rings import QQ, PrimeField
from xmod2.tcm_homotopy import make_quadratic_derivation

from test_free_domain_proofs import _candidates, _kernel_targets, _table_acted_domain
from test_simplex import _entry_mutants, _ledger, _mutant_inputs

F5 = PrimeField(5)
POL = Policy(samples=10, seed=0)


def _line_domain(labels, table):
    """R = F5[x]+ and E = L = the finite algebra (labels, table), with
    d2 = id, the product as lifting, d1 = 0 and zero actions: the shape of
    ``randgen.random_free_two_crossed``."""
    R = make_free_algebra(["x"], F5)
    E = make_finite_algebra(labels, table, F5)
    lift = BilinearMap(E, E, E, {(i, j): E.basis_element(i) * E.basis_element(j)
                                 for i in labels for j in labels})
    return make_two_crossed(E, E, R, d2=identity_map(E), d1=algebra_morphism(E, R, images={}, policy=POL),
                            act_e=zero_action(R, E), act_l=zero_action(R, E), lift=lift, policy=POL)


def _kernel(labels, table, d, act):
    """The kernel 2-crossed module of E = (labels, table) -> R' = <p> (zero
    product) with d(a) = d[a] p and the action table act of p, over F5."""
    R = make_finite_algebra(["p"], {}, F5)
    E = make_finite_algebra(labels, table, F5)
    action = make_action(R, E, {"p": {k: E.basis_element(v) for k, v in act.items()}}, POL)
    images = {k: R.element({"p": c}) for k, c in d.items()}
    return kernel_two_crossed(make_precrossed(E, R, algebra_morphism(E, R, images=images, policy=POL),
                                              action, POL), POL)


def _lift_of(B, e):
    """The element of L' whose image under d2' = inclusion is e."""
    return next(B.L.basis_element(k) for k in B.L.basis_keys() if B.d2(B.L.basis_element(k)) == e)


def _map(A, B, f0, f1, f2):
    """The 2-crossed map A -> B with these generator images (a key with none
    going to zero)."""
    return make_2cm_morphism(A, B, *(algebra_morphism(src, tgt, images=images, policy=POL)
                                     for src, tgt, images in ((A.R, B.R, f0), (A.E, B.E, f1), (A.L, B.L, f2))),
                             POL)


@functools.cache
def item_1_input_1():
    """ROADMAP item 1, input 1.  A has E = L = <e, e2; e e = e2>; the target
    is the kernel of E' = <a, a2; a a = a2> -> <p> with d = 0 and the zero
    action, so L' = E' (basis a, a2 through d2') and the lifting is the
    product.  f0 = 0, f1 = f2: e -> a, e2 -> a2; s(x) = a, t(e) = a and
    t(e2) = 3 a2.  Nonzero on a basis tuple: f1(e)>'t(e2), f1(e2)>'t(e)
    and t(e)t(e2) of t-product at (e, e), each a a = a2, against
    t(e e) = 3 a2; {s(r)(x)f1(e)} and {f1(e)(x)s(r)} of t-action at (x, e),
    {a, a} = a2 less {a, a}."""
    A = _line_domain(["e", "e2"], {("e", "e"): {"e2": 1}})
    B = _kernel(["a", "a2"], {("a", "a"): {"a2": 1}}, {}, {})
    a, a2 = B.E.basis_element("a"), B.E.basis_element("a2")
    la, la2 = _lift_of(B, a), _lift_of(B, a2)
    f = _map(A, B, {}, {"e": a, "e2": a2}, {"e": la, "e2": la2})
    return f, {"x": a}, {"e": la, "e2": 3 * la2}


@functools.cache
def item_1_input_2():
    """ROADMAP item 1, input 2.  A as in input 1; the target is the kernel
    of E' = <a, u, w> (zero products) -> <p> with d(a) = p and p > u = w,
    so L' = <u, w> and d1'(a) = p acts on it.  f0 = 0, f1 = f2: e -> u,
    e2 -> 0; s(x) = a, t(e) = -u, t(e2) = 0.  Nonzero on a basis tuple, at
    (x, e) of t-action: d1'(s(r))>t(e) = p > (-u) = -w and {f1(e)(x)s(r)},
    -{u, a} = w, which cancel."""
    A = _line_domain(["e", "e2"], {("e", "e"): {"e2": 1}})
    B = _kernel(["a", "u", "w"], {}, {"a": 1}, {"u": "w"})
    a, u = B.E.basis_element("a"), B.E.basis_element("u")
    lu = _lift_of(B, u)
    f = _map(A, B, {}, {"e": u}, {"e": lu})
    return f, {"x": a}, {"e": -lu}


@functools.cache
def asymmetric_input():
    """A derivation into the asymmetric kernel of ``_mutant_inputs()``
    (R' = <u0> acting on L' = <u0, u1 + u2> by u0 > (u1 + u2) = 2 u0, with
    d1'(u1) = 4 u0).  A has E = L = <u> with zero product; f0(x) = 3 u0,
    f1 = f2 = 0; s(x) = 3 u0 + 3 u1, so g0(x) = 3 u0 + 2 u0 = 0, and
    t(u) = u1 + u2.  Nonzero on a basis tuple, at (x, u) of t-action:
    f0(r)>t(e) = 3 u0 > (u1 + u2) = u0 and d1'(s(r))>t(e) =
    2 u0 > (u1 + u2) = 4 u0, which cancel."""
    A = _line_domain(["u"], {})
    B = _mutant_inputs()[3]
    u0, u1, u2 = (B.E.basis_element(k) for k in ("u0", "u1", "u2"))
    f = _map(A, B, {"x": 3 * B.R.basis_element("u0")}, {}, {})
    return f, {"x": 3 * u0 + 3 * u1}, {"u": _lift_of(B, u1 + u2)}


def _element_form(f, s, t):
    """Each t-law in element form, written out as the paper states it and
    independent of the term tables: {law: (other slot, lhs, terms)} with
    lhs(x, y) = t(x y) or t(x > y) and terms(x, y) the (name, signed value)
    of each term of the right side, x and y elements of the law's two
    slots (an R-slot first for an action law), named as the generated
    mutants name them (``test_simplex._term_name``)."""
    A, B = f.src, f.tgt
    lift, prime, act_l, d1 = B.lift, B.act_prime, B.act_l, B.d1
    f0, f1, f2 = f.f0, f.f1, f.f2

    def product(e, e2):
        se, se2, te, te2 = s(A.d1(e)), s(A.d1(e2)), t(e), t(e2)
        return [("{s(d1(e))(x)f1(e2)}", lift(se, f1(e2))), ("{s(d1(e2))(x)f1(e)}", lift(se2, f1(e))),
                ("f1(e)>'t(e2)", prime(f1(e), te2)), ("f1(e2)>'t(e)", prime(f1(e2), te)),
                ("s(d1(e))>'t(e2)", prime(se, te2)), ("s(d1(e2))>'t(e)", prime(se2, te)),
                ("t(e)t(e2)", te * te2)]

    def action(r, e):
        sr, te = s(r), t(e)
        return [("f0(r)>t(e)", act_l(f0(r), te)), ("d1'(s(r))>t(e)", act_l(d1(sr), te)),
                ("{s(r)(x)f1(e)}", lift(sr, f1(e))), ("{f1(e)(x)s(r)}", -lift(f1(e), sr)),
                ("{s(d1(e))(x)s(r)}", -lift(s(A.d1(e)), sr))]

    def product_on_boundaries(l, l2):
        td, td2 = t(A.d2(l)), t(A.d2(l2))
        return [("f2(l)t(d2(l2))", f2(l) * td2), ("f2(l2)t(d2(l))", f2(l2) * td),
                ("t(d2(l))t(d2(l2))", td * td2)]

    def action_on_boundaries(r, l):
        td, d1sr = t(A.d2(l)), d1(s(r))
        return [("f0(r)>t(d2(l))", act_l(f0(r), td)), ("d1'(s(r))>f2(l)", act_l(d1sr, f2(l))),
                ("d1'(s(r))>t(d2(l))", act_l(d1sr, td))]

    return {
        "t-product": (A.E, lambda e, e2: t(e * e2), product),
        "t-action": (A.E, lambda r, e: t(A.act_e(r, e)), action),
        "t-product-on-boundaries": (A.L, lambda l, l2: t(A.d2(l) * A.d2(l2)), product_on_boundaries),
        "t-action-on-boundaries": (A.L, lambda r, l: t(A.act_e(r, A.d2(l))), action_on_boundaries),
    }


def _law_sides(form, law, zero):
    """A law's two sides as ``check_law`` takes them: on a pair of its slot
    elements, or, for a law over R, lists over the basis of its other slot."""
    other, lhs, terms = form[law]

    def rhs(*t):
        return reduce(add, (value for _, value in terms(*t)), zero)

    if law.startswith("t-product"):
        return lhs, rhs
    basis = other.basis_elements()
    return (lambda r: [lhs(r, x) for x in basis]), (lambda r: [rhs(r, x) for x in basis])


def _nonzero_terms(f, s_images, t_images):
    """The names of the terms of t-product and t-action that are nonzero on
    some basis tuple (an R-generator for t-action) of a derivation."""
    qd = make_quadratic_derivation(f, s_images, t_images, POL)
    form, A = _element_form(f, qd.s, qd.t), f.src
    tuples = {"t-product": [(e, e2) for e in A.E.basis_elements() for e2 in A.E.basis_elements()],
              "t-action": [(r, e) for r in A.R.generator_elements() for e in A.E.basis_elements()]}
    return qd, {law: {name for t in tuples[law] for name, value in form[law][2](*t) if not value.is_zero()}
                for law in tuples}


@pytest.mark.parametrize("build, nonzero", [
    (item_1_input_1, {"t-product": {"f1(e)>'t(e2)", "f1(e2)>'t(e)", "t(e)t(e2)"},
                      "t-action": {"{s(r)(x)f1(e)}", "{f1(e)(x)s(r)}"}}),
    (item_1_input_2, {"t-product": set(), "t-action": {"d1'(s(r))>t(e)", "{f1(e)(x)s(r)}"}}),
    (asymmetric_input, {"t-product": set(), "t-action": {"f0(r)>t(e)", "d1'(s(r))>t(e)"}}),
])
def test_an_input_certifies_with_its_named_terms_nonzero(build, nonzero):
    """Each input (see its docstring) is a valid derivation whose three
    certificates are EXHAUSTIVE, and the terms its docstring names are
    exactly those of t-product and t-action nonzero on a basis tuple."""
    qd, found = _nonzero_terms(*build())
    assert [qd.certificates[law] for law in ("s-law", "t-product", "t-action")] == [EXHAUSTIVE] * 3
    assert found == nonzero


def _t_law_mutants():
    """{mutant name: (table, law, entry)}: every one-term drop, sign flip and
    lifting-argument swap of the right side of t-product and t-action in
    ``_T_LAWS``, generated and named as the tower's are; each entry is
    resolved as ``_T_LAWS``' own (``tcm_homotopy._t_law``)."""
    out = {}
    for law in ("t-product", "t-action"):
        slots, (lhs, *rhs) = tcm_homotopy._T_LAWS[law][:2]
        out.update(_entry_mutants(law, "_T_LAWS", law, tuple(rhs),
                                  lambda t, slots=slots, lhs=lhs: tcm_homotopy._t_law(slots, (lhs,) + t)))
    return out


T_LAW_MUTANTS = _t_law_mutants()


@functools.cache
def _drawn_into_mutant_inputs():
    """Three derivations drawn by randgen into each of ``_mutant_inputs()``,
    from free domains over its ring, from Random(1)."""
    rng, out = random.Random(1), []
    for B in _mutant_inputs():
        for _ in range(3):
            D = random_free_two_crossed(B.R.ring, rng, max_dim=2, policy=POL)
            qd = random_quadratic_derivation(random_2cm_morphism(D, B, rng, policy=POL), rng, policy=POL)
            out.append((qd.f, qd.s_images, qd.t_images))
    return out


def _mutant_derivations():
    return [item_1_input_1(), item_1_input_2(), asymmetric_input()] + _drawn_into_mutant_inputs()


def test_the_drops_are_generated_from_the_tables():
    """17 mutants of t-product (7 drops, 7 flips, 2 swaps of a lifting and
    the swap of both) and 14 of t-action (5, 5, 3 and 1); the ledger's
    t-law lines name generated mutants."""
    assert len(T_LAW_MUTANTS) == 31
    assert sum(name.startswith("t-product-") for name in T_LAW_MUTANTS) == 17
    t_laws = {name for name in _ledger() if name.startswith("t-")}
    assert t_laws and t_laws <= set(T_LAW_MUTANTS)


@pytest.mark.parametrize("table, law, entry", [
    pytest.param(*entry, id=name) for name, entry in T_LAW_MUTANTS.items()
])
def test_a_t_law_mutant_is_rejected(monkeypatch, request, table, law, entry):
    """Each mutant is installed in ``_T_LAWS`` and every derivation of
    ``_mutant_derivations`` is certified again: a mutant that changes a
    side on one of them raises QDLawViolation there.  A mutant in the
    ledger of MUTANTS.md survives every input instead, so the survivors
    are the ledger."""
    name = request.node.callspec.id
    derivations = _mutant_derivations()  # drawn with the tables intact
    monkeypatch.setitem(getattr(tcm_homotopy, table), law, entry)
    rejected = False
    for f, s_images, t_images in derivations:
        try:
            make_quadratic_derivation(f, s_images, t_images, POL)
        except LawViolation:
            rejected = True
            break
    assert rejected is (name not in _ledger()), name


def _outcome(check, *args, **kwargs):
    """A law check's certificate, or its error: type, law, witness and sides."""
    try:
        return check(*args, **kwargs)
    except XmodError as exc:
        return type(exc), exc.law, exc.witness, exc.lhs, exc.rhs


def test_the_key_level_t_laws_decide_what_the_element_form_decides(monkeypatch):
    """Drawn candidates over the three F5 kernel targets of the groupoid
    benchmark and item 1's two targets (free F5 domains), over F2 (free
    domains over Q), and from the table-acted domain into itself, whose
    t-action is sampled (its action's A2 is), unfiltered, so most of them
    reject; the last also under a policy of one draw, 4x^2, whose tuples x
    and 4x^2 span no fewer keys than they are, so t-action runs its sides on
    them, 4x^2 being no basis element.  Each t-law that ``_t_laws`` checks
    is also checked with the element form of ``_element_form`` on every
    tuple of the same law tuples (no key kernel); the two give the same
    certificate, or the same error with the
    same first failing tuple and both sides, and the two sides of an action
    law agree on the policy's sampled r.  A failing law is passed on, so
    every law of every candidate is compared.  On the policy's sampled r of
    each free R, s equals the E'-part of phi(r), and the g0 formula equals
    f0 + d1' o s."""
    real_laws, real_check = tcm_homotopy._t_laws, tcm_homotopy.check_law
    current, compared = {"form": {}}, []  # the element form and zero of the laws being checked

    def t_laws(f, smap, tmap, s_law, policy):
        current.update(form=_element_form(f, smap, tmap), zero=f.tgt.L.zero())
        return real_laws(f, smap, tmap, s_law, policy)

    def check_law(algebras, lhs, rhs, error, policy, on_keys=None, generators=(), **kwargs):
        law = error.args[0] if isinstance(error, partial) and error.func is QDLawViolation else None
        if law not in current["form"]:
            return real_check(algebras, lhs, rhs, error, policy, on_keys=on_keys, generators=generators,
                              **kwargs)
        keyed = _outcome(real_check, algebras, lhs, rhs, error, policy, on_keys=on_keys, generators=generators)
        sides = _law_sides(current["form"], law, current["zero"])
        plain = _outcome(real_check, algebras, *sides, error, policy, generators=generators)
        assert keyed == plain, law
        if law.startswith("t-action"):  # the witness sides, on the drawn r too
            for (r,) in maps.law_tuples(algebras, policy)[0]:
                assert (lhs(r), rhs(r)) == (sides[0](r), sides[1](r)), law
        compared.append((law, keyed if isinstance(keyed, Certificate) else None))
        return keyed if isinstance(keyed, Certificate) else policy.certificate

    monkeypatch.setattr(tcm_homotopy, "_t_laws", t_laws)
    monkeypatch.setattr(tcm_homotopy, "check_law", check_law)
    rng = random.Random(22)
    f5_domains = [random_free_two_crossed(F5, rng, max_dim=2, policy=POL) for _ in range(4)]
    q_domains = [random_free_two_crossed(QQ, rng, max_dim=2, policy=POL) for _ in range(2)]
    targets = _kernel_targets() + [item_1_input_1()[0].tgt, item_1_input_2()[0].tgt]
    acted, few = _table_acted_domain(), Policy(samples=1, seed=3)
    assert maps._sampled((acted.R,), few).span is None
    acted_candidates = _candidates(rng, [acted], [acted], 20)
    runs = [(c, POL) for c in _candidates(rng, f5_domains, targets, 120)
            + _candidates(rng, q_domains, [fixtures.square_two_crossed()], 40) + acted_candidates]
    checked = 0
    for (D, B, levels, s_images, t_images), policy in runs + [(c, few) for c in acted_candidates]:
        try:
            f = make_2cm_morphism(D, B, *levels, policy)
        except XmodError:
            continue
        qd = make_quadratic_derivation(f, s_images, t_images, policy)  # every t-law passed on
        phi, g0 = qd.s.edge_map, tcm_homotopy._target_formulas(qd)[0]
        for (r,) in maps.law_tuples([D.R], policy)[0]:
            assert qd.s(r) == phi.target.split(phi(r))[1]
            assert g0(r) == f.f0(r) + B.d1(qd.s(r))
        checked += 1
    assert checked > 100
    for law in ("t-product", "t-action", "t-product-on-boundaries", "t-action-on-boundaries"):
        outcomes = {cert for name, cert in compared if name == law}
        assert None in outcomes and EXHAUSTIVE in outcomes, law
    assert {("t-action", POL.certificate), ("t-action", few.certificate)} <= set(compared)
