"""The built-in verification suite behind ``xmod2 selftest``.

Runs every fixture validator, the corrupted-fixture mutation suite, the
auxiliary-action and simplicial-identity suites (fixtures plus seeded
random structures over F5), the crossed-module groupoid laws on (F1, F1),
the frozen worked instance of the w-machinery, the inverse and
associativity laws, and the guardrails.  Deterministic given the seed:
reports are byte-identical across runs.
"""

import random

from . import fixtures
from .cm_homotopy import cm_groupoid_check
from .crossed import identity_2cm_morphism, make_2cm_morphism
from .errors import FreeBasisRequired, LawViolation
from .maps import LinearMap, Policy, algebra_morphism, random_element
from .randgen import _random_element, random_2cm_morphism, random_free_two_crossed, random_two_crossed
from .report import Report
from .rings import QQ, PrimeField
from .simplex import build_tower, check_simplicial_identities, get_tower, with_face
from .tcm_homotopy import (
    box_plus_s,
    check_w_change,
    concat_2cm,
    invert_2cm,
    make_quadratic_derivation,
    tcm_groupoid_check,
    w_map,
    x_map,
)

F5 = PrimeField(5)


def worked_homotopies(ring=QQ, policy=Policy()):
    """The frozen instance: f0(x) = p, s(x) = s'(x) = s''(x) = a into F2."""
    F3 = fixtures.free_line_two_crossed(ring)
    F2 = fixtures.square_two_crossed(ring)
    a = F2.E.basis_element("a")
    p = F2.R.basis_element("p")
    f = make_2cm_morphism(
        F3, F2,
        f0=algebra_morphism(F3.R, F2.R, images={"x": p}, policy=policy),
        f1=algebra_morphism(F3.E, F2.E, images={}, policy=policy),
        f2=algebra_morphism(F3.L, F2.L, images={}, policy=policy),
    )
    h1 = make_quadratic_derivation(f, {"x": a}, {}, policy)
    h2 = make_quadratic_derivation(h1.target, {"x": a}, {}, policy)
    h3 = make_quadratic_derivation(h2.target, {"x": a}, {}, policy)
    return F3, F2, f, h1, h2, h3


def _fixture_suite(report, policy):
    for name in ("F0", "F1", "F2", "F3"):
        A = fixtures.fixture(name)
        for law in sorted(A.certificates):
            report.add("fixtures/%s/%s" % (name, law), law, True, certificate=A.certificates[law])
    for name, thunk, exc, law, witness in fixtures.corrupted_f2_variants():
        try:
            thunk()
        except exc as caught:
            ok = getattr(caught, "law", None) == law
            report.add(
                "mutants/%s" % name, law, ok,
                witness=None if ok else "wrong law %r" % getattr(caught, "law", None),
            )
        except LawViolation as caught:
            report.add("mutants/%s" % name, law, False, witness="wrong error %r" % caught)
        else:
            report.add("mutants/%s" % name, law, False, witness="accepted a corrupted structure")


def _tower_suite(report, seed, policy):
    for name in ("F0", "F2", "F3"):
        A = fixtures.fixture(name)
        T = get_tower(A, policy)
        for act in ("bullet", "star", "one_e", "one_r", "one", "two_e", "two_l", "two", "dagger"):
            report.add(
                "actions/%s/%s" % (name, act), "A1+A2", True,
                certificate=T.actions[act].certificate,
            )
        entries = check_simplicial_identities(T, policy)
        for ident, ok, witness in entries:
            report.add("simplicial/%s/%s" % (name, ident), ident, ok, witness)

    rng = random.Random(seed)
    bad = 0
    for i in range(50):
        A = random_two_crossed(F5, rng, max_dim=2, policy=policy)
        try:
            T = build_tower(A, policy)
            entries = check_simplicial_identities(T, policy)
            if not all(ok for _, ok, _ in entries):
                bad += 1
        except LawViolation:
            bad += 1
    report.add(
        "actions/random-f5/50-structures", "A1+A2", bad == 0,
        witness=None if bad == 0 else "%d structures failed" % bad,
    )

    # a deliberately corrupted face must break an identity
    F2 = fixtures.fixture("F2")
    T = get_tower(F2, policy)
    lam1, lam2 = T.levels[1], T.levels[2]

    def broken_d2(u):
        r, e, e2, l = T.split2(u)
        return lam1.pair(r + F2.d1(e), e2)  # drops the d2(l) term

    mutated = with_face(T, 2, 2, LinearMap(lam2, lam1, "function", fn=broken_d2))
    entries = check_simplicial_identities(mutated, policy)
    caught = [name for name, ok, _ in entries if not ok]
    report.add(
        "simplicial/mutation-detected", "dd", bool(caught),
        witness="failing: %s" % ",".join(sorted(caught)[:3]) if caught else "mutation escaped",
    )


def _cm_suite(report, seed, policy):
    F1 = fixtures.fixture("F1")
    entries = cm_groupoid_check(F1, F1, samples=25, seed=seed, policy=policy)
    report.extend("groupoid", entries)


def _worked_suite(report, policy):
    F3, F2, f, h1, h2, h3 = worked_homotopies(QQ, policy)
    R = F3.R
    x = R.monomial("x")
    x2 = R.monomial("x", "x")
    x3 = R.monomial("x", "x", "x")
    E, L = F2.E, F2.L
    a, b = E.basis_element("a"), E.basis_element("b")
    bh = L.basis_element(fixtures.BH)
    T = get_tower(F2, policy)

    report.add("worked/s(x^2)=b", "derivation", h1.s(x2) == b, str(h1.s(x2)))
    report.add(
        "worked/X(x^2)", "triangle-map",
        x_map(h1, h2, x2, policy) == T.simplex2(F2.R.zero(), b, 3 * b, -2 * bh),
        T.tuple_str(x_map(h1, h2, x2, policy)),
    )
    w = w_map(h1, h2, x2, policy)
    report.add("worked/w(x^2)=-2bh", "w-map", w == -2 * bh, str(w))
    box = box_plus_s(h1, h2, policy)
    report.add("worked/(s[+]s')(x^2)=4b", "box-plus", box(x2) == 4 * b, str(box(x2)))
    report.add(
        "worked/w-correction", "wprop",
        box(x2) == h1.s(x2) + h2.s(x2) - F2.d2(w),
    )

    hinv = invert_2cm(h1, policy)
    report.add("worked/sbar(x)=-a", "inverse", hinv.s(x) == -a, str(hinv.s(x)))
    report.add("worked/sbar(x^2)=b", "inverse", hinv.s(x2) == b, str(hinv.s(x2)))
    wss = w_map(h1, hinv, x2, policy)
    report.add("worked/w(s,sbar)(x^2)=2bh", "w-map", wss == 2 * bh, str(wss))
    boxinv = box_plus_s(h1, hinv, policy)
    report.add(
        "worked/s[+]sbar=0", "inverse",
        boxinv(x).is_zero() and boxinv(x2).is_zero() and boxinv(x3).is_zero(),
    )
    report.add(
        "worked/round-trip", "inverse",
        concat_2cm(h1, hinv, policy).target.equal(f)
        and concat_2cm(hinv, h1, policy).target.equal(h1.target),
    )

    ok, lhs, rhs = check_w_change(h1, h2, h3, x2, policy)
    report.add(
        "worked/w-change(x^2)=-6bh", "wchange",
        ok and lhs == -6 * bh, "%s vs %s" % (lhs, rhs),
    )


def _associativity_suite(report, seed, policy):
    rng = random.Random(seed)
    F3 = fixtures.free_line_two_crossed(F5)
    bad = 0
    first = None
    for i in range(25):
        B = random_two_crossed(F5, rng, max_dim=2, policy=policy)
        f = random_2cm_morphism(F3, B, rng, policy=policy)
        h1 = make_quadratic_derivation(f, {"x": _random_element(B.E, rng)}, {}, policy)
        h2 = make_quadratic_derivation(h1.target, {"x": _random_element(B.E, rng)}, {}, policy)
        h3 = make_quadratic_derivation(h2.target, {"x": _random_element(B.E, rng)}, {}, policy)
        r = random_element(F3.R, rng, policy.max_degree)
        ok, lhs, rhs = check_w_change(h1, h2, h3, r, policy)
        if not ok:
            bad += 1
            first = first or "at %s: %s != %s" % (r, lhs, rhs)
    report.add(
        "assoc/w-change-random/25-triples", "wchange", bad == 0, first,
    )

    rng2 = random.Random(seed + 1)
    for i in range(3):
        D = random_free_two_crossed(F5, rng2, policy=policy)
        B = random_two_crossed(F5, rng2, max_dim=2, policy=policy)
        entries = tcm_groupoid_check(D, B, samples=2, seed=seed + i, policy=policy)
        report.extend("assoc/free-domain-%d" % i, entries)


def _guardrail_suite(report, policy):
    F2 = fixtures.fixture("F2")
    ident = identity_2cm_morphism(F2)
    h = make_quadratic_derivation(ident, {}, {}, policy)
    try:
        concat_2cm(h, h, policy)
    except FreeBasisRequired:
        report.add("guardrails/box-plus-needs-free-basis", "free-basis", True)
    else:
        report.add("guardrails/box-plus-needs-free-basis", "free-basis", False,
                   witness="composed over a non-free domain")
    try:
        invert_2cm(h, policy)
    except FreeBasisRequired:
        report.add("guardrails/invert-needs-free-basis", "free-basis", True)
    else:
        report.add("guardrails/invert-needs-free-basis", "free-basis", False,
                   witness="inverted over a non-free domain")


def run_selftest(seed=0, samples=25, max_degree=4):
    policy = Policy(samples=samples, max_degree=max_degree, seed=seed)
    report = Report(
        "selftest", params={"seed": seed, "samples": samples, "max_degree": max_degree}
    )
    _fixture_suite(report, policy)
    _tower_suite(report, seed, policy)
    _cm_suite(report, seed, policy)
    tcm = tcm_groupoid_check(
        fixtures.fixture("F3"), fixtures.fixture("F2"),
        samples=5, seed=seed, policy=policy,
    )
    report.extend("groupoid", tcm)
    _worked_suite(report, policy)
    _associativity_suite(report, seed, policy)
    _guardrail_suite(report, policy)
    return report
