"""The free-domain proofs agree with the sampled checks they replace.

Over a free R the s-law holds by construction, the targets' g0 is a
substitution, and f1-equivariance, f2-equivariance and t-action take the
generator rule.  The differential property decides drawn (f, s, t)
candidates twice: as the checker does, and with every ``check_law`` call
sampled on ``Policy(samples=200)``.  The verdicts must agree.  A broken
substitution makes them disagree, so the proofs by construction stand on
the substitution code.  A missing premise gives a sampled certificate.

The laws linear in r of ``make_precrossed`` and ``make_two_crossed`` take
the generator rule too, and decide what the check without it decides.
"""

import random
from functools import partial

import pytest

from xmod2 import crossed, fixtures, maps
from xmod2.algebra import FreeAlgebra, make_finite_algebra, make_free_algebra, unit_key, zero_algebra
from xmod2.cm_homotopy import make_cm_derivation
from xmod2.crossed import (
    identity_2cm_morphism,
    kernel_two_crossed,
    make_2cm_morphism,
    make_cm_morphism,
    make_crossed,
    make_precrossed,
    make_two_crossed,
)
from xmod2.errors import LawViolation, MorphismViolation, XmodError
from xmod2.maps import (
    EXHAUSTIVE,
    BilinearMap,
    LinearMap,
    Policy,
    TableAction,
    algebra_morphism,
    identity_map,
    make_action,
    zero_action,
    zero_bilinear,
    zero_map,
)
from xmod2.randgen import (
    _random_element, random_2cm_morphism, random_cm_morphism, random_free_two_crossed, random_two_crossed,
)
from xmod2.rings import PrimeField, QQ
from xmod2.selftest import worked_homotopies
from xmod2.simplex import get_tower
from xmod2.tcm_homotopy import _settle_target, concat_2cm, make_quadratic_derivation, zero_quadratic

from helpers import patch_everywhere, zero_2cm_morphism

F5 = PrimeField(5)
PROVED = Policy(samples=10, seed=0)
SAMPLED = Policy(samples=200, seed=0)


def _square_kernel(c, v):
    """The kernel 2-crossed module of E = <a, b; a^2 = b> -> R = <p; p^2 = 0>
    with d(a) = c p and p > a = v b, over F5."""
    R = make_finite_algebra(["p"], {}, F5)
    E = make_finite_algebra(["a", "b"], {("a", "a"): {"b": 1}}, F5)
    act = make_action(R, E, {"p": {"a": E.element({"b": v})}}, PROVED)
    d = algebra_morphism(E, R, images={"a": R.element({"p": c}), "b": R.zero()}, policy=PROVED)
    return kernel_two_crossed(make_precrossed(E, R, d, act, PROVED), PROVED)


def _truncated_kernel(n):
    """The kernel 2-crossed module of E = <u0..u(n-1); ui uj = u(i+j+1)> ->
    R = <r; r^2 = 0> with d = 0, over F5."""
    labels = ["u%d" % i for i in range(n)]
    table = {(labels[i], labels[j]): {labels[i + j + 1]: 1}
             for i in range(n) for j in range(n) if i + j + 1 < n}
    E = make_finite_algebra(labels, table, F5)
    R = make_finite_algebra(["r"], {}, F5)
    d = algebra_morphism(E, R, images={k: R.zero() for k in labels}, policy=PROVED)
    return kernel_two_crossed(make_precrossed(E, R, d, zero_action(R, E), PROVED), PROVED)


def _kernel_targets():
    """The three targets of the groupoid benchmark's free domains."""
    return [_square_kernel(1, 2), _square_kernel(3, 1), _truncated_kernel(2)]


def _shift_kernel():
    """The kernel 2-crossed module of E = <e1, e2> (zero products) -> R =
    <p; p^2 = 0> with d = 0 and p > e1 = e2, over F5: R' acts on L' = E, so
    equivariance and t-action can fail on it, which they cannot on the
    three kernel targets (R' annihilates their L')."""
    R = make_finite_algebra(["p"], {}, F5)
    E = make_finite_algebra(["e1", "e2"], {}, F5)
    act = make_action(R, E, {"p": {"e1": E.basis_element("e2")}}, PROVED)
    d = algebra_morphism(E, R, images={"e1": R.zero(), "e2": R.zero()}, policy=PROVED)
    return kernel_two_crossed(make_precrossed(E, R, d, act, PROVED), PROVED)


def _sampled_only(patch):
    """Make every law sample: the generator rule (with its slot triangle)
    is dropped from check_law, in every xmod2 module that holds it, and the
    derivation law's premises never hold (``tcm_homotopy._by_construction``),
    for as long as ``patch`` lasts."""
    from xmod2 import tcm_homotopy

    real = maps.check_law

    def check_law(algebras, lhs, rhs, error, policy, on_keys=None, generators=(), triangle=False):
        return real(algebras, lhs, rhs, error, policy, on_keys=on_keys)

    patch_everywhere(patch, real, check_law)
    patch.setattr(tcm_homotopy, "_by_construction", lambda f0, act, s: False)


def _verdict(D, B, levels, s_images, t_images, policy):
    """"accept", or the error type and law of the first failure: of f
    from its level maps, of (s, t) over f, or of the target."""
    try:
        f = make_2cm_morphism(D, B, *levels, policy)
        make_quadratic_derivation(f, s_images, t_images, policy).target
    except XmodError as exc:
        return type(exc).__name__, getattr(exc, "law", None)
    return "accept"


def _level_maps(D, B, rng):
    """Random f0, f1, f2 for D -> B: f0 on the generators; f2 a random
    algebra map L -> L' (zero if the draw is not one), and f1 = d2' o f2 on
    E = L with d2 = id, the free domains of randgen (F3 has E = L = 0), so
    that both squares hold and the other three laws decide."""
    f0 = algebra_morphism(D.R, B.R, images={b: _random_element(B.R, rng) for b in D.R.generators})
    try:
        f2 = algebra_morphism(D.L, B.L, images={k: _random_element(B.L, rng) for k in D.L.basis_keys()})
    except LawViolation:
        f2 = algebra_morphism(D.L, B.L, images={k: B.L.zero() for k in D.L.basis_keys()})
    f1 = algebra_morphism(D.E, B.E, images={k: B.d2(f2(D.d2(D.E.basis_element(k))))
                                            for k in D.E.basis_keys()})
    return f0, f1, f2


def _candidates(rng, domains, targets, n):
    """n drawn (D, B, level maps, s-images, t-images): s on the generators
    and t on the E-basis, unfiltered; t = 0 in half of the draws, so that
    t-action is reached."""
    out = []
    for _ in range(n):
        D, B = rng.choice(domains), rng.choice(targets)
        s_images = {b: _random_element(B.E, rng) for b in D.R.generators}
        t_images = {}
        if rng.random() < 0.5:
            t_images = {k: _random_element(B.L, rng, density=0.5) for k in D.E.basis_keys()}
        out.append((D, B, _level_maps(D, B, rng), s_images, t_images))
    return out


def _mismatches(monkeypatch, candidates):
    """The proved verdicts, and the candidates whose verdict differs under
    the sampled checks of Policy(samples=200)."""
    proved = [_verdict(D, B, levels, s, t, PROVED) for D, B, levels, s, t in candidates]
    with monkeypatch.context() as patch:
        _sampled_only(patch)
        sampled = [_verdict(D, B, levels, s, t, SAMPLED) for D, B, levels, s, t in candidates]
    return proved, [(c, p, q) for c, p, q in zip(candidates, proved, sampled) if p != q]


def test_proved_verdicts_equal_the_sampled_verdicts(monkeypatch):
    """1,000 candidates: 100 from F3 into F2 over Q, 600 from free F5
    domains (d1 = 0, dim E = dim L <= 2) into the three kernel targets of
    the groupoid benchmark, and 300 from them into the shift kernel."""
    rng = random.Random(16)
    F3, F2 = fixtures.free_line_two_crossed(), fixtures.square_two_crossed()
    domains = [random_free_two_crossed(F5, rng, max_dim=2, policy=PROVED) for _ in range(6)]
    candidates = (
        _candidates(rng, [F3], [F2], 100)
        + _candidates(rng, domains, _kernel_targets(), 600)
        + _candidates(rng, domains, [_shift_kernel()], 300)
    )
    proved, mismatched = _mismatches(monkeypatch, candidates)
    assert mismatched == []
    laws = {v if v == "accept" else v[1] for v in proved}
    assert {"accept", "t-action", "equivariance", "t-product"} <= laws


@pytest.mark.parametrize("mutant", ["FreeAlgebra.key_mul", "substitution image"])
def test_a_broken_substitution_splits_the_verdicts(monkeypatch, mutant):
    """The s-law and g0 are proved by construction, so the checker no
    longer evaluates them.  A substitution mutant must then be caught by
    the sampled verdict: x x multiplied to x, or a monomial sent to the
    image of its last generator alone."""
    if mutant == "FreeAlgebra.key_mul":
        def key_mul(self, k1, k2):
            return self.element({tuple(sorted(k1 + k2))[1:]: 1})

        monkeypatch.setattr(FreeAlgebra, "key_mul", key_mul)
    else:
        real = LinearMap._image

        def image(self, key):
            if self.rule == "substitution" and len(key) > 1:
                return self.images[key[-1]]
            return real(self, key)

        monkeypatch.setattr(LinearMap, "_image", image)
    rng = random.Random(17)
    domains = [random_free_two_crossed(F5, rng, max_dim=2, policy=PROVED) for _ in range(3)]
    candidates = _candidates(rng, domains, _kernel_targets(), 40)
    assert _mismatches(monkeypatch, candidates)[1]


def _table_acted_domain():
    """R = F5[x]+ acting on E = L = F5{u} (u^2 = u) by the table x > u = u:
    an action of a free algebra, so A2 is only sampled."""
    R = make_free_algebra(["x"], F5)
    E = make_finite_algebra(["u"], {("u", "u"): {"u": 1}}, F5)
    u = E.basis_element("u")
    act = make_action(R, E, {"x": {"u": u}}, PROVED)
    return make_two_crossed(
        E, E, R, d2=identity_map(E), d1=algebra_morphism(E, R, images={"u": R.zero()}, policy=PROVED),
        act_e=act, act_l=act, lift=BilinearMap(E, E, E, {("u", "u"): u}),
        policy=PROVED,
    )


def test_a_missing_premise_falls_back_to_a_sampled_certificate():
    sampled = PROVED.certificate
    F3, F2 = fixtures.free_line_two_crossed(), fixtures.square_two_crossed()
    a, p = F2.E.basis_element("a"), F2.R.basis_element("p")

    # f0 a substitution: the s-law and t-action are proved, g0 is a substitution
    f = make_2cm_morphism(F3, F2, algebra_morphism(F3.R, F2.R, images={"x": p}),
                          algebra_morphism(F3.E, F2.E, images={}),
                          algebra_morphism(F3.L, F2.L, images={}), PROVED)
    qd = make_quadratic_derivation(f, {"x": a}, {}, PROVED)
    assert qd.certificates["s-law"].exhaustive and qd.certificates["t-action"].exhaustive
    assert qd.target.f0.rule == "substitution" and qd.target.f0.multiplicative.exhaustive
    assert qd.target.certificates["f1-equivariance"].exhaustive

    # f0 a formula map with no certificate: the s-law and g0 are sampled
    # (t-action, over E = 0, is vacuous)
    qd = make_quadratic_derivation(zero_2cm_morphism(F3, F2, PROVED), {"x": a}, {}, PROVED)
    assert qd.certificates["s-law"] is sampled
    assert qd.target.f0.rule == "function" and qd.target.f0.multiplicative is sampled

    # R' |x E' not proved (a free target): the s-law is sampled
    qd = make_quadratic_derivation(identity_2cm_morphism(F3), {}, {}, PROVED)
    assert qd.certificates["s-law"] is sampled

    # an action with A2 only sampled: both equivariance laws are sampled
    D = _table_acted_domain()
    x = D.R.monomial("x")
    f = make_2cm_morphism(D, D, algebra_morphism(D.R, D.R, images={"x": x}),
                          identity_map(D.E), identity_map(D.L), PROVED)
    assert f.certificates["f1-equivariance"] is sampled
    assert f.certificates["f2-equivariance"] is sampled
    # ... and t-action, over E != 0, is sampled
    assert make_quadratic_derivation(f, {}, {}, PROVED).certificates["t-action"] is sampled
    D = random_free_two_crossed(F5, random.Random(3), max_dim=2, policy=PROVED)
    f = make_2cm_morphism(D, D, algebra_morphism(D.R, D.R, images={"x": D.R.monomial("x")}),
                          identity_map(D.E), identity_map(D.L), PROVED)
    assert f.certificates["f1-equivariance"].exhaustive and f.certificates["f2-equivariance"].exhaustive


def _law_slots(monkeypatch):
    """The slot list of every law_tuples call wherever xmod2 makes one, as
    a list that fills while the patch lasts."""
    real, seen = maps.law_tuples, []

    def recording(algebras, *args, **kwargs):
        seen.append(tuple(algebras))
        return real(algebras, *args, **kwargs)

    patch_everywhere(monkeypatch, real, recording)
    return seen


VACUOUS_OVER_F3 = ("d1-square", "d2-square", "f1-equivariance", "f2-equivariance", "lifting")


def test_the_laws_over_a_zero_e_or_l_are_vacuous(monkeypatch):
    """Out of F3 = 0 -> 0 -> Q[x]+ every morphism law has a slot over E = 0
    or L = 0, and t-product and t-action quantify over E = 0: a map and a
    quadratic derivation make no law_tuples call for any of them, and each
    is EXHAUSTIVE, over the zero map too, whose f0 has no certificate (its
    s-law, a law over R alone, stays sampled)."""
    F3, F2 = fixtures.free_line_two_crossed(), fixtures.square_two_crossed()
    a = F2.E.basis_element("a")
    get_tower(F2, PROVED)  # kept per policy: the tower's checks are not the homotopy's
    levels = (algebra_morphism(F3.R, F2.R, images={"x": F2.R.basis_element("p")}),
              algebra_morphism(F3.E, F2.E, images={}), algebra_morphism(F3.L, F2.L, images={}))
    zeros = (zero_map(F3.R, F2.R), zero_map(F3.E, F2.E), zero_map(F3.L, F2.L))
    # the only law checked is the s-law, over the zero map: by construction over the substitution
    for (f0, f1, f2), checked in ((levels, []), (zeros, [(F3.R, F3.R)])):
        with monkeypatch.context() as patch:
            seen = _law_slots(patch)
            f = make_2cm_morphism(F3, F2, f0, f1, f2, PROVED)
            qd = make_quadratic_derivation(f, {"x": a}, {}, PROVED)
        assert seen == checked
        assert [f.certificates[law] for law in VACUOUS_OVER_F3] == [EXHAUSTIVE] * 5
        assert qd.certificates["t-product"] is EXHAUSTIVE and qd.certificates["t-action"] is EXHAUSTIVE
    assert f.f0.multiplicative is None and qd.certificates["s-law"] is PROVED.certificate


def test_the_laws_over_a_nonzero_e_and_l_are_checked(monkeypatch):
    """With E = L = F5{u} (``_table_acted_domain``) none of those laws is
    vacuous: each is one law_tuples call over its slots, in order, and the
    t-laws and their boundary forms follow the s-law."""
    D = _table_acted_domain()
    get_tower(D, PROVED)
    f0 = algebra_morphism(D.R, D.R, images={"x": D.R.monomial("x")})
    with monkeypatch.context() as patch:
        seen = _law_slots(patch)
        f = make_2cm_morphism(D, D, f0, identity_map(D.E), identity_map(D.L), PROVED)
        make_quadratic_derivation(f, {}, {}, PROVED)
    R, E, L = D.R, D.E, D.L
    assert seen == [(E,), (L,), (R, E), (R, L), (E, E),  # the five morphism laws
                    (R, R), (E, E), (R,), (L, L), (R,)]  # s-law, t-laws, boundary forms


R_SLOT_LAWS = ("d1-equivariance", "d2-equivariance", "2XM6")


def test_the_r_slot_laws_keep_a_sampled_certificate_without_their_premise():
    """XM1, d1-equivariance, d2-equivariance and 2XM6 take the generator
    rule only when A2 of the actions their closure lemmas use is proved:
    under the table action x > u = u, whose A2 is sampled, they stay
    sampled; over the zero actions of the free domains they are proved, so
    building such a domain draws no sample at all."""
    sampled = PROVED.certificate
    D = _table_acted_domain()
    assert D.act_e.certificate is sampled
    assert [D.certificates[law] for law in R_SLOT_LAWS] == [sampled] * 3
    assert make_precrossed(D.E, D.R, D.d1, D.act_e, PROVED).certificates["XM1"] is sampled
    rng = random.Random(5)
    for _ in range(6):
        D = random_free_two_crossed(F5, rng, max_dim=2, policy=PROVED)
        assert set(D.certificates.values()) == {EXHAUSTIVE}
        assert make_precrossed(D.E, D.R, D.d1, D.act_e, PROVED).certificates["XM1"] is EXHAUSTIVE
        assert D.R._draws == {}


def _withheld_r_slot(patch):
    """Withhold the generator slot from every law of ``crossed``, for as
    long as ``patch`` lasts: each is checked on its bases, or sampled."""
    real = crossed.check_law
    patch.setattr(crossed, "check_law", lambda *args, generators=(), **kwargs: real(*args, **kwargs))


def _outcome(build):
    """The certificates of what build() returns, or the error it raises:
    its type, law, witness, and both sides, as text."""
    try:
        return build().certificates
    except XmodError as exc:
        witness = getattr(exc, "witness", None)
        return (type(exc), getattr(exc, "law", None), witness and [str(u) for u in witness],
                str(getattr(exc, "lhs", None)), str(getattr(exc, "rhs", None)))


def _unproved(R, M):
    """q > m = m and p > m = 0 on every basis key m: a TableAction built
    without certify_action, whose A2 fails, as q = p^2 acts otherwise than
    p twice.  A law over it takes no generator rule."""
    return TableAction(R, M, {"q": {k: M.basis_element(k) for k in M.basis_keys()}})


def _p_squared(unproved="", order=("p", "q"), lift=True):
    """A 2-crossed module over R = <p, q; p^2 = q> (generated by p, listed
    in ``order``) over F5, with d1 = 0 and zero products on E and L, whose
    R-slot law fails at q, the basis element outside G_R = {p}.

    ``unproved`` names the action built by ``_unproved``; that law then
    fails at q alone.  Otherwise E = <a> and L = <a1, a2, a3>, acted on by
    p > a1 = a2, p > a2 = a3, q > a1 = a3 (both actions proved): the law
    fails at p on G_R too, and the rule raises there, while the basis
    check, which lists q first, raises at q.  ``lift`` gives {a (x) a} =
    the first basis element of L and d2 = 0, so 2XM6 is the law that
    fails; else the lifting is zero and d2 sends each basis element of L
    to the same-named one of E, so d2-equivariance fails."""
    R = make_finite_algebra(list(order), {("p", "p"): {"q": 1}}, F5)
    L = make_finite_algebra(["a"] if unproved else ["a1", "a2", "a3"], {}, F5)
    E = make_finite_algebra(L.labels if not lift else ["a"], {}, F5)
    if unproved:
        act_e, act_l = (_unproved(R, E), zero_action(R, L)) if unproved == "e" else (
            zero_action(R, E), _unproved(R, L))
    else:
        l1, l2, l3 = L.basis_elements()
        act_e = zero_action(R, E)
        act_l = make_action(R, L, {"p": {"a1": l2, "a2": l3}, "q": {"a1": l3}}, PROVED)
    d2 = algebra_morphism(L, E, images={k: E.zero() if lift else E.basis_element(k) for k in L.labels},
                          policy=PROVED)
    d1 = algebra_morphism(E, R, images={k: R.zero() for k in E.labels}, policy=PROVED)
    table = {("a", "a"): L.basis_elements()[0]} if lift else {}
    return make_two_crossed(L, E, R, d2, d1, act_e, act_l, BilinearMap(E, E, L, table), PROVED)


def _d_onto_q(as_two_crossed):
    """E = <a> (a^2 = 0) -> R = <p, q; p^2 = q>, d(a) = q, under the
    unproved action: XM1 holds at p and fails at q.  As a pre-crossed
    module, or as the 2-crossed module 0 -> E -> R, where the same law is
    d1-equivariance."""
    R = make_finite_algebra(["p", "q"], {("p", "p"): {"q": 1}}, F5)
    E = make_finite_algebra(["a"], {}, F5)
    d = algebra_morphism(E, R, images={"a": R.basis_element("q")}, policy=PROVED)
    if not as_two_crossed:
        return make_precrossed(E, R, d, _unproved(R, E), PROVED)
    L = zero_algebra(F5)
    return make_two_crossed(L, E, R, algebra_morphism(L, E, images={}, policy=PROVED), d,
                            _unproved(R, E), zero_action(R, L), zero_bilinear(E, E, L), PROVED)


P_SQUARED_CANDIDATES = [  # (build, the law that fails at q)
    (partial(_d_onto_q, False), "XM1"),
    (partial(_d_onto_q, True), "XM1"),
    (partial(_p_squared, "l", lift=False), "equivariance"),
    (partial(_p_squared, "e", lift=False), "equivariance"),
    (partial(_p_squared, "l"), "2XM6"),
    (partial(_p_squared, "e"), "2XM6"),
    (partial(_p_squared, order=("q", "p"), lift=False), "equivariance"),
    (partial(_p_squared, order=("q", "p")), "2XM6"),
]


def test_the_r_slot_rule_decides_what_the_plain_check_decides(monkeypatch):
    """The generator rule on the R slot gives each verdict, error type and
    law that the check without it gives: on drawn kernels over F5, rebuilt
    and as pre-crossed modules, on the corrupted F2 variants, and on
    structures over <p, q; p^2 = q> whose law linear in r fails at q,
    outside G_R.  The witness may differ: a law that fails on G_R = {p}
    reports p, a failing basis element all the same."""
    rng = random.Random(41)
    kernels = [random_two_crossed(F5, rng, max_dim=2, policy=PROVED) for _ in range(20)]
    builds = [partial(make_two_crossed, A.L, A.E, A.R, A.d2, A.d1, A.act_e, A.act_l, A.lift, PROVED)
              for A in kernels]
    builds += [partial(make_precrossed, A.E, A.R, A.d1, A.act_e, PROVED) for A in kernels]
    builds += [thunk for _, thunk, _, _, _ in fixtures.corrupted_f2_variants()]
    builds += [build for build, _ in P_SQUARED_CANDIDATES]
    by_rule = [_outcome(build) for build in builds]
    with monkeypatch.context() as patch:
        _withheld_r_slot(patch)
        plain = [_outcome(build) for build in builds]

    def verdict(outcome):
        return outcome if isinstance(outcome, dict) else outcome[:2]

    assert [verdict(o) for o in by_rule] == [verdict(o) for o in plain]
    assert all(isinstance(outcome, dict) for outcome in by_rule[:40])
    n = len(P_SQUARED_CANDIDATES)
    assert [(law, witness[0]) for _, law, witness, _, _ in plain[-n:]] == [
        (law, "q") for _, law in P_SQUARED_CANDIDATES]
    assert [(law, witness[0]) for _, law, witness, _, _ in by_rule[-n:]] == [
        (law, "q") for _, law in P_SQUARED_CANDIDATES[:6]] + [
        (law, "p") for _, law in P_SQUARED_CANDIDATES[6:]]
    assert all(lhs != rhs for _, _, _, lhs, rhs in by_rule[-n:] + plain[-n:])


def test_crossed_derivations_over_a_free_r_are_proved_the_same_way():
    """The s-half and g0 are shared by both layers: a crossed derivation
    from a free line into F1 has its law by construction and a
    substitution g0, unless f0 carries no certificate."""
    R = make_free_algebra(["y"], QQ)
    E = make_finite_algebra(["a"], {}, QQ)
    C = make_crossed(E, R, algebra_morphism(E, R, images={"a": R.zero()}), zero_action(R, E))
    F1 = fixtures.ideal_crossed()
    x, x2 = F1.R.basis_element("x"), F1.E.basis_element("x2")
    f1 = algebra_morphism(C.E, F1.E, images={"a": F1.E.zero()})
    f = make_cm_morphism(C, F1, algebra_morphism(R, F1.R, images={"y": x}), f1, PROVED)
    d = make_cm_derivation(f, {"y": 3 * x2}, PROVED)
    assert d.certificates["s-law"].exhaustive
    g0 = d.target.f0
    assert g0.rule == "substitution" and g0(R.monomial("y")) == x + 3 * F1.R.basis_element("x2")
    assert g0(R.monomial("y", "y")) == F1.R.basis_element("x2")
    f = make_cm_morphism(C, F1, zero_map(R, F1.R), f1, PROVED)
    d = make_cm_derivation(f, {"y": 3 * x2}, PROVED)
    assert d.certificates["s-law"] is PROVED.certificate
    assert d.target.f0.rule == "function"


def _g0_target(policy):
    """An F3 -> F2 derivation over the substitution f0: x -> p with s(x) =
    a, whose target's g0 is the substitution x -> p + d1'(a) = 2p."""
    F3, F2 = fixtures.free_line_two_crossed(), fixtures.square_two_crossed()
    f = make_2cm_morphism(F3, F2, algebra_morphism(F3.R, F2.R, images={"x": F2.R.basis_element("p")}),
                          algebra_morphism(F3.E, F2.E, images={}),
                          algebra_morphism(F3.L, F2.L, images={}), policy)
    return make_quadratic_derivation(f, {"x": F2.E.basis_element("a")}, {}, policy)


def test_the_g0_tripwire_catches_a_wrong_image_of_x_squared(monkeypatch):
    """g0 is proved by construction, so only the tripwire f0 + d'.s reads
    its images.  A g0 that sends x^2 to p instead of 4p^2 = 0 is rejected
    at the monomial x^2 itself."""
    real = LinearMap._image

    def image(self, key):
        if self.note == "g0" and self.rule == "substitution" and key == ("x", "x"):
            return self.target.basis_element("p")
        return real(self, key)

    monkeypatch.setattr(LinearMap, "_image", image)
    qd = _g0_target(PROVED)
    with pytest.raises(MorphismViolation, match="g0 differs from f0 \\+ d'.s") as err:
        qd.target
    (witness,) = err.value.witness
    assert witness == qd.f.src.R.monomial("x", "x") and len(next(iter(witness.coeffs))) >= 2


def test_the_g0_tripwire_evaluates_once_per_spanned_monomial(monkeypatch):
    """On a fresh target the tripwire's 11 tuples (x, then ten draws of
    degree <= 4) span at most x, x^2, x^3 and x^4, and the tripwire reads
    g0's key image at those alone, each once, x first (a longer monomial's
    image reading its prefix's is not a read of the tripwire)."""
    from xmod2 import tcm_homotopy

    real = tcm_homotopy.check_law
    seen = []

    def check_law(algebras, lhs, rhs, error, policy, **kwargs):
        if getattr(lhs, "note", None) != "g0":
            return real(algebras, lhs, rhs, error, policy, **kwargs)
        keys, inside, read = [], [], lhs._image

        def image(key):
            if not inside:
                keys.append(key)
            inside.append(key)
            try:
                return read(key)
            finally:
                inside.pop()

        seen.append((len(maps.law_tuples(algebras, policy)[0]), keys))
        lhs._image = image
        try:
            return real(algebras, lhs, rhs, error, policy, **kwargs)
        finally:
            del lhs._image

    monkeypatch.setattr(tcm_homotopy, "check_law", check_law)
    qd = _g0_target(PROVED)
    assert qd.target.f0.rule == "substitution"
    [(tuples, keys)] = seen
    assert tuples == 1 + PROVED.samples == 11
    assert 1 <= len(keys) <= 4 and len(set(keys)) == len(keys)
    assert keys[0] == ("x",) and all(key == ("x",) * len(key) for key in keys)


def test_a_known_target_is_compared_with_the_formula_beyond_b(monkeypatch):
    """A certified map m whose f0 agrees with f0 + d'.s on B but not at x^2
    is not the target.  ``_settle_target`` compares m's own f0 with the
    formula on the sampled r (the g0 tripwire), so it and ``concat_2cm``,
    which settles the composite on the second homotopy's target, refuse m
    at x^2."""
    F3, F2, f, h1, h2, _ = worked_homotopies(QQ, PROVED)
    k, x2 = h2.target, F3.R.monomial("x", "x")
    assert k.f0(x2).is_zero()  # x -> 3p, and p^2 = 0 in F2
    monkeypatch.setitem(k.f0._memo, ("x", "x"), F2.R.basis_element("p"))
    with pytest.raises(MorphismViolation, match="g0 differs from f0 \\+ d'.s") as err:
        concat_2cm(h1, h2, PROVED)
    assert err.value.witness == (x2,)
    composite = make_quadratic_derivation(f, {"x": 2 * F2.E.basis_element("a")}, {}, PROVED)
    with pytest.raises(MorphismViolation, match="g0 differs from f0 \\+ d'.s"):
        _settle_target(composite, k)
    assert "target" not in vars(composite)


def _zero_lemma_maps():
    """Maps drawn from each groupoid input family: F3 -> F2 over Q, free F5
    domains into the square-family and truncated kernels, the F1 slices,
    and a finite-R kernel into itself."""
    rng = random.Random(35)
    F3, F2, F1 = fixtures.free_line_two_crossed(), fixtures.square_two_crossed(), fixtures.ideal_crossed()
    out = [random_2cm_morphism(F3, F2, rng, policy=PROVED) for _ in range(3)]
    for target in _kernel_targets():
        D = random_free_two_crossed(F5, rng, max_dim=2, policy=PROVED)
        out += [random_2cm_morphism(D, target, rng, policy=PROVED) for _ in range(2)]
    out += [random_cm_morphism(F1, F1, rng, policy=PROVED) for _ in range(3)]
    K = _shift_kernel()
    return out + [random_2cm_morphism(K, K, rng, policy=PROVED) for _ in range(3)]


def test_the_zero_homotopy_is_the_zero_derivation_the_laws_certify(monkeypatch):
    """The zero lemma of zero_quadratic against the plain path.  On each
    drawn map f, make_quadratic_derivation(f, {}, {}) certifies, and its
    target, certified when read, equals f; zero_quadratic(f) is the same
    derivation, built with no check_law call, with EXHAUSTIVE certificates
    and f itself as its target (a target certified when read over the zero
    map that randgen falls back to, whose level maps carry no certificate)."""
    real, calls = maps.check_law, []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    drawn = _zero_lemma_maps()
    fallback = [f.f0.multiplicative is None for f in drawn]
    assert 0 < sum(fallback) < len(drawn)
    for f, zero_map_drawn in zip(drawn, fallback):
        get_tower(f.tgt, PROVED)  # kept per policy: the tower's checks are not the homotopy's
        with monkeypatch.context() as patch:
            patch_everywhere(patch, real, counted)
            zero = zero_quadratic(f, PROVED)
        assert calls == [] and all(cert is EXHAUSTIVE for cert in zero.certificates.values())
        # randgen's fallback, the zero map, meets no premise of _is_target
        assert ("target" in vars(zero)) is not zero_map_drawn
        assert zero.target.equal(f) and (zero.target is f) is not zero_map_drawn
        plain = make_quadratic_derivation(f, {}, {}, PROVED)
        assert plain is not zero and plain.equal(zero) and zero_quadratic(f, PROVED) is zero
        assert plain.target is not f and plain.target.equal(f)


def test_a_zero_homotopy_certifies_a_target_whose_premise_fails():
    """f is the zero homotopy's target only when f's certificates meet the
    premise of _is_target under its policy.  Otherwise the target is
    certified when read, and equals f: over the zero map, whose level maps
    carry no multiplicativity certificate, and under a policy other than
    the one that sampled f's equivariance laws."""
    F3, F2 = fixtures.free_line_two_crossed(), fixtures.square_two_crossed()
    D = _table_acted_domain()
    f = make_2cm_morphism(D, D, algebra_morphism(D.R, D.R, images={"x": D.R.monomial("x")}),
                          identity_map(D.E), identity_map(D.L), PROVED)
    assert f.certificates["f1-equivariance"] is PROVED.certificate
    assert zero_quadratic(f, PROVED).target is f
    for base, policy in ((zero_2cm_morphism(F3, F2, PROVED), PROVED), (f, SAMPLED)):
        zero = zero_quadratic(base, policy)
        assert "target" not in vars(zero)
        assert zero.target is not base and zero.target.equal(base)
