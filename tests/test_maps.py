import gc
import itertools
import random
import weakref

import pytest

from xmod2.algebra import (
    Element,
    FreeAlgebra,
    make_finite_algebra,
    make_free_algebra,
    unit_key,
    zero_algebra,
)
from xmod2.errors import (
    A1Violation,
    A2Violation,
    BadShape,
    MorphismViolation,
    NonCommutative,
    OwnerMismatch,
)
from xmod2.maps import (
    EXHAUSTIVE,
    BasisTuples,
    BilinearMap,
    Certificate,
    FunctionAction,
    LinearMap,
    Policy,
    TableAction,
    ZeroAction,
    algebra_morphism,
    certify_action,
    certify_algebra,
    check_law,
    identity_map,
    law_tuples,
    linear_map,
    make_action,
    morphisms_equal,
    random_element,
    zero_action,
    zero_bilinear,
    zero_map,
    _skeleton,
)
from xmod2.rings import QQ, PrimeField
from xmod2.simplex import get_tower

from helpers import assert_failing_basis_tuple


def f2_carriers():
    R = make_finite_algebra(["p"], {}, QQ)
    E = make_finite_algebra(["a", "b"], {("a", "a"): {"b": 1}}, QQ)
    return R, E


def test_substitution_morphism_squares_to_zero():
    R, _ = f2_carriers()
    P = make_free_algebra(["x"], QQ)
    phi = algebra_morphism(P, R, images={"x": R.basis_element("p")})
    assert phi(P.monomial("x", "x")).is_zero()  # p^2 = 0
    assert phi(P.monomial("x")) == R.basis_element("p")


def test_identity_and_zero_morphisms():
    R = make_finite_algebra(["x", "x2"], {("x", "x"): {"x2": 1}}, QQ)
    ident = identity_map(R)
    u = R.element({"x": 1, "x2": 1})
    assert ident(u) == u
    P = make_free_algebra(["x"], QQ)
    phi = algebra_morphism(P, R, images={"x": R.zero()})
    assert phi(P.element({("x",): 1, ("x", "x"): 2})).is_zero()


def test_table_morphism_certified():
    R = make_finite_algebra(["x", "x2"], {("x", "x"): {"x2": 1}}, QQ)
    f = algebra_morphism(R, R, images={"x": R.basis_element("x"), "x2": R.basis_element("x2")})
    assert f.multiplicative.exhaustive
    with pytest.raises(MorphismViolation):
        algebra_morphism(R, R, images={"x": R.basis_element("x"), "x2": R.zero()})


def test_a_free_source_reads_a_generator_without_an_image_as_zero():
    """A substitution is given on generators, and one with no image goes
    to zero, as a table reads a basis key with none; it is multiplicative
    by construction.  A key that is no generator is refused by name."""
    P = make_free_algebra(["x", "y"], QQ)
    R = make_finite_algebra(["p"], {}, QQ)
    p = R.basis_element("p")
    f = algebra_morphism(P, R, images={"x": p})
    assert f.multiplicative is EXHAUSTIVE
    assert f(P.monomial("x")) == p
    assert f(P.monomial("y")).is_zero() and f(P.monomial("x", "y")).is_zero()
    with pytest.raises(BadShape, match="image given for unknown key 'z' of "):
        algebra_morphism(P, R, images={"x": p, "z": p})


def test_linear_map_guards():
    R = make_finite_algebra(["x"], {}, QQ)
    P = make_free_algebra(["y"], QQ)
    with pytest.raises(BadShape):
        linear_map(P, R, {})  # free source needs generator images
    with pytest.raises(BadShape):
        linear_map(R, R, {"nope": R.zero()})
    with pytest.raises(OwnerMismatch):
        linear_map(R, R, {"x": P.monomial("y")})


def map_compose(f, g):
    """f after g."""
    return LinearMap(g.source, f.target, "function", fn=lambda u: f(g(u)))


def test_map_algebra_helpers():
    R = make_finite_algebra(["x", "x2"], {("x", "x"): {"x2": 1}}, QQ)
    f = identity_map(R)
    g = linear_map(R, R, {k: -R.basis_element(k) for k in R.labels})
    u = R.element({"x": 3})
    c = map_compose(f, g)
    assert c(u) == -u
    z = zero_map(R, R)
    assert z(u).is_zero()
    assert morphisms_equal(f, map_compose(f, f))
    assert not morphisms_equal(f, g)


def test_make_action_zero_and_multiplication_style():
    R, E = f2_carriers()
    act = zero_action(R, E)
    assert act.certificate.exhaustive
    assert act(R.basis_element("p"), E.basis_element("a")).is_zero()
    # valid nonzero action: p > a = b, p > b = 0
    act2 = make_action(R, E, {"p": {"a": E.basis_element("b")}})
    assert act2.certificate.exhaustive
    assert act2(R.basis_element("p"), E.basis_element("a")) == E.basis_element("b")


def test_action_a1_violation_with_witness():
    _, E = f2_carriers()
    a = E.basis_element("a")
    table = {"p": {"a": a}}
    # p > a = a fails A1 on (p, a, a): p > (a a) = p > b = 0 but (p > a) a = b;
    # with p^2 = p, A2 holds: pp > a = a = p > (p > a), and pp > b = 0
    R = make_finite_algebra(["p"], {("p", "p"): {"p": 1}}, QQ)
    with pytest.raises(A1Violation) as err:
        make_action(R, E, table)
    assert err.value.witness == (R.basis_element("p"), a, a)
    _, lhs, rhs, _ = _action_law(TableAction(R, E, table), "A1")
    assert_failing_basis_tuple(err.value, lhs, rhs)
    # with p^2 = 0 the same table fails A2 at (p, p, a) too, and A2 is decided first
    R, _ = f2_carriers()
    with pytest.raises(A2Violation) as err:
        make_action(R, E, table)
    _, lhs, rhs, _ = _action_law(TableAction(R, E, table), "A2")
    assert_failing_basis_tuple(err.value, lhs, rhs)


def test_action_a2_violation():
    # q^2 = q with q > a = a is fine; q^2 = 0 with q > a = a breaks A2
    R = make_finite_algebra(["q"], {}, QQ)
    E = make_finite_algebra(["a"], {}, QQ)
    with pytest.raises(A2Violation):
        make_action(R, E, {"q": {"a": E.basis_element("a")}})


def _action_law(act, law):
    """(algebras, lhs, rhs, error) of the law A1 or A2 of act."""
    R, M = act.acting, act.acted
    if law == "A1":
        return [R, M, M], lambda r, m1, m2: act(r, m1 * m2), lambda r, m1, m2: act(r, m1) * m2, A1Violation
    return [R, R, M], lambda r1, r2, m: act(r1 * r2, m), lambda r1, r2, m: act(r1, act(r2, m)), A2Violation


def _element_path_error(R, M, table, law):
    """The error the element path of check_law raises for one law of the
    table action R > M, built without certifying it."""
    algebras, lhs, rhs, error = _action_law(TableAction(R, M, table), law)
    with pytest.raises(error) as info:
        check_law(algebras, lhs, rhs, error, Policy())
    return info.value


@pytest.mark.parametrize("rbasis, mbasis, mproducts, law, witness", [
    # dim R < dim M: (q, q, a) is position 9 of 12 tuples over [R, R, M]
    (["p", "q"], ["a", "b", "c"], {}, "A2", ("q", "q", "a")),
    # dim R > dim M: position 4 of 9; a position counted in dim M reads (p, s, a)
    (["p", "q", "s"], ["a"], {}, "A2", ("q", "q", "a")),
    # A1 over [R, M, M] with dim R != dim M: q > aa = 0 but (q > a)a = b
    (["p", "q"], ["a", "b", "c"], {("a", "a"): {"b": 1}}, "A1", ("q", "a", "a")),
])
def test_key_path_witness_when_dims_differ(rbasis, mbasis, mproducts, law, witness):
    # q > a = a only; zero products on R for A2, and q^2 = q for A1, so A2
    # holds there and A1, decided after it, is the law that fails
    R = make_finite_algebra(rbasis, {("q", "q"): {"q": 1}} if law == "A1" else {}, QQ)
    M = make_finite_algebra(mbasis, mproducts, QQ)
    table = {"q": {"a": M.basis_element("a")}}
    error = A1Violation if law == "A1" else A2Violation
    with pytest.raises(error) as info:
        make_action(R, M, table)
    got = info.value
    assert tuple(str(u) for u in got.witness) == witness
    _, lhs, rhs, _ = _action_law(TableAction(R, M, table), law)
    assert_failing_basis_tuple(got, lhs, rhs)
    expected = _element_path_error(R, M, table, law)
    assert type(got) is type(expected)
    assert [u.coeffs for u in got.witness] == [u.coeffs for u in expected.witness]
    assert (got.lhs, got.rhs) == (expected.lhs, expected.rhs)


def test_a_map_failing_on_generators_raises_the_basis_witness():
    """E = <b, a; a^2 = b> lists its generator a after b.  f(b) = t, an
    idempotent, and f(a) = 0 fails at (a, a) on the generating set {a},
    but at (b, b) first on the basis.  Both reject; the generator rule
    raises at (a, a), a failing pair of basis elements too, without
    deciding the law again."""
    E = make_finite_algebra(["b", "a"], {("a", "a"): {"b": 1}}, QQ)
    T = make_finite_algebra(["t"], {("t", "t"): {"t": 1}}, QQ)
    assert E.generating_positions() == (1,)
    images = {"b": T.basis_element("t"), "a": T.zero()}
    with pytest.raises(MorphismViolation) as info:
        algebra_morphism(E, T, images=images)
    f = linear_map(E, T, images)
    lhs, rhs = (lambda u, v: f(u * v)), (lambda u, v: f(u) * f(v))
    with pytest.raises(MorphismViolation) as expected:
        check_law([E, E], lhs, rhs, MorphismViolation, Policy())
    assert [str(u) for u in info.value.witness] == ["a", "a"]
    assert [str(u) for u in expected.value.witness] == ["b", "b"]
    assert_failing_basis_tuple(info.value, lhs, rhs)


# R = <p; p^2 = p>, so G(R) = {p}; M = <n, m, o> with m^2 = n, mn = o lists
# its generator m after n.
_IDEMPOTENT_R = (["p"], {("p", "p"): {"p": 1}})
_CUBIC_M = (["n", "m", "o"], {("m", "m"): {"n": 1}, ("m", "n"): {"o": 1}, ("n", "m"): {"o": 1}})


@pytest.mark.parametrize("table, a2_fails, witness", [
    # A2 holds; A1 fails at (p, m, m) on generators, first at (p, n, m) on the bases
    ({"p": {"n": {"n": 1}}}, False, ("p", "m", "m")),
    # both fail: A2 is checked first, on generators, and raised
    ({"p": {"m": {"m": 2}, "n": {"o": 1}}}, True, ("p", "p", "n")),
])
def test_an_action_failing_on_generators_raises_the_basis_error(table, a2_fails, witness):
    """The generator rule rejects what the plain check on the bases
    rejects, with the same error type, at a failing tuple of its own
    generating sets."""
    R = make_finite_algebra(*_IDEMPOTENT_R, QQ)
    M = make_finite_algebra(*_CUBIC_M, QQ)
    assert M.generating_positions() == (1,)
    table = {r: {k: M.element(v) for k, v in row.items()} for r, row in table.items()}
    law = "A2" if a2_fails else "A1"
    _, lhs, rhs, error = _action_law(TableAction(R, M, table), law)
    with pytest.raises(error) as info:
        make_action(R, M, table)
    _element_path_error(R, M, table, "A1")  # the plain check fails A1 in both cases
    if a2_fails:
        _element_path_error(R, M, table, "A2")
    assert tuple(str(u) for u in info.value.witness) == witness
    assert_failing_basis_tuple(info.value, lhs, rhs)


def test_free_acting_table_action_certificates():
    P = make_free_algebra(["x"], QQ)
    _, E = f2_carriers()
    pol = Policy(samples=30, seed=9)
    act = make_action(P, E, {"x": {"a": E.basis_element("b")}}, pol)
    cert = act.certificate
    assert not cert.exhaustive
    assert (cert.max_degree, cert.samples, cert.seed) == (4, 30, 9)
    # monomials act by iterated generator action: x^2 > a = x > (x > a) = 0
    assert act(P.monomial("x", "x"), E.basis_element("a")).is_zero()


def test_a1_takes_the_generator_rule_only_once_a2_is_proved(monkeypatch):
    """Over a free acting algebra A2 is sampled (its r2 slot is infinite),
    so A1 may not take r and m1 on generating sets, which its closure
    lemma draws from A2: both laws keep the sampled certificate.  Over
    finite algebras A2 is proved first, and A1 is proved after it."""
    from xmod2 import maps

    real, certs = maps.check_law, {}

    def recording(algebras, lhs, rhs, error, *args, **kwargs):
        certs[error] = real(algebras, lhs, rhs, error, *args, **kwargs)
        return certs[error]

    monkeypatch.setattr(maps, "check_law", recording)
    R, E = f2_carriers()
    P = make_free_algebra(["x"], QQ)
    b = E.basis_element("b")
    make_action(P, E, {"x": {"a": b}}, Policy(samples=5))
    assert not certs[A2Violation].exhaustive and not certs[A1Violation].exhaustive
    make_action(R, E, {"p": {"a": b}})
    assert certs[A2Violation].exhaustive and certs[A1Violation].exhaustive


def test_bilinear_map_requires_finite_and_is_bilinear():
    _, E = f2_carriers()
    L = make_finite_algebra(["k"], {}, QQ)
    lift = BilinearMap(E, E, L, {("a", "a"): L.basis_element("k")})
    a, b = E.basis_element("a"), E.basis_element("b")
    assert lift(2 * a + b, 3 * a) == 6 * L.basis_element("k")
    P = make_free_algebra(["x"], QQ)
    with pytest.raises(BadShape):
        BilinearMap(P, E, L, {(("x",), "a"): L.basis_element("k")})


def test_certify_action_reduced_conditions_for_semidirect_actor():
    # exhaustive certification over a semidirect acting algebra runs the
    # split-actor tuples, i.e. the reduced conditions
    from xmod2.maps import semidirect

    R, E = f2_carriers()
    lam1 = semidirect(R, E, zero_action(R, E))
    L = make_finite_algebra(["k"], {}, QQ)

    from xmod2.maps import FunctionAction

    act = FunctionAction(lam1, L, lambda k1, k2: L.zero(), note="zero-like", origin=lam1)
    cert = certify_action(act)
    assert cert.exhaustive


def test_check_law_certificates_and_first_failing_witness():
    R = make_finite_algebra(["x", "x2"], {("x", "x"): {"x2": 1}}, QQ)
    P = make_free_algebra(["y", "z"], QQ)
    pol = Policy(samples=7, max_degree=3, seed=11)

    def commutes(alg):
        return check_law([alg, alg], lambda u, v: u * v, lambda u, v: v * u, NonCommutative, pol)

    assert commutes(R) is EXHAUSTIVE
    cert = commutes(P)
    assert not cert.exhaustive
    assert (cert.max_degree, cert.samples, cert.seed) == (3, 7, 11)

    # u * v == 0 fails first on the first basis pair with a nonzero product
    tuples, _ = law_tuples([R, R], pol)
    first = next(t for t in tuples if not (t[0] * t[1]).is_zero())
    with pytest.raises(MorphismViolation) as err:
        check_law([R, R], lambda u, v: u * v, lambda u, v: R.zero(), MorphismViolation, pol)
    assert err.value.witness == first == (R.basis_element("x"), R.basis_element("x"))
    assert err.value.lhs == R.basis_element("x2") and err.value.rhs.is_zero()


def test_certify_algebra_proves_finite_semidirect_products_by_the_lemma(monkeypatch):
    """R |x M of proved parts under an action with an exhaustive certificate
    is EXHAUSTIVE with no law tuples drawn; an action whose certificate is
    None, a part not yet certified, or a free part still goes through the
    law check."""
    from xmod2 import maps
    from xmod2.algebra import SemidirectAlgebra
    from xmod2.maps import TableAction, certify_algebra, semidirect

    R, E = f2_carriers()
    act = make_action(R, E, {})
    P = make_free_algebra(["y"], QQ)
    pol = Policy(samples=5, max_degree=2, seed=4)
    real = maps.law_tuples
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(maps, "law_tuples", counting)

    lam1 = semidirect(R, E, act)
    assert lam1.certificate is EXHAUSTIVE
    outer = semidirect(lam1, E, zero_action(lam1, E))
    assert certify_algebra(outer) is EXHAUSTIVE and outer.certificate is EXHAUSTIVE
    assert calls == []

    bare = SemidirectAlgebra(R, E, act)
    assert bare.certificate is None
    assert certify_algebra(SemidirectAlgebra(bare, E, zero_action(bare, E))) is EXHAUSTIVE
    assert len(calls) == 2  # commutativity and associativity

    unproved = TableAction(R, E, {})
    assert unproved.certificate is None
    assert semidirect(R, E, unproved).certificate is EXHAUSTIVE
    assert len(calls) == 4

    mixed = semidirect(P, E, zero_action(P, E), pol)
    assert mixed.certificate == Certificate(False, 2, 5, 4)
    assert len(calls) == 6


def _fresh_draw(policy, algebras):
    """The sampled part of a non-finite list: N draws from Random(policy.seed)."""
    rng = random.Random(policy.seed)
    return [
        tuple(random_element(a, rng, policy.max_degree) for a in algebras)
        for _ in range(policy.samples)
    ]


def test_sampled_tuples_are_drawn_once_and_exactly(monkeypatch):
    """The sampled tuples of a non-finite list are a fresh Random(seed)
    draw for that list alone, whatever was drawn before; a second call
    returns the same objects without drawing, another policy or a twin
    structure gets its own entry, and a finite list draws nothing."""
    from xmod2 import maps

    R = make_free_algebra(["x", "y"], QQ)
    _, E = f2_carriers()
    pol = Policy(samples=6, max_degree=3, seed=5)
    lists = [[R, R], [R], [R, E]]
    draws = []
    real = maps.random_element
    monkeypatch.setattr(maps, "random_element", lambda *a, **k: draws.append(1) or real(*a, **k))

    first = [law_tuples(algebras, pol)[0] for algebras in lists]
    assert len(draws) == sum(len(algebras) for algebras in lists) * pol.samples
    for algebras, tuples in zip(lists, first):
        assert tuples[-pol.samples:] == _fresh_draw(pol, algebras)
    del draws[:]
    for algebras, old in zip(lists, first):
        new, exhaustive = law_tuples(algebras, pol)
        assert not exhaustive and new == old
        assert all(a is b for a, b in zip(old[-pol.samples:], new[-pol.samples:]))
    assert not draws and len(R._draws) == 3 and not E._draws

    assert law_tuples([E, E], pol)[1] and not draws and not E._draws

    other = Policy(samples=6, max_degree=3, seed=6)
    tuples = law_tuples([R], other)[0]
    assert tuples[-other.samples:] == _fresh_draw(other, [R]) != first[1][-pol.samples:]
    assert len(R._draws) == 4

    twin = make_free_algebra(["x", "y"], QQ)
    tuples = law_tuples([twin], pol)[0]
    assert all(u.algebra is twin for t in tuples for u in t)
    assert len(twin._draws) == 1 and len(R._draws) == 4

    # a site that checks two laws draws each list from the seed: certify_algebra
    # draws [S, S] for commutativity, then [S, S, S] for associativity
    S = make_free_algebra(["x"], QQ)
    certify_algebra(S, pol)
    for algebras in ([S, S], [S, S, S]):
        assert list(S._draws[(pol, tuple(algebras))]) == _fresh_draw(pol, algebras)


def test_sampled_tuples_are_kept_on_their_structure():
    from xmod2.randgen import random_free_two_crossed

    pol = Policy(samples=4, seed=1)
    D = random_free_two_crossed(PrimeField(5), random.Random(2), policy=pol)
    tuples, _ = law_tuples([D.R, D.R], pol)
    assert D.R._draws
    assert law_tuples([D.R, D.R], pol)[0] == tuples
    structure, free = weakref.ref(D), weakref.ref(D.R)
    del D, tuples
    gc.collect()
    assert structure() is None and free() is None


def _probes(alg):
    """Unit basis (or generator) elements, scaled ones and two-term sums."""
    units = list(_skeleton(alg))
    ring = alg.ring
    scaled = [u.scale(ring.coerce(3)) for u in units] + [-u for u in units]
    sums = [u + v.scale(ring.coerce(2)) for u, v in zip(units, units[1:])]
    return units + scaled + sums + [alg.zero()]


def _sum(alg, terms):
    """sum(c * coeffs) over (scalar, coeffs) terms, one term at a time with
    Element's own + and scale."""
    out = alg.zero()
    for c, coeffs in terms:
        out = out + Element(alg, coeffs).scale(c)
    return out


def _twice_agrees(op, reference):
    """op() twice equals the term-by-term reference, and the first result's
    coefficients are untouched by the second call."""
    first = op()
    kept = dict(first.coeffs)
    second = op()
    assert first.algebra is reference.algebra and second.algebra is reference.algebra
    assert first.coeffs == kept == second.coeffs == reference.coeffs


def _direct_path_structures():
    from xmod2 import fixtures
    from xmod2.randgen import random_two_crossed

    pol = Policy(samples=4, seed=0)
    rng = random.Random(12)
    structures = [fixtures.square_two_crossed(), fixtures.free_line_two_crossed()]
    structures += [random_two_crossed(PrimeField(5), rng, policy=pol) for _ in range(3)]
    return [(A, get_tower(A, pol)) for A in structures]


def test_direct_basis_paths_agree_with_the_general_sum():
    """multiply, every LinearMap rule and FunctionAction take a direct path
    on a single basis key with coefficient one; on units, scaled units and
    two-term sums each must give the sum computed term by term."""
    seen_rules = set()
    partial_tables = 0
    for A, T in _direct_path_structures():
        algebras = [A.R, A.E, A.L] + list(T.levels)
        for alg in algebras:
            ring = alg.ring
            probes = _probes(alg)
            for u in probes:
                for v in probes:
                    _twice_agrees(lambda: alg.multiply(u, v), _sum(alg, [
                        (ring.mul(c1, c2), alg.key_mul(k1, k2).coeffs)
                        for k1, c1 in u.coeffs.items() for k2, c2 in v.coeffs.items()
                    ]))
        maps_ = [A.d1, A.d2] + list(T.faces.values()) + list(T.degeneracies.values())
        for alg in algebras:
            if alg.is_finite() and alg.dim() >= 2:  # a table with a key left out
                k0, k1 = alg.basis_keys()[:2]
                maps_.append(linear_map(alg, alg, {k0: alg.basis_element(k1).scale(2)}))
                partial_tables += 1
                break
        if isinstance(A.R, FreeAlgebra):
            x = A.R.generator_elements()[0]
            maps_.append(algebra_morphism(A.R, A.R, images={g: x + (x * x).scale(2)
                                                             for g in A.R.generators}))
        for f in maps_:
            seen_rules.add(f.rule)
            for u in _probes(f.source):
                images = [(c, f._image(k)) for k, c in u.coeffs.items()]
                _twice_agrees(lambda: f(u), _sum(
                    f.target, [(c, img.coeffs) for c, img in images if img is not None]))
        for act in T.actions.values():
            if not isinstance(act, FunctionAction):
                continue
            mul = act.acted.ring.mul
            for r in _probes(act.acting):
                for m in _probes(act.acted):
                    _twice_agrees(lambda: act(r, m), _sum(act.acted, [
                        (mul(c1, c2), act._image(k1, k2).coeffs)
                        for k1, c1 in r.coeffs.items() for k2, c2 in m.coeffs.items()
                    ]))
    assert seen_rules == {"table", "substitution", "function"} and partial_tables == 4


def test_law_tuples_is_held_by_maps_alone():
    """check_law is the one caller of law_tuples, so every law's certificate
    is decided there: no other xmod2 module holds law_tuples in its globals."""
    import importlib
    import pkgutil

    import xmod2

    names = [info.name for info in pkgutil.iter_modules(xmod2.__path__) if info.name != "__main__"]
    modules = [xmod2] + [importlib.import_module("xmod2." + name) for name in names]
    assert "maps" in names and "tcm_homotopy" in names
    assert [m.__name__ for m in modules if "law_tuples" in vars(m)] == ["xmod2.maps"]


def _span_keys(tuples):
    """The basis-key tuples that tuples span, in order of first appearance."""
    span = {}
    for t in tuples:
        for keys in itertools.product(*[u.coeffs for u in t]):
            span.setdefault(keys)
    return list(span)


def _counted(side, calls):
    def counted(*t):
        calls.append(t)
        return side(*t)

    return counted


def test_exhaustive_tuples_are_lazy_and_in_product_order():
    """A finite list's tuples are a BasisTuples: its length and iteration
    are those of the built product, and an exhaustive check that fails
    builds the tuple at its witness."""
    R, E = f2_carriers()
    tuples, exhaustive = law_tuples([R, E, E], Policy(samples=3))
    built = list(itertools.product(R.basis_elements(), E.basis_elements(), E.basis_elements()))
    assert exhaustive and isinstance(tuples, BasisTuples)
    assert len(tuples) == len(built) == 4 and list(tuples) == built
    assert len(law_tuples([R, zero_algebra(QQ)], Policy())[0]) == 0

    a, b = E.basis_element("a"), E.basis_element("b")
    assert certify_action(TableAction(R, E, {"p": {"a": b}})) is EXHAUSTIVE
    bad = TableAction(R, E, {"p": {"a": a}})  # pp > a = 0, p > (p > a) = a (A1 fails too)
    with pytest.raises(A2Violation) as err:
        certify_action(bad)
    p = R.basis_element("p")
    assert err.value.witness == (p, p, a)
    _, lhs, rhs, _ = _action_law(bad, "A2")
    assert_failing_basis_tuple(err.value, lhs, rhs)


def test_a_sampled_law_wrong_on_one_monomial_is_rejected_there():
    """A one-slot sampled law that fails on the monomial x^2 alone is
    decided on the monomials its draws span: the witness is (x^2,), with
    the error type the caller gave."""
    R = make_free_algebra(["x"], QQ)
    pol = Policy(samples=10, max_degree=3, seed=0)
    x2 = R.monomial("x", "x")
    tuples, exhaustive = law_tuples([R], pol)
    assert not exhaustive and ((("x", "x"),) in _span_keys(tuples))
    assert not any(t == (x2,) for t in tuples)  # no draw is x^2 itself
    doubled = LinearMap(R, R, "function", fn=lambda u: 2 * u if unit_key(u) == ("x", "x") else u)
    with pytest.raises(MorphismViolation) as err:
        check_law([R], doubled, lambda u: u, MorphismViolation, pol)
    assert type(err.value) is MorphismViolation
    assert err.value.witness == (x2,)
    assert err.value.lhs == 2 * x2 and err.value.rhs == x2


def test_a_sampled_law_finds_its_span_once_per_policy_and_list(monkeypatch):
    """The span of a sampled law's tuples is found once, with its draws, and
    kept in their _draws entry: a second check of the same list under the
    same policy evaluates the same key tuples, a finite slot's the kept
    basis elements, and a law wrong on x^2 alone is rejected with the same
    witness both times.  Another policy finds and keeps its own span, and
    R._draws holds one entry per (policy, list)."""
    from xmod2 import maps

    R = make_free_algebra(["x"], QQ)
    _, E = f2_carriers()
    pol, other = Policy(samples=10, max_degree=3, seed=0), Policy(samples=10, max_degree=3, seed=1)
    real, found = maps._span, []
    monkeypatch.setattr(maps, "_span", lambda tuples: found.append(len(tuples)) or real(tuples))
    x2 = R.monomial("x", "x")
    doubled = LinearMap(R, R, "function", fn=lambda u: 2 * u if unit_key(u) == ("x", "x") else u)
    witnesses, seen = [], []
    for _ in range(2):
        with pytest.raises(MorphismViolation) as err:
            check_law([R], doubled, lambda u: u, MorphismViolation, pol)
        witnesses.append(err.value.witness)
        calls = []
        check_law([R, E], _counted(lambda r, e: r, calls), lambda r, e: r, MorphismViolation, pol)
        seen.append(calls)
    assert witnesses == [(x2,), (x2,)]
    assert found == [1 + pol.samples, 2 + pol.samples]
    assert seen[0] == seen[1] and all(a[1] is b[1] for a, b in zip(*seen))
    assert all(t[1] is E.basis_element(unit_key(t[1])) for t in seen[0])
    assert [tuple(map(unit_key, t)) for t in seen[0]] == _span_keys(law_tuples([R, E], pol)[0])

    check_law([R], lambda u: u, lambda u: u, MorphismViolation, other)
    assert found == [1 + pol.samples, 2 + pol.samples, 1 + other.samples]
    assert set(R._draws) == {(pol, (R,)), (pol, (R, E)), (other, (R,))}
    assert list(R._draws[(other, (R,))].span) == _span_keys(law_tuples([R], other)[0])


def test_a_sampled_law_keeps_its_certificate_and_tuples():
    """Deciding on spanned key tuples changes neither the certificate (the
    policy's own object) nor the tuples law_tuples gives."""
    R = make_free_algebra(["x", "y"], QQ)
    pol = Policy(samples=6, max_degree=3, seed=5)
    before, _ = law_tuples([R, R], pol)
    cert = check_law([R, R], lambda u, v: u * v, lambda u, v: v * u, NonCommutative, pol)
    assert cert is pol.certificate
    after, exhaustive = law_tuples([R, R], pol)
    assert not exhaustive and after == before and len(after) == 4 + pol.samples
    assert after[-pol.samples:] == _fresh_draw(pol, [R, R])
    assert all(u is v for u, v in zip(before[-pol.samples:], after[-pol.samples:]))


def test_a_sampled_law_evaluates_each_spanned_key_tuple_once():
    """lhs and rhs run once per spanned key tuple, in order of first
    appearance, when those are fewer than the tuples; otherwise once per
    tuple.  Never more often than there are tuples."""
    R = make_free_algebra(["x"], QQ)
    pol = Policy(samples=20, max_degree=4, seed=1)
    tuples = law_tuples([R], pol)[0]
    span = _span_keys(tuples)
    assert len(span) <= 4 < len(tuples) == 21
    left, right = [], []
    check_law([R], _counted(lambda u: u, left), _counted(lambda u: u, right), MorphismViolation, pol)
    assert [tuple(map(unit_key, t)) for t in left] == span and left == right

    P = make_free_algebra(["x", "y"], QQ)
    pol = Policy(samples=2, max_degree=3, seed=3)
    tuples = law_tuples([P, P], pol)[0]
    assert len(_span_keys(tuples)) > len(tuples)
    calls = []
    check_law([P, P], _counted(lambda u, v: u * v, calls), lambda u, v: v * u, NonCommutative, pol)
    assert calls == list(tuples)


def test_a_law_with_a_zero_algebra_slot_evaluates_nothing_and_stays_sampled():
    """A zero element spans nothing, so a law with a zero-algebra slot over
    a free algebra evaluates no tuple and keeps the sampled certificate.
    F3's d1-equivariance over E = 0 is proved instead: its zero action's A2
    is proved, so r runs over B = {x} against the empty basis of E, an
    empty product."""
    from xmod2 import fixtures

    F3 = fixtures.free_line_two_crossed()
    R, E = F3.R, F3.E
    pol = Policy(samples=5, seed=1)
    tuples, exhaustive = law_tuples([R, E], pol)
    assert not exhaustive and len(tuples) == pol.samples and _span_keys(tuples) == []
    calls = []
    cert = check_law([R, E], _counted(lambda r, e: E.zero(), calls), lambda r, e: e,
                     MorphismViolation, pol)
    assert calls == [] and cert is pol.certificate
    assert F3.certificates["d1-equivariance"] is EXHAUSTIVE


def _bilinear_cases(ring):
    """One of each action and lifting class over ring, each as (name, f,
    left, right, target): the table action on a finite actor and on a free
    one, whose monomials act by iterated generator rows."""
    R = make_finite_algebra(["p", "q"], {("p", "p"): {"q": 1}}, ring)
    E = make_finite_algebra(["a", "b"], {("a", "a"): {"b": 1}}, ring)
    L = make_finite_algebra(["k", "m"], {}, ring)
    P = make_free_algebra(["x", "y"], ring)
    a, b = E.basis_element("a"), E.basis_element("b")
    k, m = L.basis_element("k"), L.basis_element("m")
    table = TableAction(R, E, {"p": {"a": 2 * a + b, "b": 3 * b}, "q": {"a": -b}})

    def formula(k1, k2):  # the key image of a function action
        image = table._image(k1, k2)
        return image * a + 3 * image

    return [
        ("zero action", ZeroAction(R, E), R, E, E),
        ("table action", table, R, E, E),
        ("free table action", TableAction(P, E, {"x": {"a": a + 2 * b, "b": b}, "y": {"a": 4 * b}}), P, E, E),
        ("function action", FunctionAction(R, E, formula), R, E, E),
        ("bilinear map", BilinearMap(E, E, L, {("a", "a"): k, ("a", "b"): 2 * k - m, ("b", "a"): m}), E, E, L),
        ("zero bilinear", zero_bilinear(P, E, L), P, E, L),
    ]


def _multi_term(alg, rng):
    """A drawn element of alg with two terms or more, one of them a product
    of generators when alg is free."""
    while True:
        u = random_element(alg, rng, 3)
        if len(u.coeffs) > 1 and (not isinstance(alg, FreeAlgebra) or any(len(k) > 1 for k in u.coeffs)):
            return u


@pytest.mark.parametrize("ring", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_actions_and_liftings_extend_their_key_images_bilinearly(ring):
    """On drawn multi-term elements every action and lifting gives the sum
    of c1 c2 times its value on the basis pairs."""
    rng, cases = random.Random(3), _bilinear_cases(ring)
    for name, f, left, right, target in cases:
        for _ in range(6):
            u, v = _multi_term(left, rng), _multi_term(right, rng)
            expected = target.zero()
            for k1, c1 in u.coeffs.items():
                for k2, c2 in v.coeffs.items():
                    image = f(left.basis_element(k1), right.basis_element(k2))
                    expected = expected + image.scale(ring.mul(c1, c2))
            assert f(u, v) == expected, name
    _, act, P, E, _ = cases[2]
    a, b = E.basis_element("a"), E.basis_element("b")
    # (x^2 + y) > a = x > (a + 2b) + 4b = a + 4b + 4b
    assert act(P.monomial("x", "x") + P.monomial("y"), a) == a + 8 * b


@pytest.mark.parametrize("ring", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_actions_and_liftings_give_the_shared_zero_and_refuse_foreign_arguments(ring):
    """A zero argument gives the target's zero() object; a foreign argument,
    a zero one included, raises OwnerMismatch in either slot."""
    rng = random.Random(4)
    F = make_finite_algebra(["z"], {}, ring)
    for name, f, left, right, target in _bilinear_cases(ring):
        u, v = _multi_term(left, rng), _multi_term(right, rng)
        assert f(left.zero(), v) is target.zero(), name
        assert f(u, right.zero()) is target.zero(), name
        assert f(left.zero(), right.zero()) is target.zero(), name
        for foreign in (F.zero(), F.basis_element("z")):
            with pytest.raises(OwnerMismatch):
                f(foreign, v)
            with pytest.raises(OwnerMismatch):
                f(u, foreign)


@pytest.mark.parametrize("ring", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_table_action_drops_zero_entries_and_empty_rows(ring):
    R = make_finite_algebra(["p", "q"], {("p", "p"): {"q": 1}}, ring)
    E = make_finite_algebra(["a", "b"], {("a", "a"): {"b": 1}}, ring)
    a, b = E.basis_element("a"), E.basis_element("b")
    padded = TableAction(R, E, {"p": {"a": E.zero(), "b": b}, "q": {"a": a - a}})
    plain = TableAction(R, E, {"p": {"b": b}})
    assert padded.table == plain.table == {"p": {"b": b}}
    assert padded.same(plain) and plain.same(padded)
    assert TableAction(R, E, {"p": {}, "q": {"b": 0 * b}}).table == {}
    assert not padded.same(TableAction(R, E, {"p": {"b": 2 * b}}))


@pytest.mark.parametrize("ring", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_zero_structure_maps_are_their_empty_tables(ring):
    """zero_action is the same as the empty table action, both ways, and
    zero_bilinear as the empty bilinear map; an action and a lifting are
    never the same, even when both are zero.  zero_map is the table rule
    with no images: over a free source too it gives the target's zero()
    object, on monomials of several degrees, and memoises nothing."""
    R = make_finite_algebra(["p", "q"], {("p", "p"): {"q": 1}}, ring)
    E = make_finite_algebra(["a", "b"], {("a", "a"): {"b": 1}}, ring)
    L = make_finite_algebra(["k"], {}, ring)
    P = make_free_algebra(["x", "y"], ring)
    a, b = E.basis_element("a"), E.basis_element("b")
    zero, empty = zero_action(R, E), TableAction(R, E, {})
    assert zero.same(empty) and empty.same(zero)
    assert zero.same(TableAction(R, E, {"p": {"a": E.zero()}, "q": {}}))
    assert not zero.same(TableAction(R, E, {"p": {"a": b}}))
    assert not TableAction(R, E, {"p": {"a": b}}).same(zero)
    assert not zero.same(zero_action(R, L)) and not zero_action(P, E).same(zero)
    assert zero_action(P, E).same(TableAction(P, E, {}))
    lift = zero_bilinear(E, E, L)
    assert lift.same(BilinearMap(E, E, L, {})) and BilinearMap(E, E, L, {}).same(lift)
    assert lift.same(BilinearMap(E, E, L, {("a", "b"): L.zero()}))
    assert not lift.same(BilinearMap(E, E, L, {("a", "b"): L.basis_element("k")}))
    assert not zero_action(E, E).same(zero_bilinear(E, E, E))
    assert not zero_bilinear(E, E, E).same(zero_action(E, E))
    assert zero_bilinear(P, E, L)(P.monomial("x", "y"), a + b) is L.zero()
    z = zero_map(P, E)
    assert z.rule == "table" and z.fn is None
    x, xy = P.monomial("x"), P.monomial("x", "y")
    for u in (x, xy, P.monomial("x", "x", "y"), P.monomial("y") + 2 * xy):
        assert z(u) is E.zero()
    assert z(P.zero()) is E.zero() and not z._memo
    assert zero_map(R, E)(R.basis_element("p") + R.basis_element("q")) is E.zero()


def _image_keys(alg):
    """Basis keys of alg to read images at: its basis, or, when it is not
    finite, the keys of its skeleton and of their pairwise products."""
    skeleton = list(_skeleton(alg))
    keys = {}
    for u in skeleton + [u * v for u in skeleton for v in skeleton]:
        keys.update(dict.fromkeys(u.coeffs))
    return list(keys)


def _assert_key_images(image, keys, target, stored):
    """Each image(*key) is an element of target itself, the zero() object
    when it is empty, and when stored (a memo or a table) the same object on
    a second read; returns how many were empty."""
    empty = 0
    for key in keys:
        img = image(*key)
        assert isinstance(img, Element) and img.algebra is target, (key, img)
        if not img.coeffs:
            assert img is target.zero(), key
            empty += 1
        if stored:
            assert image(*key) is img, key
    return empty


def test_every_key_image_is_an_element_of_its_own_target():
    """A map's ``_image(key)`` and an action's or lifting's ``_image(k1, k2)``
    are elements of the map's own target (the acted algebra for an action),
    with the target's zero() for a key that has no image: the structure maps
    of F0-F3, the derived action, the tower maps and actions of F2 and F3,
    a table action of a free algebra, a table map with a missing key, the
    zero map over a free source and a table lifting."""
    from xmod2 import fixtures
    from xmod2.crossed import CrossedModule, as_two_crossed

    def check_map(f):
        return _assert_key_images(f._image, [(k,) for k in _image_keys(f.source)], f.target, True)

    def check_bilinear(f, left, right, target, stored=True):
        keys = list(itertools.product(_image_keys(left), _image_keys(right)))
        return _assert_key_images(f._image, keys, target, stored)

    empty = 0
    for name in ("F0", "F1", "F2", "F3"):
        A = fixtures.fixture(name)
        A = as_two_crossed(A) if isinstance(A, CrossedModule) else A
        empty += check_map(A.d1) + check_map(A.d2)
        if name in ("F2", "F3"):
            empty += check_bilinear(A.act_prime, A.E, A.L, A.L)
            T = get_tower(A)
            for f in list(T.faces.values()) + list(T.degeneracies.values()):
                empty += check_map(f)
            for act in T.actions.values():
                empty += check_bilinear(act, act.acting, act.acted, act.acted)
    assert empty > 0

    R = make_finite_algebra(["p", "q"], {("p", "p"): {"q": 1}}, QQ)
    E = make_finite_algebra(["a", "b"], {("a", "a"): {"b": 1}}, QQ)
    L = make_finite_algebra(["k", "m"], {}, QQ)
    P = make_free_algebra(["x", "y"], QQ)
    a, b, k = E.basis_element("a"), E.basis_element("b"), L.basis_element("k")
    free = TableAction(P, E, {"x": {"a": a + 2 * b}, "y": {"a": 4 * b}})
    assert check_bilinear(free, P, E, E, stored=False) > 0
    assert free._image(("x", "x"), "a").coeffs == {"a": 1, "b": 2}  # x > (a + 2b), and x > b = 0
    table = linear_map(R, E, {"p": b})
    assert check_map(table) == 1 and table._image("q") is E.zero() and table._image("p").coeffs == {"b": 1}
    zero = zero_map(P, E)
    assert check_map(zero) == len(_image_keys(P)) and zero._image(("x", "y")) is E.zero()
    lift = BilinearMap(E, E, L, {("a", "a"): k, ("a", "b"): L.zero()})
    assert check_bilinear(lift, E, E, L) == 3 and lift._image("a", "a") is lift.table[("a", "a")]
    other = make_finite_algebra(["k", "m"], {}, QQ)  # compatible with L, another object
    retagged = BilinearMap(E, E, L, {("b", "b"): other.basis_element("m")})
    assert retagged._image("b", "b").algebra is L and retagged._image("b", "b") is retagged._image("b", "b")
