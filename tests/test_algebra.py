import random

import pytest

from xmod2 import fixtures, randgen
from xmod2.algebra import (
    FiniteAlgebra,
    SemidirectAlgebra,
    make_finite_algebra,
    make_free_algebra,
    zero_algebra,
)
from xmod2.errors import (
    BadShape,
    DuplicateGenerator,
    NonAssociative,
    NonCommutative,
    OwnerMismatch,
)
from xmod2.maps import (
    BilinearMap,
    FunctionAction,
    Policy,
    algebra_morphism,
    certify_algebra,
    law_tuples,
    linear_map,
    make_action,
    random_element,
    semidirect,
    zero_action,
)
from xmod2.rings import QQ, PrimeField
from xmod2.simplex import build_tower


def carrier_f1():
    return make_finite_algebra(["x", "x2"], {("x", "x"): {"x2": 1}}, QQ)


def test_f1_carrier_accepted_and_associative_by_hand():
    R = carrier_f1()
    # independent oracle: re-check all 8 associativity triples with plain loops
    for i in R.labels:
        for j in R.labels:
            for k in R.labels:
                ei, ej, ek = (R.basis_element(l) for l in (i, j, k))
                assert (ei * ej) * ek == ei * (ej * ek)
    x = R.basis_element("x")
    assert x * x == R.basis_element("x2")
    assert (R.basis_element("x2") * R.basis_element("x2")).is_zero()


def test_f0_carrier_all_products_zero():
    R = make_finite_algebra(["r0"], {}, QQ)
    r = R.basis_element("r0")
    assert (r * r).is_zero()


def test_asymmetric_table_rejected():
    with pytest.raises(NonCommutative) as err:
        make_finite_algebra(["u", "v"], {("u", "v"): {"u": 1}, ("v", "u"): {"v": 1}}, QQ)
    assert err.value.witness == ("u", "v")


def test_nonassociative_table_rejected():
    with pytest.raises(NonAssociative):
        make_finite_algebra(
            ["u", "v"],
            {("u", "u"): {"v": 1}, ("u", "v"): {"u": 1}, ("v", "u"): {"u": 1}},
            QQ,
        )


def test_first_failing_triple_is_reported_with_both_products():
    """u*u = v + w, u*v = 2w, v*v = w: (u, u, u) holds, both sides 2w, and
    (u, u, v) is the first triple that fails, (uu)v = w against u(uv) = 0."""
    with pytest.raises(NonAssociative) as err:
        make_finite_algebra(["u", "v", "w"], {
            ("u", "u"): {"v": 1, "w": 1},
            ("u", "v"): {"w": 2}, ("v", "u"): {"w": 2},
            ("v", "v"): {"w": 1},
        }, QQ)
    assert err.value.witness == ("u", "u", "v")
    assert (str(err.value.lhs), str(err.value.rhs)) == ("w", "0")


def _element_loop(labels, table, ring):
    """The reference associativity check, the element triple loop that
    make_finite_algebra ran before it decided on the table: the (witness,
    lhs, rhs) of the first failing triple, or None."""
    alg = FiniteAlgebra(ring, labels, table)
    for i in labels:
        ei = alg.basis_element(i)
        for j in labels:
            ej = alg.basis_element(j)
            ij = alg.multiply(ei, ej)
            for k in labels:
                ek = alg.basis_element(k)
                lhs = alg.multiply(ij, ek)
                rhs = alg.multiply(ei, alg.multiply(ej, ek))
                if lhs != rhs:
                    return (i, j, k), lhs, rhs
    return None


def test_associativity_on_the_table_matches_the_element_loop(monkeypatch):
    """Every table random_finite_algebra draws over F5 and Q, rejected ones
    included, is refused exactly when the element loop refuses it, with
    the same witness and products."""
    drawn = []
    real = randgen.make_finite_algebra

    def record(labels, constants, ring):
        drawn.append((tuple(labels), constants, ring))
        return real(labels, constants, ring)

    monkeypatch.setattr(randgen, "make_finite_algebra", record)
    for ring in (PrimeField(5), QQ):
        for seed in range(25):
            rng = random.Random(seed)
            for max_dim in (2, 3, 4):
                randgen.random_finite_algebra(ring, rng, max_dim)
    refused = 0
    for labels, constants, ring in drawn:
        table = {}
        for pair, row in constants.items():
            row = {k: ring.coerce(c) for k, c in row.items() if not ring.is_zero(ring.coerce(c))}
            if row:
                table[pair] = row
        expected = _element_loop(labels, table, ring)
        try:
            make_finite_algebra(labels, constants, ring)
            got = None
        except NonAssociative as exc:
            got = exc.witness, exc.lhs, exc.rhs
            refused += 1
        assert (got is None) == (expected is None)
        if got is not None:
            assert got[0] == expected[0]
            assert [(u.coeffs, str(u)) for u in got[1:]] == [(u.coeffs, str(u)) for u in expected[1:]]
    assert refused >= 50 and len(drawn) - refused >= 100


def test_bad_shape_tables():
    with pytest.raises(BadShape):
        make_finite_algebra(["u"], {("u", "w"): {"u": 1}}, QQ)
    with pytest.raises(BadShape):
        make_finite_algebra(["u"], {("u", "u"): {"w": 1}}, QQ)
    with pytest.raises(DuplicateGenerator):
        make_finite_algebra(["u", "u"], {}, QQ)


def test_free_algebra_monomials():
    P = make_free_algebra(["x"], QQ)
    x = P.monomial("x")
    x2 = P.monomial("x", "x")
    assert x * x == x2
    assert (x + x2) * x == x2 + P.monomial("x", "x", "x")
    Q2 = make_free_algebra(["x", "y"], QQ)
    xy = Q2.monomial("x") * Q2.monomial("y")
    assert xy == Q2.monomial("y", "x")  # sorted multiset keys
    with pytest.raises(DuplicateGenerator):
        make_free_algebra(["x", "x"], QQ)


def test_element_normal_form_is_canonical():
    R = carrier_f1()
    u = R.element({"x": 2, "x2": QQ.parse("-1/2")})
    assert (u + (-u)).coeffs == {}
    assert u - u == R.zero()
    assert (0 * u).is_zero()


def test_not_equal_checks_owners_as_equal_does():
    """Element defines == alone; Python derives != from it, so comparing
    elements of two different algebras raises either way."""
    R = carrier_f1()
    u, v = R.basis_element("x"), make_free_algebra(["x"], QQ).monomial("x")
    assert "__ne__" not in vars(type(u))
    with pytest.raises(OwnerMismatch):
        u != v
    with pytest.raises(OwnerMismatch):
        v != u
    assert u != R.basis_element("x2") and not u != R.basis_element("x")


def test_owner_mismatch():
    R = carrier_f1()
    P = make_free_algebra(["x"], QQ)
    with pytest.raises(OwnerMismatch):
        R.basis_element("x") + P.monomial("x")
    with pytest.raises(OwnerMismatch):
        R.basis_element("x") == P.monomial("x")
    # a zero operand or argument is short-cut only after the owner check
    x, p = R.basis_element("x"), P.monomial("x")
    for left, right in [(x, P.zero()), (R.zero(), p), (R.zero(), P.zero())]:
        with pytest.raises(OwnerMismatch):
            left + right
        with pytest.raises(OwnerMismatch):
            left - right
    f = linear_map(R, R, {"x": R.basis_element("x2")})
    with pytest.raises(OwnerMismatch):
        f(P.zero())
    act = FunctionAction(R, R, R.key_mul, note="product")
    table = make_action(R, R, {"x": {"x": R.basis_element("x2")}})
    lift = BilinearMap(R, R, R, {("x", "x"): R.basis_element("x2")})
    for r, m in [(P.zero(), x), (x, P.zero()), (R.zero(), P.zero())]:
        for bilinear in (act, table, lift):
            with pytest.raises(OwnerMismatch):
                bilinear(r, m)
    # compatible but distinct algebras: the sum lives in the left operand's
    R2 = carrier_f1()
    y = R2.basis_element("x")
    assert R2 is not R and R2.compatible(R)
    for total, algebra, value in [(x + R2.zero(), R, x), (R.zero() + y, R, x),
                                  (y + R.zero(), R2, y), (R2.zero() + x, R2, y)]:
        assert total.algebra is algebra and total == value
    assert f(R2.zero()).algebra is R and f(R2.zero()).is_zero()
    assert act(R2.zero(), x).algebra is R and act(x, R2.zero()).is_zero()


def test_finite_algebras_keep_their_basis_elements_and_free_ones_none():
    R = carrier_f1()
    P = make_free_algebra(["x"], QQ)
    lam = semidirect(R, R, zero_action(R, R))
    for alg in (R, lam):
        first = [alg.basis_element(k) for k in alg.basis_keys()]
        # basis_keys builds new key tuples for a semidirect product
        assert all(u is alg.basis_element(k) for u, k in zip(first, alg.basis_keys()))
        assert all(u is v for u, v in zip(first, alg.basis_elements()))
        with pytest.raises(BadShape):
            alg.basis_element("nope" if alg is R else (0, "nope"))
        assert len(alg._kept) == alg.dim()
    with pytest.raises(BadShape):
        lam.basis_element([0, "x"])  # unhashable, refused as at construction
    assert len(lam._kept) == lam.dim()
    zero = R.zero()
    assert zero is R.zero() and -zero is zero and zero.is_zero()
    # a free algebra, or a semidirect product with a free part, keeps none
    mixed = SemidirectAlgebra(P, R, zero_action(P, R))
    assert mixed.dim() is None
    for alg, key in [(P, ("x",)), (mixed, (0, ("x",)))]:
        assert alg.basis_element(key) is not alg.basis_element(key)
        assert alg._kept is None
    # each spanning set is kept once, with its keys, and exhaustive law
    # tuples are built of the very kept tuples
    for alg in (R, lam):
        basis, gens = alg.basis_elements(), alg.generator_elements()
        assert basis is alg.basis_elements() and gens is alg.generator_elements()
        assert basis.keys == tuple(alg.basis_keys())
        tuples, exhaustive = law_tuples([alg, alg])
        assert exhaustive and all(factor is basis for factor in tuples.factors)
        tuples, exhaustive = law_tuples([alg, alg], generators=(0,))
        assert exhaustive and tuples.factors[0] is gens and tuples.factors[1] is basis
    gens = P.generator_elements()
    assert gens.keys == (("x",),)
    tuples, exhaustive = law_tuples([P, R], generators=(0,))
    assert exhaustive and tuples.factors[0] is gens and tuples.factors[1] is R.basis_elements()
    # the slot triangle's starts of F2's tower, and of a product whose
    # generator is not first in its slot
    levels = build_tower(fixtures.square_two_crossed(), Policy(samples=10, seed=8)).levels
    assert levels[2].triangle() == (0, 1, 3, 5)
    assert levels[3].triangle() == (0, 1, 3, 5, 6, 8, 9)
    assert levels[3].triangle() is levels[3].triangle()
    late = make_finite_algebra(["x2", "x"], {("x", "x"): {"x2": 1}}, QQ)
    assert semidirect(late, late, zero_action(late, late)).triangle() == (0, 2)


def test_semidirect_worked_product():
    # F1's R acting on its ideal <x^2> by multiplication
    R = carrier_f1()
    E = make_finite_algebra(["x2"], {}, QQ)
    act = make_action(R, E, {"x": {}, "x2": {}})  # x*x2 = x2*x2 = 0 in the ideal
    lam1 = semidirect(R, E, act)
    u = lam1.pair(R.basis_element("x"), E.basis_element("x2"))
    v = lam1.pair(R.basis_element("x"), E.zero())
    assert u * v == lam1.pair(R.basis_element("x2"), E.zero())
    left, right = lam1.split(u * v)
    assert left == R.basis_element("x2") and right.is_zero()


def test_semidirect_zero_square():
    R = make_finite_algebra(["r0"], {}, QQ)
    alg = semidirect(R, R, zero_action(R, R))
    assert alg.dim() == 2
    for u in alg.basis_elements():
        for v in alg.basis_elements():
            assert (u * v).is_zero()


def test_semidirect_mixed_free_finite():
    P = make_free_algebra(["x"], QQ)
    E = make_finite_algebra(["a", "b"], {("a", "a"): {"b": 1}}, QQ)
    alg = semidirect(P, E, zero_action(P, E))
    u = alg.pair(P.monomial("x"), E.basis_element("a"))
    prod = u * u
    assert prod == alg.pair(P.monomial("x", "x"), E.basis_element("b"))


def test_free_morphism_multiplicative_on_random_pairs():
    P = make_free_algebra(["x", "y"], QQ)
    E = make_finite_algebra(["a", "b"], {("a", "a"): {"b": 1}}, QQ)
    phi = algebra_morphism(P, E, images={"x": E.basis_element("a"), "y": E.basis_element("b")})
    rng = random.Random(1)
    for _ in range(100):
        u = random_element(P, rng, 4)
        v = random_element(P, rng, 4)
        assert phi(u * v) == phi(u) * phi(v)


def test_free_action_extension_satisfies_laws_on_random_triples():
    P = make_free_algebra(["x"], QQ)
    E = make_finite_algebra(["a", "b"], {("a", "a"): {"b": 1}}, QQ)
    # x acts as "multiply by a": a -> b, b -> 0; A1/A2 hold (certified), then
    # spot-check the iterated extension on random polynomial pairs
    act = make_action(P, E, {"x": {"a": E.basis_element("b")}})
    rng = random.Random(2)
    for _ in range(100):
        r = random_element(P, rng, 4)
        r2 = random_element(P, rng, 4)
        m = random_element(E, rng)
        m2 = random_element(E, rng)
        assert act(r, m * m2) == act(r, m) * m2
        assert act(r * r2, m) == act(r, act(r2, m))


def test_semidirect_certified_commutative_associative():
    R = carrier_f1()
    E = make_finite_algebra(["x2"], {}, QQ)
    act = make_action(R, E, {})
    lam1 = semidirect(R, E, act)
    cert = certify_algebra(lam1)
    assert cert.exhaustive
    P = make_free_algebra(["x"], QQ)
    mixed = semidirect(P, E, zero_action(P, E), Policy(samples=40, seed=3))
    cert = certify_algebra(mixed, Policy(samples=40, seed=3))
    assert not cert.exhaustive and cert.samples == 40 and cert.seed == 3


def test_zero_algebra():
    Z = zero_algebra(QQ)
    assert Z.dim() == 0 and Z.basis_elements() == ()
    assert Z.zero().is_zero()


RINGS = [pytest.param(PrimeField(5), id="F5"), pytest.param(QQ, id="Q")]


@pytest.mark.parametrize("ring", RINGS)
def test_a_zero_table_is_generated_by_its_basis(ring):
    A = make_finite_algebra(["a", "b", "c"], {}, ring)
    assert A.generating_positions() == (0, 1, 2)
    assert zero_algebra(ring).generating_positions() == ()


@pytest.mark.parametrize("ring", RINGS)
def test_an_idempotent_falls_back_to_the_whole_basis(ring):
    """u^2 = u: A^2 = A, so no label is outside its pivots, and the empty
    set generates 0.  With a nilpotent x beside it, {x} spans a complement
    of A^2 = <u> and generates only <x>."""
    U = make_finite_algebra(["u"], {("u", "u"): {"u": 1}}, ring)
    assert U.generating_positions() == (0,)
    XU = make_finite_algebra(["x", "u"], {("u", "u"): {"u": 1}}, ring)
    assert XU.generating_positions() == (0, 1)


@pytest.mark.parametrize("ring", RINGS)
def test_a_complement_of_the_square_generates_when_its_products_span(ring):
    """{x, y; x^2 = y, xy = y, y^2 = y} is not nilpotent, yet {x}
    generates it: x^2 = y.  The truncated polynomials u0..u3 with
    ui uj = u(i+j+1) are generated by u0."""
    A = make_finite_algebra(["x", "y"], {
        ("x", "x"): {"y": 1}, ("x", "y"): {"y": 1}, ("y", "x"): {"y": 1}, ("y", "y"): {"y": 1},
    }, ring)
    assert A.generating_positions() == (0,)
    labels = ["u0", "u1", "u2", "u3"]
    T = make_finite_algebra(labels, {
        (labels[i], labels[j]): {labels[i + j + 1]: 1}
        for i in range(4) for j in range(4) if i + j + 1 < 4
    }, ring)
    assert T.generating_positions() == (0,)


@pytest.mark.parametrize("ring", RINGS)
def test_a_semidirect_product_is_generated_by_its_parts_sets(ring):
    R = make_finite_algebra(["x", "x2"], {("x", "x"): {"x2": 1}}, ring)
    E = make_finite_algebra(["a", "b"], {}, ring)
    lam1 = semidirect(R, E, zero_action(R, E))
    assert lam1.generating_positions() == (0, 2, 3)


@pytest.mark.parametrize("ring", RINGS)
def test_a_generator_slot_takes_the_set_of_a_proved_finite_algebra(ring):
    """law_tuples checks a generator slot over a finite algebra on its
    generating set once its product is proved, and on the whole basis
    otherwise, as in a semidirect product under an action whose
    certificate is sampled."""
    from xmod2.maps import law_tuples

    R = make_finite_algebra(["x", "x2"], {("x", "x"): {"x2": 1}}, ring)
    tuples, exhaustive = law_tuples([R, R], Policy(), generators=(0,))
    assert exhaustive and [len(f) for f in tuples.factors] == [1, 2]
    lam1 = semidirect(R, R, zero_action(R, R))
    lam1.certificate = Policy().certificate
    tuples, exhaustive = law_tuples([lam1, lam1], Policy(), generators=(0,))
    assert exhaustive and [len(f) for f in tuples.factors] == [4, 4]


@pytest.mark.parametrize("ring", RINGS)
def test_every_empty_result_is_the_shared_zero(ring):
    """Sums, scalings, products (by * and by key_mul), element, pair, the
    embeddings and both sides of split give the algebra's zero() object
    itself whenever their result is empty, over a finite, a free and a
    semidirect algebra."""
    R = make_finite_algebra(["x", "x2"], {("x", "x"): {"x2": 1}}, ring)
    P = make_free_algebra(["y", "z"], ring)
    E = make_finite_algebra(["a"], {}, ring)
    S = semidirect(R, E, zero_action(R, E))
    x, x2 = R.basis_element("x"), R.basis_element("x2")
    y, z = P.monomial("y"), P.monomial("y", "z")
    a = E.basis_element("a")
    u = S.pair(x, a)
    for alg, v in [(R, x + 3 * x2), (P, y + 2 * z), (S, u + S.embed_right(2 * a))]:
        zero = alg.zero()
        assert v + (-v) is zero and v - v is zero
        assert v.scale(0) is zero and 0 * v is zero
        assert alg.element({}) is zero
        assert v * zero is zero and zero * v is zero
    # zero products of nonzero elements: unit keys, key_mul and multi-term
    assert x * x2 is R.zero() and R.key_mul("x", "x2") is R.zero()
    assert (x + x2) * x2 is R.zero()
    assert E.key_mul("a", "a") is E.zero() and a * a is E.zero()
    assert S.key_mul((0, "x2"), (0, "x2")) is S.zero()
    assert S.key_mul((1, "a"), (1, "a")) is S.zero() and S.key_mul((0, "x"), (1, "a")) is S.zero()
    assert S.embed_left(x2) * S.embed_left(x2 + x2) is S.zero()
    # the semidirect packing and unpacking
    assert S.pair(R.zero(), E.zero()) is S.zero()
    assert S.embed_left(R.zero()) is S.zero() and S.embed_right(E.zero()) is S.zero()
    left, right = S.split(S.zero())
    assert left is R.zero() and right is E.zero()
    assert S.split(S.embed_left(x))[1] is E.zero() and S.split(S.embed_right(a))[0] is R.zero()


@pytest.mark.parametrize("ring", RINGS)
def test_products_and_generators_are_built_once(ring):
    """A finite algebra keeps one element per table pair, which every
    key_mul of that pair returns, and a pair with no row gives the shared
    zero(); a free algebra builds its generators' elements once, with the
    algebra, and every call returns that same kept tuple."""
    R = make_finite_algebra(["x", "x2"], {("x", "x"): {"x2": 1}}, ring)
    xx = R.key_mul("x", "x")
    assert xx is R.key_mul("x", "x") and xx.coeffs == {"x2": 1}
    assert R.basis_element("x") * R.basis_element("x") is xx
    assert R.key_mul("x", "x2") is R.zero() and R.key_mul("x2", "x2") is R.zero()
    assert len(R._products) == 1  # only table pairs are kept
    P = make_free_algebra(["y", "z"], ring)
    gens = P.generator_elements()
    assert isinstance(gens, tuple) and gens is P.generator_elements()
    assert [u.coeffs for u in gens] == [{("y",): 1}, {("z",): 1}]
