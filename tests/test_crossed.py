import hashlib
import json
import os
import random

import pytest

from xmod2 import fixtures
from xmod2.algebra import make_finite_algebra
from xmod2.crossed import (
    as_two_crossed,
    ideal_inclusion_cm,
    identity_2cm_morphism,
    kernel_two_crossed,
    make_2cm_morphism,
    make_crossed,
    make_precrossed,
)
from xmod2.errors import (
    BadShape,
    CompositionMismatch,
    NotAnIdeal,
    ValidationError,
    XM1Violation,
    XM2Violation,
)
from xmod2.maps import LinearMap, algebra_morphism, make_action, zero_action
from xmod2.randgen import random_precrossed
from xmod2.rings import PrimeField, QQ
from xmod2.specdoc import load_spec
from xmod2.tcm_homotopy import concat_2cm, zero_quadratic

from helpers import zero_2cm_morphism

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures.json")


def square_level_one():
    """The pre-crossed module E' -> R' underlying F2 (fails XM2 at (a, a))."""
    R = make_finite_algebra(["p"], {}, QQ)
    E = make_finite_algebra(["a", "b"], {("a", "a"): {"b": 1}}, QQ)
    d1 = algebra_morphism(E, R, images={"a": R.basis_element("p"), "b": R.zero()})
    return make_precrossed(E, R, d1, zero_action(R, E))


def compose_2cm_morphisms(g, f):
    """g after f; make_2cm_morphism re-certifies the composite (closure check)."""

    def after(a, b):
        return LinearMap(b.source, a.target, "function", fn=lambda u: a(b(u)))

    return make_2cm_morphism(f.src, g.tgt, after(g.f0, f.f0), after(g.f1, f.f1), after(g.f2, f.f2))


def test_square_level_one_is_precrossed_but_not_crossed():
    P = square_level_one()
    assert P.certificates["XM1"].exhaustive
    with pytest.raises(XM2Violation) as err:
        make_crossed(P.E, P.R, P.d, P.act)
    e1, e2 = err.value.witness
    assert e1 == P.E.basis_element("a") and e2 == P.E.basis_element("a")


def test_xm1_violation_witnessed():
    # E = <a, b> with zero products, p > a = b is a valid action and
    # d(a) = d(b) = p is a valid morphism, but d(p > a) = p != p*d(a) = 0
    R = make_finite_algebra(["p"], {}, QQ)
    E = make_finite_algebra(["a", "b"], {}, QQ)
    act = make_action(R, E, {"p": {"a": E.basis_element("b")}})
    d = algebra_morphism(E, R, images={"a": R.basis_element("p"), "b": R.basis_element("p")})
    with pytest.raises(XM1Violation) as err:
        make_precrossed(E, R, d, act)
    r, e = err.value.witness
    assert r == R.basis_element("p") and e == E.basis_element("a")


def test_ideal_inclusion_f1():
    cm = fixtures.ideal_crossed()
    assert cm.E.labels == ("x2",)
    x2 = cm.E.basis_element("x2")
    assert cm.d(x2) == cm.R.basis_element("x2")
    assert cm.act(cm.R.basis_element("x"), x2).is_zero()
    assert cm.certificates["XM1"].exhaustive and cm.certificates["XM2"].exhaustive


def test_ideal_inclusion_rejects_non_ideal():
    R = make_finite_algebra(["x", "x2"], {("x", "x"): {"x2": 1}}, QQ)
    with pytest.raises(NotAnIdeal) as err:
        ideal_inclusion_cm(R, ["x"])
    assert err.value.witness == ("x", "x")


def test_ideal_inclusion_empty_ideal_is_zero_module():
    R = make_finite_algebra(["r0"], {}, QQ)
    cm = ideal_inclusion_cm(R, [])
    assert cm.E.dim() == 0


def test_f2_validates_and_derived_structure_certified():
    F2 = fixtures.square_two_crossed()
    for law in ("2XM1", "2XM2", "2XM3", "2XM4", "2XM5", "2XM6",
                "derived-XM1", "derived-XM2", "derived-action",
                "d1-equivariance", "d2-equivariance", "d1.d2=0"):
        assert F2.certificates[law].exhaustive, law
    # 2XM1 concretely at (a, a): d2{a (x) a} = b = aa - d1(a) > a
    E = F2.E
    a = E.basis_element("a")
    assert F2.d2(F2.lift(a, a)) == a * a - F2.act_e(F2.d1(a), a)


def test_f0_everything_zero_validates():
    F0 = fixtures.zero_two_crossed()
    assert F0.L.dim() == F0.E.dim() == F0.R.dim() == 1


def test_corrupted_f2_variants_fail_with_ids_and_witnesses():
    for name, thunk, exc, law, witness_labels in fixtures.corrupted_f2_variants():
        with pytest.raises(exc) as err:
            thunk()
        assert getattr(err.value, "law", None) == law, name
        got = tuple(
            sorted(u.coeffs)[0] if getattr(u, "coeffs", None) else u
            for u in err.value.witness
        )
        assert got == witness_labels, name


# sha256 of "<error class>: <message>" for each corrupted F2 variant, as
# raised before the law checks moved behind maps.check_law
CORRUPTED_F2_ERROR_DIGESTS = {
    "lift-dropped": "b0078652965b47439f023ba54d06698e6a25e7aa1ce8d432352350a8e0f4849d",
    "lift-extra-term": "003b8fceaa5bf68e60b375efa3a5a4c9c512d8648527947ae9be06d50d46149e",
    "L-product-nonnilpotent": "7b1c2850ee0db8f4bf7c09554df7e205b6b31fa6aa9da6e9889cf94423bafd0b",
    "d2-misses-kernel": "8a48f0d1cd55a0329e37fd0d2e529bd3dcea4febc59f395df720789119c12c9c",
    "action-breaks-peiffer": "9ec93717b3ea48b1620b303719aa132b3293fdb4888184bb93a633718fbe2cb3",
    "d1-not-multiplicative": "373a4fda493f22a5c43d82c484da6a8cb769627cde8ed0ce31f4a10432dcae52",
    "level-one-not-peiffer": "0a9dc7df95785af56b9a2d5fa61333878a42782af9819721ef3adb8168b99147",
    "asymmetric-table": "a56318a4714a6800e0dbc939d6c49c16ade2b81f57eed43799fc2432f7543cc3",
}


def test_corrupted_f2_error_texts_are_pinned():
    """The "asymmetric-table" pin moved when its two products came to be
    printed as elements, as every other law error's are, not as raw
    coefficient dicts.  Its text and digest were

        NonCommutative: commutativity fails at (('u', 'v'),): lhs={'u': Fraction(1, 1)} rhs={'v': Fraction(1, 1)}
        ca04935928f8746cd3b70728917823be2f72783ac440e61d8dbb7e5ac04bf99d

    and the new text with the two products reverted hashes to the old pin."""
    seen, texts = {}, {}
    for name, thunk, exc, _, _ in fixtures.corrupted_f2_variants():
        with pytest.raises(exc) as err:
            thunk()
        text = texts[name] = "%s: %s" % (type(err.value).__name__, err.value)
        seen[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert seen == CORRUPTED_F2_ERROR_DIGESTS
    new = texts["asymmetric-table"]
    assert new.endswith(": lhs=u rhs=v")
    old = new.replace("lhs=u rhs=v", "lhs={'u': Fraction(1, 1)} rhs={'v': Fraction(1, 1)}")
    assert hashlib.sha256(old.encode("utf-8")).hexdigest() == (
        "ca04935928f8746cd3b70728917823be2f72783ac440e61d8dbb7e5ac04bf99d")


def test_free_basis_must_present_r():
    """R is free on its generators; a document's declared free_basis is
    checked against them."""
    F3 = fixtures.free_line_two_crossed()
    assert F3.free_basis == ("x",)
    with open(FIXTURES, encoding="utf-8") as fh:
        data = json.load(fh)
    data["two_crossed"]["F3"]["free_basis"] = ["y"]
    with pytest.raises(ValidationError) as err:
        load_spec(data)
    assert str(err.value) == "two_crossed 'F3': free basis ['y'] does not present R"


def test_kernel_of_square_level_one_reproduces_f2():
    P = square_level_one()
    K = kernel_two_crossed(P)
    assert K.L.labels == ("k0",)
    k0 = K.L.basis_element("k0")
    assert K.d2(k0) == P.E.basis_element("b")
    a = K.E.basis_element("a")
    assert K.lift(a, a) == k0  # {a (x) a} = a^2 - d(a) > a = b
    F2 = fixtures.square_two_crossed()
    assert K.lift(a, a) == k0 and F2.lift(a, a) == F2.L.basis_element(fixtures.BH)


def test_kernel_of_crossed_module_has_zero_lifting():
    cm = fixtures.ideal_crossed()
    from xmod2.crossed import PreCrossedModule

    P = PreCrossedModule(cm.E, cm.R, cm.d, cm.act)
    K = kernel_two_crossed(P)
    # {e (x) e'} = ee' - d(e') > e = 0 on an ideal inclusion
    for e in K.E.basis_elements():
        for e2 in K.E.basis_elements():
            assert K.lift(e, e2).is_zero()


def test_kernel_of_zero_precrossed_is_zero():
    R = make_finite_algebra(["r0"], {}, QQ)
    E = make_finite_algebra(["e0"], {}, QQ)
    P = make_precrossed(E, R, algebra_morphism(E, R, images={"e0": R.zero()}), zero_action(R, E))
    K = kernel_two_crossed(P)
    assert K.L.dim() == 1  # everything is in the kernel, all structure zero
    assert all(K.lift(e, e2).is_zero() for e in K.E.basis_elements() for e2 in K.E.basis_elements())


def test_kernel_two_crossed_property_50_random_f5():
    F5 = PrimeField(5)
    rng = random.Random(11)
    for _ in range(50):
        P = random_precrossed(F5, rng, max_dim=3)
        K = kernel_two_crossed(P)  # raises if the validator rejects
        assert K.certificates["2XM1"].exhaustive


def test_2cm_morphism_identity_and_zero():
    F2 = fixtures.square_two_crossed()
    ident = identity_2cm_morphism(F2)
    assert ident.equal(ident)
    F3 = fixtures.free_line_two_crossed()
    z = zero_2cm_morphism(F3, F2)
    assert z.f0(F3.R.monomial("x")).is_zero()


def test_maps_between_structures_on_the_same_algebras_differ():
    """Over F5 with E = <a> and R = <p> (zero products, zero action), the
    crossed modules with d = 0 and with d(a) = p share their algebras but
    not their boundary: the identities of their slices are different maps,
    and a homotopy on one does not compose with a homotopy on the other."""
    F5 = PrimeField(5)
    R = make_finite_algebra(["p"], {}, F5)
    E = make_finite_algebra(["a"], {}, F5)
    i0, i1 = (
        identity_2cm_morphism(as_two_crossed(
            make_crossed(E, R, algebra_morphism(E, R, images={"a": image}), zero_action(R, E))
        ))
        for image in (R.zero(), R.basis_element("p"))
    )
    assert i0.equal(i0) and not i0.equal(i1) and not i1.equal(i0)
    with pytest.raises(CompositionMismatch):
        concat_2cm(zero_quadratic(i0), zero_quadratic(i1))


def test_2cm_morphism_f3_to_f2():
    F3 = fixtures.free_line_two_crossed()
    F2 = fixtures.square_two_crossed()
    f0 = algebra_morphism(F3.R, F2.R, images={"x": F2.R.basis_element("p")})
    f1 = algebra_morphism(F3.E, F2.E, images={})
    f2 = algebra_morphism(F3.L, F2.L, images={})
    f = make_2cm_morphism(F3, F2, f0, f1, f2)
    assert f.f0(F3.R.monomial("x", "x")).is_zero()  # p^2 = 0


def test_2cm_morphism_bad_endpoints():
    F3 = fixtures.free_line_two_crossed()
    F2 = fixtures.square_two_crossed()
    with pytest.raises(BadShape):
        make_2cm_morphism(
            F3, F2,
            f0=algebra_morphism(F3.R, F2.E, images={"x": F2.E.basis_element("a")}),
            f1=algebra_morphism(F3.E, F2.E, images={}),
            f2=algebra_morphism(F3.L, F2.L, images={}),
        )


def test_composition_of_2cm_morphisms_is_valid():
    F3 = fixtures.free_line_two_crossed()
    F2 = fixtures.square_two_crossed()
    f0 = algebra_morphism(F3.R, F2.R, images={"x": F2.R.basis_element("p")})
    f1 = algebra_morphism(F3.E, F2.E, images={})
    f2m = algebra_morphism(F3.L, F2.L, images={})
    f = make_2cm_morphism(F3, F2, f0, f1, f2m)
    # endomorphism of F3: x -> 2x + x^2
    e0 = algebra_morphism(
        F3.R, F3.R, images={"x": F3.R.element({("x",): 2, ("x", "x"): 1})}
    )
    endo = make_2cm_morphism(
        F3, F3, e0,
        algebra_morphism(F3.E, F3.E, images={}),
        algebra_morphism(F3.L, F3.L, images={}),
    )
    comp = compose_2cm_morphisms(f, endo)  # re-certified on construction
    assert comp.f0(F3.R.monomial("x")) == 2 * F2.R.basis_element("p")
