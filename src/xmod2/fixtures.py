"""Named desk-scale structures used across the test and selftest suites.

F0  zero 2-crossed module over <r0>, r0^2 = 0 (one basis vector per level).
F1  the crossed module of the ideal <x^2> inside <x, x^2>.
F2  L' = <bh> -> E' = <a, b> -> R' = <p>, with a^2 = b, p^2 = 0,
    d2(bh) = b, d1(a) = p, zero R'-actions, lifting {a (x) a} = bh.
F3  the free-up-to-order-one domain 0 -> 0 -> Q[x]+, basis B = {x}.

The corrupted F2 variants are the mutation suite: each one must be rejected
with the documented error and witness.
"""

from functools import cache

from .algebra import make_finite_algebra, make_free_algebra, zero_algebra
from .crossed import (
    ideal_inclusion_cm,
    make_crossed,
    make_two_crossed,
)
from .errors import (
    AxiomViolation,
    CompositeNonzero,
    MorphismViolation,
    NonCommutative,
    XM2Violation,
)
from .maps import (
    BilinearMap,
    algebra_morphism,
    make_action,
    zero_action,
    zero_bilinear,
)
from .rings import QQ

BH = "b̂"  # the L'-basis label, printed as b-hat


@cache
def zero_two_crossed(ring=QQ):
    """F0: all products, boundaries, actions and liftings vanish."""
    R = make_finite_algebra(["r0"], {}, ring)
    E = make_finite_algebra(["e0"], {}, ring)
    L = make_finite_algebra(["l0"], {}, ring)
    return make_two_crossed(
        L, E, R,
        d2=algebra_morphism(L, E, images={"l0": E.zero()}),
        d1=algebra_morphism(E, R, images={"e0": R.zero()}),
        act_e=zero_action(R, E),
        act_l=zero_action(R, L),
        lift=zero_bilinear(E, E, L),
    )


@cache
def ideal_crossed(ring=QQ):
    """F1: x^2-ideal inclusion in <x, x^2>, multiplication action."""
    R = make_finite_algebra(["x", "x2"], {("x", "x"): {"x2": 1}}, ring)
    return ideal_inclusion_cm(R, ["x2"])


def _f2_pieces(ring=QQ):
    """F2's algebras, boundaries and lifting, also the parts of its
    corrupted variants."""
    R = make_finite_algebra(["p"], {}, ring)
    E = make_finite_algebra(["a", "b"], {("a", "a"): {"b": 1}}, ring)
    L = make_finite_algebra([BH], {}, ring)
    d2 = algebra_morphism(L, E, images={BH: E.basis_element("b")})
    d1 = algebra_morphism(E, R, images={"a": R.basis_element("p"), "b": R.zero()})
    lift = BilinearMap(E, E, L, {("a", "a"): L.basis_element(BH)})
    return R, E, L, d2, d1, lift


@cache
def square_two_crossed(ring=QQ):
    """F2: the a^2 = b example."""
    R, E, L, d2, d1, lift = _f2_pieces(ring)
    return make_two_crossed(
        L, E, R, d2, d1,
        act_e=zero_action(R, E),
        act_l=zero_action(R, L),
        lift=lift,
    )


@cache
def free_line_two_crossed(ring=QQ):
    """F3: 0 -> 0 -> polynomial algebra on {x}, free on B = {x}."""
    R = make_free_algebra(["x"], ring)
    E = zero_algebra(ring)
    L = zero_algebra(ring)
    return make_two_crossed(
        L, E, R,
        d2=algebra_morphism(L, E, images={}),
        d1=algebra_morphism(E, R, images={}),
        act_e=zero_action(R, E),
        act_l=zero_action(R, L),
        lift=zero_bilinear(E, E, L),
    )


def fixture(name, ring=QQ):
    builders = {
        "F0": zero_two_crossed,
        "F1": ideal_crossed,
        "F2": square_two_crossed,
        "F3": free_line_two_crossed,
    }
    return builders[name](ring)


# ---------------------------------------------------------------------------
# Corrupted F2 variants.  Each entry is (name, thunk, expected error class,
# expected law tag, witness labels); running the thunk must raise.


def _mutant_lift_zero(ring=QQ):
    R, E, L, d2, d1, _ = _f2_pieces(ring)
    return make_two_crossed(
        L, E, R, d2, d1, zero_action(R, E), zero_action(R, L), zero_bilinear(E, E, L)
    )


def _mutant_lift_extra(ring=QQ):
    R, E, L, d2, d1, _ = _f2_pieces(ring)
    lift = BilinearMap(E, E, L, {("a", "a"): L.basis_element(BH), ("b", "a"): L.basis_element(BH)})
    return make_two_crossed(L, E, R, d2, d1, zero_action(R, E), zero_action(R, L), lift)


def _mutant_l_product(ring=QQ):
    # fatten L with a square bh^2 = z killed by d2: 2XM1 still holds, but
    # {d2(bh) (x) d2(bh)} = {b (x) b} = 0 differs from bh*bh = z.
    R, E, _, _, d1, _ = _f2_pieces(ring)
    L = make_finite_algebra([BH, "z"], {(BH, BH): {"z": 1}}, ring)
    d2 = algebra_morphism(L, E, images={BH: E.basis_element("b"), "z": E.zero()})
    lift = BilinearMap(E, E, L, {("a", "a"): L.basis_element(BH)})
    return make_two_crossed(L, E, R, d2, d1, zero_action(R, E), zero_action(R, L), lift)


def _mutant_d2_escape(ring=QQ):
    # send bh to a square-zero direction c with d1(c) = p, so d1.d2 != 0
    R, _, L, _, _, _ = _f2_pieces(ring)
    E = make_finite_algebra(["a", "b", "c"], {("a", "a"): {"b": 1}}, ring)
    d1 = algebra_morphism(
        E, R,
        images={"a": R.basis_element("p"), "b": R.zero(), "c": R.basis_element("p")},
    )
    d2 = algebra_morphism(L, E, images={BH: E.basis_element("c")})
    lift = BilinearMap(E, E, L, {("a", "a"): L.basis_element(BH)})
    return make_two_crossed(L, E, R, d2, d1, zero_action(R, E), zero_action(R, L), lift)


def _mutant_action_e(ring=QQ):
    # p > a = b is a valid action (A1/A2 hold) but breaks 2XM1:
    # d2{a (x) a} = b while aa - d1(a) > a = b - b = 0.
    R, E, L, d2, d1, lift = _f2_pieces(ring)
    act_e = make_action(R, E, {"p": {"a": E.basis_element("b")}})
    return make_two_crossed(L, E, R, d2, d1, act_e, zero_action(R, L), lift)


def _mutant_d1_not_multiplicative(ring=QQ):
    R, E, _, _, _, _ = _f2_pieces(ring)
    return algebra_morphism(
        E, R, images={"a": R.basis_element("p"), "b": R.basis_element("p")}
    )


def _mutant_level_one_as_crossed(ring=QQ):
    R, E, _, _, d1, _ = _f2_pieces(ring)
    return make_crossed(E, R, d1, zero_action(R, E))


def _mutant_noncommutative(ring=QQ):
    return make_finite_algebra(
        ["u", "v"], {("u", "v"): {"u": 1}, ("v", "u"): {"v": 1}}, ring
    )


def corrupted_f2_variants():
    return [
        ("lift-dropped", _mutant_lift_zero, AxiomViolation, "2XM1", ("a", "a")),
        ("lift-extra-term", _mutant_lift_extra, AxiomViolation, "2XM1", ("b", "a")),
        ("L-product-nonnilpotent", _mutant_l_product, AxiomViolation, "2XM2", (BH, BH)),
        ("d2-misses-kernel", _mutant_d2_escape, CompositeNonzero, "d1.d2=0", (BH,)),
        ("action-breaks-peiffer", _mutant_action_e, AxiomViolation, "2XM1", ("a", "a")),
        ("d1-not-multiplicative", _mutant_d1_not_multiplicative, MorphismViolation, "multiplicativity", ("a", "a")),
        ("level-one-not-peiffer", _mutant_level_one_as_crossed, XM2Violation, "XM2", ("a", "a")),
        ("asymmetric-table", _mutant_noncommutative, NonCommutative, "commutativity", ("u", "v")),
    ]
