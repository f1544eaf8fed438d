import gc
import json
import os
import random
import sys
import weakref

import pytest

from xmod2 import fixtures
from xmod2.algebra import make_finite_algebra, make_free_algebra
from xmod2.cm_homotopy import cm_groupoid_check
from xmod2.crossed import (
    as_two_crossed,
    identity_2cm_morphism,
    kernel_two_crossed,
    make_2cm_morphism,
    make_cm_morphism,
    make_crossed,
    make_precrossed,
    make_two_crossed,
)
from xmod2.errors import (
    BadShape, CompositionMismatch, DerivationLawViolation, FreeBasisRequired, QDLawViolation, XmodError,
)
from xmod2.maps import (
    BilinearMap,
    Certificate,
    FunctionAction,
    Policy,
    algebra_morphism,
    identity_map,
    linear_map,
    make_action,
    random_element,
    zero_action,
    zero_bilinear,
)
from xmod2.randgen import (
    random_2cm_morphism,
    random_free_two_crossed,
    random_quadratic_derivation,
    random_two_crossed,
)
from xmod2.rings import PrimeField, QQ
from xmod2.selftest import worked_homotopies
from xmod2.simplex import build_tower, get_tower
from xmod2.tcm_homotopy import (
    QuadraticDerivation,
    apply_2cm_homotopy,
    box_plus_s,
    box_plus_t,
    check_w_change,
    concat_2cm,
    extend_derivation,
    invert_2cm,
    make_quadratic_derivation,
    tcm_groupoid_check,
    w_map,
    x_map,
    z_map,
    zero_quadratic,
)

from helpers import patch_everywhere, zero_2cm_morphism

POL = Policy(samples=40, seed=2)


def worked(ring=QQ):
    return worked_homotopies(ring, POL)


def test_quadratic_derivation_accepted_and_vacuous_t_laws():
    F3, F2, f, h1, _, _ = worked()
    qd = h1
    # s-law by construction (f0 is a substitution into the finite F2), and
    # t-action by the generator rule (x only; vacuous, as E = 0)
    assert qd.certificates["s-law"].exhaustive and qd.certificates["t-action"].exhaustive
    assert qd.certificates["t-product"].exhaustive  # vacuous: E = 0
    x = F3.R.monomial("x")
    assert qd.s(x) == F2.E.basis_element("a")


def test_zero_pair_connects_f_to_f():
    F3, F2, f, _, _, _ = worked()
    z = zero_quadratic(f, POL)
    assert z.target.equal(f)


def test_overdeclared_s_value_rejected():
    # the law forces s(x^2) = 2 p > a + a^2 = b; declaring 0 must fail
    F3, F2, f, _, _, _ = worked()
    a = F2.E.basis_element("a")
    with pytest.raises(QDLawViolation) as err:
        make_quadratic_derivation(f, {"x": a, ("x", "x"): F2.E.zero()}, {}, POL)
    assert err.value.equation == "s-law"
    good = make_quadratic_derivation(
        f, {"x": a, ("x", "x"): F2.E.basis_element("b")}, {}, POL
    )
    assert good.s(F3.R.monomial("x", "x")) == F2.E.basis_element("b")


def _idempotent_domain():
    """A free F5 domain with E != 0 where x acts: R = F5[x]+, E = L = F5{u}
    with u^2 = u, x > u = u on E and L, d1 = 0, d2 the identity and the
    lifting the multiplication; with the zero map f to itself."""
    F5 = PrimeField(5)
    R = make_free_algebra(["x"], F5)
    E = make_finite_algebra(["u"], {("u", "u"): {"u": 1}}, F5)
    u = E.basis_element("u")
    act = make_action(R, E, {"x": {"u": u}}, POL)
    D = make_two_crossed(
        E, E, R, d2=identity_map(E), d1=algebra_morphism(E, R, images={"u": R.zero()}, policy=POL),
        act_e=act, act_l=act, lift=BilinearMap(E, E, E, {("u", "u"): u}),
        policy=POL,
    )
    return D, zero_2cm_morphism(D, D, POL), u


def test_t_breaking_the_product_law_is_rejected():
    # s = 0 and f = 0 leave t(ee') = t(e)t(e'); t(u) = 2u gives 2u != 4u
    D, f, u = _idempotent_domain()
    with pytest.raises(QDLawViolation) as err:
        make_quadratic_derivation(f, {}, {"u": 2 * u}, POL)
    assert err.value.law == "t-product"
    assert err.value.witness == (u, u) and all(e in D.E.basis_elements() for e in err.value.witness)
    assert (err.value.lhs, err.value.rhs) == (2 * u, 4 * u)


def test_t_breaking_the_action_law_is_rejected():
    # t(u) = u keeps t(uu) = t(u)t(u), but t(x > u) = u while f0 = 0 and
    # s = 0 make the right side 0; the witness is (x,), the sides are lists
    # over the E-basis
    D, f, u = _idempotent_domain()
    with pytest.raises(QDLawViolation) as err:
        make_quadratic_derivation(f, {}, {"u": u}, POL)
    assert err.value.law == "t-action"
    assert err.value.witness == (D.R.monomial("x"),)
    assert (err.value.lhs, err.value.rhs) == ([u], [D.E.zero()])


def test_sampled_certificate_reproduces_its_tuples(monkeypatch):
    """A sampled certificate (D, N, seed) and the law's algebras give back
    the tuples its check saw: d1-equivariance over R x E, a law of
    make_two_crossed over a free R that no lemma covers here, since the
    free table action x > u = u has its A2 only sampled.  It is checked on
    the generator tuple (x, u), then on N pairs drawn from Random(seed) at
    degree <= D."""
    from xmod2 import maps

    pol = Policy(samples=7, max_degree=3, seed=11)
    R = make_free_algebra(["x"], QQ)
    E = make_finite_algebra(["u"], {("u", "u"): {"u": 1}}, QQ)
    L = make_finite_algebra(["v"], {("v", "v"): {"v": 1}}, QQ)
    u, v = E.basis_element("u"), L.basis_element("v")
    act_e, act_l = make_action(R, E, {"x": {"u": u}}, pol), make_action(R, L, {"x": {"v": v}}, pol)
    assert not act_e.certificate.exhaustive
    real, seen = maps.law_tuples, []

    def law_tuples(algebras, policy, *rest):
        tuples, exhaustive = real(algebras, policy, *rest)
        if len(algebras) == 2 and algebras[0] is R and algebras[1] is E:
            seen.append(tuples)
        return tuples, exhaustive

    monkeypatch.setattr(maps, "law_tuples", law_tuples)
    D = make_two_crossed(
        L, E, R, d2=algebra_morphism(L, E, images={"v": u}),
        d1=algebra_morphism(E, R, images={"u": R.zero()}),
        act_e=act_e, act_l=act_l, lift=BilinearMap(E, E, L, {("u", "u"): v}), policy=pol,
    )
    cert = D.certificates["d1-equivariance"]
    assert not cert.exhaustive
    rng = random.Random(cert.seed)
    drawn = [
        (random_element(R, rng, cert.max_degree), random_element(E, rng, cert.max_degree))
        for _ in range(cert.samples)
    ]
    assert seen == [[(R.monomial("x"), u)] + drawn]


def test_apply_homotopy_target_and_char_two_variant():
    F3, F2, f, h1, _, _ = worked()
    x = F3.R.monomial("x")
    assert h1.target.f0(x) == 2 * F2.R.basis_element("p")

    GF2 = PrimeField(2)
    F3b, F2b, fb, h1b, _, _ = worked_homotopies(GF2, POL)
    assert h1b.target.f0(F3b.R.monomial("x")).is_zero()  # 2p = 0 in char 2


def test_extend_derivation_values():
    F3, F2, f, _, _, _ = worked()
    R, E = F3.R, F2.E
    a, b = E.basis_element("a"), E.basis_element("b")
    s = extend_derivation(f, {"x": a}, POL)
    assert s(R.monomial("x", "x")) == b
    assert s(R.monomial("x", "x", "x")).is_zero()
    z = extend_derivation(f, {}, POL)
    assert z(R.monomial("x", "x")).is_zero()
    # zero base morphism: s(x^2) = a^2 = b (semidirect square, zero first slot)
    f0 = zero_2cm_morphism(F3, F2, POL)
    s0 = extend_derivation(f0, {"x": a}, POL)
    assert s0(R.monomial("x", "x")) == b


def test_extend_derivation_checks_declared_monomial_values():
    """A monomial key declares the value s takes there, and
    extend_derivation checks it as make_quadratic_derivation does: over
    F3 -> F2 with f0(x) = p, s(x) = a forces s(x^2) = b, so declaring 5a
    raises QDLawViolation("s-law") at x^2, and the forced value passes.
    Over a crossed module's slice the error is DerivationLawViolation."""
    F3, F2, f, _, _, _ = worked()
    a, b = F2.E.basis_element("a"), F2.E.basis_element("b")
    x2 = F3.R.monomial("x", "x")
    with pytest.raises(QDLawViolation) as err:
        extend_derivation(f, {"x": a, ("x", "x"): 5 * a}, POL)
    assert (err.value.equation, err.value.witness, err.value.lhs, err.value.rhs) == ("s-law", (x2,), 5 * a, b)
    with pytest.raises(QDLawViolation) as expected:
        make_quadratic_derivation(f, {"x": a, ("x", "x"): 5 * a}, {}, POL)
    assert str(err.value) == str(expected.value)
    assert extend_derivation(f, {"x": a, ("x", "x"): b}, POL)(x2) == b

    R = make_free_algebra(["y"], QQ)
    E = make_finite_algebra(["u"], {}, QQ)
    F1 = fixtures.ideal_crossed()
    x, x2 = F1.R.basis_element("x"), F1.E.basis_element("x2")
    g = make_cm_morphism(make_crossed(E, R, algebra_morphism(E, R, images={"u": R.zero()}), zero_action(R, E)),
                         F1, algebra_morphism(R, F1.R, images={"y": x}),
                         algebra_morphism(E, F1.E, images={"u": F1.E.zero()}), POL)
    y2 = R.monomial("y", "y")
    forced = extend_derivation(g, {"y": 3 * x2}, POL)(y2)
    with pytest.raises(DerivationLawViolation) as err:
        extend_derivation(g, {"y": 3 * x2, ("y", "y"): forced + x2}, POL)
    assert (err.value.witness, err.value.lhs, err.value.rhs) == ((y2,), forced + x2, forced)


def test_an_image_on_a_key_that_is_not_a_generator_is_refused_by_name():
    """Over the free R of F3 -> F2 the s-images are given on x alone: an
    image on any other key is refused, naming it, as over a finite R, and
    so is a t-image on a key outside the E-basis."""
    F3, F2, f, _, _, _ = worked()
    a = F2.E.basis_element("a")
    with pytest.raises(BadShape, match="image given for unknown key 'y' of "):
        make_quadratic_derivation(f, {"x": a, "y": a}, {}, POL)
    with pytest.raises(BadShape, match="image given for unknown key 'nope' of "):
        extend_derivation(f, {"x": a, "nope": a}, POL)
    ident = identity_2cm_morphism(F2)
    with pytest.raises(BadShape, match="image given for unknown key 'z' of "):
        make_quadratic_derivation(ident, {}, {"z": F2.L.basis_element(fixtures.BH)}, POL)


def test_t_images_are_checked_once_and_an_infinite_e_is_refused_after_the_s_law(monkeypatch):
    """t's images are checked by ``maps.generator_images`` once, where the
    data is normalized, and the table t is built from them.  Into an L'
    with a basis, an E with no finite basis is refused by name once the
    s-law has passed: D = (0 -> R -> R), R = Q[x]+ acting on itself by
    multiplication, into F2."""
    from xmod2 import maps

    F2 = fixtures.square_two_crossed()
    ident = identity_2cm_morphism(F2)
    t_images = {"a": -F2.L.basis_element(fixtures.BH)}
    real, sources = maps.generator_images, []

    def counted(source, target, images):
        sources.append(source)
        return real(source, target, images)

    with monkeypatch.context() as patch:
        patch_everywhere(patch, real, counted)
        qd = make_quadratic_derivation(ident, {}, t_images, POL)
    assert sources == [F2.R, F2.E] and qd.t_images == t_images and qd.t.images is qd.t_images

    R = make_free_algebra(["x"], QQ)
    D = as_two_crossed(make_crossed(R, R, identity_map(R), FunctionAction(R, R, R.key_mul), POL), POL)
    f = zero_2cm_morphism(D, F2, POL)
    with pytest.raises(DerivationLawViolation):
        make_quadratic_derivation(f, {("x", "x"): F2.E.basis_element("a")}, {}, POL)
    with pytest.raises(BadShape, match="^table linear map needs a finite source; use generator images$"):
        make_quadratic_derivation(f, {}, {}, POL)


def test_box_plus_s_unit_laws():
    F3, F2, f, h1, _, _ = worked()
    z_at_f = apply_2cm_homotopy(zero_quadratic(f, POL), POL)
    z_at_g = apply_2cm_homotopy(zero_quadratic(h1.target, POL), POL)
    left = box_plus_s(z_at_f, h1, POL)   # 0 [+] s = s
    right = box_plus_s(h1, z_at_g, POL)  # s [+] 0 = s
    for r in [F3.R.monomial("x"), F3.R.monomial("x", "x"), F3.R.monomial("x", "x", "x")]:
        assert left(r) == h1.s(r)
        assert right(r) == h1.s(r)


def test_x_map_values_and_degenerate_triangle():
    F3, F2, f, h1, h2, _ = worked()
    R = F3.R
    T = get_tower(F2, POL)
    a, b = F2.E.basis_element("a"), F2.E.basis_element("b")
    bh = F2.L.basis_element(fixtures.BH)
    x, x2 = R.monomial("x"), R.monomial("x", "x")
    assert x_map(h1, h2, x, POL) == T.simplex2(F2.R.basis_element("p"), a, a, F2.L.zero())
    assert x_map(h1, h2, x2, POL) == T.simplex2(F2.R.zero(), b, 3 * b, -2 * bh)
    # brute-force oracle: X(x^2) = X(x) * X(x) in the 2-simplex algebra
    Xx = T.simplex2(F2.R.basis_element("p"), a, a, F2.L.zero())
    assert Xx * Xx == x_map(h1, h2, x2, POL)
    # s' = 0: X(r) is the degenerate triangle s0(f0(r), s(r))
    z_at_g = apply_2cm_homotopy(zero_quadratic(h1.target, POL), POL)
    lam1 = T.levels[1]
    for r in [x, x2, R.monomial("x", "x", "x")]:
        phi = lam1.pair(f.f0(r), h1.s(r))
        assert x_map(h1, z_at_g, r, POL) == T.degeneracies[(1, 0)](phi)


def test_w_map_values_and_vanishing():
    F3, F2, f, h1, h2, _ = worked()
    R = F3.R
    bh = F2.L.basis_element(fixtures.BH)
    assert w_map(h1, h2, R.monomial("x"), POL).is_zero()  # w = 0 on B
    assert w_map(h1, h2, R.monomial("x", "x"), POL) == -2 * bh
    z_at_g = apply_2cm_homotopy(zero_quadratic(h1.target, POL), POL)
    rng = random.Random(4)
    for _ in range(10):
        r = random_element(R, rng, 4)
        assert w_map(h1, z_at_g, r, POL).is_zero()  # w^(s,0) = 0


def test_w_correction_visible_in_wprop():
    # at x^2 the correction is nonzero: dropping or flipping it is detected
    F3, F2, f, h1, h2, _ = worked()
    x2 = F3.R.monomial("x", "x")
    box = box_plus_s(h1, h2, POL)
    w = w_map(h1, h2, x2, POL)
    s_sum = h1.s(x2) + h2.s(x2)
    assert box(x2) == s_sum - F2.d2(w)
    assert box(x2) != s_sum                     # dropped correction detected
    assert box(x2) != s_sum + F2.d2(w)          # flipped sign detected


def test_concat_values_and_unit():
    F3, F2, f, h1, h2, _ = worked()
    x, x2 = F3.R.monomial("x"), F3.R.monomial("x", "x")
    out = concat_2cm(h1, h2, POL)
    assert out.s(x2) == 4 * F2.E.basis_element("b")
    assert out.target.f0(x) == 3 * F2.R.basis_element("p")
    z_at_g = apply_2cm_homotopy(zero_quadratic(h1.target, POL), POL)
    unit = concat_2cm(h1, z_at_g, POL)
    assert unit.equal(h1)
    with pytest.raises(CompositionMismatch):
        concat_2cm(h1, h1, POL)  # target of h1 is not its own base


def test_invert_values_and_round_trip():
    F3, F2, f, h1, _, _ = worked()
    R = F3.R
    a, b = F2.E.basis_element("a"), F2.E.basis_element("b")
    bh = F2.L.basis_element(fixtures.BH)
    x, x2, x3 = R.monomial("x"), R.monomial("x", "x"), R.monomial("x", "x", "x")
    hinv = invert_2cm(h1, POL)
    assert hinv.s(x) == -a
    assert hinv.s(x2) == b  # g0-derivation law: 2(2p) > (-a) + (-a)^2 = b
    assert w_map(h1, hinv, x2, POL) == 2 * bh
    box = box_plus_s(h1, hinv, POL)
    assert box(x).is_zero() and box(x2).is_zero() and box(x3).is_zero()
    # (s [+] sbar)(x^2) = b + b - d2(2bh) = 0, via the explicit pieces
    assert (h1.s(x2) + hinv.s(x2) - F2.d2(w_map(h1, hinv, x2, POL))).is_zero()
    rt = concat_2cm(h1, hinv, POL)
    assert rt.target.equal(f) and rt.equal(zero_quadratic(f, POL))
    rt2 = concat_2cm(hinv, h1, POL)
    assert rt2.target.equal(h1.target)
    assert rt2.equal(zero_quadratic(h1.target, POL))
    zz = invert_2cm(apply_2cm_homotopy(zero_quadratic(f, POL), POL), POL)
    assert zz.equal(zero_quadratic(f, POL))


def test_w_symmetry_with_inverse():
    # w^(s,sbar) = w^(sbar,s) follows from the w-change identity
    F3, F2, f, h1, _, _ = worked()
    hinv = invert_2cm(h1, POL)
    rng = random.Random(8)
    for _ in range(5):
        r = random_element(F3.R, rng, 4)
        assert w_map(h1, hinv, r, POL) == w_map(hinv, h1, r, POL)


def test_z_map_values_and_component_formula():
    F3, F2, f, h1, h2, h3 = worked()
    R = F3.R
    T = get_tower(F2, POL)
    a, b = F2.E.basis_element("a"), F2.E.basis_element("b")
    bh = F2.L.basis_element(fixtures.BH)
    zE, zL = F2.E.zero(), F2.L.zero()
    x, x2 = R.monomial("x"), R.monomial("x", "x")
    assert z_map(h1, h2, h3, x, POL) == T.simplex3(
        F2.R.basis_element("p"), a, a, zL, a, zL, zL
    )
    comps = T.split3(z_map(h1, h2, h3, x2, POL))
    assert comps[3] == -2 * bh              # w^(s,s')
    assert comps[6] == -2 * bh              # w^(s',s'')
    assert comps[5] + comps[6] == -4 * bh   # w^(s [+] s', s'')
    assert comps[4] == b + 4 * b            # s''(x^2) - d2'(-4 bh)


def test_w_change_worked_and_random():
    F3, F2, f, h1, h2, h3 = worked()
    x2 = F3.R.monomial("x", "x")
    bh = F2.L.basis_element(fixtures.BH)
    ok, lhs, rhs = check_w_change(h1, h2, h3, x2, POL)
    assert ok and lhs == -6 * bh and rhs == -6 * bh
    # with s'' = 0 the identity reduces to w^(s,s') on both sides
    z_at_h = apply_2cm_homotopy(zero_quadratic(h2.target, POL), POL)
    ok, lhs, rhs = check_w_change(h1, h2, z_at_h, x2, POL)
    assert ok and lhs == w_map(h1, h2, x2, POL)

    F5 = PrimeField(5)
    F3f = fixtures.free_line_two_crossed(F5)
    rng = random.Random(31)
    for _ in range(10):
        B = random_two_crossed(F5, rng, max_dim=2, policy=POL)
        from xmod2.randgen import _random_element

        fb = random_2cm_morphism(F3f, B, rng, policy=POL)
        k1 = apply_2cm_homotopy(
            make_quadratic_derivation(fb, {"x": _random_element(B.E, rng)}, {}, POL), POL
        )
        k2 = apply_2cm_homotopy(
            make_quadratic_derivation(k1.target, {"x": _random_element(B.E, rng)}, {}, POL), POL
        )
        k3 = apply_2cm_homotopy(
            make_quadratic_derivation(k2.target, {"x": _random_element(B.E, rng)}, {}, POL), POL
        )
        r = random_element(F3f.R, rng, 4)
        ok, lhs, rhs = check_w_change(k1, k2, k3, r, POL)
        assert ok, (r, lhs, rhs)


def _f3_triple(seed):
    """A composable triple over the free line F3: the worked one over Q
    (seed None) or a random one into a random F5 target."""
    if seed is None:
        F3, _, _, h1, h2, h3 = worked()
        return F3, (h1, h2, h3), random.Random(0)
    F5 = PrimeField(5)
    rng = random.Random(seed)
    D = fixtures.free_line_two_crossed(F5)
    f = random_2cm_morphism(D, random_two_crossed(F5, rng, max_dim=2, policy=POL), rng, policy=POL)
    hs = []
    for _ in range(3):
        hs.append(apply_2cm_homotopy(random_quadratic_derivation(f, rng, policy=POL), POL))
        f = hs[-1].target
    return D, tuple(hs), rng


@pytest.mark.parametrize("seed", [None, 41, 42, 43])
def test_w_read_agrees_with_the_triangle_and_tetrahedron(seed):
    """w_map reads w without the triangle tripwire; at each point it is the
    L'-component of the checked X, and the w-change lhs w12 + w12_3 is
    read off the checked Z (components 3 + 5 + 6)."""
    D, (h1, h2, h3), rng = _f3_triple(seed)
    T = get_tower(h1.f.tgt, POL)
    x = D.R.monomial("x")
    for r in (x, x * x, x * x * x, random_element(D.R, rng, 4)):
        assert w_map(h1, h2, r, POL) == T.split2(x_map(h1, h2, r, POL))[3]
        z = T.split3(z_map(h1, h2, h3, r, POL))
        ok, lhs, _ = check_w_change(h1, h2, h3, r, POL)
        assert ok and lhs == z[3] + z[5] + z[6]


def test_box_plus_t_identities_on_domain_with_nonzero_e():
    F5 = PrimeField(5)
    rng = random.Random(12)
    D = random_free_two_crossed(F5, rng, max_dim=2, policy=POL)
    assert D.E.dim() > 0
    B = random_two_crossed(F5, rng, max_dim=2, policy=POL)
    f = random_2cm_morphism(D, B, rng, policy=POL)
    h1 = apply_2cm_homotopy(random_quadratic_derivation(f, rng, policy=POL), POL)
    h2 = apply_2cm_homotopy(random_quadratic_derivation(h1.target, rng, policy=POL), POL)
    for k in D.E.basis_keys():
        e = D.E.basis_element(k)
        # definitional identity, with w evaluated independently
        assert box_plus_t(h1, h2, e, POL) - h1.t(e) - h2.t(e) == w_map(
            h1, h2, D.d1(e), POL
        )
        # t [+] 0 = t pointwise
        z = apply_2cm_homotopy(zero_quadratic(h1.target, POL), POL)
        assert box_plus_t(h1, z, e, POL) == h1.t(e)
    # tbar bookkeeping: tbar = -t - w^(s,sbar) o d1, exactly
    hinv = invert_2cm(h1, POL)
    for k in D.E.basis_keys():
        e = D.E.basis_element(k)
        expected = -h1.t(e) - w_map(h1, hinv, D.d1(e), POL)
        assert hinv.t(e) == expected
        assert box_plus_t(h1, hinv, e, POL).is_zero()


def test_w_term_in_t_concat_vanishes_on_finite_e_free_domains():
    # Over a free polynomial R and finite-dimensional E, boundary
    # equivariance forces d1 = 0 (powers of x would push d1(E) out of any
    # finite-dimensional subspace), so the w o d1 correction in t [+] t'
    # vanishes identically on every representable instance; omitting it is
    # then semantically invisible.  This pins that analysis down.
    F5 = PrimeField(5)
    rng = random.Random(13)
    for _ in range(5):
        D = random_free_two_crossed(F5, rng, max_dim=2, policy=POL)
        for k in D.E.basis_keys():
            assert D.d1(D.E.basis_element(k)).is_zero()
        B = random_two_crossed(F5, rng, max_dim=2, policy=POL)
        f = random_2cm_morphism(D, B, rng, policy=POL)
        h1 = apply_2cm_homotopy(random_quadratic_derivation(f, rng, policy=POL), POL)
        h2 = apply_2cm_homotopy(random_quadratic_derivation(h1.target, rng, policy=POL), POL)
        for k in D.E.basis_keys():
            e = D.E.basis_element(k)
            assert box_plus_t(h1, h2, e, POL) == h1.t(e) + h2.t(e)


def test_t_associativity_pointwise_on_e_basis():
    F5 = PrimeField(5)
    rng = random.Random(14)
    for _ in range(3):
        D = random_free_two_crossed(F5, rng, max_dim=2, policy=POL)
        B = random_two_crossed(F5, rng, max_dim=2, policy=POL)
        f = random_2cm_morphism(D, B, rng, policy=POL)
        h1 = apply_2cm_homotopy(random_quadratic_derivation(f, rng, policy=POL), POL)
        h2 = apply_2cm_homotopy(random_quadratic_derivation(h1.target, rng, policy=POL), POL)
        h3 = apply_2cm_homotopy(random_quadratic_derivation(h2.target, rng, policy=POL), POL)
        c12 = concat_2cm(h1, h2, POL)
        c23 = concat_2cm(h2, h3, POL)
        for k in D.E.basis_keys():
            e = D.E.basis_element(k)
            assert box_plus_t(c12, h3, e, POL) == box_plus_t(h1, c23, e, POL)
        left = concat_2cm(c12, h3, POL)
        right = concat_2cm(h1, c23, POL)
        assert left.equal(right)


def test_free_basis_guardrails():
    F2 = fixtures.square_two_crossed()
    ident = identity_2cm_morphism(F2)
    qd = make_quadratic_derivation(ident, {}, {}, POL)  # construction is fine
    h = apply_2cm_homotopy(qd, POL)
    with pytest.raises(FreeBasisRequired):
        concat_2cm(h, h, POL)
    with pytest.raises(FreeBasisRequired):
        invert_2cm(h, POL)
    with pytest.raises(FreeBasisRequired):
        box_plus_s(h, h, POL)
    with pytest.raises(FreeBasisRequired):
        x_map(h, h, F2.R.basis_element("p"), POL)
    for r in (F2.R.zero(), F2.R.basis_element("p")):  # also at r = 0, where w needs no X
        with pytest.raises(FreeBasisRequired):
            w_map(h, h, r, POL)
    with pytest.raises(FreeBasisRequired):
        tcm_groupoid_check(F2, F2, samples=1, seed=0, policy=POL)


def test_a_finite_domain_composes_only_into_a_target_with_no_l():
    """Composition and inversion need a free R unless the
    target's L' has no basis.  The kernel 2-crossed module K of F1 = (x2)
    -> <x, x2> has a finite R, no free basis and L = ker d = 0: there w = 0,
    so s [+] s' = s + s' and sbar = -s on the R-basis.  From K into F2,
    whose L' is Q{b-hat}, both still refuse."""
    from xmod2.crossed import PreCrossedModule, kernel_two_crossed

    F1 = fixtures.ideal_crossed()
    K = kernel_two_crossed(PreCrossedModule(F1.E, F1.R, F1.d, F1.act), POL)
    assert K.free_basis is None and K.R.is_finite() and K.L.dim() == 0
    f = identity_2cm_morphism(K)
    x, x2 = K.R.basis_element("x"), K.E.basis_element("x2")
    h1 = make_quadratic_derivation(f, {"x": x2}, {}, POL)
    h2 = make_quadratic_derivation(h1.target, {"x": 2 * x2}, {}, POL)
    both = concat_2cm(h1, h2, POL)
    assert both.s(x) == 3 * x2 and both.target.equal(h2.target)
    inv = invert_2cm(h1, POL)
    assert inv.s(x) == -x2 and inv.target.equal(f)
    assert concat_2cm(h1, inv, POL).equal(zero_quadratic(f, POL))
    assert w_map(h1, h2, x, POL).is_zero()

    qd = make_quadratic_derivation(zero_2cm_morphism(K, fixtures.square_two_crossed(), POL), {}, {}, POL)
    with pytest.raises(FreeBasisRequired):
        concat_2cm(qd, qd, POL)
    with pytest.raises(FreeBasisRequired):
        invert_2cm(qd, POL)


def test_groupoid_check_fixture_pairs():
    F3 = fixtures.free_line_two_crossed()
    F2 = fixtures.square_two_crossed()
    entries = tcm_groupoid_check(F3, F2, samples=3, seed=1, policy=POL)
    assert entries and all(ok for _, ok, _ in entries)
    F0 = fixtures.zero_two_crossed()
    entries = tcm_groupoid_check(F3, F0, samples=2, seed=1, policy=POL)
    assert all(ok for _, ok, _ in entries)


@pytest.mark.parametrize("layer, source, target, laws", [
    (cm_groupoid_check, "F1", "F1", (
        "target-valid", "reflexive-zero", "identity-left", "identity-right",
        "inverse-right", "inverse-left", "symmetric", "associative", "transitive",
    )),
    (tcm_groupoid_check, "F3", "F2", (
        "targets-valid", "reflexive-zero", "identity-left", "identity-right",
        "symmetric", "inverse-right", "inverse-left", "s-associative",
        "t-associative", "transitive", "w-change",
    )),
], ids=["cm", "tcm"])
def test_one_sample_reports_each_groupoid_law_once(layer, source, target, laws):
    """One composable triple reports exactly the layer's law names: nine
    for crossed maps, and two more (t-associative, w-change) for 2-crossed
    maps, with the layer's own names for validity and associativity."""
    prefix = "cm" if layer is cm_groupoid_check else "tcm"
    entries = layer(fixtures.fixture(source), fixtures.fixture(target), samples=1, seed=0, policy=POL)
    names = [name for name, _, _ in entries]
    assert len(names) == len(laws)
    assert set(names) == {"%s/00/%s" % (prefix, law) for law in laws}
    assert all(ok for _, ok, _ in entries)


def test_a_target_that_fails_certification_fails_its_entry(monkeypatch):
    """targets-valid reports a drawn homotopy whose target does not
    certify: the sample's entry is false, with the error naming the law,
    and the check goes on to the next sample instead of raising."""
    from xmod2 import tcm_homotopy
    from xmod2.maps import algebra_morphism

    def wrong_target(qd):  # g0 sends every monomial to p, but p^2 = 0
        A, B = qd.f.src, qd.f.tgt
        p = B.R.basis_element("p")
        return algebra_morphism(A.R, B.R, fn=lambda r: p, policy=qd.policy, note="g0")

    monkeypatch.setattr(tcm_homotopy, "_qd_target", wrong_target)
    F3, F2 = fixtures.free_line_two_crossed(), fixtures.square_two_crossed()
    entries = tcm_groupoid_check(F3, F2, samples=2, seed=1, policy=POL)
    assert [(name, ok) for name, ok, _ in entries] == [
        ("tcm/00/targets-valid", False), ("tcm/01/targets-valid", False),
    ]
    assert all(witness.startswith("multiplicativity fails") for _, _, witness in entries)


def test_second_quadratic_derivation_draws_no_sampled_tuple(monkeypatch):
    """On a free domain the second check of the same f-derivation evaluates
    the same law tuples as the first; it only does not draw them again.
    No check is skipped: the law_tuples calls and their sizes are equal.
    Over the zero base map, whose f0 is a formula map with no certificate,
    the s-law and t-action are sampled; over a drawn map they are proved
    and draw nothing."""
    from xmod2 import maps

    F5 = PrimeField(5)
    rng = random.Random(5)
    built = Policy(samples=3, seed=9)
    D = random_free_two_crossed(F5, rng, max_dim=2, policy=built)
    B = random_two_crossed(F5, rng, max_dim=2, policy=built)
    f = random_2cm_morphism(D, B, rng, policy=built)
    qd = random_quadratic_derivation(f, rng, policy=built)
    zero = zero_2cm_morphism(D, B, built)
    get_tower(B, POL)  # kept per policy: built before counting, all exhaustive

    real_tuples, real_element = maps.law_tuples, maps.random_element
    sizes, draws = [], [0]

    def law_tuples(*args, **kwargs):
        tuples, exhaustive = real_tuples(*args, **kwargs)
        sizes[-1].append(len(tuples))
        return tuples, exhaustive

    def random_element(*args, **kwargs):
        draws[-1] += 1
        return real_element(*args, **kwargs)

    monkeypatch.setattr(maps, "law_tuples", law_tuples)
    monkeypatch.setattr(maps, "random_element", random_element)
    for base in (zero, zero, f):
        sizes.append([])
        draws.append(0)
        make_quadratic_derivation(base, qd.s_images, {}, POL)
    assert draws[1] > 0 and draws[2] == draws[3] == 0
    assert (D.E.dim(), D.L.dim()) == (2, 2)
    # s-law, t-product on E x E, t-action, t-product-on-boundaries on L x L,
    # t-action-on-boundaries; the proved s-law evaluates no tuple, and
    # t-action and its boundary form take r = x alone
    sampled = 1 + POL.samples
    assert sizes[0] == sizes[1] == [sampled, 4, sampled, 4, sampled]
    assert sizes[2] == [4, 1, 4, 1]


def test_target_is_certified_under_the_derivations_own_policy():
    """A derivation keeps the policy it was certified under, and its target
    carries that policy's certificates.  apply_2cm_homotopy under another
    policy returns the same data certified under that policy.  Over the
    zero base map the s-law and g0 are sampled, so the certificates name
    the policy; over the worked map f they are proved under either one."""
    F3, F2, f, h1, _, _ = worked()
    first, second = Policy(samples=3, seed=1), Policy(samples=7, seed=2)
    zero = zero_2cm_morphism(F3, F2, first)
    qd = make_quadratic_derivation(zero, h1.s_images, {}, first)
    assert qd.policy == first and qd.target is qd.target
    assert qd.target.f0.multiplicative == Certificate(False, first.max_degree, 3, 1)
    assert apply_2cm_homotopy(qd, first) is qd
    other = apply_2cm_homotopy(qd, second)
    assert other is not qd and other.policy == second and other.equal(qd)
    assert other.certificates["s-law"] == Certificate(False, second.max_degree, 7, 2)
    assert other.target is not qd.target and other.target.equal(qd.target)
    assert other.target.f0.multiplicative == Certificate(False, second.max_degree, 7, 2)
    assert apply_2cm_homotopy(qd, second) is other
    for policy in (first, second):
        proved = apply_2cm_homotopy(make_quadratic_derivation(f, h1.s_images, {}, first), policy)
        assert proved.certificates["s-law"].exhaustive and proved.target.f0.multiplicative.exhaustive


@pytest.mark.parametrize("seed", range(5))
def test_groupoid_returns_the_homotopies_already_certified(seed):
    """Units, inverse laws and both bracketings of a triple come back as
    the objects certified out of their base map, carrying the certificates
    a re-certification would give."""
    F3, F2 = fixtures.free_line_two_crossed(), fixtures.square_two_crossed()
    rng = random.Random(seed)
    f = random_2cm_morphism(F3, F2, rng, policy=POL)
    h1 = apply_2cm_homotopy(random_quadratic_derivation(f, rng, policy=POL), POL)
    h2 = apply_2cm_homotopy(random_quadratic_derivation(h1.target, rng, policy=POL), POL)
    h3 = apply_2cm_homotopy(random_quadratic_derivation(h2.target, rng, policy=POL), POL)
    zf = zero_quadratic(f, POL)
    assert zero_quadratic(f, POL) is zf
    assert concat_2cm(zf, h1, POL) is h1
    assert concat_2cm(h1, zero_quadratic(h1.target, POL), POL) is h1
    hinv = invert_2cm(h1, POL)
    assert concat_2cm(h1, hinv, POL) is zf
    assert concat_2cm(hinv, h1, POL) is zero_quadratic(h1.target, POL)
    c12, c23 = concat_2cm(h1, h2, POL), concat_2cm(h2, h3, POL)
    assert concat_2cm(h1, c23, POL) is concat_2cm(c12, h3, POL)
    fresh = make_quadratic_derivation(f, h1.s_images, h1.t_images, POL)
    assert fresh is not h1 and fresh.certificates == h1.certificates


def _free_domain_instance(seed):
    """A free F5 domain with dim E = 2 into a target with dim L = 2, and a
    quadratic derivation with nonzero t (seed 5)."""
    F5 = PrimeField(5)
    rng = random.Random(seed)
    D = random_free_two_crossed(F5, rng, max_dim=2, policy=POL)
    B = random_two_crossed(F5, rng, max_dim=2, policy=POL)
    f = random_2cm_morphism(D, B, rng, policy=POL)
    return D, B, f, random_quadratic_derivation(f, rng, policy=POL)


def _count_entries(monkeypatch, module, names):
    """Calls of module.name for each name, as a dict that fills while the
    patch lasts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(sys.modules["xmod2." + module], name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        patch_everywhere(monkeypatch, real, counted)
    return calls


def _count_law_tuples(monkeypatch):
    """[calls, tuples] of law_tuples, as a list that fills while the patch
    lasts."""
    from xmod2 import maps

    real = maps.law_tuples
    seen = [0, 0]

    def counting(*args, **kwargs):
        tuples, exhaustive = real(*args, **kwargs)
        seen[0] += 1
        seen[1] += len(tuples)
        return tuples, exhaustive

    patch_everywhere(monkeypatch, real, counting)
    return seen


def test_work_count_of_a_derivation_on_a_fresh_target(monkeypatch):
    """A quadratic derivation builds the lower stage of its target's tower
    (Lam0..Lam2 with >.) and certifies no action of the upper stage.  Its
    own four law_tuples calls are t-product on E x E, t-action and the two
    forms on boundaries (on L x L and on R); s is an algebra map into Lam1
    and no law of the derivation reads Lam3.  Building the
    whole tower takes 9 more calls: A1 and A2 of >* and >t and the
    multiplicativity of d1..d3@3 and s1..s2@2, which certify only Lam3 and
    the maps to and from it.  They run, with the same certificates, when
    the tower is completed (the next test).

    The pin was [15, 429] while the s-law and both t-action forms were
    sampled (1 + 10 tuples each).  Now the s-law holds by construction
    (``tcm_homotopy.check_derivation_law``: s is the E'-part of a
    substitution into Lam1, with f0 proved) and evaluates no tuple, and
    t-action and its boundary form take the generator rule (the closure
    lemma of ``make_quadratic_derivation``): r = x alone, 1 tuple each.

    The finite generator rule (the multiplicativity of the faces and
    degeneracies on a generating set of the source, A1 and A2 of >. on
    generating sets: ``maps.certify_multiplicative`` and
    ``maps.certify_action``) leaves the pin at [14, 398]: the target's R'
    has u0^2 = u0 and u1^2 = 4u1, so R'^2 = R' and G(R') is the whole
    basis, and E' and L' have zero tables, whose generating sets are their
    bases too.

    The d0/s0 lemma then took it from [14, 398] to [10, 298]: d0@1, d0@2,
    s0@0 and s0@1 of the lower stage are the projections of
    Lam_n = Lam_{n-1} |x X and their inclusions, algebra maps for any
    bilinear action (``simplex._by_construction``), so their four
    multiplicativity checks (100 tuples) are not run.

    The slot-triangle lemma then took it from [10, 298] to [10, 242]: d1@1,
    d1@2, d2@2 and s1@1 leave Lam1 = R |x E or Lam2, and each is checked on
    a pair (g, b) only when b's slot is not before g's
    (``maps.certify_multiplicative``); the other pairs are decided by the
    symmetry of the source product.

    The left-part lemma then took it from [10, 242] to [10, 210]: on the
    left part Lam_{n-1} of Lam_n = Lam_{n-1} |x X, d1@1 and d1@2 are the
    identity, d2@2 is s0 o d1@1 and s1@1 is s0 o s0; once each is compared
    with that map on the basis keys of Lam_{n-1}, its restriction there is
    an algebra map, and the block of Lam_{n-1} in its slot triangle is not
    checked (``maps.certify_multiplicative``)."""
    _, B, f, qd = _free_domain_instance(5)
    pol = Policy(10, 4, 0)
    assert (B.R.dim(), B.E.dim(), B.L.dim()) == (2, 2, 2) and pol not in B._towers
    entered = _count_entries(monkeypatch, "simplex", ("get_tower", "build_tower"))
    certified = _count_entries(monkeypatch, "maps", ("certify_action",))
    seen = _count_law_tuples(monkeypatch)
    make_quadratic_derivation(f, qd.s_images, qd.t_images, pol)
    assert entered == {"get_tower": 1, "build_tower": 1}
    assert certified == {"certify_action": 1}  # >.
    assert B._towers[pol].top == 2 and set(B._towers[pol].actions) == {"prime", "bullet"}
    assert seen == [10, 210]


def test_completing_a_kept_lower_stage_gives_the_whole_tower(monkeypatch):
    """After a derivation keeps the lower stage, get_tower builds the whole
    tower on it as a new tower: the same Lam1 and Lam2 (so the same product
    caches) and the same >., with every certificate a fresh build_tower
    gives, while the lower stage a caller holds is left as it was.  A
    broken upper stage raises from check_w_change what it raises from
    build_tower, and leaves the lower stage kept."""
    from xmod2 import simplex

    D, B, f, qd = _free_domain_instance(5)
    pol = Policy(10, 4, 0)
    make_quadratic_derivation(f, qd.s_images, qd.t_images, pol)
    short = B._towers[pol]
    lam1, lam2, bullet = short.levels[1], short.levels[2], short.actions["bullet"]
    certified = _count_entries(monkeypatch, "maps", ("certify_action",))
    T = get_tower(B, pol)
    assert certified == {"certify_action": 2}  # >* and >t, not >. again
    assert T.top == 3 and T.levels[1] is lam1 and T.levels[2] is lam2
    assert T.actions["bullet"] is bullet
    assert short.top == 2 and "dagger" not in short.actions
    assert T.levels[1] is short.levels[1] and T.levels[2] is short.levels[2]
    assert T.actions["bullet"] is short.actions["bullet"]
    assert get_tower(B, pol) is T and get_tower(B, pol, top=2) is T
    fresh = build_tower(B, pol)
    for kept, built in ((T.actions, fresh.actions), (T.faces, fresh.faces),
                        (T.degeneracies, fresh.degeneracies)):
        assert list(kept) == list(built)
    certificates = lambda T: (
        [a.certificate for a in T.actions.values()]
        + [m.multiplicative for m in list(T.faces.values()) + list(T.degeneracies.values())])
    assert certificates(T) == certificates(fresh)
    assert T.levels[3].dim() == fresh.levels[3].dim()

    # >2l gains c(k) m, c(k) the coefficient of k on L's first key: A2 fails.
    # On key images, (k, m) gains m when k is L's first key.
    first = B.L.basis_keys()[0]

    class TwoL(simplex.FunctionAction):
        def _image(self, k1, k2):
            image = super()._image(k1, k2)
            if self.note != "two_l" or k1 != first:
                return image
            return image + self.acted.basis_element(k2)

    monkeypatch.setattr(simplex, "FunctionAction", TwoL)
    other = Policy(10, 4, 1)
    with pytest.raises(XmodError) as eager:
        build_tower(B, other)
    h1 = make_quadratic_derivation(f, qd.s_images, qd.t_images, other)
    rng = random.Random(6)
    h2 = random_quadratic_derivation(h1.target, rng, policy=other)
    h3 = random_quadratic_derivation(h2.target, rng, policy=other)
    assert B._towers[other].top == 2
    with pytest.raises(XmodError) as lazy:
        check_w_change(h1, h2, h3, D.R.monomial(D.free_basis[0]), other)
    assert type(lazy.value) is type(eager.value) and str(lazy.value) == str(eager.value)
    assert B._towers[other].top == 2


def test_concat_reads_w_once_per_key_and_runs_no_triangle_tripwire(monkeypatch):
    """t [+] t' reads w through w_map once per E-basis key; the composite's
    s-images are summed directly, with no extension and no x_map."""
    from xmod2 import tcm_homotopy

    D, _, _, qd = _free_domain_instance(5)
    h1 = apply_2cm_homotopy(qd, POL)
    h2 = apply_2cm_homotopy(random_quadratic_derivation(h1.target, random.Random(6), policy=POL), POL)
    calls = {}
    for name in ("x_map", "extend_derivation", "box_plus_s", "w_map"):
        real = getattr(tcm_homotopy, name)
        calls[name] = 0

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(tcm_homotopy, name, counted)
    concat_2cm(h1, h2, POL)
    assert D.E.dim() == 2
    assert calls == {"x_map": 0, "extend_derivation": 0, "box_plus_s": 0, "w_map": 2}


def test_changed_data_or_policy_misses_the_memo_and_certifies_in_full(monkeypatch):
    """A changed t-image or policy misses the memo: every law is decided
    again, the proved s-law by its premises (no tuple) and the other four
    on their tuples."""
    from xmod2 import maps, tcm_homotopy

    D, B, f, qd = _free_domain_instance(5)
    assert D.E.dim() == 2 and B.L.dim() == 2 and qd.t_images
    other = Policy(samples=3, seed=9)
    get_tower(B, other)  # kept per policy: built before counting
    changed = dict(qd.t_images)
    changed["u0"] = changed["u0"] + B.L.basis_element("k1")  # one coefficient

    real_tuples, real_premises = maps.law_tuples, tcm_homotopy._by_construction
    calls, proofs = [], []

    def law_tuples(*args, **kwargs):
        calls.append(args[0])
        return real_tuples(*args, **kwargs)

    def by_construction(*args):
        proofs.append(real_premises(*args))
        return proofs[-1]

    monkeypatch.setattr(maps, "law_tuples", law_tuples)
    monkeypatch.setattr(tcm_homotopy, "_by_construction", by_construction)
    assert tcm_homotopy._quadratic(f, qd.s_images, qd.t_images, POL) is qd
    assert calls == [] and proofs == []
    # t-product, t-action, t-product-on-boundaries, t-action-on-boundaries
    laws = [[D.E, D.E], [D.R], [D.L, D.L], [D.R]]
    for t_images, policy in ((changed, POL), (qd.t_images, other)):
        out = tcm_homotopy._quadratic(f, qd.s_images, t_images, policy)
        assert out is not qd and calls == laws and proofs == [True]
        assert out.certificates["s-law"].exhaustive
        assert tcm_homotopy._quadratic(f, qd.s_images, t_images, policy) is out
        assert calls == laws and proofs == [True]
        calls.clear()
        proofs.clear()


def test_wrong_composite_is_certified_not_taken_from_the_memo(monkeypatch):
    """t [+] t' off by a nonzero element of L' (a wrong w-term) gives
    composites that share their s with a kept homotopy but not their t.
    Each is certified and rejected; the memo never answers for it."""
    from xmod2 import tcm_homotopy

    _, B, f, qd = _free_domain_instance(5)
    h1 = apply_2cm_homotopy(qd, POL)
    zf = apply_2cm_homotopy(zero_quadratic(f, POL), POL)
    hinv = invert_2cm(h1, POL)
    c = B.L.basis_element("k0")
    real = tcm_homotopy.w_map
    monkeypatch.setattr(tcm_homotopy, "w_map", lambda *args, **kwargs: real(*args, **kwargs) + c)
    for left, right in ((zf, h1), (h1, hinv)):
        with pytest.raises(XmodError):
            concat_2cm(left, right, POL)


@pytest.mark.parametrize("name", ["_pair_w", "w_map"])
def test_wrong_w_term_stops_or_fails_the_groupoid_check(monkeypatch, name):
    """The same nonzero term added to w where it builds tbar (_pair_w) or
    t [+] t' (w_map): the groupoid check raises or reports a failed law."""
    from xmod2 import tcm_homotopy

    D, B, _, _ = _free_domain_instance(5)
    c = B.L.basis_element("k0")
    real = getattr(tcm_homotopy, name)
    monkeypatch.setattr(tcm_homotopy, name, lambda *args, **kwargs: real(*args, **kwargs) + c)
    try:
        entries = tcm_groupoid_check(D, B, samples=1, seed=3, policy=POL)
    except XmodError:
        return
    assert not all(ok for _, ok, _ in entries)


def _right_t_off_by(c, real):
    """``bracketings`` whose right bracketing keeps its s and has t + c on
    every E-basis element."""

    def bracketings(*args):
        left, right = real(*args)
        E, L = right.f.src.E, right.f.tgt.L
        t_images = {k: right.t(E.basis_element(k)) + c for k in E.basis_keys()}
        return left, QuadraticDerivation(
            right.f, right.s_images, right.s, t_images, linear_map(E, L, t_images),
            right.certificates, right.policy,
        )

    return bracketings


def test_each_associativity_entry_checks_what_it_names(monkeypatch):
    """Bracketings equal in s and unequal in t pass s-associative and
    fail t-associative: the s-entry compares the s-halves alone."""
    from xmod2 import tcm_homotopy

    D, B, _, _ = _free_domain_instance(5)
    off = _right_t_off_by(B.L.basis_element("k0"), tcm_homotopy.bracketings)
    monkeypatch.setattr(tcm_homotopy, "bracketings", off)
    entries = {name: ok for name, ok, _ in tcm_groupoid_check(D, B, samples=1, seed=3, policy=POL)}
    assert entries["tcm/00/targets-valid"]
    assert entries["tcm/00/s-associative"] and not entries["tcm/00/t-associative"]


def test_cli_assoc_components_check_what_they_name(monkeypatch, tmp_path, capsys):
    """The same pair through ``xmod2 homotopy assoc``: s-component passes,
    t-component fails."""
    from xmod2 import cli

    _, B, _, qd = _free_domain_instance(5)
    h1 = apply_2cm_homotopy(qd, POL)
    h2 = zero_quadratic(h1.target, POL)
    named = {"h1": h1, "h2": h2, "h3": zero_quadratic(h2.target, POL)}
    monkeypatch.setattr(cli, "_homotopy_by_name", lambda doc, name: named[name])
    monkeypatch.setattr(cli, "bracketings", _right_t_off_by(B.L.basis_element("k0"), cli.bracketings))
    out = tmp_path / "out.json"
    fixtures_json = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures.json")
    argv = ["homotopy", "assoc", fixtures_json, "--names", "h1,h2,h3", "--json", str(out)]
    assert cli.main(argv) == 1
    status = {c["name"]: c["status"] for c in json.loads(out.read_text())["checks"]}
    assert status["assoc/s-component"] == "pass" and status["assoc/t-component"] == "fail"


def test_kept_homotopies_are_freed_with_their_base_map():
    """A kept homotopy refers to its base map and the map keeps it: a cycle
    that the collector frees with the map."""
    f, h1 = worked()[2:4]
    kept = weakref.ref(zero_quadratic(f, POL))
    zf = apply_2cm_homotopy(kept(), POL)
    concat_2cm(h1, invert_2cm(h1, POL), POL)
    concat_2cm(zf, h1, POL)
    base = weakref.ref(f)
    del f, h1, zf
    gc.collect()
    assert base() is None and kept() is None


def _every_term_instance():
    """A homotopy over a free F5 domain whose target reads each term that
    can be nonzero there.  The domain: R = F5[x]+, E = L = F5{u} with
    u^2 = 0, d2 the identity, d1 = 0, zero actions and lifting.  The
    target: the kernel 2-crossed module of E' = <a, b; a^2 = b> -> R' =
    <p; p^2 = 0> with d(a) = p and the zero action, so L' = <k0> with
    d2'(k0) = b.  Over the zero map, s(x) = a and t(u) = k0."""
    F5 = PrimeField(5)
    R = make_free_algebra(["x"], F5)
    E = make_finite_algebra(["u"], {}, F5)
    D = make_two_crossed(
        E, E, R, d2=identity_map(E), d1=algebra_morphism(E, R, images={"u": R.zero()}, policy=POL),
        act_e=zero_action(R, E), act_l=zero_action(R, E), lift=zero_bilinear(E, E, E),
        policy=POL,
    )
    R2 = make_finite_algebra(["p"], {}, F5)
    E2 = make_finite_algebra(["a", "b"], {("a", "a"): {"b": 1}}, F5)
    d = algebra_morphism(E2, R2, images={"a": R2.basis_element("p"), "b": R2.zero()}, policy=POL)
    B = kernel_two_crossed(make_precrossed(E2, R2, d, zero_action(R2, E2), POL), POL)
    f = make_2cm_morphism(
        D, B, algebra_morphism(R, R2, images={"x": R2.zero()}),
        algebra_morphism(E, E2, images={"u": E2.zero()}, policy=POL),
        algebra_morphism(E, B.L, images={"u": B.L.zero()}, policy=POL), POL,
    )
    qd = make_quadratic_derivation(f, {"x": E2.basis_element("a")}, {"u": B.L.basis_element("k0")}, POL)
    return D, B, f, qd


def test_target_reads_every_term_of_its_formula():
    """g0 = f0 + d1' o s, g1 = f1 + s o d1 + d2' o t and g2 = f2 + t o d2,
    where f = 0 and s, t, d1' o s, d2' o t and t o d2 are nonzero, so
    dropping any of those terms changes a value below.  d1 = 0 on every
    free domain with a finite E, so s o d1 is not seen here."""
    D, B, f, qd = _every_term_instance()
    x, u = D.R.monomial("x"), D.E.basis_element("u")
    g = qd.target
    assert g.f0(x) == B.R.basis_element("p")  # d1'(s(x)) = d1'(a)
    assert g.f1(u) == B.E.basis_element("b")  # d2'(t(u)) = d2'(k0)
    assert g.f2(u) == B.L.basis_element("k0")  # t(d2(u)) = t(u)


def test_known_targets_are_the_maps_they_equal():
    """The target of s [+] s' is the target of s', of sbar the source map
    of s and of the zero homotopy on f the map f: each is taken as that
    object, not as a certified copy, on the worked instance and on one
    with s and t nonzero."""
    _, _, f, h1, h2, _ = worked()
    assert concat_2cm(h1, h2, POL).target is h2.target
    assert invert_2cm(h1, POL).target is h1.f
    assert zero_quadratic(f, POL).target is f
    _, _, f, qd = _every_term_instance()
    inv = invert_2cm(qd, POL)
    assert inv.target is f and concat_2cm(inv, qd, POL).target is qd.target


def test_known_targets_give_the_entries_of_certified_ones(monkeypatch):
    """Every groupoid entry is the same whether the targets of zeros,
    composites and inverses are the maps they equal or, with that path
    off, are certified: 2-crossed on F3 -> F2 (seeds 0-29) and on drawn
    free F5 domains, crossed on F1 -> F1 (seeds 0-49)."""
    from xmod2 import tcm_homotopy

    F5 = PrimeField(5)
    F3, F2, F1 = fixtures.free_line_two_crossed(), fixtures.square_two_crossed(), fixtures.ideal_crossed()

    def entries():
        out = []
        for seed in range(30):
            out += tcm_groupoid_check(F3, F2, samples=1, seed=seed, policy=POL)
        rng = random.Random(24)
        for seed in range(10):
            D = random_free_two_crossed(F5, rng, max_dim=2, policy=POL)
            B = random_two_crossed(F5, rng, max_dim=2, policy=POL)
            out += tcm_groupoid_check(D, B, samples=1, seed=seed, policy=POL)
        for seed in range(50):
            out += cm_groupoid_check(F1, F1, samples=1, seed=seed, policy=POL)
        return [(name, ok) for name, ok, _ in out]

    real, taken = tcm_homotopy._is_target, [0]

    def counted(qd, m):
        ok = real(qd, m)
        taken[0] += ok
        return ok

    monkeypatch.setattr(tcm_homotopy, "_is_target", counted)
    known = entries()
    monkeypatch.setattr(tcm_homotopy, "_is_target", lambda qd, m: False)
    certified = entries()
    assert taken[0] > 0 and known == certified
