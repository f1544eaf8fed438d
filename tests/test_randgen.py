import random

from xmod2 import fixtures
from xmod2.crossed import kernel_two_crossed
from xmod2.maps import Policy, is_proof
from xmod2.randgen import (
    random_2cm_morphism,
    random_finite_algebra,
    random_free_two_crossed,
    random_precrossed,
    random_quadratic_derivation,
    random_two_crossed,
)
from xmod2.rings import PrimeField, QQ
from xmod2.tcm_homotopy import tcm_groupoid_check

F5 = PrimeField(5)
POL = Policy(samples=20, seed=0)


def test_random_finite_algebras_valid_and_bounded():
    rng = random.Random(0)
    for _ in range(20):
        A = random_finite_algebra(F5, rng, max_dim=2)
        assert 1 <= A.dim() <= 2
        # constructor certifies commutativity/associativity; spot-check anyway
        for u in A.basis_elements():
            for v in A.basis_elements():
                assert u * v == v * u


def test_random_precrossed_valid():
    rng = random.Random(1)
    for _ in range(10):
        P = random_precrossed(F5, rng, max_dim=2, policy=POL)
        assert P.certificates["XM1"].exhaustive


def test_random_two_crossed_valid_and_small():
    rng = random.Random(2)
    for _ in range(10):
        A = random_two_crossed(F5, rng, max_dim=2, policy=POL)
        assert A.certificates["2XM1"].exhaustive
        assert A.L.dim() <= 2 and A.E.dim() <= 2 and A.R.dim() <= 2


def test_random_generation_deterministic_given_seed():
    a1 = random_two_crossed(F5, random.Random(5), max_dim=2, policy=POL)
    a2 = random_two_crossed(F5, random.Random(5), max_dim=2, policy=POL)
    assert a1.E.labels == a2.E.labels
    for i in a1.E.basis_keys():
        for j in a1.E.basis_keys():
            l1 = a1.lift(a1.E.basis_element(i), a1.E.basis_element(j))
            l2 = a2.lift(a2.E.basis_element(i), a2.E.basis_element(j))
            assert l1.coeffs == l2.coeffs


def test_random_free_domain_shape():
    rng = random.Random(3)
    D = random_free_two_crossed(F5, rng, max_dim=2, policy=POL)
    assert D.free_basis == ("x",)
    assert D.E.dim() >= 1
    assert D.L is D.E
    # lifting is the multiplication, landing in L = E
    for i in D.E.basis_keys():
        for j in D.E.basis_keys():
            e, e2 = D.E.basis_element(i), D.E.basis_element(j)
            assert D.lift(e, e2) == e * e2


def test_square_family_gives_nonzero_liftings_sometimes():
    rng = random.Random(6)
    found = False
    for _ in range(20):
        A = random_two_crossed(F5, rng, max_dim=2, policy=POL)
        for i in A.E.basis_keys():
            for j in A.E.basis_keys():
                if not A.lift(A.E.basis_element(i), A.E.basis_element(j)).is_zero():
                    found = True
    assert found


def test_rational_generation_also_works():
    rng = random.Random(7)
    A = random_two_crossed(QQ, rng, max_dim=2, policy=POL)
    assert A.R.ring == QQ


def test_s_over_a_finite_domain_is_drawn_and_certified():
    """Over a finite R, s is drawn on the R-basis in each attempt, so the
    draws over K = ker(d) -> E -> R of the ideal crossed module F1 (finite
    R, L = 0) are not all s = 0; each draw certifies its three laws, and
    the groupoid laws hold on K -> K."""
    K = kernel_two_crossed(fixtures.ideal_crossed(), POL)
    assert K.free_basis is None and K.L.dim() == 0
    rng = random.Random(0)
    draws = [random_quadratic_derivation(random_2cm_morphism(K, K, rng, POL), rng, POL)
             for _ in range(30)]
    assert any(v.coeffs for h in draws for v in h.s_images.values())
    assert all(is_proof(c) for h in draws for c in h.certificates.values())
    assert all(ok for _, ok, _ in tcm_groupoid_check(K, K, samples=3, policy=POL))
