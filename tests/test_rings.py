import time
from fractions import Fraction

import pytest

from xmod2.errors import BadShape, ParseError
from xmod2.rings import PrimeField, QQ, nullspace, ring_from_spec, solve_in_span


def test_rational_parse_lowest_terms():
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.parse("6/8") == Fraction(3, 4)
    assert QQ.parse("-2") == Fraction(-2)
    v = QQ.parse("-4/6")
    assert v.denominator > 0 and v == Fraction(-2, 3)
    with pytest.raises(ParseError):
        QQ.parse("1/0")


def test_prime_field_parse_rejects_a_zero_denominator():
    """Over F_p as over Q, "1/0" is a ParseError that names the scalar, not
    the ZeroDivisionError of Fraction."""
    with pytest.raises(ParseError) as err:
        PrimeField(5).parse("1/0")
    assert "'1/0'" in str(err.value)


@pytest.mark.parametrize("text", ["1e999999999", "1E3", "2.5e-1", "-1e0"])
def test_rational_parse_rejects_exponent_notation(text):
    """Fraction would expand the exponent: "1e999999999" is about 415 MB."""
    with pytest.raises(ParseError) as err:
        QQ.parse(text)
    assert repr(text) in str(err.value)


def test_rational_ops_exact():
    a = QQ.parse("1/3")
    assert QQ.add(a, a) == Fraction(2, 3)
    assert QQ.mul(a, QQ.inv(a)) == QQ.one
    assert QQ.is_zero(QQ.sub(a, a))


SMALL_RATIONALS = sorted({Fraction(p, q) for p in range(-6, 7) for q in range(1, 5)})


def _assert_canonical(value, exact):
    """value is the canonical Q scalar equal to the Fraction exact: the int
    when exact is integral, else a Fraction; never a float."""
    assert not isinstance(value, float)
    assert value == exact
    assert type(value) is (int if exact.denominator == 1 else Fraction)


def test_rational_operations_return_canonical_scalars():
    """Every Q operation returns an int exactly when its value is integral,
    on every a, b in {p/q : |p| <= 6, 1 <= q <= 4}, whether the inputs come
    canonical or as Fractions."""
    for a in SMALL_RATIONALS:
        _assert_canonical(QQ.coerce(a), a)
        _assert_canonical(QQ.parse("%d/%d" % (a.numerator, a.denominator)), a)
        _assert_canonical(QQ.parse(str(a)), a)
        for x in (QQ.coerce(a), a):
            _assert_canonical(QQ.neg(x), -a)
            if a:
                _assert_canonical(QQ.inv(x), 1 / a)
            for b in SMALL_RATIONALS:
                for y in (QQ.coerce(b), b):
                    _assert_canonical(QQ.add(x, y), a + b)
                    _assert_canonical(QQ.mul(x, y), a * b)
    for n in range(-6, 7):
        _assert_canonical(QQ.coerce(n), Fraction(n))
    assert type(QQ.coerce(True)) is int and QQ.coerce(True) == 1
    assert type(QQ.parse("6/3")) is int and QQ.parse("6/3") == 2
    assert type(QQ.zero) is int and type(QQ.one) is int
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)


def test_prime_field_canonical_representatives():
    F5 = PrimeField(5)
    assert F5.parse("7") == 2
    assert F5.parse("2 mod 5") == 2
    assert F5.parse("-1") == 4
    assert F5.coerce(Fraction(1, 2)) == 3  # 1/2 = 3 mod 5
    assert F5.mul(3, 2) == 1
    assert F5.inv(2) == 3


def test_prime_field_rejects_wrong_modulus():
    F5 = PrimeField(5)
    with pytest.raises(ParseError):
        F5.parse("2 mod 7")
    with pytest.raises(BadShape):
        PrimeField(4)
    with pytest.raises(BadShape):
        PrimeField(2**31 + 11)


def test_prime_field_bound_is_tested_before_primality():
    """Trial division of a Mersenne prime near 2^61 would take minutes."""
    start = time.perf_counter()
    for p in (2**61 - 1, 2**40 + 15):
        with pytest.raises(BadShape):
            PrimeField(p)
    assert time.perf_counter() - start < 0.1


def test_ring_spec_round_trip():
    assert ring_from_spec("Q") == QQ
    assert ring_from_spec({"prime": 5}) == PrimeField(5)
    with pytest.raises(ParseError):
        ring_from_spec({"modulus": 5})


def test_nullspace_known_kernel():
    # x + y = 0 over Q: kernel is spanned by (-1, 1, 0) and (0, 0, 1)
    basis = nullspace([[QQ.one, QQ.one, QQ.zero]], 3, QQ)
    assert len(basis) == 2
    for vec in basis:
        assert QQ.is_zero(QQ.add(vec[0], vec[1]))


def test_nullspace_trivial():
    F5 = PrimeField(5)
    assert nullspace([[1, 0], [0, 1]], 2, F5) == []
    assert len(nullspace([], 2, F5)) == 0 or nullspace([], 2, F5)  # no rows: full kernel
    assert len(nullspace([[0, 0]], 2, F5)) == 2


def test_solve_in_span():
    v1 = [QQ.one, QQ.zero]
    v2 = [QQ.one, QQ.one]
    coeffs = solve_in_span([v1, v2], [QQ.parse("3"), QQ.parse("2")], QQ)
    assert coeffs == [Fraction(1), Fraction(2)]
    assert solve_in_span([v1], [QQ.zero, QQ.one], QQ) is None
    assert solve_in_span([], [QQ.zero, QQ.zero], QQ) == []
    assert solve_in_span([], [QQ.one], QQ) is None
