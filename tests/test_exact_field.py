"""Field arithmetic, parsing, and root-of-unity detection."""

import time
from fractions import Fraction

import pytest

from tatehh.exact_field import (
    QQ,
    PrimeField,
    RationalField,
    scalar_pow,
)

from oracles import div, of_int


def test_rational_basics():
    assert QQ.characteristic == 0
    assert QQ.add(QQ.parse("1/2"), QQ.parse("1/3")) == Fraction(5, 6)
    assert QQ.mul(QQ.parse("-2/3"), QQ.parse("3/4")) == Fraction(-1, 2)
    assert QQ.inv(Fraction(7, 5)) == Fraction(5, 7)
    assert div(QQ, QQ.one, of_int(QQ, 4)) == Fraction(1, 4)
    assert QQ.to_str(Fraction(-3, 7)) == "-3/7"


def test_rational_inverse_and_quotient_of_ints_are_fractions():
    """A graded map over QQ holds Python ints; dividing one must stay
    exact instead of producing a float."""
    for x, y in [(3, 1), (-4, 6), (Fraction(2, 3), 5), (7, Fraction(-1, 2))]:
        quotient = div(QQ, x, y)
        assert type(quotient) is Fraction
        assert quotient == Fraction(x) / Fraction(y)
    for x in (3, -5, Fraction(-2, 7)):
        assert type(QQ.inv(x)) is Fraction
        assert QQ.inv(x) == 1 / Fraction(x)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    with pytest.raises(ZeroDivisionError):
        div(QQ, 1, 0)


def test_rational_parse_rejects_garbage():
    with pytest.raises(ValueError):
        QQ.parse("q")
    with pytest.raises(ValueError):
        QQ.parse("1/0")


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("text", ["1e4000000", "1e-4000000", "1.5", "1_000",
                                  "1/-2", "", "/2", "0x10"])
def test_parse_accepts_only_n_and_n_over_d(field, text):
    start = time.monotonic()
    with pytest.raises(ValueError, match="n or n/d"):
        field.parse(text)
    assert time.monotonic() - start < 1.0


def test_parse_strips_and_takes_signs():
    assert QQ.parse(" +3/4\n") == Fraction(3, 4)
    assert QQ.parse("-12") == Fraction(-12)
    assert PrimeField(7).parse(" -1/2 ") == PrimeField(7).neg(4)


def test_rational_singleton_equality():
    assert QQ == RationalField()
    assert hash(QQ) == hash(RationalField())


def test_prime_field_basics():
    F = PrimeField(7)
    assert F.characteristic == 7
    assert of_int(F, -1) == 6
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.parse("1/2") == F.inv(2)
    assert F.to_str(of_int(F, 10)) == "3"


def test_prime_field_validation():
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(2 ** 61)
    with pytest.raises(ValueError):
        PrimeField("5")
    # largest allowed modulus is prime
    assert PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1


def test_prime_field_parse_denominator():
    F = PrimeField(5)
    with pytest.raises(ValueError):
        F.parse("1/5")
    assert F.parse("7/3") == div(F, of_int(F, 7), of_int(F, 3))


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)
    with pytest.raises(ZeroDivisionError):
        PrimeField(3).inv(0)


def test_scalar_pow_including_negative():
    assert scalar_pow(QQ, Fraction(2), 10) == 1024
    assert scalar_pow(QQ, Fraction(2), -3) == Fraction(1, 8)
    assert scalar_pow(QQ, Fraction(-1), 5) == -1
    F = PrimeField(11)
    assert scalar_pow(F, 2, 10) == 1
    assert scalar_pow(F, 2, -1) == F.inv(2)
    assert scalar_pow(F, 7, 0) == F.one
    assert scalar_pow(PrimeField(5), 2, 4) == 1
    with pytest.raises(ZeroDivisionError):
        scalar_pow(QQ, QQ.zero, -1)


def test_scalar_pow_additive_in_exponent():
    samples = [(QQ, Fraction(-2, 3)), (QQ, Fraction(5)), (PrimeField(7), 3)]
    for field, x in samples:
        for m in range(-8, 9):
            for n in range(-8, 9):
                lhs = scalar_pow(field, x, m + n)
                rhs = field.mul(scalar_pow(field, x, m), scalar_pow(field, x, n))
                assert lhs == rhs


def test_field_axioms_on_samples():
    import random
    rng = random.Random(2)
    for field in (QQ, PrimeField(11)):
        elems = [of_int(field, rng.randrange(-9, 10)) for _ in range(6)]
        for x in elems:
            for y in elems:
                assert field.add(x, y) == field.add(y, x)
                for z in elems:
                    assert field.mul(x, field.add(y, z)) == \
                        field.add(field.mul(x, y), field.mul(x, z))
                    assert field.mul(field.mul(x, y), z) == \
                        field.mul(x, field.mul(y, z))
            if x != field.zero:
                assert field.mul(x, field.inv(x)) == field.one


def test_root_of_unity_detection():
    assert QQ.is_root_of_unity(Fraction(1))
    assert QQ.is_root_of_unity(Fraction(-1))
    assert not QQ.is_root_of_unity(Fraction(2))
    assert not QQ.is_root_of_unity(Fraction(1, 2))
    F = PrimeField(5)
    assert F.is_root_of_unity(2)
    with pytest.raises(ValueError):
        QQ.is_root_of_unity(QQ.zero)
    with pytest.raises(ValueError):
        F.is_root_of_unity(0)
