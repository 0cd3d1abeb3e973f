from fractions import Fraction

import pytest

from trialg import GF, QQ
from trialg.fields import PrimeField, field_from_spec, field_to_spec


def test_rational_ops():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(-2, 7)) == Fraction(-7, 2)
    assert QQ.format(Fraction(3, 4)) == "3/4"
    assert QQ.format(Fraction(5)) == "5"
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.parse("-2") == Fraction(-2)


def test_rational_stored_reduced_with_positive_denominator():
    x = QQ.mul(Fraction(2, -4), QQ.one)
    assert (x.numerator, x.denominator) == (-1, 2)
    assert QQ.format(x) == "-1/2"


def test_rational_format_takes_ints_and_negative_fractions():
    assert QQ.format(3) == "3"
    assert QQ.format(-2) == "-2"
    assert QQ.format(Fraction(-7, 3)) == "-7/3"


def test_prime_field_ops():
    f5 = GF(5)
    assert f5.add(3, 4) == 2
    assert f5.mul(3, 4) == 2
    assert f5.neg(2) == 3
    assert f5.inv(3) == 2
    assert f5.from_int(-1) == 4
    assert f5.parse("12") == 2


def test_prime_field_values_stay_reduced():
    f7 = GF(7)
    for a in range(7):
        for b in range(7):
            for op in (f7.add, f7.sub, f7.mul):
                assert 0 <= op(a, b) < 7


def test_characteristic_two_rejected():
    with pytest.raises(ValueError):
        GF(2)


def test_composite_modulus_rejected():
    with pytest.raises(ValueError):
        GF(9)
    with pytest.raises(ValueError):
        GF(1)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_field_specs_round_trip():
    assert field_from_spec("rational") == QQ
    assert field_from_spec({"prime": 11}) == PrimeField(11)
    assert field_to_spec(QQ) == "rational"
    assert field_to_spec(GF(11)) == {"prime": 11}
    with pytest.raises(ValueError):
        field_from_spec({"prime": 2})
    with pytest.raises(ValueError):
        field_from_spec("complex")


def test_field_equality():
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert QQ != GF(5)
