"""Exact scalar arithmetic and its JSON encoding."""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tensorfree.scalars import (
    ONE,
    ZERO,
    ExactComplex,
    as_scalar,
    fraction_from_json,
    scalar_from_json,
    scalar_json,
)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
scalars = st.builds(ExactComplex, rationals, rationals)


def test_frozen_arithmetic_examples():
    a = ExactComplex(Fraction(1, 2), Fraction(1, 3))
    b = ExactComplex(Fraction(2, 5), Fraction(-3, 7))
    assert a + b == ExactComplex(Fraction(9, 10), Fraction(-2, 21))
    assert a - b == ExactComplex(Fraction(1, 10), Fraction(16, 21))
    assert a * b == ExactComplex(Fraction(12, 35), Fraction(-17, 210))
    assert (a * b) / b == a
    assert -a == ExactComplex(Fraction(-1, 2), Fraction(-1, 3))
    assert a.conjugate() == ExactComplex(Fraction(1, 2), Fraction(-1, 3))
    assert a.abs2() == Fraction(13, 36)


def test_mixed_operand_arithmetic():
    a = ExactComplex(Fraction(1, 2), Fraction(1, 3))
    assert a * 2 == ExactComplex(1, Fraction(2, 3))
    assert 2 * a == a * 2
    assert a + 1 == ExactComplex(Fraction(3, 2), Fraction(1, 3))
    assert 1 + a == a + 1
    assert 1 - a == ExactComplex(Fraction(1, 2), Fraction(-1, 3))
    assert a / 2 == ExactComplex(Fraction(1, 4), Fraction(1, 6))


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_string_forms():
    assert str(ExactComplex(Fraction(5, 2), Fraction(-1, 3))) == "5/2-1/3i"
    assert str(ExactComplex(Fraction(5, 2), Fraction(1, 3))) == "5/2+1/3i"
    assert str(ExactComplex(3)) == "3"
    assert str(ExactComplex(0, Fraction(2, 7))) == "2/7i"
    assert str(ZERO) == "0"


def test_immutable():
    a = ExactComplex(1, 2)
    with pytest.raises(AttributeError):
        a.re = Fraction(5)


def test_equality_and_hash_against_rationals():
    assert ExactComplex(Fraction(3, 2)) == Fraction(3, 2)
    assert ExactComplex(2) == 2
    assert hash(ExactComplex(Fraction(3, 2))) == hash(Fraction(3, 2))
    assert ExactComplex(1, 2) != Fraction(1)
    assert ExactComplex(0, 1) != ExactComplex(0, -1)
    assert bool(ZERO) is False
    assert bool(ONE) is True


def test_no_float_conversion():
    # moments stay in Q(i): a scalar has no complex() value to round to
    with pytest.raises(TypeError):
        complex(ONE)


def test_as_scalar_coercion():
    a = ExactComplex(1, 1)
    assert as_scalar(a) is a
    assert as_scalar(3) == ExactComplex(3)
    assert as_scalar(Fraction(2, 5)) == ExactComplex(Fraction(2, 5))
    with pytest.raises(TypeError):
        as_scalar(0.5)
    with pytest.raises(TypeError):
        as_scalar("1/2")


def test_json_codec_examples():
    assert scalar_from_json(5) == ExactComplex(5)
    assert scalar_from_json([3, 4]) == ExactComplex(Fraction(3, 4))
    assert scalar_from_json([1, 2, -1, 3]) == ExactComplex(Fraction(1, 2), Fraction(-1, 3))
    assert scalar_json(ExactComplex(Fraction(1, 2), Fraction(-1, 3))) == [1, 2, -1, 3]
    assert fraction_from_json([3, 4]) == Fraction(3, 4)


@pytest.mark.parametrize("bad", ["x", [1], [1, 2, 3], [1.5, 2], [1, 2, 3, 4, 5], None])
def test_json_codec_rejects_malformed(bad):
    with pytest.raises(ValueError):
        scalar_from_json(bad)


def test_fraction_from_json_rejects_imaginary():
    with pytest.raises(ValueError):
        fraction_from_json([0, 1, 1, 2])


@given(scalars)
def test_json_round_trip(z):
    assert scalar_from_json(scalar_json(z)) == z


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a + (-a) == ZERO


@given(scalars, scalars)
def test_division_inverts_multiplication(a, b):
    assume(not b.is_zero())
    assert (a * b) / b == a


@given(scalars, scalars)
def test_conjugation_distributes(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@given(scalars)
def test_abs2_matches_conjugate_product(a):
    z = a * a.conjugate()
    assert z.is_real()
    assert z.re == a.abs2()
    assert a.abs2() >= 0
    assert a.is_zero() == (a.abs2() == 0)
