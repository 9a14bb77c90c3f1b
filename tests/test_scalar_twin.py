"""ExactComplex against its brute-force twin, a pair of Fractions.

ExactComplex holds (a + b*i)/d as three ints in lowest terms.  PairTwin
holds the same number as the Fraction pair (re, im) and does every
operation by the textbook formula over Fraction, so each result, its
equality and hash against int and Fraction, its printed forms and its
JSON encoding can be checked against an independent computation.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorfree.scalars import ExactComplex, scalar_from_json, scalar_json


class PairTwin:
    """re + im*i as two Fractions."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, other):
        return PairTwin(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return PairTwin(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return PairTwin(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        norm = other.re * other.re + other.im * other.im
        return PairTwin(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __neg__(self):
        return PairTwin(-self.re, -self.im)

    def conjugate(self):
        return PairTwin(self.re, -self.im)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def text(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def json(self):
        re, im = self.re, self.im
        if im:
            return [re.numerator, re.denominator, im.numerator, im.denominator]
        return re.numerator if re.denominator == 1 else [re.numerator, re.denominator]


def matches(z: ExactComplex, twin: PairTwin) -> bool:
    """z is twin's number, held in lowest terms."""
    a, b, d = z._triple
    return d >= 1 and gcd(a, b, d) == 1 and (z.re, z.im) == (twin.re, twin.im)


# small parts as in the bundled scenarios, and numerators far past one
# machine word
INTEGERS = st.integers(-60, 60) | st.integers(-(10**40), 10**40)
RATIONALS = st.builds(Fraction, INTEGERS, st.integers(1, 60))
PARTS = st.tuples(RATIONALS, RATIONALS | st.just(Fraction(0)))

HALF, THIRD = Fraction(1, 2), Fraction(1, 3)
BIG = 10**40 + 1


@settings(max_examples=300, deadline=None)
@given(PARTS, PARTS)
@example((HALF, 0), (HALF, 0))  # 1/2 + 1/2 = 1
@example((Fraction(1, 2), Fraction(3, 2)), (Fraction(0), Fraction(3)))  # over 3i
@example((HALF, THIRD), (-HALF, -THIRD))  # the sum is zero
@example((Fraction(BIG, 7), Fraction(-BIG, 3)), (Fraction(3, BIG), Fraction(BIG)))
def test_arithmetic_matches_the_twin(x, y):
    z, w = ExactComplex(*x), ExactComplex(*y)
    zt, wt = PairTwin(*x), PairTwin(*y)
    assert matches(z, zt) and matches(w, wt)
    assert matches(z + w, zt + wt)
    assert matches(z - w, zt - wt)
    assert matches(z * w, zt * wt)
    assert matches(-z, -zt)
    assert matches(z.conjugate(), zt.conjugate())
    assert z.abs2() == zt.abs2()
    assert z.is_zero() == zt.is_zero() == (not z)
    assert z.is_real() == (zt.im == 0)
    if wt.is_zero():
        with pytest.raises(ZeroDivisionError):
            z / w
    else:
        assert matches(z / w, zt / wt)


@settings(max_examples=200, deadline=None)
@given(PARTS, RATIONALS, INTEGERS)
@example((HALF, 0), HALF, 1)
def test_mixed_operands_match_the_twin(x, r, n):
    z, zt = ExactComplex(*x), PairTwin(*x)
    for raw in (r, n):
        twin = PairTwin(raw)
        assert matches(z + raw, zt + twin) and matches(raw + z, twin + zt)
        assert matches(z - raw, zt - twin) and matches(raw - z, twin - zt)
        assert matches(z * raw, zt * twin) and matches(raw * z, twin * zt)
        if raw:
            assert matches(z / raw, zt / twin)


@settings(max_examples=300, deadline=None)
@given(PARTS, PARTS)
@example((Fraction(4, 2), 0), (Fraction(2), 0))
@example((Fraction(BIG, 3), 0), (Fraction(BIG, 3), Fraction(1, 3)))
def test_equality_and_hash_match_the_twin(x, y):
    z, w = ExactComplex(*x), ExactComplex(*y)
    zt, wt = PairTwin(*x), PairTwin(*y)
    assert (z == w) == ((zt.re, zt.im) == (wt.re, wt.im)) == (not z != w)
    if z == w:
        assert hash(z) == hash(w)
    assert z == ExactComplex(*x) and hash(z) == hash(ExactComplex(*x))
    real = zt.im == 0
    assert (z == zt.re) == real and (zt.re == z) == real
    if real:
        assert hash(z) == hash(zt.re)
        if zt.re.denominator == 1:
            assert z == int(zt.re) and hash(z) == hash(int(zt.re))


@settings(max_examples=300, deadline=None)
@given(PARTS)
@example((Fraction(2, 4), Fraction(6, 4)))
@example((Fraction(-BIG, 9), Fraction(0)))
def test_printed_and_json_forms_match_the_twin(x):
    z, zt = ExactComplex(*x), PairTwin(*x)
    assert str(z) == zt.text()
    assert repr(z) == f"ExactComplex({zt.re!r}, {zt.im!r})"
    assert scalar_json(z) == zt.json()
    assert matches(scalar_from_json(scalar_json(z)), zt)


def test_one_half_plus_one_half_is_the_integer_one():
    one = ExactComplex(HALF) + ExactComplex(HALF)
    assert one._triple == (1, 0, 1)
    assert one == 1 and hash(one) == hash(1) and scalar_json(one) == 1


def test_a_common_factor_of_all_three_parts_cancels():
    # (2 + 6i)/4 = (1 + 3i)/2
    z = ExactComplex(2, 6) / 4
    assert z._triple == (1, 3, 2)
    assert z == ExactComplex(HALF, Fraction(3, 2))
    assert scalar_json(z) == [1, 2, 3, 2]


def test_division_by_a_pure_imaginary():
    # (1 + 2i)/(3i) = (2 - i)/3
    z = ExactComplex(1, 2) / ExactComplex(0, 3)
    assert z._triple == (2, -1, 3)
    assert str(z) == "2/3-1/3i"


def test_zero_reached_from_unequal_denominators():
    z = ExactComplex(HALF) + ExactComplex(THIRD) - ExactComplex(Fraction(5, 6))
    assert z._triple == (0, 0, 1)
    assert z.is_zero() and z == 0 and hash(z) == hash(0) and scalar_json(z) == 0


def test_large_numerators_stay_exact():
    big = ExactComplex(Fraction(BIG, 3), Fraction(-BIG, 7))
    assert (big / big)._triple == (1, 0, 1)
    assert (big * big.conjugate()) == big.abs2() == Fraction(BIG**2 * 58, 441)
    assert scalar_json(big) == [BIG, 3, -BIG, 7]

