"""Exact complex scalars: the elements of Q(i) as three integers.

Every moment computed by this package is an element of Q(i).  Floating
point appears nowhere, so equality of moments is always decidable and
witness values never suffer rounding drift.

A scalar z = (a + b*i)/d is the triple of ints (a, b, d) with d >= 1 and
gcd(a, b, d) = 1.  Lowest terms are unique, so scalars are equal exactly
when their triples are, and arithmetic is integer arithmetic plus at most
one gcd per result, none when d = 1: integer values such as group traces
never build a Fraction.  The Fraction views re and im are for the JSON
codecs and the printed forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

RationalLike = Union[int, Fraction]


class ExactComplex:
    """The complex number (a + b*i)/d as the ints (a, b, d) in lowest terms."""

    __slots__ = ("_triple",)

    def __new__(cls, re: RationalLike = 0, im: RationalLike = 0) -> "ExactComplex":
        if type(re) is int and type(im) is int:
            return _lowest(re, im, 1)
        re, im = (x if isinstance(x, RationalLike) else Fraction(x) for x in (re, im))
        p, q = re.denominator, im.denominator
        d = p * q // gcd(p, q)
        return _lowest(re.numerator * (d // p), im.numerator * (d // q), d)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("ExactComplex is immutable")

    # Fraction views of the parts, for the JSON codecs and the printed forms
    re = property(lambda self: Fraction(self._triple[0], self._triple[2]))
    im = property(lambda self: Fraction(self._triple[1], self._triple[2]))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "ExactComplex | RationalLike") -> "ExactComplex":
        a, b, d = self._triple
        c, e, f = (other if type(other) is ExactComplex else as_scalar(other))._triple
        return _lowest(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __neg__(self) -> "ExactComplex":
        a, b, d = self._triple
        return _lowest(-a, -b, d)

    def __sub__(self, other: "ExactComplex | RationalLike") -> "ExactComplex":
        a, b, d = self._triple
        c, e, f = (other if type(other) is ExactComplex else as_scalar(other))._triple
        return _lowest(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other: "ExactComplex | RationalLike") -> "ExactComplex":
        return as_scalar(other) - self

    def __mul__(self, other: "ExactComplex | RationalLike") -> "ExactComplex":
        a, b, d = self._triple
        c, e, f = (other if type(other) is ExactComplex else as_scalar(other))._triple
        return _lowest(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other: "ExactComplex | RationalLike") -> "ExactComplex":
        # (a + bi)/d / ((c + ei)/f) = f (a + bi)(c - ei) / (d (c^2 + e^2))
        a, b, d = self._triple
        c, e, f = as_scalar(other)._triple
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero ExactComplex")
        return _lowest((a * c + b * e) * f, (b * c - a * e) * f, d * norm)

    # -- structure ----------------------------------------------------

    def conjugate(self) -> "ExactComplex":
        a, b, d = self._triple
        return _lowest(a, -b, d)

    def abs2(self) -> Fraction:
        """|z|^2, an exact nonnegative rational."""
        a, b, d = self._triple
        return Fraction(a * a + b * b, d * d)

    def is_zero(self) -> bool:
        return self._triple == (0, 0, 1)

    def is_real(self) -> bool:
        return not self._triple[1]

    def sign(self) -> int:
        """-1, 0 or 1: the sign of the real part."""
        return (self._triple[0] > 0) - (self._triple[0] < 0)

    def __eq__(self, other: object) -> bool:
        if type(other) is not ExactComplex:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = ExactComplex(other)
        # lowest terms are unique
        return self._triple == other._triple

    def __hash__(self) -> int:
        # a real scalar hashes as the int or Fraction it equals
        a, b, d = self._triple
        return hash(self._triple if b else a if d == 1 else Fraction(a, d))

    def __bool__(self) -> bool:
        return self._triple != (0, 0, 1)

    def __repr__(self) -> str:
        return f"ExactComplex({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"


_new = object.__new__
_set_triple = ExactComplex._triple.__set__


def _lowest(a: int, b: int, d: int) -> ExactComplex:
    """The scalar (a + b*i)/d, for any d >= 1."""
    if d != 1:
        g = gcd(a, b, d)
        a, b, d = a // g, b // g, d // g
    z = _new(ExactComplex)
    _set_triple(z, (a, b, d))
    return z


ZERO = ExactComplex(0)
ONE = ExactComplex(1)


def as_scalar(value: "ExactComplex | RationalLike") -> ExactComplex:
    if isinstance(value, ExactComplex):
        return value
    if isinstance(value, (int, Fraction)):
        return ExactComplex(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to ExactComplex")


# -- JSON codecs ------------------------------------------------------
#
# Scenario files and reports carry scalars as [re_num, re_den, im_num,
# im_den], or as the shorter forms int and [num, den] for real values;
# scalar_json writes the shortest form that fits.


def scalar_from_json(data) -> ExactComplex:
    # type() rather than isinstance(): JSON true and false are bools, and
    # bool subclasses int, but they are not scalars
    if type(data) is int:
        return ExactComplex(data)
    if isinstance(data, list):
        if len(data) == 2 and all(type(x) is int for x in data):
            return ExactComplex(Fraction(data[0], data[1]))
        if len(data) == 4 and all(type(x) is int for x in data):
            return ExactComplex(Fraction(data[0], data[1]), Fraction(data[2], data[3]))
    raise ValueError(f"bad scalar encoding: {data!r}")


def scalar_json(value) -> object:
    """Most compact exact form: int, [num, den], or the 4-entry complex."""
    value = as_scalar(value)
    a, b, d = value._triple
    if not b:
        # a real scalar's a/d is already in lowest terms
        return a if d == 1 else [a, d]
    re, im = value.re, value.im
    return [re.numerator, re.denominator, im.numerator, im.denominator]


def fraction_from_json(data) -> Fraction:
    z = scalar_from_json(data)
    if not z.is_real():
        raise ValueError(f"expected a real rational, got {z}")
    return z.re
