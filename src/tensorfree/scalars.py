"""Exact complex scalars with rational real and imaginary parts.

Every moment computed by this package is an element of Q(i).  Floating
point appears nowhere, so equality of moments is always decidable and
witness values never suffer rounding drift.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


class ExactComplex:
    """A complex number re + im*i with Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0) -> None:
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("ExactComplex is immutable")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "ExactComplex | RationalLike") -> "ExactComplex":
        other = as_scalar(other)
        return ExactComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def __sub__(self, other: "ExactComplex | RationalLike") -> "ExactComplex":
        other = as_scalar(other)
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: "ExactComplex | RationalLike") -> "ExactComplex":
        return as_scalar(other) - self

    def __mul__(self, other: "ExactComplex | RationalLike") -> "ExactComplex":
        other = as_scalar(other)
        if not self.im and not other.im:
            # real operands dominate in practice; skip the cross terms
            return ExactComplex(self.re * other.re)
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "ExactComplex | RationalLike") -> "ExactComplex":
        other = as_scalar(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero ExactComplex")
        return ExactComplex(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    # -- structure ----------------------------------------------------

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|z|^2, an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, ExactComplex):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self) -> int:
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"ExactComplex({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


ZERO = ExactComplex(0)
ONE = ExactComplex(1)


def as_scalar(value: "ExactComplex | RationalLike") -> ExactComplex:
    if isinstance(value, ExactComplex):
        return value
    if isinstance(value, (int, Fraction)):
        return ExactComplex(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to ExactComplex")


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if value < 0:
        raise ValueError("rational_sqrt of a negative value")
    if value == 0:
        return Fraction(0)
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


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
    if value.is_real():
        re = value.re
        if re.denominator == 1:
            return int(re)
        return [re.numerator, re.denominator]
    return [
        value.re.numerator,
        value.re.denominator,
        value.im.numerator,
        value.im.denominator,
    ]


def fraction_from_json(data) -> Fraction:
    z = scalar_from_json(data)
    if z.im != 0:
        raise ValueError(f"expected a real rational, got {z}")
    return z.re
