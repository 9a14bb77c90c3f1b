"""Exact checks of the polynomial identities and inequalities used to
force conclusions from moment equalities.

Everything here is plain rational arithmetic on vectors: two expansion
identities that hold for all inputs, two inequalities valid on
restricted ranges, and the conclusion extractors that turn an equality
case into a family of products that must each vanish.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .errors import PreconditionError

Vector = tuple[Fraction, ...]


def as_vector(entries: Iterable) -> Vector:
    out = tuple(Fraction(e) for e in entries)
    if not out:
        raise ValueError("empty vector")
    return out


def _product(entries: Iterable[Fraction]) -> Fraction:
    out = Fraction(1)
    for e in entries:
        out *= e
    return out


def _proper_subsets(k: int):
    for size in range(1, k):
        yield from combinations(range(k), size)


class IdentityCheck(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    equal: bool


class InequalityCheck(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    holds: bool


class ConclusionReport(NamedTuple):
    """Subset products forced to vanish by an equality hypothesis."""

    hypothesis_lhs: Fraction
    hypothesis_rhs: Fraction
    terms: tuple[tuple[str, Fraction], ...]
    all_zero: bool


def shifted_product_identity(alpha, x: Sequence) -> IdentityCheck:
    """alpha * prod(x_k - 1) against its telescoped subset expansion."""
    a = Fraction(alpha)
    xs = as_vector(x)
    lhs = a * _product(e - 1 for e in xs)
    rhs = a * _product(xs) - a
    for subset in _proper_subsets(len(xs)):
        rhs -= a * _product(xs[j] - 1 for j in subset)
    return IdentityCheck(lhs, rhs, lhs == rhs)


def interpolated_product_identity(t: Sequence, x: Sequence) -> IdentityCheck:
    """prod(t_k x_k + 1 - t_k) against its expansion around alpha = prod t."""
    ts, xs = as_vector(t), as_vector(x)
    if len(ts) != len(xs):
        raise ValueError("t and x must have the same length")
    alpha = _product(ts)
    lhs = _product(tk * xk + 1 - tk for tk, xk in zip(ts, xs))
    rhs = alpha * _product(xs) + 1 - alpha
    for subset in _proper_subsets(len(xs)):
        rhs += (_product(ts[j] for j in subset) - alpha) * _product(
            xs[j] - 1 for j in subset
        )
    return IdentityCheck(lhs, rhs, lhs == rhs)


def _subset_label(subset: tuple[int, ...]) -> str:
    return "{" + ",".join(str(j + 1) for j in subset) + "}"


def interpolated_product_conclusions(t: Sequence, x: Sequence) -> ConclusionReport:
    """When the interpolated product collapses to its two-term form, every
    proper subset correction term must vanish.

    Requires x entries >= 1 and t entries in [0, 1], which make every
    correction term nonnegative; the hypothesis is the exact equality.
    """
    ts, xs = as_vector(t), as_vector(x)
    if len(ts) != len(xs):
        raise ValueError("t and x must have the same length")
    if any(e < 1 for e in xs):
        raise PreconditionError("x entries must be >= 1")
    if any(not 0 <= e <= 1 for e in ts):
        raise PreconditionError("t entries must lie in [0, 1]")
    alpha = _product(ts)
    collapsed = alpha * _product(xs) + 1 - alpha
    full = _product(tk * xk + 1 - tk for tk, xk in zip(ts, xs))
    if collapsed != full:
        raise PreconditionError(
            f"hypothesis equality fails: {collapsed} != {full}"
        )
    terms = []
    for subset in _proper_subsets(len(xs)):
        value = (_product(ts[j] for j in subset) - alpha) * _product(
            xs[j] - 1 for j in subset
        )
        terms.append((_subset_label(subset), value))
    return ConclusionReport(
        collapsed, full, tuple(terms), all(v == 0 for _, v in terms)
    )


def product_sum_inequality(x: Sequence, y: Sequence) -> InequalityCheck:
    """prod x + prod y - 1 <= prod(x_k + y_k - 1) for entries >= 1."""
    xs, ys = as_vector(x), as_vector(y)
    if len(xs) != len(ys):
        raise ValueError("x and y must have the same length")
    if any(e < 1 for e in xs + ys):
        raise PreconditionError("all entries must be >= 1")
    lhs = _product(xs) + _product(ys) - 1
    rhs = _product(xk + yk - 1 for xk, yk in zip(xs, ys))
    return InequalityCheck(lhs, rhs, lhs <= rhs)


def product_sum_equality_conclusions(x: Sequence, y: Sequence) -> ConclusionReport:
    """Equality above forces (x_k - 1)(y_l - 1) = 0 for every k != l."""
    check = product_sum_inequality(x, y)
    if check.lhs != check.rhs:
        raise PreconditionError(
            f"hypothesis equality fails: {check.lhs} != {check.rhs}"
        )
    xs, ys = as_vector(x), as_vector(y)
    terms = []
    for k in range(len(xs)):
        for l in range(len(ys)):
            if k == l:
                continue
            terms.append(
                (f"(x{k + 1}-1)(y{l + 1}-1)", (xs[k] - 1) * (ys[l] - 1))
            )
    return ConclusionReport(
        check.lhs, check.rhs, tuple(terms), all(v == 0 for _, v in terms)
    )


def or_product_inequality(x: Sequence, y: Sequence) -> InequalityCheck:
    """prod x + prod y - prod xy <= prod(x_k + y_k - x_k y_k) on [0, 1]."""
    xs, ys = as_vector(x), as_vector(y)
    if len(xs) != len(ys):
        raise ValueError("x and y must have the same length")
    if any(not 0 <= e <= 1 for e in xs + ys):
        raise PreconditionError("all entries must lie in [0, 1]")
    lhs = _product(xs) + _product(ys) - _product(
        xk * yk for xk, yk in zip(xs, ys)
    )
    rhs = _product(xk + yk - xk * yk for xk, yk in zip(xs, ys))
    return InequalityCheck(lhs, rhs, lhs <= rhs)


def or_product_equality_conclusions(x: Sequence, y: Sequence) -> ConclusionReport:
    """Equality above, with all x or all y positive, forces every cross
    product x_k y_l (1 - x_l)(1 - y_k) with k != l to vanish."""
    xs, ys = as_vector(x), as_vector(y)
    if not (all(e > 0 for e in xs) or all(e > 0 for e in ys)):
        raise PreconditionError("need all x entries or all y entries positive")
    check = or_product_inequality(x, y)
    if check.lhs != check.rhs:
        raise PreconditionError(
            f"hypothesis equality fails: {check.lhs} != {check.rhs}"
        )
    terms = []
    for k in range(len(xs)):
        for l in range(len(ys)):
            if k == l:
                continue
            terms.append(
                (
                    f"x{k + 1}*y{l + 1}*(1-x{l + 1})*(1-y{k + 1})",
                    xs[k] * ys[l] * (1 - xs[l]) * (1 - ys[k]),
                )
            )
    return ConclusionReport(
        check.lhs, check.rhs, tuple(terms), all(v == 0 for _, v in terms)
    )


# CLI name -> (callable, {parameter: worked input used when no flag gives it})
IDENTITY_CHECKS = {
    "shifted-product": (
        shifted_product_identity,
        {"alpha": Fraction(2), "x": (3, 5)},
    ),
    "interpolated-product": (
        interpolated_product_identity,
        {"t": (Fraction(1, 2), Fraction(1, 3)), "x": (3, 4)},
    ),
    "interpolated-product-conclusions": (
        interpolated_product_conclusions,
        {"t": (1, Fraction(1, 3)), "x": (1, 5)},
    ),
    "product-sum": (product_sum_inequality, {"x": (2, 1), "y": (1, 3)}),
    "product-sum-conclusions": (
        product_sum_equality_conclusions,
        {"x": (2, 1), "y": (1, 1)},
    ),
    "or-product": (
        or_product_inequality,
        {"x": (Fraction(1, 2), 1), "y": (Fraction(1, 3), Fraction(1, 4))},
    ),
    "or-product-conclusions": (
        or_product_equality_conclusions,
        {"x": (Fraction(1, 2), 1), "y": (Fraction(1, 3), 1)},
    ),
}
