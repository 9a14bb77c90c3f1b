"""Noncrossing partitions and the moment-cumulant machinery built on them.

A partition of {1..n} is a plain tuple of blocks, generated by
recursive placement of the block containing the smallest element, which
never produces a crossing and yields a deterministic canonical order.
Cumulants follow the standard noncrossing recursion: the moment of a
tuple is the sum over noncrossing partitions of products of block
cumulants, so the top cumulant is the moment minus all proper terms.
One partition-product sum serves both directions.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import Callable, Iterable, Iterator

from .errors import DepthLimitError, EnumerationLimitError, InsufficientMomentDataError
from .scalars import ONE, ZERO, ExactComplex, as_scalar

Block = tuple[int, ...]
Blocks = tuple[Block, ...]

NC_ENUMERATION_CAP = 14
NC_CACHE_LIMIT = 10


@lru_cache(maxsize=None)
def _nc_cached(n: int) -> tuple[Blocks, ...]:
    return tuple(_gap_blocks(tuple(range(1, n + 1)), False))


def enumerate_nc(n: int) -> list[Blocks]:
    """All noncrossing partitions of {1..n} in canonical order.

    Each partition is a tuple of blocks sorted by least element, each
    block sorted; the one-block partition comes last.  Sizes up to
    NC_CACHE_LIMIT are memoized, because the cumulant recursion hits the
    same small ground sets constantly and construction dominates it.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > NC_ENUMERATION_CAP:
        raise EnumerationLimitError(
            "noncrossing partition enumeration", n, NC_ENUMERATION_CAP
        )
    if n <= NC_CACHE_LIMIT:
        return list(_nc_cached(n))
    return list(_gap_blocks(tuple(range(1, n + 1)), False))


def _gap_blocks(points: tuple[int, ...], same_parity: bool) -> Iterator[Blocks]:
    """Noncrossing partitions of points, by placing the block of the first
    point and recursing into the gaps its other members leave.

    With same_parity only points of the first point's parity may join its
    block.
    """
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    mates = tuple(p for p in rest if p % 2 == first % 2) if same_parity else rest
    for size in range(len(mates) + 1):
        for chosen in combinations(mates, size):
            # the chosen elements split the remainder into independent gaps
            gaps: list[tuple[int, ...]] = []
            gap: list[int] = []
            for p in rest:
                if p in chosen:
                    gaps.append(tuple(gap))
                    gap = []
                else:
                    gap.append(p)
            gaps.append(tuple(gap))
            yield from _fill_gaps(((first,) + chosen,), gaps, same_parity)


def _fill_gaps(
    acc: Blocks, gaps: list[tuple[int, ...]], same_parity: bool
) -> Iterator[Blocks]:
    if not gaps:
        yield acc
        return
    for sub in _gap_blocks(gaps[0], same_parity):
        yield from _fill_gaps(acc + sub, gaps[1:], same_parity)


def catalan(n: int) -> int:
    c = 1
    for k in range(n):
        c = c * 2 * (2 * k + 1) // (k + 2)
    return c


# -- moment sequences -------------------------------------------------


class MomentSequence:
    """Moments of a single variable, keyed by star patterns or by powers.

    Star flavor: keys are tuples over {False, True} (False = the variable,
    True = its adjoint); a missing key is an error because nothing pins
    its value down, unless the table is declared complete through some
    length, in which case shorter missing patterns are zero and longer
    ones exceed that depth limit.  Power
    flavor (unitary variables): keys are nonzero
    integers, missing powers default to zero, the zeroth power is one,
    and an optional period folds exponents first.  Both flavors must be
    Hermitian-symmetric; missing adjoint values are filled by conjugation.
    """

    def __init__(
        self,
        values: dict,
        unitary: bool = False,
        period: int | None = None,
        complete_through: int | None = None,
    ) -> None:
        self.unitary = unitary
        self.period = period
        self.complete_through = complete_through
        self.values: dict = {}
        if unitary:
            if complete_through is not None:
                raise ValueError("complete_through only applies to star tables")
            for key, raw in values.items():
                if not isinstance(key, int) or key == 0:
                    raise ValueError(f"power keys must be nonzero ints, got {key!r}")
                value = as_scalar(raw)
                folded = self._fold(key)
                if folded == 0:
                    # power 0 is the unit; a period-folded entry may restate
                    # that but must not contradict it
                    if value != ONE:
                        raise ValueError(f"power {key} folds to 0 but is not 1")
                    continue
                self._put(folded, value)
        else:
            if period is not None:
                raise ValueError("period only applies to unitary sequences")
            for key, raw in values.items():
                key = tuple(bool(b) for b in key)
                self._put(key, as_scalar(raw))

    def _fold(self, power: int) -> int:
        if self.period is not None:
            power %= self.period
        return power

    def _adjoint_key(self, key):
        if self.unitary:
            return self._fold(-key)
        return tuple(not b for b in reversed(key))

    def _put(self, key, value: ExactComplex) -> None:
        adj = self._adjoint_key(key)
        for k, v in ((key, value), (adj, value.conjugate())):
            if k in self.values and self.values[k] != v:
                raise ValueError(f"Hermitian symmetry violated at key {k!r}")
            self.values[k] = v

    def __eq__(self, other) -> bool:
        # by the declared data, so two files stating one law compare equal
        declared = lambda s: (s.values, s.unitary, s.period, s.complete_through)
        return isinstance(other, MomentSequence) and declared(self) == declared(other)

    # moments of argument tuples ------------------------------------

    def moment(self, letters: tuple) -> ExactComplex:
        """Joint moment of a tuple of letters of this variable.

        Star flavor letters are bools; power flavor letters are nonzero
        signed exponents and the tuple's moment is the moment of the
        summed power.
        """
        if not letters:
            return ONE
        if self.unitary:
            power = self._fold(sum(letters))
            return ONE if power == 0 else self.values.get(power, ZERO)
        key = tuple(bool(b) for b in letters)
        if key not in self.values:
            if self.complete_through is None:
                raise InsufficientMomentDataError(
                    f"moment table has no entry for pattern {key}"
                )
            if len(key) > self.complete_through:
                raise DepthLimitError(
                    "missing star pattern (complete_through)",
                    len(key),
                    self.complete_through,
                )
            return ZERO
        return self.values[key]

    @property
    def rotation_modulus(self) -> int:
        """The m for which the law is, by its data, unchanged under
        x -> lambda x for every lambda with lambda^m = 1 (m = 0: every
        lambda on the unit circle), so a moment whose exponent sum
        (plain letters minus starred ones) is not 0 mod m vanishes.

        A power sequence gives the gcd of its period and of its powers
        with a nonzero moment; a star table declared complete gives the
        gcd of (plain - starred) over its nonzero patterns.  A table with
        no complete_through leaves its missing patterns unknown, so it
        gives 1, which constrains nothing.
        """
        if self.unitary:
            m = self.period or 0
            shifts = (p for p, value in self.values.items() if not value.is_zero())
        elif self.complete_through is not None:
            m = 0
            shifts = (
                len(key) - 2 * sum(key)
                for key, value in self.values.items()
                if not value.is_zero()
            )
        else:
            return 1
        for shift in shifts:
            m = gcd(m, shift)
        return m


def _partition_sum(
    block_value: Callable[[tuple], ExactComplex],
    letters: tuple,
    partitions: Iterable[Blocks],
) -> ExactComplex:
    """Sum over partitions of the product over blocks of block_value at
    the letters in the block; each product stops at its first zero."""
    total = ZERO
    for blocks in partitions:
        term = ONE
        for block in blocks:
            term = term * block_value(tuple(letters[p - 1] for p in block))
            if term.is_zero():
                break
        else:
            total = total + term
    return total


def cumulant_from_moments(
    moment_fn: Callable[[tuple], ExactComplex],
    letters: tuple,
    memo: dict | None = None,
) -> ExactComplex:
    """Free cumulant of an argument tuple, by the noncrossing recursion."""
    if memo is None:
        memo = {}
    letters = tuple(letters)
    if letters in memo:
        return memo[letters]
    if not letters:
        return ONE
    # every partition but the one-block partition, which comes last
    proper = enumerate_nc(len(letters))[:-1]
    value = moment_fn(letters) - _partition_sum(
        lambda ls: cumulant_from_moments(moment_fn, ls, memo), letters, proper
    )
    memo[letters] = value
    return value


def moment_from_cumulants(
    cumulant_fn: Callable[[tuple], ExactComplex], letters: tuple
) -> ExactComplex:
    """Reconstruct a moment as the sum of cumulant products over NC(n)."""
    letters = tuple(letters)
    return _partition_sum(cumulant_fn, letters, enumerate_nc(len(letters)))


# -- the parity filter -------------------------------------


PURE_PARITY_CAP = 16


def iter_pure_parity_blocks(two_t: int) -> Iterator[Blocks]:
    """Noncrossing partitions of {1..two_t} with pure-parity blocks.

    Runs the gap recursion with the parity restriction built in, so the
    ambient noncrossing partitions are never materialized and sizes past
    the plain enumeration cap stay cheap.  Yields raw block tuples; block
    order is not canonical.
    """
    if two_t < 0:
        raise ValueError("two_t must be nonnegative")
    if two_t > PURE_PARITY_CAP:
        raise EnumerationLimitError(
            "pure-parity partition enumeration", two_t, PURE_PARITY_CAP
        )
    yield from _gap_blocks(tuple(range(1, two_t + 1)), True)
