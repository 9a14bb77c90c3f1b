"""Noncrossing partitions and the moment-cumulant machinery built on them.

Partitions of {1..n} are generated by recursive placement of the block
containing the smallest element, which yields a deterministic canonical
order.  Cumulants follow the standard noncrossing recursion: the moment
of a tuple is the sum over noncrossing partitions of products of block
cumulants, so the top cumulant is the moment minus all proper terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterator, Sequence

from .errors import EnumerationLimitError, InsufficientMomentDataError
from .scalars import ONE, ZERO, ExactComplex, as_scalar

Block = tuple[int, ...]
Blocks = tuple[Block, ...]

NC_ENUMERATION_CAP = 14


@dataclass(frozen=True)
class NCPartition:
    """A noncrossing partition of {1..n} in canonical block order."""

    n: int
    blocks: Blocks

    def __post_init__(self) -> None:
        canonical = tuple(sorted((tuple(sorted(b)) for b in self.blocks), key=lambda b: b[0]))
        object.__setattr__(self, "blocks", canonical)
        validate_partition(self.n, self.blocks)
        if crossing_pair(self.blocks) is not None:
            raise ValueError(f"partition {self.blocks} has a crossing")

    def singletons(self) -> tuple[int, ...]:
        return tuple(b[0] for b in self.blocks if len(b) == 1)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)


def validate_partition(n: int, blocks: Blocks) -> None:
    seen: set[int] = set()
    for block in blocks:
        if not block:
            raise ValueError("empty block")
        for x in block:
            if not 1 <= x <= n:
                raise ValueError(f"element {x} outside 1..{n}")
            if x in seen:
                raise ValueError(f"element {x} repeated across blocks")
            seen.add(x)
    if len(seen) != n:
        missing = sorted(set(range(1, n + 1)) - seen)
        raise ValueError(f"elements missing from partition: {missing}")


def crossing_pair(blocks: Blocks) -> tuple[Block, Block] | None:
    """Return two crossing blocks, or None.  Blocks must be sorted tuples."""
    for a, b in combinations(blocks, 2):
        merged = sorted(((x, 0) for x in a), key=lambda p: p[0])
        merged = sorted(merged + [(y, 1) for y in b])
        # crossing iff the labels along the line interleave as 0101 or 1010
        pattern: list[int] = []
        for _, label in merged:
            if not pattern or pattern[-1] != label:
                pattern.append(label)
        if len(pattern) >= 4:
            return (a, b)
    return None


def is_noncrossing(blocks: Sequence[Sequence[int]]) -> bool:
    """Decide noncrossing-ness of a set partition given as blocks.

    The blocks must form a partition of {1..n} for n the total element
    count; malformed input raises ValueError.
    """
    canon = tuple(tuple(sorted(b)) for b in blocks)
    n = sum(len(b) for b in canon)
    validate_partition(n, canon)
    return crossing_pair(canon) is None


NC_CACHE_LIMIT = 10


def _nc_partitions(n: int) -> Iterator[NCPartition]:
    for blocks in _gap_blocks(tuple(range(1, n + 1)), False, True):
        yield NCPartition(n, blocks)


@lru_cache(maxsize=None)
def _nc_cached(n: int) -> tuple[NCPartition, ...]:
    return tuple(_nc_partitions(n))


def enumerate_nc(n: int, cap: int = NC_ENUMERATION_CAP) -> list[NCPartition]:
    """All noncrossing partitions of {1..n} in canonical order.

    Sizes up to NC_CACHE_LIMIT are memoized; the cumulant recursion hits
    the same small ground sets constantly and construction dominates it.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > cap:
        raise EnumerationLimitError("noncrossing partition enumeration", n, cap)
    if n <= NC_CACHE_LIMIT:
        return list(_nc_cached(n))
    return list(_nc_partitions(n))


def _gap_blocks(
    points: tuple[int, ...], same_parity: bool, even_singletons: bool
) -> Iterator[Blocks]:
    """Noncrossing partitions of points, by placing the block of the first
    point and recursing into the gaps its other members leave.

    With same_parity only points of the first point's parity may join its
    block; without even_singletons no even point may stay alone.
    """
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    mates = tuple(p for p in rest if p % 2 == first % 2) if same_parity else rest
    for size in range(len(mates) + 1):
        if size == 0 and not even_singletons and first % 2 == 0:
            continue
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
            yield from _fill_gaps(
                ((first,) + chosen,), gaps, same_parity, even_singletons
            )


def _fill_gaps(
    acc: Blocks, gaps: list[tuple[int, ...]], same_parity: bool, even_singletons: bool
) -> Iterator[Blocks]:
    if not gaps:
        yield acc
        return
    for sub in _gap_blocks(gaps[0], same_parity, even_singletons):
        yield from _fill_gaps(acc + sub, gaps[1:], same_parity, even_singletons)


def catalan(n: int) -> int:
    c = 1
    for k in range(n):
        c = c * 2 * (2 * k + 1) // (k + 2)
    return c


# -- moment sequences -------------------------------------------------

StarKey = tuple[bool, ...]


class MomentSequence:
    """Moments of a single variable, keyed by star patterns or by powers.

    Star flavor: keys are tuples over {False, True} (False = the variable,
    True = its adjoint); a missing key is an error because nothing pins
    its value down, unless the table is declared complete through some
    length, in which case shorter missing patterns are zero.  Power
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
        self._cumulant_memo: dict = {}
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
            return self.power_moment(sum(letters))
        key = tuple(bool(b) for b in letters)
        if key not in self.values:
            if self.complete_through is not None and len(key) <= self.complete_through:
                return ZERO
            raise InsufficientMomentDataError(
                f"moment table has no entry for pattern {key}"
            )
        return self.values[key]

    def power_moment(self, power: int) -> ExactComplex:
        if not self.unitary:
            raise ValueError("power_moment requires a unitary sequence")
        power = self._fold(power)
        if power == 0:
            return ONE
        return self.values.get(power, ZERO)

    def cumulant(self, letters: tuple) -> ExactComplex:
        return cumulant_from_moments(self.moment, letters, self._cumulant_memo)


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
    n = len(letters)
    if n == 0:
        return ONE
    total = moment_fn(letters)
    for part in enumerate_nc(n):
        if len(part.blocks) == 1:
            continue
        term = ONE
        for block in part.blocks:
            term = term * cumulant_from_moments(
                moment_fn, tuple(letters[p - 1] for p in block), memo
            )
            if term.is_zero():
                break
        total = total - term
    memo[letters] = total
    return total


def moment_from_cumulants(
    cumulant_fn: Callable[[tuple], ExactComplex], letters: tuple
) -> ExactComplex:
    """Reconstruct a moment as the sum of cumulant products over NC(n)."""
    letters = tuple(letters)
    if not letters:
        return ONE
    total = ZERO
    for part in enumerate_nc(len(letters)):
        term = ONE
        for block in part.blocks:
            term = term * cumulant_fn(tuple(letters[p - 1] for p in block))
            if term.is_zero():
                break
        total = total + term
    return total


def cumulant_term(
    partition: NCPartition,
    labels: Sequence[int],
    letters: Sequence,
    marginals: dict[int, MomentSequence],
) -> ExactComplex:
    """Product of block cumulants for a labeled tuple; zero on mixed blocks.

    labels[p] names the variable at position p+1 and letters[p] is its
    payload (star flag or signed exponent).  Mixed-variable blocks have
    vanishing cumulants for free families, so they kill the whole term.
    """
    if partition.n != len(labels) or len(labels) != len(letters):
        raise ValueError("partition size does not match the labeled word")
    term = ONE
    for block in partition.blocks:
        block_labels = {labels[p - 1] for p in block}
        if len(block_labels) > 1:
            return ZERO
        var = block_labels.pop()
        term = term * marginals[var].cumulant(tuple(letters[p - 1] for p in block))
        if term.is_zero():
            return ZERO
    return term


# -- parity and singleton filters -------------------------------------


PURE_PARITY_CAP = 16


def iter_pure_parity_blocks(
    two_t: int,
    forbid_even_singletons: bool = False,
    cap: int = PURE_PARITY_CAP,
) -> Iterator[Blocks]:
    """Noncrossing partitions of {1..two_t} with pure-parity blocks.

    Runs the gap recursion with the parity restriction built in, so the
    ambient noncrossing partitions are never materialized and sizes past
    the plain enumeration cap stay cheap.  With forbid_even_singletons,
    partitions owning a singleton block at an even position are skipped.
    Yields raw block tuples; block order is not canonical.
    """
    if two_t < 0:
        raise ValueError("two_t must be nonnegative")
    if two_t > cap:
        raise EnumerationLimitError("pure-parity partition enumeration", two_t, cap)
    yield from _gap_blocks(
        tuple(range(1, two_t + 1)), True, not forbid_even_singletons
    )
