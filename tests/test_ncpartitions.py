"""Noncrossing partitions, moment-cumulant transforms, parity filters.

The enumeration is checked against an independent brute-force oracle:
enumerate all set partitions, then filter by the textbook quadruple
definition of a crossing (a < b < c < d with a, c together and b, d
together in a different block).
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tensorfree.counterexample import filter_counts
from tensorfree.errors import (
    DepthLimitError,
    EnumerationLimitError,
    InsufficientMomentDataError,
)
from tensorfree.freeness import FreeFamilySpec, mixed_moment_by_cumulants
from tensorfree.ncpartitions import (
    MomentSequence,
    catalan,
    cumulant_from_moments,
    enumerate_nc,
    iter_pure_parity_blocks,
    moment_from_cumulants,
)
from tensorfree.scalars import ONE, ZERO, ExactComplex
from tensorfree.starwords import parse_word

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=8)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


# -- independent oracle ------------------------------------------------


def brute_set_partitions(n):
    """All set partitions of {1..n} as tuples of tuples."""
    if n == 0:
        yield ()
        return
    for rest in brute_set_partitions(n - 1):
        for i in range(len(rest)):
            yield rest[:i] + (rest[i] + (n,),) + rest[i + 1 :]
        yield rest + ((n,),)


def brute_has_crossing(blocks):
    """Quadruple test: a < b < c < d with {a,c} and {b,d} split across blocks."""
    owner = {}
    for bi, block in enumerate(blocks):
        for p in block:
            owner[p] = bi
    n = len(owner)
    for a, b, c, d in combinations(range(1, n + 1), 4):
        if owner[a] == owner[c] and owner[b] == owner[d] and owner[a] != owner[b]:
            return True
    return False


def as_partition_set(partitions):
    return {frozenset(frozenset(b) for b in blocks) for blocks in partitions}


@pytest.mark.parametrize("n", range(0, 8))
def test_enumeration_matches_brute_force(n):
    brute = {
        frozenset(frozenset(b) for b in blocks)
        for blocks in brute_set_partitions(n)
        if not brute_has_crossing(blocks)
    }
    got = list(enumerate_nc(n))
    assert len(got) == len(set(got))
    assert as_partition_set(got) == brute
    for blocks in got:
        # canonical: blocks sorted by least element, each block sorted
        assert list(blocks) == sorted(blocks, key=lambda b: b[0])
        assert all(list(b) == sorted(b) for b in blocks)


def test_enumeration_order():
    # the block of 1 grows by size, then by lexicographic choice of mates
    assert enumerate_nc(3) == [
        ((1,), (2,), (3,)),
        ((1,), (2, 3)),
        ((1, 2), (3,)),
        ((1, 3), (2,)),
        ((1, 2, 3),),
    ]


def test_enumeration_counts_are_catalan():
    for n in range(0, 9):
        assert len(enumerate_nc(n)) == CATALAN[n]
        assert catalan(n) == CATALAN[n]
    # past NC_CACHE_LIMIT the enumeration is not memoized
    assert len(set(enumerate_nc(11))) == catalan(11)


def test_enumeration_cap():
    with pytest.raises(EnumerationLimitError) as exc:
        enumerate_nc(15)
    # the message carries the requested size and the cap
    assert str(exc.value) == (
        "noncrossing partition enumeration for n=15 exceeds cap 14"
    )
    with pytest.raises(ValueError):
        enumerate_nc(-1)


def test_brute_crossing_oracle():
    assert brute_has_crossing(((1, 3), (2, 4)))
    assert not brute_has_crossing(((1, 4), (2, 3)))
    assert not brute_has_crossing(((1, 2), (3, 4)))
    # nested plus straddling: {1,6} vs {2,4} do not cross, {2,4} vs {3,5} do
    assert brute_has_crossing(((1, 6), (2, 4), (3, 5)))


@given(st.integers(min_value=0, max_value=6))
def test_enumerated_partitions_pass_the_brute_crossing_test(n):
    for blocks in enumerate_nc(n):
        assert not brute_has_crossing(blocks)


# -- moment sequences --------------------------------------------------


def test_star_table_lookup_and_hermitian_fill():
    seq = MomentSequence({(False, False): ExactComplex(0, 1)})
    assert seq.moment((False, False)) == ExactComplex(0, 1)
    assert seq.moment((True, True)) == ExactComplex(0, -1)
    assert seq.moment(()) == ONE
    with pytest.raises(InsufficientMomentDataError):
        seq.moment((False, True))


def test_star_table_complete_through():
    seq = MomentSequence({(False,): Fraction(1, 2)}, complete_through=2)
    assert seq.moment((False, True)) == ZERO
    assert seq.moment((False,)) == Fraction(1, 2)
    with pytest.raises(DepthLimitError, match="length 3 exceeds bound 2"):
        seq.moment((False, True, False))


def test_star_table_hermitian_contradictions():
    with pytest.raises(ValueError, match="Hermitian"):
        MomentSequence({(False,): 1, (True,): 2})
    # a palindromic pattern is its own adjoint key, so it must be real
    with pytest.raises(ValueError, match="Hermitian"):
        MomentSequence({(False, True): ExactComplex(0, 1)})
    MomentSequence({(False, True): Fraction(1, 3)})  # real is fine


def test_star_table_rejects_unitary_only_options():
    with pytest.raises(ValueError):
        MomentSequence({(False,): 1}, period=3)
    with pytest.raises(ValueError):
        MomentSequence({1: 1}, unitary=True, complete_through=2)


def test_unitary_sequence_period_folding():
    seq = MomentSequence({1: Fraction(1, 4)}, unitary=True, period=3)
    assert seq.moment(()) == ONE
    assert seq.moment((3,)) == ONE
    assert seq.moment((1,)) == Fraction(1, 4)
    assert seq.moment((4,)) == Fraction(1, 4)
    assert seq.moment((-1,)) == Fraction(1, 4)  # conjugate of a real entry
    assert seq.moment((1, 1, 1)) == ONE
    assert seq.moment((1, -1)) == ONE
    assert seq.moment((1, 1)) == Fraction(1, 4)


def test_unitary_sequence_guards():
    with pytest.raises(ValueError, match="folds to 0"):
        MomentSequence({3: Fraction(1, 2)}, unitary=True, period=3)
    MomentSequence({3: 1}, unitary=True, period=3)  # restating the unit is fine
    with pytest.raises(ValueError, match="nonzero ints"):
        MomentSequence({0: 1}, unitary=True)
    with pytest.raises(ValueError, match="nonzero ints"):
        MomentSequence({(False,): 1}, unitary=True)


def test_haar_like_sequence_vanishes_off_zero():
    haar = MomentSequence({}, unitary=True)
    assert haar.moment(()) == ONE
    assert haar.moment((2, -2)) == ONE
    for k in range(1, 6):
        assert haar.moment((k,)) == ZERO
        assert haar.moment((-k,)) == ZERO


# -- cumulants ---------------------------------------------------------


def test_unit_sequence_cumulants():
    # all moments 1: first cumulant 1, higher cumulants vanish
    memo = {}
    unit = lambda letters: ONE
    assert cumulant_from_moments(unit, (False,), memo) == ONE
    for n in range(2, 7):
        assert cumulant_from_moments(unit, (False,) * n, memo) == ZERO


def test_low_order_cumulants():
    seq = MomentSequence({(False,): Fraction(2, 7), (False, False): Fraction(3, 5)})
    assert cumulant_from_moments(seq.moment, (False,)) == Fraction(2, 7)
    # second cumulant is the variance m2 - m1^2
    variance = Fraction(3, 5) - Fraction(4, 49)
    assert cumulant_from_moments(seq.moment, (False, False)) == variance
    centered = MomentSequence({(False,): 0, (False, False): 1})
    assert cumulant_from_moments(centered.moment, (False, False)) == ONE


@given(st.lists(rationals, min_size=1, max_size=5))
def test_moment_cumulant_round_trip(ms):
    values = {(False,) * (i + 1): m for i, m in enumerate(ms)}
    seq = MomentSequence(values)
    memo = {}
    kappa = {
        n: cumulant_from_moments(seq.moment, (False,) * n, memo)
        for n in range(1, len(ms) + 1)
    }
    for n in range(1, len(ms) + 1):
        back = moment_from_cumulants(lambda ls: kappa[len(ls)], (False,) * n)
        assert back == seq.moment((False,) * n)


def test_empty_tuple_conventions():
    assert cumulant_from_moments(lambda ls: ONE, ()) == ONE
    assert moment_from_cumulants(lambda ls: ONE, ()) == ONE


def free_pair(marginals):
    return FreeFamilySpec({v: seq.moment for v, seq in marginals.items()})


def test_cumulant_route_vanishes_on_mixed_blocks():
    marginals = {
        1: MomentSequence({(False,): 1, (False, False): 2}),
        2: MomentSequence({(False,): 3, (False, False): 4}),
    }
    spec = free_pair(marginals)
    # x1 x2: the pair block mixes classes, the split term is 1 * 3
    assert mixed_moment_by_cumulants(spec, parse_word("x1 x2")) == ExactComplex(3)
    # x1 x1: kappa_2 + kappa_1^2 = (2 - 1*1) + 1*1
    assert mixed_moment_by_cumulants(spec, parse_word("x1 x1")) == ExactComplex(2)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_cumulant_route_drops_mixed_partitions(n):
    marginals = {
        1: MomentSequence({(False,) * k: 1 for k in range(1, n + 1)}),
        2: MomentSequence({(False,) * k: 2 for k in range(1, n + 1)}),
    }
    labels = [1 if p % 2 else 2 for p in range(1, n + 1)]
    # only partitions whose blocks each carry one label contribute
    expected = ZERO
    for blocks in enumerate_nc(n):
        if any(len({labels[p - 1] for p in b}) > 1 for b in blocks):
            continue
        term = ONE
        for b in blocks:
            seq = marginals[labels[b[0] - 1]]
            term = term * cumulant_from_moments(seq.moment, (False,) * len(b))
        expected = expected + term
    word = parse_word(" ".join(f"x{v}" for v in labels))
    assert mixed_moment_by_cumulants(free_pair(marginals), word) == expected


# -- parity and singleton filters --------------------------------------

PURE_PARITY_COUNTS = {2: 1, 4: 3, 6: 12, 8: 55}
ODD_SINGLETON_COUNTS = {2: 0, 4: 1, 6: 1, 8: 5}


def filtered_nc(two_t, singleton_ok=lambda p: True):
    """Reference filter over the full enumeration: pure-parity blocks,
    and every singleton {p} must pass singleton_ok(p)."""
    return {
        frozenset(frozenset(b) for b in blocks)
        for blocks in enumerate_nc(two_t)
        if all(
            len({x % 2 for x in b}) == 1 and (len(b) > 1 or singleton_ok(b[0]))
            for b in blocks
        )
    }


def no_even_singletons(two_t):
    return [
        blocks
        for blocks in iter_pure_parity_blocks(two_t)
        if all(len(b) > 1 or b[0] % 2 == 1 for b in blocks)
    ]


def streamed(two_t, forbid_even_singletons=False):
    if forbid_even_singletons:
        blocks_list = no_even_singletons(two_t)
    else:
        blocks_list = list(iter_pure_parity_blocks(two_t))
    found = {frozenset(frozenset(b) for b in blocks) for blocks in blocks_list}
    assert len(found) == len(blocks_list)  # no partition is produced twice
    return found


def odd_position(p):
    return p % 2 == 1


def test_pure_parity_counts():
    for two_t, count in PURE_PARITY_COUNTS.items():
        assert len(streamed(two_t)) == count


def test_pure_parity_matches_direct_definition():
    for two_t in (2, 4, 6, 8):
        assert streamed(two_t) == filtered_nc(two_t)


def test_odd_singleton_counts_and_example():
    for two_t, count in ODD_SINGLETON_COUNTS.items():
        assert len(streamed(two_t, forbid_even_singletons=True)) == count
    (only,) = no_even_singletons(4)
    assert sorted(only) == [(1,), (2, 4), (3,)]


def test_exponent_singleton_filter():
    # a factor keeps a partition whose singletons all carry exponent
    # +-target exactly when some singleton support is labeled so throughout
    for two_t in (4, 6):
        supports = filter_counts(two_t // 2).singleton_supports
        for exponents in product((1, 2), repeat=two_t):
            served = any(all(exponents[p - 1] == 2 for p in s) for s in supports)
            tight = filtered_nc(
                two_t, lambda p: odd_position(p) and exponents[p - 1] == 2
            )
            assert served == bool(tight), exponents
    assert filter_counts(2).singleton_supports == ((1, 3),)


@pytest.mark.parametrize("two_t", [2, 4, 6, 8])
def test_filter_chain_is_nested(two_t):
    exponents = [2 if p == 1 else 1 for p in range(1, two_t + 1)]
    tight = filtered_nc(two_t, lambda p: odd_position(p) and exponents[p - 1] == 2)
    odd = streamed(two_t, forbid_even_singletons=True)
    pure = streamed(two_t)
    everything = as_partition_set(enumerate_nc(two_t))
    assert tight <= odd <= pure <= everything


@pytest.mark.parametrize("two_t", [0, 2, 4, 6, 8])
def test_streaming_parity_enumeration_agrees(two_t):
    assert streamed(two_t) == filtered_nc(two_t)
    assert streamed(two_t, forbid_even_singletons=True) == filtered_nc(
        two_t, odd_position
    )


def test_streaming_parity_counts_follow_the_closed_form():
    # the pure parity count at 2t elements is binom(3t, t)/(2t + 1)
    for t in range(1, 7):
        count = sum(1 for _ in iter_pure_parity_blocks(2 * t))
        assert count == comb(3 * t, t) // (2 * t + 1)


def test_streaming_parity_cap():
    with pytest.raises(EnumerationLimitError):
        next(iter_pure_parity_blocks(18))
    with pytest.raises(ValueError):
        next(iter_pure_parity_blocks(-2))
