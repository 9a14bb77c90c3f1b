"""Biased-power family: scenario guards, the alternating power scan, and
the cumulant support filter table with its block pair bound."""

from fractions import Fraction

import pytest

from tensorfree.counterexample import (
    analyze_biased_power,
    biased_power_scenario,
    filter_counts,
    minimal_block_pairs,
    scan_alternating_powers,
)
from tensorfree.errors import PreconditionError, ScenarioError
from tensorfree.freeness import FreeFamilySpec, mixed_moment_by_cumulants
from tensorfree.groups import (
    FreeProductPresentation,
    GroupPresentation,
    parse_group_word,
)
from tensorfree.ncpartitions import MomentSequence
from tensorfree.scalars import ONE
from tensorfree.spaces import GroupAlgebraModel, SpectralModel
from tensorfree.starwords import word
from tensorfree.tensor import joint_oracle

INTEGERS = GroupPresentation((FreeProductPresentation((None,)),))

# (noncrossing, pure parity, odd singletons only, disjoint capacity)
FILTER_TABLE = {
    1: (2, 1, 0, 0),
    2: (14, 3, 1, 1),
    3: (132, 12, 1, 1),
    4: (1430, 55, 5, 2),
    5: (16796, 273, 11, 1),
    6: (208012, 1428, 41, 3),
    7: (2674440, 7752, 120, 2),
}


def test_scenario_guards():
    with pytest.raises(ScenarioError, match="at least two factors"):
        biased_power_scenario(1, Fraction(1, 10))
    with pytest.raises(ScenarioError, match="alpha must be nonzero"):
        biased_power_scenario(2, 0)


def test_scenario_shape():
    scen = biased_power_scenario(3, Fraction(1, 10))
    assert scen.K == 3
    assert scen.name == "biased_power_k3"
    assert scen.indices == (1, 2)
    assert scen.assignments == {1: (1, 1, 1), 2: (2, 2, 2)}


def test_scan_requires_haar_type_marginals():
    biased = SpectralModel(
        {
            1: MomentSequence({1: Fraction(1, 2)}, unitary=True),
            2: MomentSequence({}, unitary=True),
        },
        assume_free=True,
    )
    with pytest.raises(PreconditionError, match="x1 is not Haar-type: power 1"):
        scan_alternating_powers(biased.moment_letters, (1, 2), 4)


def test_scan_finds_the_integer_pair_violation():
    # x1 = 1 and x2 = 2 in the integers: Haar-type marginals, yet
    # x1^2 x2^-1 reduces to the identity
    model = GroupAlgebraModel(
        INTEGERS,
        {
            1: parse_group_word(INTEGERS, "g1.1^1"),
            2: parse_group_word(INTEGERS, "g1.1^2"),
        },
    )
    verdict, scan = scan_alternating_powers(model.moment_letters, (1, 2), 3)
    assert not verdict.free
    assert verdict.witness.text() == "x1 x1 x2*"
    assert verdict.lhs == ONE
    assert verdict.words_checked == 40
    assert [(l.block_pairs, l.words, l.violations) for l in scan] == [
        (1, 24, 4),
        (2, 16, 2),
    ]


def test_scan_is_clean_on_the_biased_power_pair():
    scen = biased_power_scenario(2, Fraction(1, 10))
    verdict, scan = scan_alternating_powers(joint_oracle(scen), (1, 2), 4)
    assert verdict.free
    assert verdict.witness is None
    assert [(l.block_pairs, l.words, l.violations) for l in scan] == [
        (1, 48, 0),
        (2, 96, 0),
    ]


def test_k2_length_10_witness(scanned_words):
    # the first K = 2 violation: four block pairs, the filter lower bound
    witness = word("x1 x1 x2 x1 x2* x1* x1* x2 x1 x2*")
    assert witness.letters in scanned_words((1, 2), 10)
    scen = biased_power_scenario(2, Fraction(1, 10))
    assert joint_oracle(scen)(witness.letters) == Fraction(1, 100000)
    per_factor = []
    for factor in scen.factors:
        spec = FreeFamilySpec(
            {v: (lambda stars, v=v: factor.marginal_moment(v, stars)) for v in (1, 2)}
        )
        per_factor.append(mixed_moment_by_cumulants(spec, witness))
    assert per_factor == [Fraction(1, 100), Fraction(1, 1000)]


def test_filter_table_counts():
    for t, expected in FILTER_TABLE.items():
        fc = filter_counts(t)
        got = (
            fc.noncrossing,
            fc.pure_parity,
            fc.no_even_singletons,
            fc.disjoint_singleton_capacity,
        )
        assert got == expected, f"t={t}"


def test_filter_supports_are_frozen_for_small_t():
    assert filter_counts(1).singleton_supports == ()
    assert filter_counts(2).singleton_supports == ((1, 3),)
    assert filter_counts(3).singleton_supports == ((1, 3, 5),)
    assert filter_counts(4).singleton_supports == ((1, 3, 5, 7), (1, 5), (3, 7))


@pytest.mark.parametrize("t", range(1, 6))
def test_filter_supports_structure(t):
    fc = filter_counts(t)
    assert fc.disjoint_singleton_capacity <= t
    assert fc.no_even_singletons <= fc.pure_parity <= fc.noncrossing
    for support in fc.singleton_supports:
        assert support == tuple(sorted(support))
        assert all(p % 2 == 1 and 1 <= p <= 2 * t for p in support)


def test_singleton_capacity_sequence():
    capacities = [filter_counts(t).disjoint_singleton_capacity for t in range(1, 8)]
    assert capacities == [
        0,
        1,
        1,
        2,
        1,
        3,
        2,
    ]


def test_minimal_block_pairs():
    assert minimal_block_pairs(1) == 2
    assert minimal_block_pairs(2) == 4
    assert minimal_block_pairs(3) == 6
    assert minimal_block_pairs(4) is None  # capacity stays below 4 through t=7
    with pytest.raises(ValueError, match="K must be positive"):
        minimal_block_pairs(0)


def test_analysis_report_for_three_factors():
    report = analyze_biased_power(3, Fraction(1, 10), max_len=4)
    assert report.factors == 3
    assert report.verdict.free
    assert [(l.block_pairs, l.words, l.violations) for l in report.scan] == [
        (1, 48, 0),
        (2, 96, 0),
    ]
    # the filter table stops the moment the capacity reaches K
    assert [f.disjoint_singleton_capacity for f in report.filters] == [
        0,
        1,
        1,
        2,
        1,
        3,
    ]
    assert report.minimal_block_pairs == 6
    assert report.filters[-1].block_pairs == 6


def test_analysis_propagates_scenario_guards():
    with pytest.raises(ScenarioError, match="at least two factors"):
        analyze_biased_power(1, Fraction(1, 10))
