"""Biased-power family: scenario guards, the alternating power scan and
its tracial class quotient, and the cumulant support filter table with
its block pair bound."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorfree.counterexample import (
    BLOCK_PAIR_CAP,
    analyze_biased_power,
    biased_power_scenario,
    filter_counts,
    filter_table,
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
from tensorfree.scalars import ONE, ExactComplex
from tensorfree.spaces import GroupAlgebraModel, SpectralModel, check_axioms
from tensorfree.starwords import (
    StarWord,
    iter_letters,
    iter_sequences,
    parse_word as word,
)
from tensorfree.tensor import (
    TensorScenario,
    _tracial_classes,
    joint_oracle,
    tensor_moment,
)

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
    # the biased law is a state exactly when |alpha| <= 1/2
    for alpha in (1, Fraction(-3, 5), ExactComplex(Fraction(3, 10), Fraction(1, 2))):
        with pytest.raises(ScenarioError, match="alpha .* modulus above 1/2"):
            biased_power_scenario(2, alpha)
    on_the_circle = ExactComplex(Fraction(3, 10), Fraction(2, 5))
    for alpha in (Fraction(1, 2), Fraction(-1, 2), on_the_circle):
        assert biased_power_scenario(2, alpha).K == 2


def test_scenario_shape():
    scen = biased_power_scenario(3, Fraction(1, 10))
    assert scen.K == 3
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


def integer_pair() -> GroupAlgebraModel:
    """x1 = 1 and x2 = 2 in the integers under the canonical trace."""
    return GroupAlgebraModel(
        INTEGERS,
        {
            1: parse_group_word(INTEGERS, "g1.1^1"),
            2: parse_group_word(INTEGERS, "g1.1^2"),
        },
    )


def free_unitaries(moments) -> SpectralModel:
    """A free family of unitaries with the given power moments per variable."""
    return SpectralModel(
        {v: MomentSequence(m, unitary=True) for v, m in moments.items()},
        assume_free=True,
    )


def test_scan_finds_the_integer_pair_violation():
    # Haar-type marginals, yet x1^2 x2^-1 reduces to the identity
    model = integer_pair()
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


# -- the tracial class quotient ---------------------------------------------

# nonreal, non-Haar power moments: values are nonzero and nonreal, so
# the conjugating branch of the class lookup is exercised
NONREAL_MOMENTS = {
    1: {1: Fraction(1, 2), 2: Fraction(1, 3)},
    2: {1: ExactComplex(Fraction(1, 5), Fraction(1, 7)), 3: Fraction(1, 4)},
}
LETTERS = iter_letters((1, 2))


def one_factor(model) -> TensorScenario:
    """The model's variables 1 and 2 as the joint variables of a
    one-factor tensor scenario."""
    return TensorScenario(factors=(model,), assignments={1: (1,), 2: (2,)})


def plain_oracle(scenario: TensorScenario):
    """The joint moment of every word evaluated on its own, with no
    class quotient."""
    return lambda letters: tensor_moment(scenario, StarWord(tuple(letters)))


def assert_classes_match(make, max_len):
    """The class-keyed joint oracle gives the plain tensor moment on
    every word, reduced or not; each side gets a fresh model, so no
    memo is shared.  Returns how many of the values were nonreal."""
    plain = plain_oracle(one_factor(make()))
    scenario = one_factor(make())
    assert scenario.unitary_trace
    classes = joint_oracle(scenario)
    nonreal = 0
    for n in range(1, max_len + 1):
        for letters in iter_sequences(LETTERS, n):
            value = plain(letters)
            assert classes(letters) == value, letters
            nonreal += not value.is_real()
    return nonreal


def test_tracial_classes_match_the_free_unitary_oracle():
    assert assert_classes_match(lambda: free_unitaries(NONREAL_MOMENTS), 6) > 0


def test_tracial_classes_match_the_integer_pair_oracle():
    assert_classes_match(integer_pair, 6)


RATIONALS = st.fractions(min_value=-1, max_value=1, max_denominator=6)
POWER_MOMENTS = st.dictionaries(
    st.integers(1, 3), st.builds(ExactComplex, RATIONALS, RATIONALS), max_size=2
)


@settings(max_examples=25, deadline=None)
@given(POWER_MOMENTS, POWER_MOMENTS)
def test_tracial_classes_match_on_random_power_moments(m1, m2):
    assert_classes_match(lambda: free_unitaries({1: m1, 2: m2}), 4)


def test_tracial_classes_evaluate_once_per_class():
    calls = []

    def joint(letters):
        calls.append(letters)
        return ONE

    oracle = _tracial_classes(joint)
    core = word("x1 x1 x2 x1 x2*").letters
    rotations = [core[i:] + core[:i] for i in range(len(core))]
    adjoint = word("x2 x1* x2* x1* x1*").letters
    conjugated = word("x2 x1 x1 x2 x1 x2* x2*").letters
    for letters in rotations + [adjoint, conjugated]:
        assert oracle(letters) == ONE
    assert len(calls) == 1


@pytest.mark.parametrize(
    "make_scenario, max_len, free",
    [
        (lambda: biased_power_scenario(2, Fraction(1, 10)), 8, True),
        (lambda: one_factor(integer_pair()), 6, False),
    ],
    ids=["biased-power", "integer-pair"],
)
def test_class_scan_matches_the_plain_scan(make_scenario, max_len, free):
    scenario = make_scenario()
    assert scenario.unitary_trace
    verdict, lines = scan_alternating_powers(joint_oracle(scenario), (1, 2), max_len)
    plain = plain_oracle(make_scenario())
    assert (verdict, lines) == scan_alternating_powers(plain, (1, 2), max_len)
    assert verdict.free is free
    assert verdict.words_checked == sum(line.words for line in lines)


@pytest.mark.parametrize("K", [2, 3])
def test_biased_power_factors_are_hermitian_traces(K):
    # the premise of the class quotient, checked at a bound only; the
    # scan holds it by construction and never reads this check
    for factor in biased_power_scenario(K, Fraction(1, 10)).factors:
        report = check_axioms(factor, gram_len=3)
        assert report.tracial
        assert report.hermitian


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
    # the table stops at the minimal t, or at the cap when there is none
    for K, minimal in ((1, 2), (2, 4), (3, 6), (4, None)):
        filters, found = filter_table(K)
        assert found == minimal
        last = minimal or BLOCK_PAIR_CAP  # capacity stays below 4 through t=7
        assert filters == tuple(filter_counts(t) for t in range(1, last + 1))
    with pytest.raises(ValueError, match="K must be positive"):
        filter_table(0)


def test_analysis_report_for_three_factors():
    report = analyze_biased_power(3, Fraction(1, 10), max_len=4)
    assert report.verdict.free and report.verdict.bound == 4
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
