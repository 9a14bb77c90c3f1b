"""Star words over unitary joint variables: for a unitary u, u u* =
u* u = 1, so a word with a letter of a unitary index right after its
adjoint has the centered alternating product of the word without the
pair, and a run with as many starred letters as plain ones is u^0 = 1,
whose centered part is zero.  The scans walk only the reduced words (no
unitary letter next to its adjoint) and count the rest in closed form;
these tests pin the unit-block identity itself, which words the scan
evaluates, and hold the scan to its twin that evaluates every word."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorfree import freeness
from tensorfree.freeness import ScanRules, centered_product_value
from tensorfree.freeness import test_freeness as freeness_verdict
from tensorfree.groups import (
    FreeProductPresentation,
    GroupPresentation,
    parse_group_word,
)
from tensorfree.ncpartitions import MomentSequence
from tensorfree.scalars import ONE, ZERO, ExactComplex
from tensorfree.spaces import GroupAlgebraModel, SpectralModel
from tensorfree.starwords import class_blocks, iter_words
from tensorfree.tensor import TensorScenario, joint_oracle

from strategies import reduced_by_hand

CLASS_OF = {1: 1, 2: 2}


def has_unit_block(letters, unitary) -> bool:
    """Brute force: some maximal run of a unitary index has as many
    starred letters as plain ones."""
    return any(
        ls[0].index in unitary
        and sum(1 for l in ls if l.star) == sum(1 for l in ls if not l.star)
        for ls in class_blocks(letters, CLASS_OF)
    )


@pytest.mark.parametrize(
    "name, unitary",
    [
        ("biased_power_k2", {1, 2}),
        ("biased_power_k3", {1, 2}),
        ("biased_unitary", {1, 2}),
        ("doubly_free", {1, 2}),
        ("haar_dominated", {1, 2}),
        # group elements are unitary under any functional, a table included
        ("free_without_dominating", {1, 2}),
        ("circular_dominated", set()),
    ],
)
def test_bundled_unitary_indices(bundled, name, unitary):
    scenario = bundled(name).tensor
    assert scenario.scan_rules.unitary == unitary


@pytest.mark.parametrize(
    "name", ["biased_power_k2", "haar_dominated", "doubly_free", "biased_unitary"]
)
def test_unit_block_words_center_to_zero(bundled, name):
    scenario = bundled(name).tensor
    joint = joint_oracle(scenario)
    memo = {(): ONE}

    def oracle(letters):
        if letters not in memo:
            memo[letters] = joint(letters)
        return memo[letters]

    unit_words = 0
    for length in range(3, 7):
        for word in iter_words((1, 2), length):
            letters = word
            if len(class_blocks(letters, CLASS_OF)) < 2:
                continue
            if has_unit_block(letters, scenario.scan_rules.unitary):
                unit_words += 1
                assert centered_product_value(oracle, letters, CLASS_OF) == ZERO, word
    assert unit_words == 2_184


def test_walk_evaluates_exactly_the_reduced_switching_words(monkeypatch):
    # x1 is a Haar unitary; x2 has a star table with x2 x2* = 2, so it is
    # not unitary, and its words with x2 next to x2* must be evaluated
    table = MomentSequence(
        {(False,): ExactComplex(1, 2), (False, True): 2, (True, False): 2},
        complete_through=5,
    )
    model = SpectralModel(
        {1: MomentSequence({}, unitary=True), 2: table}, assume_free=True
    )
    scenario = TensorScenario(factors=(model,), assignments={1: (1,), 2: (2,)})
    assert scenario.scan_rules.unitary == {1}
    evaluated = []

    def recording(oracle, letters, class_of):
        evaluated.append(letters)
        return centered_product_value(oracle, letters, class_of)

    monkeypatch.setattr(freeness, "centered_product_value", recording)
    verdict = freeness_verdict(joint_oracle(scenario), (1, 2), 5, ScanRules({1}))
    assert verdict.free
    expected = [
        w
        for n in range(2, 6)
        for w in iter_words((1, 2), n)
        if len(class_blocks(w, CLASS_OF)) > 1
        and reduced_by_hand(w, {1})
    ]
    assert evaluated == expected
    assert verdict.words_checked == 1_240 > len(expected)
    assert not all(reduced_by_hand(w, {2}) for w in evaluated)


# -- the reduced walk against the full scan on generated scenarios ---------------------

RATIONALS = st.fractions(min_value=-1, max_value=1, max_denominator=4)
COMPLEX = st.builds(ExactComplex, RATIONALS, RATIONALS)


@st.composite
def unitary_sequences(draw) -> MomentSequence:
    """Random Hermitian power moments, optionally periodic: one value per
    pair {p, -p} of folded powers, real where p = -p."""
    period = draw(st.sampled_from([None, None, 2, 3, 4]))
    powers = range(1, 4) if period is None else range(1, period // 2 + 1)
    values = {}
    for p in powers:
        if draw(st.booleans()):
            value = draw(COMPLEX)
            if period is not None and 2 * p == period:
                value = ExactComplex(value.re)
            values[p] = value
    return MomentSequence(values, unitary=True, period=period)


@st.composite
def star_tables(draw) -> MomentSequence:
    """A non-unitary variable: mean m and x x* = x* x = s, every other
    pattern through length 6 zero."""
    square = draw(st.fractions(min_value=0, max_value=2, max_denominator=4))
    return MomentSequence(
        {(False,): draw(COMPLEX), (False, True): square, (True, False): square},
        complete_through=6,
    )


@st.composite
def spectral_factors(draw):
    second = star_tables() if draw(st.booleans()) else unitary_sequences()
    variables = {1: draw(unitary_sequences()), 2: draw(second)}
    return SpectralModel(variables, assume_free=True)


def group_model(orders, *elements) -> GroupAlgebraModel:
    presentation = GroupPresentation((FreeProductPresentation(orders),))
    return GroupAlgebraModel(
        presentation,
        {v: parse_group_word(presentation, text) for v, text in enumerate(elements, 1)},
    )


@st.composite
def group_factors(draw):
    """Two elements of a free product of one or two cyclic groups, finite
    and infinite orders, as words of one or two syllables."""
    orders = draw(st.lists(st.sampled_from([None, 2, 3, 4]), min_size=1, max_size=2))
    syllable = st.tuples(st.integers(1, len(orders)), st.sampled_from([-2, -1, 1, 2]))
    texts = [
        " ".join(f"g1.{g}^{e}" for g, e in draw(st.lists(syllable, min_size=1, max_size=2)))
        for _ in (1, 2)
    ]
    return group_model(tuple(orders), *texts)


@st.composite
def tensor_scenarios(draw) -> TensorScenario:
    """One or two factors; per factor, joint variables 1 and 2 take the
    components (1, 2), (2, 1) or (1, 1)."""
    factors = draw(
        st.lists(st.one_of(spectral_factors(), group_factors()), min_size=1, max_size=2)
    )
    pairs = [draw(st.sampled_from([(1, 2), (2, 1), (1, 1)])) for _ in factors]
    return TensorScenario(
        factors=tuple(factors),
        assignments={i: tuple(pair[i - 1] for pair in pairs) for i in (1, 2)},
    )


def outcome(scenario, max_len, unitary):
    """The scan's verdict, or the type of the error it raised."""
    try:
        rules = ScanRules(unitary)
        return freeness_verdict(joint_oracle(scenario), (1, 2), max_len, rules)
    except Exception as exc:  # the twin must raise the same type
        return type(exc)


INTEGER_PAIR = group_model((None,), "g1.1^1", "g1.1^2")
HAAR_PAIR = group_model((None, None), "g1.1^1", "g1.2^1")
ORDER_3_PAIR = group_model((3, 3), "g1.1^2", "g1.2^1 g1.1^1")
HAAR_BESIDE_TABLE = SpectralModel(
    {
        1: MomentSequence({}, unitary=True),
        2: MomentSequence(
            {(False,): ExactComplex(1, 2), (False, True): 2, (True, False): 2},
            complete_through=4,
        ),
    },
    assume_free=True,
)


@settings(max_examples=25, deadline=None)
@given(tensor_scenarios(), st.integers(2, 5))
# x1 = g, x2 = g^2: the first witness, x1 x1 x2*, has a run of a unitary
# index that is not the unit, so the scan must evaluate it
@example(TensorScenario(factors=(INTEGER_PAIR,), assignments={1: (1,), 2: (2,)}), 4)
# x1 = a^-1, x2 = b a with a, b of order 3: (x1 x2)^3 = a^-1 b^3 a = 1 is
# the first witness, at length 6, after non-reduced words of length 6
# such as x1 x1* x2 x2 x2 x2
@example(TensorScenario(factors=(ORDER_3_PAIR,), assignments={1: (1,), 2: (2,)}), 6)
# a Haar x1 beside a star table through 4 letters: past the table's depth
# the reduced walk raises the depth limit as the full scan does
@example(
    TensorScenario(factors=(HAAR_BESIDE_TABLE,), assignments={1: (1,), 2: (2,)}), 6
)
# Example (A): a free Haar pair in factor 1 keeps the family free
@example(
    TensorScenario(
        factors=(HAAR_PAIR, INTEGER_PAIR), assignments={1: (1, 1), 2: (2, 2)}
    ),
    5,
)
def test_skip_matches_the_full_scan(scenario, max_len):
    skipping = outcome(scenario, max_len, scenario.scan_rules.unitary)
    assert skipping == outcome(scenario, max_len, ())
