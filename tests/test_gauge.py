"""The gauge skip: in an assume_free spectral factor, a variable whose
marginal is unchanged by x -> lambda x (lambda^m = 1, or any lambda on
the unit circle for m = 0) can be rotated alone without changing the
factor's law.  A tensor word whose exponent sum over the joint indices
with that component is not 0 mod m therefore has moment zero, and so
does its centered alternating product.  The scans count such words
without evaluating them; these tests pin the moduli, the exact set of
skipped words and the limits of the rule, and hold both scans to their
twins that evaluate every word.  Group-algebra factors add the
constraints of their abelianization (tests/test_group_gauge.py), which
the bundled pins below include."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorfree import freeness
from tensorfree.counterexample import biased_power_scenario, scan_alternating_powers
from tensorfree.errors import DepthLimitError, PreconditionError
from tensorfree.freeness import ScanRules, Verdict, centered_product_value
from tensorfree.freeness import test_freeness as freeness_verdict
from tensorfree.groups import (
    FreeProductPresentation,
    GroupPresentation,
    parse_group_word,
)
from tensorfree.ncpartitions import MomentSequence
from tensorfree.spaces import GroupAlgebraModel, SpectralModel
from tensorfree.starwords import class_blocks, iter_words, parse_word
from tensorfree.tensor import TensorScenario, diagonal_verdict, joint_oracle

from strategies import (
    CIRCULAR,
    breaks_by_hand,
    haar_type_scenarios,
    mixed_tensor_scenarios,
    spectral_factors,
    unitary_trace_scenarios,
)

HAAR = MomentSequence({}, unitary=True)
CLASS_OF = {1: 1, 2: 2}


def unitary(moments, period=None) -> MomentSequence:
    return MomentSequence(moments, unitary=True, period=period)


def star_table(patterns, complete_through=None) -> MomentSequence:
    return MomentSequence(
        {tuple(c == "*" for c in text): value for text, value in patterns.items()},
        complete_through=complete_through,
    )


@pytest.mark.parametrize(
    "sequence, modulus",
    [
        (HAAR, 0),
        (unitary({1: Fraction(1, 2)}), 1),
        (unitary({2: Fraction(1, 3)}), 2),
        # the Hermitian fill adds power -3 beside 3, and 6 beside -6
        (unitary({3: Fraction(1, 3), -6: Fraction(1, 5)}), 3),
        # a period folds powers: u^4 = 1 makes the law Z_4-invariant at most
        (unitary({}, period=4), 4),
        (unitary({2: Fraction(1, 2)}, period=4), 2),
        (unitary({1: Fraction(1, 2)}, period=3), 1),
        # star tables: "-" is a plain letter, "*" a starred one
        (star_table({"-*": 1, "*-": 1}, complete_through=4), 0),
        (star_table({"---": Fraction(1, 2), "***": Fraction(1, 2)}, 4), 3),
        (star_table({"-": Fraction(1, 3), "-*": 1, "*-": 1}, 4), 1),
        # a zero entry constrains nothing
        (star_table({"-": 0, "-*": 1, "*-": 1}, 4), 0),
        # with no complete_through the missing patterns are unknown
        (star_table({"-*": 1, "*-": 1}), 1),
    ],
)
def test_rotation_modulus(sequence, modulus):
    assert sequence.rotation_modulus == modulus


# the cap of each file's constraints, ScanRules.through, is pinned with
# its other declarations in tests/test_tensor.py::BUNDLED_DECLARATIONS
@pytest.mark.parametrize(
    "name, gauge",
    [
        # factor 2's biased x1 has power +-2 only; the Haar x2 has none
        ("biased_power_k2", ((2, ((1, 1),)), (0, ((2, 1),)))),
        ("biased_power_k3", ((6, ((1, 1),)), (0, ((2, 1),)))),
        # factor 1's x1 has powers 1 and 2 with period 3, so no constraint;
        # factor 2's x2 = g1.1 gives the same constraint as the Haar x2
        ("biased_unitary", ((0, ((2, 1),)),)),
        # one star table of no rotation symmetry, and no group algebra
        ("circular_dominated", ()),
        # free generators in both factors: s1 = 0 and s2 = 0
        ("doubly_free", ((0, ((1, 1),)), (0, ((2, 1),)))),
        # factor 2 has x1 = g and x2 = g^2: s1 + 2 s2 = 0
        (
            "haar_dominated",
            ((0, ((1, 1),)), (0, ((1, 1), (2, 2))), (0, ((2, 1),))),
        ),
        # factor 1 is a table functional, which gives nothing
        ("free_without_dominating", ((0, ((1, 1), (2, 2))),)),
    ],
)
def test_bundled_gauge_moduli(bundled, name, gauge):
    scenario = bundled(name).tensor
    assert scenario.scan_rules.gauge == gauge


def test_biased_power_gauge_is_lcm_of_the_biased_powers():
    for K, modulus in ((2, 2), (3, 6), (4, 12)):
        rules = biased_power_scenario(K, Fraction(1, 10)).scan_rules
        assert rules.gauge == ((modulus, ((1, 1),)), (0, ((2, 1),)))
        assert rules.through == 16


def free_factor(*sequences) -> SpectralModel:
    return SpectralModel(dict(enumerate(sequences, 1)), assume_free=True)


def test_the_cap_is_the_least_depth_in_use():
    circular = star_table({"-*": 1, "*-": 1}, complete_through=6)
    shallow = star_table({"-*": 1, "*-": 1}, complete_through=4)
    # one component per factor: no mixed word, so no engine cap
    scenario = TensorScenario(
        factors=(free_factor(circular), free_factor(shallow, HAAR)),
        assignments={1: (1, 1), 2: (1, 1)},
    )
    assert scenario.scan_rules.gauge == ((0, ((1, 1), (2, 1))),)
    assert scenario.scan_rules.through == 4
    # a table that can fail at any length, or mixed words in a factor
    # without assume_free, would let a skip hide an error
    for factor in (
        free_factor(HAAR, star_table({"-*": 1, "*-": 1})),
        SpectralModel({1: HAAR, 2: HAAR}),
    ):
        scenario = TensorScenario(
            factors=(free_factor(HAAR, HAAR), factor),
            assignments={1: (1, 1), 2: (2, 2)},
        )
        assert scenario.scan_rules.gauge == ()
        assert scenario.scan_rules.through == 0


# -- soundness pins ------------------------------------------------------------


def shared_component_scenario() -> TensorScenario:
    """Factor 1 is a Haar x1 alone; factor 2 has free unitaries with means
    1/2 and 1/3.  Both joint variables share factor 1's component."""
    return TensorScenario(
        factors=(
            free_factor(HAAR),
            free_factor(unitary({1: Fraction(1, 2)}), unitary({1: Fraction(1, 3)})),
        ),
        assignments={1: (1, 1), 2: (1, 2)},
    )


def test_shared_component_constrains_the_sum():
    scenario = shared_component_scenario()
    # one constraint on s1 + s2: rotating x1 rotates both joint variables
    assert scenario.scan_rules.gauge == ((0, ((1, 1), (2, 1))),)
    assert scenario.scan_rules.through == 16
    declared = scenario.scan_rules
    rules = ScanRules(declared.unitary, declared.gauge, through=declared.through)
    verdict = freeness_verdict(joint_oracle(scenario), scenario.indices, 4, rules)
    assert verdict.witness == parse_word("x1 x2*")
    assert verdict.lhs == Fraction(1, 6)
    assert verdict.words_checked == 2
    # a constraint per joint index would have skipped the witness
    per_index = ((0, ((1, 1),)), (0, ((2, 1),)))
    assert breaks_by_hand(verdict.witness, per_index)


def test_a_word_past_the_table_depth_is_evaluated():
    # Z_2-invariant table declared through length 4; a mixed word of
    # length 6 needs the length-5 run, which raises the depth limit
    table = star_table(
        {"-*": 1, "*-": 1, "--": Fraction(1, 2), "**": Fraction(1, 2)},
        complete_through=4,
    )
    scenario = TensorScenario(
        factors=(free_factor(table, HAAR),), assignments={1: (1,), 2: (2,)}
    )
    assert scenario.scan_rules.gauge == ((2, ((1, 1),)), (0, ((2, 1),)))
    assert scenario.scan_rules.through == 4
    errors = []
    for rules in (ScanRules(), scenario.scan_rules):
        with pytest.raises(DepthLimitError) as caught:
            freeness_verdict(joint_oracle(scenario), (1, 2), 6, rules)
        errors.append(str(caught.value))
    assert errors[0] == errors[1]


def test_skip_fires_exactly_on_words_that_break_the_gauge(bundled, monkeypatch):
    scenario = bundled("biased_power_k2").tensor
    gauge, through = scenario.scan_rules.gauge, scenario.scan_rules.through
    evaluated = []

    def recording(oracle, letters, class_of):
        evaluated.append(letters)
        return centered_product_value(oracle, letters, class_of)

    monkeypatch.setattr(freeness, "centered_product_value", recording)
    verdict = freeness_verdict(
        joint_oracle(scenario), (1, 2), 5, ScanRules(gauge=gauge, through=through)
    )
    assert verdict.free
    expected = [
        w
        for n in range(2, 6)
        for w in iter_words((1, 2), n)
        if len(class_blocks(w, CLASS_OF)) > 1
        and not breaks_by_hand(w, gauge, through)
    ]
    assert evaluated == expected
    # x1 sums even and x2 sums zero: odd lengths never survive
    assert {len(w) for w in evaluated} == {4}
    assert verdict.words_checked == 1_240 > len(expected) == 48


@pytest.mark.parametrize("name", ["biased_power_k2", "biased_power_k3", "biased_unitary"])
def test_words_that_break_the_gauge_center_to_zero(bundled, name):
    scenario = bundled(name).tensor
    rules = scenario.scan_rules
    oracle = joint_oracle(scenario)
    breaking = 0
    for length in range(2, 6):
        for word in iter_words((1, 2), length):
            letters = word
            if breaks_by_hand(letters, rules.gauge, rules.through):
                breaking += 1
                assert oracle(letters).is_zero(), word
                assert centered_product_value(oracle, letters, CLASS_OF).is_zero(), word
    assert breaking > 0


# -- the skip against the full scan on generated scenarios ---------------------

def group_factor() -> GroupAlgebraModel:
    presentation = GroupPresentation((FreeProductPresentation((None, 3)),))
    return GroupAlgebraModel(
        presentation,
        {
            1: parse_group_word(presentation, "g1.1^1"),
            2: parse_group_word(presentation, "g1.1^1 g1.2^1"),
        },
    )


@st.composite
def tensor_scenarios(draw) -> TensorScenario:
    """One or two factors; per factor, joint variables 1 and 2 take the
    components (1, 2), (2, 1) or a shared (1, 1) or (2, 2)."""
    factor = st.one_of(spectral_factors(), st.just(group_factor()))
    factors = draw(st.lists(factor, min_size=1, max_size=2))
    pairs = [draw(st.sampled_from([(1, 2), (2, 1), (1, 1), (2, 2)])) for _ in factors]
    return TensorScenario(
        factors=tuple(factors),
        assignments={i: tuple(pair[i - 1] for pair in pairs) for i in (1, 2)},
    )


def outcome(scenario, max_len, gauge):
    """The scan's verdict, or the type of the error it raised."""
    try:
        declared = scenario.scan_rules
        rules = ScanRules(declared.unitary, gauge, through=declared.through)
        return freeness_verdict(joint_oracle(scenario), (1, 2), max_len, rules)
    except Exception as exc:  # the twin must raise the same type
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(tensor_scenarios(), st.integers(2, 5))
@example(shared_component_scenario(), 4)
def test_gauge_skip_matches_the_full_scan(scenario, max_len):
    skipping = outcome(scenario, max_len, scenario.scan_rules.gauge)
    assert skipping == outcome(scenario, max_len, ())


def scan_outcome(scan):
    """scan(), or the type of the error it raised."""
    try:
        return scan()
    except Exception as exc:  # the twin must raise the same type
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(st.one_of(mixed_tensor_scenarios(), haar_type_scenarios()), st.integers(2, 6))
# the biased-power pair at K = 3: x1 sums 0 mod 6 at every height
@example(biased_power_scenario(3, Fraction(1, 10)), 6)
# a Haar x1 beside the circular x2, not a trace: the per-height rule in
# the walk of every kept word
@example(
    TensorScenario(
        factors=(free_factor(HAAR, CIRCULAR),), assignments={1: (1,), 2: (2,)}
    ),
    6,
)
def test_diagonal_verdict_matches_the_scan_with_no_rules(scenario, max_len):
    # every rule of scan_rules at once, the per-height rule in either walk,
    # against the scan of every switching word; an error is an outcome too
    oracle = joint_oracle(scenario)
    ruled = scan_outcome(lambda: diagonal_verdict(scenario, max_len, oracle))
    indices = scenario.indices
    full = scan_outcome(lambda: freeness_verdict(oracle, indices, max_len, ScanRules()))
    assert ruled == full


@settings(max_examples=60, deadline=None)
@given(tensor_scenarios(), st.integers(2, 5))
def test_every_word_the_gauge_breaks_is_evaluable_and_zero(scenario, max_len):
    # the scan compares first witnesses only; this checks every skip
    oracle = joint_oracle(scenario)
    rules = scenario.scan_rules
    for length in range(2, max_len + 1):
        for word in iter_words((1, 2), length):
            if breaks_by_hand(word, rules.gauge, rules.through):
                assert oracle(word).is_zero(), word


@settings(max_examples=40, deadline=None)
@given(unitary_trace_scenarios(), st.integers(2, 6))
# the biased-power pair through its length-10 witness
@example(biased_power_scenario(2, Fraction(1, 10)), 10)
@example(shared_component_scenario(), 4)
def test_bracelet_scan_matches_the_plain_scan(scenario, max_len):
    # one word per bracelet under a declared trace against every kept
    # word: the same verdict, witness, lhs and words_checked
    rules = scenario.scan_rules
    assert rules.trace
    args = (joint_oracle(scenario), scenario.indices, max_len)
    plain = freeness_verdict(*args, rules._replace(trace=False))
    assert freeness_verdict(*args, rules) == plain


# -- the power-word scan ---------------------------------------------------------


def power_outcome(scenario, max_len, gauge):
    rules = ScanRules(gauge=gauge, through=scenario.scan_rules.through)
    return scan_alternating_powers(joint_oracle(scenario), (1, 2), max_len, rules)


def reduced(letters) -> bool:
    return all(b != a.adjoint() for a, b in zip(letters, letters[1:]))


def brute_power_scan(joint, variables, max_len, gauge, through=None):
    """scan_alternating_powers, tally lines as (block pairs, words,
    violations), by evaluating every reduced word; the gauge, held
    through that length, is read only to check that each word it breaks
    has moment zero."""
    tallies = {}
    first = None
    for total in range(2, max_len + 1):
        for word in iter_words(variables, total):
            letters = word
            runs = len(class_blocks(letters, {v: v for v in variables}))
            if not reduced(letters) or runs == 1:
                continue
            line = tallies.setdefault((runs + 1) // 2, [0, 0])
            line[0] += 1
            value = joint(letters)
            if breaks_by_hand(letters, gauge, through):
                assert value.is_zero(), word
            if not value.is_zero():
                line[1] += 1
                if first is None:
                    first = (word, value)
    lines = [(pairs, words, bad) for pairs, (words, bad) in sorted(tallies.items())]
    checked = sum(words for _, words, _ in lines)
    if first is None:
        return Verdict(True, None, None, max_len, checked), lines
    return Verdict(False, *first, max_len, checked), lines


def power_scan(joint, variables, max_len, rules):
    verdict, scan = scan_alternating_powers(joint, variables, max_len, rules)
    return verdict, [(line.block_pairs, line.words, line.violations) for line in scan]


@settings(max_examples=20, deadline=None)
@given(haar_type_scenarios(), st.integers(2, 6))
# the biased-power pairs at K = 2 and K = 3
@example(biased_power_scenario(2, Fraction(1, 10)), 8)
@example(biased_power_scenario(3, Fraction(1, 2)), 6)
# x1 biased in factor 1 and x2 in factor 2: x1 x2 x1* x2* violates
@example(
    TensorScenario(
        factors=(
            free_factor(unitary({1: Fraction(1, 2)}), HAAR),
            free_factor(HAAR, unitary({1: Fraction(1, 3)})),
        ),
        assignments={1: (1, 1), 2: (2, 2)},
    ),
    6,
)
def test_power_scan_gauge_matches_the_full_scan(scenario, max_len):
    # the scan counts its tallies in closed form with or without a gauge;
    # the twin walks and evaluates every word, where the scan evaluates
    # one word per bracelet: every scenario here is a unitary trace
    rules = scenario.scan_rules
    assert rules.trace
    joint = joint_oracle(scenario)
    full = brute_power_scan(joint, (1, 2), max_len, rules.gauge, rules.through)
    assert power_scan(joint, (1, 2), max_len, rules) == full
    assert power_scan(joint, (1, 2), max_len, ScanRules()) == full


INTEGERS = GroupPresentation((FreeProductPresentation((None,)),))


def integer_powers(*exponents) -> GroupAlgebraModel:
    """Powers of one generator of the integers, one per variable."""
    return GroupAlgebraModel(
        INTEGERS,
        {v: parse_group_word(INTEGERS, f"g1.1^{e}") for v, e in enumerate(exponents, 1)},
    )


@pytest.mark.parametrize(
    "exponents, max_len", [((1, 2), 7), ((1, 2, 3), 5), ((1, -1), 6), ((2, 3), 7)]
)
def test_power_scan_matches_its_brute_twin_on_integer_powers(exponents, max_len):
    # words reducing to the identity violate, in several tally lines
    model = integer_powers(*exponents)
    variables = tuple(model.variables)
    want = brute_power_scan(model.moment_letters, variables, max_len, model.gauge)
    rules = ScanRules(gauge=model.gauge)
    assert power_scan(model.moment_letters, variables, max_len, rules) == want
    assert power_scan(model.moment_letters, variables, max_len, ScanRules()) == want
    assert not want[0].free
    assert sum(bad > 0 for _, _, bad in want[1]) > 1


def test_power_scan_skips_count_in_the_tallies():
    scenario = biased_power_scenario(2, Fraction(1, 10))
    asked = []
    joint = joint_oracle(scenario)

    def recording(letters):
        asked.append(letters)
        return joint(letters)

    gauge, through = scenario.scan_rules.gauge, scenario.scan_rules.through
    rules = ScanRules(gauge=gauge, through=through)
    verdict, scan = scan_alternating_powers(recording, (1, 2), 6, rules)
    full_verdict, full_scan = power_outcome(scenario, 6, ())
    assert (verdict, scan) == (full_verdict, full_scan)
    # past the single-power probes, only words keeping both sums are asked
    walked = asked[2 * 5 * 2 :]
    assert walked and not any(breaks_by_hand(w, gauge, through) for w in walked)
    assert len(walked) < verdict.words_checked


def test_power_scan_precondition_is_unchanged():
    scenario = TensorScenario(
        factors=(free_factor(unitary({1: Fraction(1, 2)}), HAAR),),
        assignments={1: (1,), 2: (2,)},
    )
    with pytest.raises(PreconditionError):
        power_outcome(scenario, 4, scenario.scan_rules.gauge)
