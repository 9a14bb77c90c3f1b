"""Tensor scenarios: factorized joint moments, the unitary traces whose
joint moment is a function of the word's tracial class, the centering
case analysis behind the tensor freeness conditions, and hypothesis
screening."""

import warnings
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorfree.counterexample import biased_power_scenario
from tensorfree.errors import (
    DepthLimitError,
    FactorNotEvaluable,
    LimitError,
    PreconditionError,
    ScenarioError,
)
from tensorfree.freeness import MIXED_MOMENT_LENGTH_CAP
from tensorfree.groups import (
    FreeProductPresentation,
    GroupPresentation,
    parse_group_word,
    reduce,
)
from tensorfree.ncpartitions import MomentSequence
from tensorfree.scalars import ONE, ZERO, ExactComplex
from tensorfree.scenario import load_scenario
from tensorfree.spaces import (
    GroupAlgebraModel,
    MomentFunctional,
    SpectralModel,
    TableFunctional,
    check_axioms,
)
from tensorfree import tensor
from tensorfree.tensor import (
    TensorScenario,
    diagonal_verdict,
    factor_moment,
    joint_oracle,
    scalar_component_check,
    tensor_moment,
)
from tensorfree.starwords import (
    StarWord,
    iter_letters,
    iter_sequences,
    parse_word as word,
)
from tensorfree.tfc import TfcViolation, check_tfc

from strategies import mixed_tensor_scenarios

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

F2 = GroupPresentation((FreeProductPresentation((None, None)),))
INTEGERS = GroupPresentation((FreeProductPresentation((None,)),))
ORDER2 = GroupPresentation((FreeProductPresentation((2,)),))


def f2_model():
    return GroupAlgebraModel(
        F2, {1: parse_group_word(F2, "g1.1^1"), 2: parse_group_word(F2, "g1.2^1")}
    )


def integer_model(powers=(1, 2)):
    return GroupAlgebraModel(
        INTEGERS,
        {i + 1: parse_group_word(INTEGERS, f"g1.1^{p}") for i, p in enumerate(powers)},
    )


def order2_model():
    return GroupAlgebraModel(ORDER2, {1: parse_group_word(ORDER2, "g1.1^1")})


def haar_times_integers():
    return TensorScenario(
        factors=(f2_model(), integer_model()),
        assignments={1: (1, 1), 2: (2, 2)},
    )


def test_tensor_moment_is_the_product_of_factor_moments():
    scen = haar_times_integers()
    w = word("x1 x1 x2*")
    assert factor_moment(scen, w, 1) == ZERO  # a a b^-1 is not the identity
    assert factor_moment(scen, w, 2) == ONE  # 1 + 1 - 2 = 0 in the integers
    assert tensor_moment(scen, w) == ZERO
    assert tensor_moment(scen, word("x1 x1*")) == ONE
    oracle = joint_oracle(scen)
    assert oracle(word("x1 x1*")) == ONE
    assert oracle(w) == ZERO


def test_scenario_accessors():
    scen = TensorScenario(
        factors=(f2_model(), integer_model()),
        assignments={1: (1, 2), 2: (2, 1)},
    )
    assert scen.K == 2
    assert scen.indices == (1, 2)
    assert scen.assignments[1][1] == 2


def test_factor_moment_reads_the_word_in_the_factors_own_variables():
    # factor 2 swaps the joint indices: joint x1 is its x2 = g^2 and
    # joint x2 its x1 = g, so it reads x1 x2* as x2 x1*
    swapped = TensorScenario(
        factors=(f2_model(), integer_model()),
        assignments={1: (1, 2), 2: (2, 1)},
    )
    assert swapped.factor_maps == (None, {1: 2, 2: 1})
    integers = integer_model()
    for text, projected in [
        ("x1 x2*", "x2 x1*"),
        ("x2 x2 x1*", "x1 x1 x2*"),  # g g g^-2 = 1
        ("x1 x1 x2*", "x2 x2 x1*"),  # g^2 g^2 g^-1 = g^3
    ]:
        assert factor_moment(swapped, word(text), 1) == f2_model().moment_letters(
            word(text)
        )
        assert factor_moment(swapped, word(text), 2) == integers.moment_letters(
            word(projected)
        )
    assert factor_moment(swapped, word("x2 x2 x1*"), 2) == ONE
    assert factor_moment(swapped, word("x1 x1 x2*"), 2) == ZERO
    # unswapped, factor 2 reads the words as they are
    scen = haar_times_integers()
    assert factor_moment(scen, word("x2 x2 x1*"), 2) == ZERO
    assert factor_moment(scen, word("x1 x1 x2*"), 2) == ONE


class Recording(MomentFunctional):
    """Moment 1 on every word; keeps each letter tuple it is asked for."""

    variables = (1, 2)

    def __init__(self):
        self.asked = []

    def moment_letters(self, letters):
        self.asked.append(letters)
        return ONE


def test_identity_factor_maps_return_the_word_itself():
    assert haar_times_integers().factor_maps == (None, None)
    recording = Recording()
    scen = TensorScenario(factors=(recording,), assignments={1: (1,), 2: (2,)})
    assert scen.factor_maps == (None,)
    w = word("x1 x2*")
    assert factor_moment(scen, w, 1) == ONE
    assert recording.asked[-1] is w


def test_scenarios_normalize_their_assignments_and_are_read_only():
    factors = (f2_model(), integer_model())
    scen = TensorScenario(factors=factors, assignments={"1": [1, 1]})
    assert scen.assignments == {1: (1, 1)}
    assert scen == TensorScenario(factors=factors, assignments={1: (1, 1)})
    for field in ("factors", "assignments", "factor_maps"):
        with pytest.raises(AttributeError):
            setattr(scen, field, None)


# -- unitary traces by construction --------------------------------------------


@pytest.mark.parametrize(
    "name, keyed",
    [
        ("biased_power_k2", True),
        ("biased_power_k3", True),
        ("biased_unitary", True),
        ("doubly_free", True),
        ("haar_dominated", True),
        ("circular_dominated", False),
        ("free_without_dominating", False),
    ],
)
def test_bundled_scenarios_that_are_unitary_traces(name, keyed):
    scen = load_scenario(str(SCENARIO_DIR / f"{name}.json")).tensor
    assert scen.scan_rules.trace is keyed


def test_table_functional_is_never_class_keyed():
    # phi(x1 x2) = 1/10 but phi(x2 x1) = 0: not a trace, so the diagonal
    # scans must walk both rotations
    table = TableFunctional(
        F2,
        {1: parse_group_word(F2, "g1.1^1"), 2: parse_group_word(F2, "g1.2^1")},
        {parse_group_word(F2, "g1.1^1 g1.2^1"): Fraction(1, 10)},
    )
    scen = TensorScenario(factors=(table,), assignments={1: (1,), 2: (2,)})
    assert not scen.scan_rules.trace
    oracle = joint_oracle(scen)
    assert oracle(word("x1 x2")) == Fraction(1, 10)
    assert oracle(word("x2 x1")) == ZERO


def test_scaled_and_star_table_factors_are_not_unitary_traces(bundled):
    haar = MomentSequence({}, unitary=True)
    circular = bundled("circular_dominated").tensor.factors[0].sequences[1]
    star_table = SpectralModel({1: haar, 2: circular}, assume_free=True)
    unflagged = SpectralModel({1: haar, 2: haar})
    for factor in (star_table, unflagged):
        scen = TensorScenario(factors=(f2_model(), factor), assignments={1: (1, 1)})
        assert not scen.scan_rules.trace


RATIONALS = st.fractions(min_value=-1, max_value=1, max_denominator=4)
NONREAL = st.builds(ExactComplex, RATIONALS, RATIONALS.filter(bool))
# powers 1 and 2 with period 5 or 6 never fold onto each other's adjoint
POWER_LAWS = st.builds(
    lambda values, period: MomentSequence(values, unitary=True, period=period),
    st.dictionaries(st.integers(1, 2), NONREAL, min_size=1, max_size=2),
    st.sampled_from([None, 5, 6]),
)
Z3_FREE_Z = GroupPresentation((FreeProductPresentation((3, None)),))
# the identity and order-3 elements make many group words trivial, so
# the spectral factor's nonreal values reach the joint moment
ELEMENTS = st.lists(
    st.tuples(st.integers(1, 2), st.integers(-2, 2).filter(bool)), max_size=2
).map(lambda syllables: reduce(Z3_FREE_Z, [syllables]))
ASSIGNMENTS = ({1: (1, 2), 2: (2, 1)}, {1: (1, 1), 2: (1, 2)})


@settings(max_examples=5, deadline=None)
@given(POWER_LAWS, POWER_LAWS, ELEMENTS, ELEMENTS, st.sampled_from(ASSIGNMENTS))
def test_tensor_moment_is_a_tracial_class_function(u1, u2, g1, g2, assignments):
    # free unitaries with nonreal moments (x) a group algebra of Z3 * Z,
    # through non-identity and repeated component maps: a rotation by one
    # letter keeps the joint moment, the adjoint reversal conjugates it
    # and dropping a first/last pair l ... l* keeps it, the identities
    # the bracelet scans read off unitary_trace
    scenario = TensorScenario(
        factors=(
            SpectralModel({1: u1, 2: u2}, assume_free=True),
            GroupAlgebraModel(Z3_FREE_Z, {1: g1, 2: g2}),
        ),
        assignments=assignments,
    )
    assert scenario.scan_rules.trace
    joint = joint_oracle(scenario)
    values = {}
    for n in range(1, 7):
        values.update((w, joint(w)) for w in iter_sequences(iter_letters((1, 2)), n))
    for letters, value in values.items():
        assert values[letters[1:] + letters[:1]] == value, letters
        adjoint = tuple(l.adjoint() for l in reversed(letters))
        assert values[adjoint] == value.conjugate(), letters
        if len(letters) > 2 and letters[-1] == letters[0].adjoint():
            assert values[letters[1:-1]] == value, letters


def test_scenario_validation():
    with pytest.raises(ScenarioError, match="at least one factor"):
        TensorScenario(factors=(), assignments={1: ()})
    with pytest.raises(ScenarioError, match="empty joint index set"):
        TensorScenario(factors=(f2_model(),), assignments={})
    with pytest.raises(ScenarioError, match="one component per factor"):
        TensorScenario(
            factors=(f2_model(), integer_model()),
            assignments={1: (1,)},
        )
    with pytest.raises(ScenarioError, match="no variable x9"):
        TensorScenario(factors=(f2_model(),), assignments={1: (9,)})


def test_factor_not_evaluable_is_tagged_and_order_independent():
    closed = SpectralModel(
        {
            1: MomentSequence({(False,): 0}, complete_through=1),
            2: MomentSequence({(False,): 0}, complete_through=1),
        }
    )
    w = word("x1 x2")  # factor 1 gives zero, factor 2 cannot evaluate at all
    # the message names the factor and the projected word: where factor 2
    # swaps the joint indices, the word in its own variables
    for assignments, projected in [
        ({1: (1, 1), 2: (2, 2)}, "x1 x2"),
        ({1: (1, 2), 2: (2, 1)}, "x2 x1"),
    ]:
        scen = TensorScenario(factors=(f2_model(), closed), assignments=assignments)
        assert factor_moment(scen, w, 1) == ZERO
        with pytest.raises(FactorNotEvaluable) as exc:
            tensor_moment(scen, w)
        assert str(exc.value).startswith(f"factor 2 cannot evaluate '{projected}': ")


def test_a_factor_zero_exactly_off_its_gauge_goes_last():
    # a group of one generator per component is abelian, so its canonical
    # trace is zero exactly off its gauge; F2's is not
    z3 = GroupPresentation(
        (FreeProductPresentation((None,)), FreeProductPresentation((3,)))
    )
    abelian = GroupAlgebraModel(z3, {1: parse_group_word(z3, "g1.1^1 g2.1^1")})
    assert abelian.gauge_exact and integer_model().gauge_exact
    assert not f2_model().gauge_exact
    assert not SpectralModel({1: MomentSequence({}, unitary=True)}).gauge_exact
    assert haar_times_integers().zero_first == (1, 2)
    swapped = TensorScenario(
        factors=(integer_model(), f2_model()), assignments={1: (1, 1), 2: (2, 2)}
    )
    assert swapped.zero_first == (2, 1)


def test_free_without_dominating_scans_with_the_abelian_factor_last(
    bundled, monkeypatch
):
    # the table on F2 is zero on every word of the scan through length 8,
    # so the canonical trace of Z is never asked; first in order, it took
    # 1,688 calls
    calls = []
    counted = lambda *args: calls.append(args[2]) or factor_moment(*args)
    monkeypatch.setattr(tensor, "factor_moment", counted)
    scen = bundled("free_without_dominating").tensor
    verdict = diagonal_verdict(scen, 8, joint_oracle(scen))
    assert verdict.free and verdict.words_checked == 86_360
    assert (len(calls), calls.count(2)) == (852, 0)


def test_a_failing_factor_raises_after_a_zero_factor_first_in_order():
    closed = SpectralModel(
        {
            1: MomentSequence({(False,): 0}, complete_through=1),
            2: MomentSequence({(False,): 0}, complete_through=1),
        }
    )
    scen = TensorScenario(
        factors=(closed, f2_model()),
        assignments={1: (1, 1), 2: (2, 2)},
    )
    # the free group's two modulus-0 constraints put factor 2 first, but
    # mixed words in a factor without assume_free can fail at any length
    assert scen.zero_first == (2, 1)
    assert scen.evaluable_through == 0
    w = word("x1 x2")  # factor 2 gives zero, factor 1 cannot evaluate at all
    assert factor_moment(scen, w, 2) == ZERO
    with pytest.raises(FactorNotEvaluable) as exc:
        tensor_moment(scen, w)
    assert str(exc.value).startswith("factor 1 cannot evaluate 'x1 x2': ")


def test_a_word_past_the_engine_cap_raises_although_a_factor_is_zero():
    scen = biased_power_scenario(2, Fraction(1, 10))
    assert scen.zero_first == (2, 1)
    assert scen.evaluable_through == MIXED_MOMENT_LENGTH_CAP
    # x1's exponent sum is odd, so factor 2 (powers +-2 only) is zero
    short = word(" ".join(["x1 x2"] * 7 + ["x1"]))
    assert tensor_moment(scen, short) == ZERO
    past_cap = word(" ".join(["x1 x2"] * 8 + ["x1"]))
    with pytest.raises(DepthLimitError, match="length 17 exceeds bound 16"):
        tensor_moment(scen, past_cap)


@pytest.mark.parametrize("n", [2, 3, 8, 20])
def test_a_table_with_no_depth_disables_the_zero_shortcut(n):
    # the table lists x1 alone, so every longer power is missing data;
    # factor 2, a free Haar unitary first in order, is zero on every
    # nonzero power (the canonical trace of Z would go last, as zero
    # exactly off its gauge)
    table = SpectralModel({1: MomentSequence({(False,): 0})})
    haar = SpectralModel({1: MomentSequence({}, unitary=True)}, assume_free=True)
    scen = TensorScenario(factors=(table, haar), assignments={1: (1, 1)})
    assert scen.zero_first == (2, 1)
    assert scen.evaluable_through == 0
    w = word(" ".join(["x1"] * n))
    assert factor_moment(scen, w, 2) == ZERO
    with pytest.raises(FactorNotEvaluable, match="^factor 1 cannot evaluate"):
        tensor_moment(scen, w)


def every_factor(scenario: TensorScenario, w) -> ExactComplex:
    """The brute-force twin of tensor_moment: every factor evaluated in
    the order 1..K, then multiplied."""
    values = [factor_moment(scenario, w, k) for k in range(1, scenario.K + 1)]
    out = ONE
    for value in values:
        out = out * value
    return out


def outcome(evaluate, scenario, w):
    try:
        return "value", evaluate(scenario, w)
    except (FactorNotEvaluable, LimitError) as exc:
        return type(exc), str(exc)


LETTERS = iter_letters((1, 2))
# short words, and words one letter past the free engine's cap
WORDS = st.one_of(
    st.lists(st.sampled_from(LETTERS), min_size=1, max_size=6),
    st.lists(st.sampled_from(LETTERS), min_size=17, max_size=17),
).map(lambda letters: StarWord(tuple(letters)))


@settings(max_examples=60, deadline=None)
@given(mixed_tensor_scenarios(), st.lists(WORDS, min_size=1, max_size=8))
def test_zero_first_matches_the_product_of_every_factor(scenario, words):
    # most of these words have some factor zero; the value and the error,
    # its type and its message, are those of the twin's
    for w in words:
        assert outcome(tensor_moment, scenario, w) == outcome(every_factor, scenario, w)


def test_pattern_plumbing():
    violation = TfcViolation(
        condition=1, index=3, pattern=(False, True), factor=1, tensor_value=ZERO
    )
    assert violation.word.text() == "x3 x3*"


def test_decomposition_vanishing_case_holds():
    # every single-letter word vanishes jointly and in factor 1
    report = check_tfc(haar_times_integers(), 1, max_len=1)
    assert report.satisfied
    assert report.violations == ()
    assert report.patterns_checked == 4


def test_decomposition_vanishing_case_violated():
    # infinite order times order two: the square vanishes jointly but
    # the order-two component contributes one
    scen = TensorScenario(
        factors=(integer_model((1,)), order2_model()),
        assignments={1: (1, 1)},
    )
    report = check_tfc(scen, 2, max_len=2)
    assert not report.satisfied
    (violation,) = report.violations
    assert violation.condition == 1
    assert violation.factor == 2
    assert violation.tensor_value == ZERO
    assert violation.factor_value == ONE
    assert violation.word.text() == "x1 x1"


def test_decomposition_nonvanishing_case_holds():
    left = order2_model()
    right = order2_model()
    check_axioms(left, gram_len=2)
    check_axioms(right, gram_len=2)
    scen = TensorScenario(
        factors=(left, right),
        assignments={1: (1, 1)},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_tfc(scen, 1, max_len=2)
    # x1 x1 has joint moment one and its factor-2 component is the unit
    assert report.satisfied
    assert report.dominating == 1


def test_decomposition_nonvanishing_case_violated(bundled):
    circ = bundled("circular_dominated").tensor.factors[0]
    scen = TensorScenario(
        factors=(order2_model(), circ),
        assignments={1: (1, 1)},
    )
    report = check_tfc(scen, 1, max_len=2)
    violation = report.violations[-1]
    assert violation.condition == 2
    assert violation.word.text() == "x1 x1*"
    assert violation.tensor_value == ONE
    assert violation.factor == 2  # c c* is not deterministic
    assert violation.variance == 1


def test_decomposition_guards():
    scen = haar_times_integers()
    for k in (0, 3):
        with pytest.raises(PreconditionError, match="out of range"):
            check_tfc(scen, k)


def wide_spectral(second):
    seq = MomentSequence(
        {(False,): 0, (False, True): second, (True, False): second},
        complete_through=2,
    )
    return SpectralModel({1: seq})


def test_scalar_component_check():
    zero = TensorScenario(
        factors=(wide_spectral(Fraction(0)),),
        assignments={1: (1,)},
    )
    assert scalar_component_check(zero) == ["joint variable 1 has a zero component"]

    unit_model = GroupAlgebraModel(INTEGERS, {1: parse_group_word(INTEGERS, "e")})
    check_axioms(unit_model, gram_len=2)
    constant = TensorScenario(
        factors=(unit_model,),
        assignments={1: (1,)},
    )
    assert scalar_component_check(constant) == [
        "joint variable 1 is a constant multiple of the unit"
    ]

    fine = haar_times_integers()
    assert scalar_component_check(fine) == []


# -- declared structure ------------------------------------------------------

# (scan_rules' unitary and trace, evaluable_through, scan_rules' gauge,
# heights and through, zero_first) of each bundled tensor file; all but
# the heights and through as the scenario computed them when it still
# read them off the model classes itself
BUNDLED_DECLARATIONS = {
    "biased_power_k2": (
        {1, 2},
        True,
        16,
        ((2, ((1, 1),)), (0, ((2, 1),))),
        ((2, (2,), (1,)),),
        16,
        (2, 1),
    ),
    "biased_power_k3": (
        {1, 2},
        True,
        16,
        ((6, ((1, 1),)), (0, ((2, 1),))),
        ((6, (2,), (1,)),),
        16,
        (3, 2, 1),
    ),
    # factor 1's Haar x2 beside its x1 of rotation modulus 1
    "biased_unitary": (
        {1, 2}, True, 16, ((0, ((2, 1),)),), ((1, (2,), (1,)),), 16, (1, 2)
    ),
    "circular_dominated": (set(), False, 8, (), (), 8, (1, 2)),
    "doubly_free": (
        {1, 2}, True, None, ((0, ((1, 1),)), (0, ((2, 1),))), (), None, (1, 2)
    ),
    # the canonical trace of Z, zero exactly off its gauge, goes last
    "free_without_dominating": (
        {1, 2}, False, None, ((0, ((1, 1), (2, 2))),), (), None, (1, 2)
    ),
    "haar_dominated": (
        {1, 2},
        True,
        None,
        ((0, ((1, 1),)), (0, ((1, 1), (2, 2))), (0, ((2, 1),))),
        (),
        None,
        (1, 2),
    ),
}


@pytest.mark.parametrize("name", sorted(BUNDLED_DECLARATIONS))
def test_bundled_declarations(bundled, name):
    scen = bundled(name).tensor
    assert (
        scen.scan_rules.unitary,
        scen.scan_rules.trace,
        scen.evaluable_through,
        scen.scan_rules.gauge,
        scen.scan_rules.heights,
        scen.scan_rules.through,
        scen.zero_first,
    ) == BUNDLED_DECLARATIONS[name]


def test_every_bundled_tensor_file_is_characterized():
    tensors = {
        path.stem
        for path in SCENARIO_DIR.glob("*.json")
        if load_scenario(path).tensor is not None
    }
    assert tensors == set(BUNDLED_DECLARATIONS)


@cache
def bundled_tensor(name):
    return load_scenario(SCENARIO_DIR / f"{name}.json").tensor


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(sorted(BUNDLED_DECLARATIONS)), st.data())
def test_a_star_word_and_its_letter_tuple_have_one_joint_moment(name, data):
    scen = bundled_tensor(name)
    alphabet = st.sampled_from(iter_letters(scen.indices))
    letters = tuple(data.draw(st.lists(alphabet, min_size=1, max_size=8)))
    expected = outcome(tensor_moment, scen, StarWord(letters))
    assert outcome(tensor_moment, scen, letters) == expected
    assert outcome(lambda s, w: joint_oracle(s)(w), scen, letters) == expected


class Undeclared(MomentFunctional):
    """A model that declares nothing: every nonempty word has moment 0."""

    variables = (1, 2)

    def moment_letters(self, letters):
        return ZERO if letters else ONE


def test_a_model_that_declares_nothing_is_walked_in_full():
    # beside a free group algebra, whose declarations would allow every
    # shortcut, the undeclared factor takes each of them away
    scen = TensorScenario(
        factors=(f2_model(), Undeclared()), assignments={1: (1, 1), 2: (2, 2)}
    )
    assert scen.scan_rules.unitary == frozenset()
    assert not scen.scan_rules.trace
    assert scen.evaluable_through == 0
    assert scen.scan_rules.gauge == ()
    assert scen.scan_rules.through == 0
    # the factor's family is scanned, not taken as free
    verdict = scen.factor_verdict(2, 4)
    assert verdict is not None and verdict.free
    assert scen.factor_verdict(1, 4).free
