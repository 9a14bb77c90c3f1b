"""Tensor scenarios: factorized joint moments, the class-keyed joint
oracle and its plain twin, the centering case analysis behind the tensor
freeness conditions, normalization, and hypothesis screening."""

import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorfree.errors import FactorNotEvaluable, PreconditionError, ScenarioError
from tensorfree.goldens import circular_sequence
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
    SpectralModel,
    TableFunctional,
    check_axioms,
)
from tensorfree.tensor import (
    TensorScenario,
    factor_moment,
    factor_word,
    joint_oracle,
    normalized_scenario,
    scalar_component_check,
    tensor_moment,
)
from tensorfree.starwords import StarWord, iter_letters, iter_sequences, word
from tensorfree.tfc import TfcViolation, check_tfc

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
        name="haar_times_integers",
    )


def test_tensor_moment_is_the_product_of_factor_moments():
    scen = haar_times_integers()
    w = word("x1 x1 x2*")
    assert factor_moment(scen, w, 1) == ZERO  # a a b^-1 is not the identity
    assert factor_moment(scen, w, 2) == ONE  # 1 + 1 - 2 = 0 in the integers
    assert tensor_moment(scen, w) == ZERO
    assert tensor_moment(scen, word("x1 x1*")) == ONE
    oracle = joint_oracle(scen)
    assert oracle(word("x1 x1*").letters) == ONE
    assert oracle(w.letters) == ZERO


def test_scenario_accessors():
    scen = TensorScenario(
        factors=(f2_model(), integer_model()),
        assignments={1: (1, 2), 2: (2, 1)},
    )
    assert scen.K == 2
    assert scen.indices == (1, 2)
    assert scen.component(1, 2) == 2
    assert factor_word(scen, word("x1 x2*"), 1) == word("x1 x2*")
    assert factor_word(scen, word("x1 x2*"), 2) == word("x2 x1*")


def test_identity_factor_maps_return_the_word_itself():
    scen = haar_times_integers()
    assert scen.factor_maps == (None, None)
    w = word("x1 x2*")
    assert factor_word(scen, w, 1) is w
    swapped = TensorScenario(
        factors=(f2_model(), integer_model()),
        assignments={1: (1, 2), 2: (2, 1)},
    )
    assert swapped.factor_maps == (None, {1: 2, 2: 1})


# -- the class-keyed joint oracle ---------------------------------------------


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
    assert scen.unitary_trace is keyed


def test_table_functional_is_never_class_keyed():
    # phi(x1 x2) = 1/10 but phi(x2 x1) = 0: not a trace, so a rotation
    # must not share a value
    table = TableFunctional(
        F2,
        {1: parse_group_word(F2, "g1.1^1"), 2: parse_group_word(F2, "g1.2^1")},
        {parse_group_word(F2, "g1.1^1 g1.2^1"): Fraction(1, 10)},
    )
    scen = TensorScenario(factors=(table,), assignments={1: (1,), 2: (2,)})
    assert not scen.unitary_trace
    oracle = joint_oracle(scen)
    assert oracle(word("x1 x2").letters) == Fraction(1, 10)
    assert oracle(word("x2 x1").letters) == ZERO


def test_scaled_and_star_table_factors_are_not_unitary_traces():
    haar = MomentSequence({}, unitary=True)
    star_table = SpectralModel({1: haar, 2: circular_sequence()}, assume_free=True)
    unflagged = SpectralModel({1: haar, 2: haar})
    for factor in (star_table, unflagged):
        scen = TensorScenario(factors=(f2_model(), factor), assignments={1: (1, 1)})
        assert not scen.unitary_trace


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
def test_class_keyed_oracle_matches_the_tensor_moment(u1, u2, g1, g2, assignments):
    # free unitaries with nonreal moments (x) a group algebra of Z3 * Z,
    # through non-identity and repeated component maps; each side gets
    # its own models, so no memo is shared
    def scenario():
        return TensorScenario(
            factors=(
                SpectralModel({1: u1, 2: u2}, assume_free=True),
                GroupAlgebraModel(Z3_FREE_Z, {1: g1, 2: g2}),
            ),
            assignments=assignments,
        )

    keyed = scenario()
    assert keyed.unitary_trace
    oracle = joint_oracle(keyed)
    plain = scenario()
    for n in range(1, 7):
        for letters in iter_sequences(iter_letters((1, 2)), n):
            assert oracle(letters) == tensor_moment(plain, StarWord(letters)), letters


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
    scen = TensorScenario(
        factors=(f2_model(), closed),
        assignments={1: (1, 1), 2: (2, 2)},
    )
    w = word("x1 x2")  # factor 1 gives zero, factor 2 cannot evaluate at all
    assert factor_moment(scen, w, 1) == ZERO
    with pytest.raises(FactorNotEvaluable) as exc:
        tensor_moment(scen, w)
    assert exc.value.factor == 2
    assert exc.value.word_text == "x1 x2"


def test_pattern_plumbing():
    violation = TfcViolation(
        condition=1, index=3, pattern=(False, True), factor=1, tensor_value=ZERO
    )
    assert violation.word_text() == "x3 x3*"


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
    assert violation.word_text() == "x1 x1"


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


def test_decomposition_nonvanishing_case_violated():
    circ = SpectralModel({1: circular_sequence()})
    scen = TensorScenario(
        factors=(order2_model(), circ),
        assignments={1: (1, 1)},
    )
    report = check_tfc(scen, 1, max_len=2)
    violation = report.violations[-1]
    assert violation.condition == 2
    assert violation.word_text() == "x1 x1*"
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


def test_normalized_scenario_rescales_to_unit_second_moment():
    # a pattern of length n picks up c^n, here c = 1/2
    values = {(False,): 1, (False, True): 4, (True, False): 4}
    values[(False, False, True, True)] = 16
    seq = MomentSequence(values, complete_through=4)
    wide = SpectralModel({1: seq, 2: MomentSequence({}, unitary=True)})
    wide.faithfulness_verified = True
    scen = TensorScenario(
        factors=(wide, f2_model()),
        assignments={1: (1, 1), 2: (2, 2)},
    )
    normalized = normalized_scenario(scen)
    rescaled = normalized.factors[0]
    assert type(rescaled) is SpectralModel
    assert rescaled.sequences[1].values == {
        (False,): Fraction(1, 2),
        (True,): Fraction(1, 2),
        (False, True): ONE,
        (True, False): ONE,
        (False, False, True, True): ONE,
    }
    assert rescaled.sequences[1].complete_through == 4
    assert rescaled.sequences[2] is wide.sequences[2]  # unit second moment
    assert rescaled.assume_free is wide.assume_free
    assert rescaled.faithfulness_verified
    assert rescaled.moment(word("x1 x1*")) == ONE
    # the already normalized factor is shared, not wrapped
    assert normalized.factors[1] is scen.factors[1]


def test_normalized_scenario_rejects_degenerate_components():
    bad = TensorScenario(
        factors=(wide_spectral(Fraction(2)),),
        assignments={1: (1,)},
    )
    with pytest.raises(ScenarioError, match="rational square root"):
        normalized_scenario(bad)
    zero = TensorScenario(
        factors=(wide_spectral(Fraction(0)),),
        assignments={1: (1,)},
    )
    with pytest.raises(ScenarioError, match="not a positive real"):
        normalized_scenario(zero)


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
