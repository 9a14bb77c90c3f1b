"""Tensor scenarios: factorized joint moments, the centering case analysis
behind the tensor freeness conditions, normalization, and hypothesis
screening."""

import warnings
from fractions import Fraction

import pytest

from tensorfree.errors import FactorNotEvaluable, PreconditionError, ScenarioError
from tensorfree.goldens import circular_sequence
from tensorfree.groups import (
    FreeProductPresentation,
    GroupPresentation,
    parse_group_word,
)
from tensorfree.ncpartitions import MomentSequence
from tensorfree.scalars import ONE, ZERO, ExactComplex
from tensorfree.spaces import GroupAlgebraModel, SpectralModel, check_axioms
from tensorfree.tensor import (
    ScaledView,
    TensorScenario,
    factor_moment,
    factor_word,
    joint_oracle,
    normalized_scenario,
    scalar_component_check,
    tensor_moment,
)
from tensorfree.starwords import word
from tensorfree.tfc import TfcViolation, check_tfc

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


def test_scaled_view():
    base = f2_model()
    view = ScaledView(base, {1: Fraction(1, 2)})
    assert view.moment(word("x1 x1*")) == Fraction(1, 4)
    assert view.moment(word("x2 x2*")) == ONE  # unscaled variable
    assert view.moment(word("x1 x2")) == ZERO
    assert view.reduced_key(word("x1 x1*").letters) == base.reduced_key(
        word("x1 x1*").letters
    )
    with pytest.raises(ScenarioError, match="unknown variable"):
        ScaledView(base, {9: Fraction(1, 2)})
    with pytest.raises(ScenarioError, match="positive"):
        ScaledView(base, {1: Fraction(-1, 2)})
    base.faithfulness_verified = True
    assert ScaledView(base, {1: Fraction(2)}).faithfulness_verified


def wide_spectral(second):
    seq = MomentSequence(
        {(False,): 0, (False, True): second, (True, False): second},
        complete_through=2,
    )
    return SpectralModel({1: seq})


def test_normalized_scenario_rescales_to_unit_second_moment():
    scen = TensorScenario(
        factors=(wide_spectral(Fraction(4)), f2_model()),
        assignments={1: (1, 1)},
    )
    normalized = normalized_scenario(scen)
    assert isinstance(normalized.factors[0], ScaledView)
    assert normalized.factors[0].scales == {1: Fraction(1, 2)}
    assert normalized.factors[0].moment(word("x1 x1*")) == ONE
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
