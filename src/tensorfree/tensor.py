"""Diagonal families in a finite tensor product and their joint moments.

A scenario binds each joint index i to one variable per factor; the
joint variable is the elementary tensor of its components.  The joint
functional is never materialized: the moment of a word factorizes as
the product over factors of the same word evaluated on the components,
and that product is all this module computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import (
    FactorNotEvaluable,
    InsufficientMomentDataError,
    NotDirectlyEvaluable,
    ScenarioError,
)
from .scalars import ONE, ExactComplex, rational_sqrt
from .spaces import MomentFunctional, variance
from .starwords import Letter, LetterTuple, StarWord, single_variable_word


@dataclass(frozen=True)
class TensorScenario:
    """K factor models and the per-factor components of each joint variable.

    assignments maps a joint index i to the K-tuple of factor variable
    identifiers making up the elementary tensor.
    """

    factors: tuple[MomentFunctional, ...]
    assignments: dict[int, tuple[int, ...]]
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "assignments",
            {int(i): tuple(c) for i, c in self.assignments.items()},
        )
        k = len(self.factors)
        if k == 0:
            raise ScenarioError("a tensor scenario needs at least one factor")
        if not self.assignments:
            raise ScenarioError("empty joint index set")
        for i, components in self.assignments.items():
            if len(components) != k:
                raise ScenarioError(
                    f"joint variable {i} must list one component per factor"
                )
            for factor_index, var in enumerate(components):
                if var not in self.factors[factor_index].variables:
                    raise ScenarioError(
                        f"joint variable {i}: factor {factor_index + 1} has no "
                        f"variable x{var}"
                    )

    @property
    def K(self) -> int:
        return len(self.factors)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.assignments))

    def component(self, i: int, k: int) -> int:
        """Factor-k variable identifier of joint variable i (k is 1-based)."""
        return self.assignments[i][k - 1]


def factor_word(scenario: TensorScenario, word: StarWord, k: int) -> StarWord:
    """The word with every joint index replaced by its factor-k component."""
    mapping = {i: scenario.component(i, k) for i in scenario.indices}
    return word.substitute(mapping)


def factor_moment(scenario: TensorScenario, word: StarWord, k: int) -> ExactComplex:
    projected = factor_word(scenario, word, k)
    try:
        return scenario.factors[k - 1].moment(projected)
    except (NotDirectlyEvaluable, InsufficientMomentDataError) as exc:
        raise FactorNotEvaluable(k, projected.text(), str(exc)) from exc


def tensor_moment(scenario: TensorScenario, word: StarWord) -> ExactComplex:
    """Joint moment of a word in the diagonal family: the product of the
    factor moments of the projected words.

    Every factor is evaluated even when an earlier one is zero, so that
    evaluability failures never depend on factor order.
    """
    values = [factor_moment(scenario, word, k) for k in range(1, scenario.K + 1)]
    out = ONE
    for value in values:
        out = out * value
    return out


def joint_oracle(scenario: TensorScenario) -> Callable[[LetterTuple], ExactComplex]:
    def oracle(letters: LetterTuple) -> ExactComplex:
        return tensor_moment(scenario, StarWord(tuple(letters)))

    return oracle


# -- normalization pre-flight --------------------------------------------


class ScaledView(MomentFunctional):
    """A functional with each variable rescaled by a positive rational.

    The moment of a word picks up one scale factor per letter, which is
    exactly the effect of replacing each variable a by c*a with c a
    positive real scalar.  Positivity, traciality and faithfulness are
    unaffected, so the base model's verified flag is carried over.
    """

    def __init__(self, base: MomentFunctional, scales: dict[int, Fraction]) -> None:
        super().__init__()
        self.base = base
        self.scales = dict(scales)
        self.variables = base.variables
        for var, c in self.scales.items():
            if var not in self.variables:
                raise ScenarioError(f"scale for unknown variable x{var}")
            if c <= 0:
                raise ScenarioError(f"scale for x{var} must be positive")
        self.faithfulness_verified = base.faithfulness_verified

    def moment_letters(self, letters: LetterTuple) -> ExactComplex:
        value = self.base.moment_letters(letters)
        factor = Fraction(1)
        for l in letters:
            factor *= self.scales.get(l.index, Fraction(1))
        return value * ExactComplex(factor)

    def reduced_key(self, letters: LetterTuple):
        return self.base.reduced_key(letters)


def normalized_scenario(scenario: TensorScenario) -> TensorScenario:
    """Rescale every component so its second moment is exactly one.

    Each component a is replaced by c*a with c = moment(a a*)^(-1/2).
    The square root must be rational for the model to stay exact; a
    zero or non-real second moment means the component is degenerate.
    Factors already normalized are shared, not wrapped.
    """
    new_factors: list[MomentFunctional] = []
    for k in range(1, scenario.K + 1):
        functional = scenario.factors[k - 1]
        scales: dict[int, Fraction] = {}
        for i in scenario.indices:
            var = scenario.component(i, k)
            if var in scales:
                continue
            second = functional.moment_letters(
                (Letter(var, False), Letter(var, True))
            )
            if not second.is_real() or second.re <= 0:
                raise ScenarioError(
                    f"factor {k} variable x{var}: second moment {second} is "
                    "not a positive real, cannot normalize"
                )
            if second == ONE:
                continue
            root = rational_sqrt(second.re)
            if root is None:
                raise ScenarioError(
                    f"factor {k} variable x{var}: second moment {second.re} "
                    "has no rational square root, normalization would leave "
                    "exact arithmetic"
                )
            scales[var] = 1 / root
        if scales:
            new_factors.append(ScaledView(functional, scales))
        else:
            new_factors.append(functional)
    return TensorScenario(
        factors=tuple(new_factors),
        assignments=dict(scenario.assignments),
        name=scenario.name,
    )


def scalar_component_check(scenario: TensorScenario) -> list[str]:
    """Hypothesis screening for the necessary-condition checks.

    Returns human-readable problems: a joint variable that is the zero
    vector (a component with vanishing second moment) or a constant
    multiple of the unit (every component deterministic).
    """
    problems: list[str] = []
    for i in scenario.indices:
        zero = False
        all_det = True
        for k in range(1, scenario.K + 1):
            var = scenario.component(i, k)
            functional = scenario.factors[k - 1]
            second = functional.moment_letters((Letter(var, False), Letter(var, True)))
            if second.is_zero():
                zero = True
                break
            w = single_variable_word((False,), var)
            if variance(functional, w) != 0:
                all_det = False
        if zero:
            problems.append(f"joint variable {i} has a zero component")
        elif all_det:
            problems.append(
                f"joint variable {i} is a constant multiple of the unit"
            )
    return problems
