"""Diagonal families in a finite tensor product and their joint moments.

A scenario binds each joint index i to one variable per factor; the
joint variable is the elementary tensor of its components.  The joint
functional is never materialized: the moment of a word factorizes as
the product over factors of the same word evaluated on the components,
and that product is all this module computes.  When every factor is a
trace of unitaries by construction, the joint oracle evaluates that
product once per tracial class of words.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    FactorNotEvaluable,
    InsufficientMomentDataError,
    NotDirectlyEvaluable,
    ScenarioError,
)
from .freeness import JointOracle
from .ncpartitions import MomentSequence
from .scalars import ONE, ExactComplex, RationalLike, rational_sqrt
from .spaces import GroupAlgebraModel, MomentFunctional, SpectralModel, variance
from .starwords import Letter, LetterTuple, StarWord, single_variable_word


@dataclass(frozen=True)
class TensorScenario:
    """K factor models and the per-factor components of each joint variable.

    assignments maps a joint index i to the K-tuple of factor variable
    identifiers making up the elementary tensor.  factor_maps holds, per
    factor, the map from joint index to component, or None where that
    map is the identity.
    """

    factors: tuple[MomentFunctional, ...]
    assignments: dict[int, tuple[int, ...]]
    name: str = ""
    factor_maps: tuple[dict[int, int] | None, ...] = field(
        init=False, repr=False, compare=False
    )

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
        maps = ({i: c[f] for i, c in self.assignments.items()} for f in range(k))
        object.__setattr__(
            self,
            "factor_maps",
            tuple(None if all(i == c for i, c in m.items()) else m for m in maps),
        )

    @property
    def K(self) -> int:
        return len(self.factors)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.assignments))

    @property
    def unitary_trace(self) -> bool:
        """Whether every factor is, by its declared structure, a Hermitian
        trace in which every variable is unitary.

        A GroupAlgebraModel qualifies: the canonical trace is a Hermitian
        trace and group elements are unitary.  So does a SpectralModel
        with assume_free whose every MomentSequence is unitary: a free
        product of unitary power-moment laws, each Hermitian by
        construction.  Nothing else does, table functionals included,
        and no axiom check is consulted.  The tensor product of such
        factors is again a Hermitian trace of unitaries.
        """
        return all(
            isinstance(f, GroupAlgebraModel)
            or (
                isinstance(f, SpectralModel)
                and f.assume_free
                and all(seq.unitary for seq in f.sequences.values())
            )
            for f in self.factors
        )

    def component(self, i: int, k: int) -> int:
        """Factor-k variable identifier of joint variable i (k is 1-based)."""
        return self.assignments[i][k - 1]


def factor_word(scenario: TensorScenario, word: StarWord, k: int) -> StarWord:
    """The word with every joint index replaced by its factor-k component;
    the word itself when that map is the identity."""
    mapping = scenario.factor_maps[k - 1]
    return word if mapping is None else word.substitute(mapping)


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


def joint_oracle(scenario: TensorScenario) -> JointOracle:
    """The joint moment of a letter tuple, as a callable.

    When the scenario is a unitary trace by construction (see
    TensorScenario.unitary_trace), the oracle evaluates the tensor
    product once per tracial class of words; otherwise once per call.
    """

    def oracle(letters: LetterTuple) -> ExactComplex:
        return tensor_moment(scenario, StarWord(tuple(letters)))

    return _tracial_classes(oracle) if scenario.unitary_trace else oracle


def _least_rotation(word: LetterTuple) -> LetterTuple:
    n = len(word)
    ring = word + word
    return min([ring[i : i + n] for i in range(n)])


class _Adjoints(dict):
    """Letter -> its adjoint, filled on first use; a plain dict lookup
    keeps the per-word class key cheap beside the walk."""

    def __missing__(self, letter: Letter) -> Letter:
        flipped = self[letter] = letter.adjoint()
        return flipped


def _tracial_classes(joint: JointOracle) -> JointOracle:
    """joint, evaluated once per tracial class of words.

    The class key of a word is found in three steps: cyclically reduce
    it (drop first/last letter pairs l ... l*), take the least rotation
    of the core and the least rotation of its adjoint reversal, and
    keep the smaller.  When the adjoint side wins, the stored value is
    conjugated.  Words with the same key have equal values, or
    conjugate ones, when these three identities hold:

    * phi is a trace, phi(ab) = phi(ba), so rotation keeps the value;
    * every letter is unitary, x x* = x* x = 1, so with the trace
      phi(l c l*) = phi(c l* l) = phi(c);
    * phi is Hermitian, phi(w*) = conj(phi(w)).

    Nothing here checks them.  joint_oracle wraps a scenario's oracle
    only when TensorScenario.unitary_trace reads them off the factors'
    declared structure; every biased-power scenario qualifies.  A word
    whose core is empty goes to joint unchanged.
    """
    values: dict[LetterTuple, ExactComplex] = {}
    flip = _Adjoints()

    def oracle(letters: LetterTuple) -> ExactComplex:
        core = tuple(letters)
        while len(core) > 1 and core[0] == flip[core[-1]]:
            core = core[1:-1]
        if not core:
            return joint(letters)
        own = _least_rotation(core)
        adjoint = _least_rotation(tuple(map(flip.__getitem__, reversed(core))))
        key = min(own, adjoint)
        value = values.get(key)
        if value is None:
            value = values[key] = joint(key)
        return value if key == own else value.conjugate()

    return oracle


# -- normalization pre-flight --------------------------------------------


def normalized_scenario(scenario: TensorScenario) -> TensorScenario:
    """Rescale every component so its second moment is exactly one.

    Each component a is replaced by c*a with c = moment(a a*)^(-1/2).
    The square root must be rational for the model to stay exact; a
    zero or non-real second moment means the component is degenerate.
    Group elements and unitary sequences always have second moment one,
    so only star-table variables of a SpectralModel are rescaled: the
    value of a pattern of length n is multiplied by c^n.  Rescaling by
    a positive scalar keeps positivity, traciality and faithfulness, so
    the verified flag is carried over.  Factors already normalized are
    shared, not rebuilt.
    """
    new_factors: list[MomentFunctional] = []
    for k in range(1, scenario.K + 1):
        functional = scenario.factors[k - 1]
        scales: dict[int, RationalLike] = {}
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
        if not scales:
            new_factors.append(functional)
            continue
        sequences = dict(functional.sequences)
        for var, c in scales.items():
            seq = sequences[var]
            sequences[var] = MomentSequence(
                {key: value * c ** len(key) for key, value in seq.values.items()},
                complete_through=seq.complete_through,
            )
        rescaled = SpectralModel(sequences, assume_free=functional.assume_free)
        rescaled.faithfulness_verified = functional.faithfulness_verified
        new_factors.append(rescaled)
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
