"""Diagonal families in a finite tensor product and their joint moments.

A scenario binds each joint index i to one variable per factor; the
joint variable is the elementary tensor of its components.  The joint
functional is never materialized: the moment of a word factorizes as
the product over factors of the same word evaluated on the components,
and that product is all this module computes.  When every factor is a
trace of unitaries by construction (TensorScenario.unitary_trace), the
diagonal scans evaluate it on one word per bracelet, the class of a
word under rotation and adjoint reversal (freeness.switching_words).
"""

from __future__ import annotations

from functools import cache, cached_property
from math import lcm
from typing import Callable, NamedTuple

from .errors import (
    FactorNotEvaluable,
    InsufficientMomentDataError,
    LimitError,
    NotDirectlyEvaluable,
    ScenarioError,
)
from .freeness import (
    MIXED_MOMENT_LENGTH_CAP,
    Gauge,
    JointOracle,
    Verdict,
    test_freeness,
)
from .scalars import ONE, ExactComplex
from .spaces import (
    AxiomReport,
    GroupAlgebraModel,
    GroupBackedModel,
    MomentFunctional,
    SpectralModel,
    check_axioms,
    variance,
)
from .starwords import Letter, LetterTuple, StarWord, single_variable_word


class _TensorScenarioFields(NamedTuple):
    factors: tuple[MomentFunctional, ...]
    assignments: dict[int, tuple[int, ...]]
    factor_maps: tuple[dict[int, int] | None, ...]


class TensorScenario(_TensorScenarioFields):
    """K factor models and the per-factor components of each joint variable.

    assignments maps a joint index i to the K-tuple of factor variable
    identifiers making up the elementary tensor.  factor_maps holds, per
    factor, the map from joint index to component, or None where that
    map is the identity; it is derived from assignments.
    """

    def __new__(
        cls,
        factors: tuple[MomentFunctional, ...],
        assignments: dict[int, tuple[int, ...]],
    ) -> "TensorScenario":
        assignments = {int(i): tuple(c) for i, c in assignments.items()}
        k = len(factors)
        if k == 0:
            raise ScenarioError("a tensor scenario needs at least one factor")
        if not assignments:
            raise ScenarioError("empty joint index set")
        for i, components in assignments.items():
            if len(components) != k:
                raise ScenarioError(
                    f"joint variable {i} must list one component per factor"
                )
            for factor_index, var in enumerate(components):
                if var not in factors[factor_index].variables:
                    raise ScenarioError(
                        f"joint variable {i}: factor {factor_index + 1} has no "
                        f"variable x{var}"
                    )
        maps = ({i: c[f] for i, c in assignments.items()} for f in range(k))
        factor_maps = tuple(
            None if all(i == c for i, c in m.items()) else m for m in maps
        )
        return tuple.__new__(cls, (factors, assignments, factor_maps))

    @property
    def K(self) -> int:
        return len(self.factors)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.assignments))

    @cached_property
    def axioms(self) -> Callable[[int, int], AxiomReport]:
        """axioms(k, gram_len): spaces.check_axioms of factor k at that
        Gram length; each (factor, length) pair is checked once."""
        return cache(lambda k, gram_len: check_axioms(self.factors[k - 1], gram_len))

    def faithful(self, k: int) -> bool:
        """Whether factor k's Gram matrix at length 2 is positive
        definite, backing determinism claims; False when the check cannot
        be made."""
        try:
            return self.axioms(k, 2).positive_definite
        except (NotDirectlyEvaluable, InsufficientMomentDataError, LimitError):
            return False

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
        factors is again a Hermitian trace of unitaries, so the diagonal
        scans may walk one word per bracelet (freeness.test_freeness with
        trace).
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

    @property
    def unitary_indices(self) -> frozenset[int]:
        """The joint indices whose every component is, by its declared
        structure, a unitary: a variable of a GroupBackedModel (a group
        element, whatever the functional) or a SpectralModel variable
        whose MomentSequence is unitary.

        The elementary tensor of unitaries is unitary, so a letter of
        such an index next to its adjoint multiplies to the unit under
        any unital functional, and the scans walk the reduced words
        alone (freeness.scan_graph); no trace, Hermitian or freeness flag
        is needed, and no axiom check is consulted.
        """
        return frozenset(
            i
            for i, components in self.assignments.items()
            if all(
                isinstance(f, GroupBackedModel)
                or (isinstance(f, SpectralModel) and f.sequences[var].unitary)
                for f, var in zip(self.factors, components)
            )
        )

    @property
    def gauge_moduli(self) -> Gauge:
        """Linear constraints on a word's exponent sums read off the
        declared structure, as (modulus, ((joint index, weight), ...),
        length cap) triples for freeness.scan_graph, sorted by weights.

        Each is a constraint of one factor k, on its own variables, that
        every word of nonzero factor-k moment keeps; joint index i takes
        the weight of its component c_k(i), so a tensor word that breaks
        it has factor-k moment zero, and so joint moment zero.

        * An assume_free SpectralModel's law is the free product of its
          marginals, so rotating one variable v by a lambda that keeps
          v's marginal (MomentSequence.rotation_modulus m: lambda^m = 1)
          keeps the whole factor law: v weighs 1, mod m; modulus 1
          constrains nothing and is left out.
        * A GroupAlgebraModel (the canonical trace) gives its
          abelianization's constraints, GroupAlgebraModel.gauge.

        Constraints with the same joint weights merge by lcm, and those
        where every joint index weighs zero are left out.

        The cap is the length through which every factor evaluates every
        word without error: the least complete_through of the star tables
        in use, and MIXED_MOMENT_LENGTH_CAP when a factor synthesizes
        mixed words.  Beyond it a table's rotation invariance is unknown
        and a skipped word could have raised a depth limit, so longer
        words are evaluated.  A factor that can fail at any length (a
        table with no complete_through, or mixed words in a SpectralModel
        without assume_free) leaves no constraint at all, so a skip never
        hides an error.
        """
        caps: list[int] = []
        # (modulus, factor-variable weights, factor position)
        constraints: list[tuple[int, dict[int, int], int]] = []
        for k, functional in enumerate(self.factors):
            if isinstance(functional, GroupAlgebraModel):
                constraints.extend(
                    (m, dict(terms), k) for m, terms, _ in functional.gauge
                )
                continue
            if not isinstance(functional, SpectralModel):
                continue
            used = {c[k] for c in self.assignments.values()}
            if len(used) > 1:
                if not functional.assume_free:
                    return ()
                caps.append(MIXED_MOMENT_LENGTH_CAP)
            for var in used:
                seq = functional.sequences[var]
                if not seq.unitary:
                    if seq.complete_through is None:
                        return ()
                    caps.append(seq.complete_through)
                m = seq.rotation_modulus
                if functional.assume_free and m != 1:
                    constraints.append((m, {var: 1}, k))
        moduli: dict[tuple[tuple[int, int], ...], int] = {}
        for m, weight, k in constraints:
            terms = tuple(
                (i, weight[c[k]])
                for i, c in sorted(self.assignments.items())
                if c[k] in weight
            )
            if terms:
                moduli[terms] = lcm(moduli.get(terms, m), m)
        cap = min(caps, default=None)
        return tuple((m, terms, cap) for terms, m in sorted(moduli.items()))

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


def factor_oracle(scenario: TensorScenario, k: int) -> JointOracle:
    """Factor k's moment of a letter tuple in the joint indices, as a
    callable; it fails as factor_moment does, naming the factor."""
    return lambda letters: factor_moment(scenario, StarWord(tuple(letters)), k)


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
    """The joint moment of a letter tuple, as a callable."""

    def oracle(letters: LetterTuple) -> ExactComplex:
        return tensor_moment(scenario, StarWord(tuple(letters)))

    return oracle


def diagonal_verdict(
    scenario: TensorScenario, max_len: int, oracle: JointOracle
) -> Verdict:
    """freeness.test_freeness of the joint indices under oracle, walked
    by the scenario's declared unitary_indices, gauge_moduli and
    unitary_trace.  oracle is joint_oracle or, for the one-factor
    scenario of factor k, factor_oracle, so that errors name factor k."""
    return test_freeness(
        oracle,
        scenario.indices,
        max_len,
        scenario.unitary_indices,
        scenario.gauge_moduli,
        scenario.unitary_trace,
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
