"""Diagonal families in a finite tensor product and their joint moments.

A scenario binds each joint index i to one variable per factor; the
joint variable is the elementary tensor of its components.  The joint
functional is never materialized: the moment of a word factorizes as
the product over factors of the same word evaluated on the components,
and that product is all this module computes, sparsest factor first and
stopping at a zero one wherever no factor can fail
(TensorScenario.evaluable_through).  When every factor declares
itself a Hermitian trace of unitaries (MomentFunctional.unitary_trace),
the diagonal scans evaluate it on one word per bracelet, the class of a
word under rotation and adjoint reversal (freeness.switching_words).
What a scan may skip is read off the factors' declarations only
(spaces.MomentFunctional); this module combines them into one
freeness.ScanRules (TensorScenario.scan_rules) and names no model.
The checks read a factor only through this module: its moments through
factor_moment or factor_oracle, which name the factor when it fails,
and its axioms and freeness verdicts through the per-scenario caches.
"""

from __future__ import annotations

from functools import cache, cached_property
from math import lcm, prod
from typing import Callable, NamedTuple

from .errors import (
    FactorAxiomsNotCheckable,
    FactorNotEvaluable,
    InsufficientMomentDataError,
    LimitError,
    NotDirectlyEvaluable,
    ScenarioError,
)
from .freeness import JointOracle, ScanRules, Verdict, test_freeness
from .scalars import ONE, ZERO, ExactComplex
from .spaces import AxiomReport, MomentFunctional, check_axioms, variance
from .starwords import Letter, LetterTuple, StarWord


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
        Gram length; each (factor, length) pair is checked once.  A word
        the factor cannot evaluate raises FactorAxiomsNotCheckable, which
        names factor k; a LimitError passes as it is."""

        checked = cache(lambda k, gram_len: check_axioms(self.factors[k - 1], gram_len))

        def axioms(k: int, gram_len: int) -> AxiomReport:
            try:
                return checked(k, gram_len)
            except (NotDirectlyEvaluable, InsufficientMomentDataError) as exc:
                raise FactorAxiomsNotCheckable(k, str(exc)) from exc

        return axioms

    @cached_property
    def factor_verdict(self) -> Callable[..., Verdict | None]:
        """factor_verdict(k, max_len, read=None): bounded star-freeness of
        factor k's component family, walked by the rules of factor k's
        declared structure (diagonal_verdict), its moments read through
        factor_oracle(self, k, read); evaluation errors name factor k.  Each
        (factor, bound) pair is scanned once, with the first caller's read.

        A factor declared free (assume_free) synthesizes its mixed moments
        from freeness, so the test would be a tautology; None signals that.
        """
        verdicts: dict[tuple[int, int], Verdict | None] = {}

        def verdict(k: int, max_len: int, read: FactorRead | None = None):
            functional = self.factors[k - 1]
            if (k, max_len) not in verdicts and not functional.assume_free:
                # the family is indexed by the joint variables, so a repeated
                # factor component is tested against itself, not collapsed away
                family = TensorScenario(
                    (functional,), {i: (c[k - 1],) for i, c in self.assignments.items()}
                )
                oracle = factor_oracle(self, k, read)
                verdicts[k, max_len] = diagonal_verdict(family, max_len, oracle)
            return verdicts.get((k, max_len))

        return verdict

    def faithful(self, k: int) -> bool:
        """Whether factor k's Gram matrix at length 2 is positive
        definite, backing determinism claims; False when the check cannot
        be made."""
        try:
            return self.axioms(k, 2).positive_definite
        except (FactorAxiomsNotCheckable, LimitError):
            return False

    @cached_property
    def evaluable_through(self) -> int | None:
        """The length through which every factor evaluates every word
        without error: the least MomentFunctional.evaluable_through of
        each factor over the variables in use; None when that holds at
        every length, 0 when some factor can fail at any length.

        Within the cap no evaluation raises, so a skipped word (one that
        breaks a gauge constraint, or a factor after a zero one in
        tensor_moment) never hides an error; beyond it every factor is
        evaluated.
        """
        caps = (
            f.evaluable_through({c[k] for c in self.assignments.values()})
            for k, f in enumerate(self.factors)
        )
        return min((cap for cap in caps if cap is not None), default=None)

    def factor_gauge(self, k: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
        """Factor k's declared gauge (MomentFunctional.gauge) in the joint
        indices, as (modulus, ((joint index, weight), ...)) pairs, each
        sorted by joint index: joint index i takes the weight of its
        component c_k(i), so every word of nonzero factor-k moment keeps
        each constraint.

        Constraints where every joint index weighs zero are left out.
        Beyond evaluable_through a table's rotation invariance is
        unknown; scan_rules caps the constraints there.
        """
        constraints = []
        for m, weights in self.factors[k - 1].gauge:
            weight = dict(weights)
            terms = tuple(
                (i, weight[c[k - 1]])
                for i, c in sorted(self.assignments.items())
                if c[k - 1] in weight
            )
            if terms:
                constraints.append((m, terms))
        return constraints

    @cached_property
    def scan_rules(self) -> ScanRules:
        """The rules the diagonal scans walk by (freeness.ScanRules),
        combined from the factors' declarations alone
        (spaces.MomentFunctional); no axiom check is consulted.

        * unitary: the joint indices whose every component its factor
          declares unitary (unitary_variables).  The elementary tensor of
          unitaries is unitary under any unital functional, so no trace,
          Hermitian or freeness flag is needed.
        * gauge: every factor's factor_gauge, sorted by weights; a tensor
          word that breaks one has a factor moment zero, and so joint
          moment zero.  Constraints with the same joint weights merge by
          lcm.
        * trace: every factor declares itself a Hermitian trace in which
          every variable is unitary (unitary_trace); the tensor product
          of such factors is again one.
        * heights: every factor's height_rules, a variable read as the
          joint indices whose component it is; as for the gauge, a word
          that breaks one has joint moment zero, and rules on the same
          indices merge by lcm.
        * through: evaluable_through, the one cap of the gauge and the
          heights.  Beyond it a skipped word could have raised, so longer
          words are evaluated, and when a factor can fail at any length
          there is no gauge and there are no heights.
        """
        unitary = frozenset(
            i
            for i, components in self.assignments.items()
            if all(v in f.unitary_variables for f, v in zip(self.factors, components))
        )
        trace = all(f.unitary_trace for f in self.factors)
        cap = self.evaluable_through
        if cap == 0:
            return ScanRules(unitary, (), trace, (), cap)
        moduli: dict[tuple[tuple[int, int], ...], int] = {}
        rules: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for k, factor in enumerate(self.factors):
            for m, terms in self.factor_gauge(k + 1):
                moduli[terms] = lcm(moduli.get(terms, m), m)
            of = lambda v: tuple(i for i in self.indices if self.assignments[i][k] in v)
            for m, haar, terms in factor.height_rules:
                key = of(haar), of(terms)
                rules[key] = lcm(rules.get(key, m), m)
        gauge = tuple((m, terms) for terms, m in sorted(moduli.items()))
        heights = tuple((m, *key) for key, m in sorted(rules.items()))
        return ScanRules(unitary, gauge, trace, heights, cap)

    @cached_property
    def zero_first(self) -> tuple[int, ...]:
        """The factors in the order tensor_moment evaluates them: the
        sparsest by declared structure first, by its factor_gauge.  A
        factor zero exactly off its gauge (MomentFunctional.gauge_exact)
        comes last: scan_rules' gauge holds its constraints, so it is
        zero only on the shorter words an inclusion-exclusion asks for.
        Then more modulus-0 constraints (an exponent sum that must vanish)
        come first, then a larger product of the nonzero moduli, then the
        smaller k.  The order reads no moment and no timing."""

        def sparsity(k: int) -> tuple[bool, int, int, int]:
            moduli = [m for m, _ in self.factor_gauge(k)]
            exact = self.factors[k - 1].gauge_exact
            return (exact, -moduli.count(0), -prod(m for m in moduli if m), k)

        return tuple(sorted(range(1, self.K + 1), key=sparsity))


def factor_moment(scenario: TensorScenario, word: LetterTuple, k: int) -> ExactComplex:
    """Factor k's moment of a letter tuple in the joint indices, each one
    read as its factor-k component (the tuple as it is under an identity
    map); FactorNotEvaluable names factor k and the word so projected."""
    mapping = scenario.factor_maps[k - 1]
    if mapping is not None:
        word = tuple(Letter(mapping.get(l.index, l.index), l.star) for l in word)
    try:
        return scenario.factors[k - 1].moment_letters(word)
    except (NotDirectlyEvaluable, InsufficientMomentDataError) as exc:
        raise FactorNotEvaluable(k, StarWord(word).text(), str(exc)) from exc


FactorRead = Callable[[TensorScenario, LetterTuple, int], ExactComplex]


def read_once(scenario: TensorScenario) -> FactorRead:
    """factor_moment of scenario, each (word, factor) pair read once: a check's memo."""
    once = cache(lambda word, k: factor_moment(scenario, word, k))
    return lambda _, word, k: once(word, k)


def factor_oracle(
    scenario: TensorScenario, k: int, read: FactorRead | None = None
) -> JointOracle:
    """Factor k's moment as read (factor_moment by default), as a callable
    on letter tuples; it fails as factor_moment does, naming the factor."""
    read = read or factor_moment
    return lambda letters: read(scenario, letters, k)


def tensor_moment(
    scenario: TensorScenario, word: LetterTuple, read: FactorRead | None = None
) -> ExactComplex:
    """Joint moment of a word, any letter tuple, in the diagonal family:
    the product of the factor moments of the projected words, each as
    read (factor_moment by default).

    Within TensorScenario.evaluable_through no factor can raise, so the
    factors are evaluated in the order TensorScenario.zero_first and the
    product stops at the first zero.  A longer word has every factor
    evaluated first, in the order 1..K, so that an evaluability failure
    never depends on the order or on another factor's zero.
    """
    read = read or factor_moment
    cap = scenario.evaluable_through
    if cap is None or len(word) <= cap:
        values = (read(scenario, word, k) for k in scenario.zero_first)
    else:
        values = [read(scenario, word, k) for k in range(1, scenario.K + 1)]
    out = ONE
    for value in values:
        if value.is_zero():
            return ZERO
        out = out * value
    return out


def joint_oracle(scenario: TensorScenario) -> JointOracle:
    """The joint moment of a letter tuple, as a callable."""
    return lambda letters: tensor_moment(scenario, letters)


def diagonal_verdict(
    scenario: TensorScenario, max_len: int, oracle: JointOracle
) -> Verdict:
    """freeness.test_freeness of the joint indices under oracle, walked
    by the scenario's declared scan_rules.  oracle is joint_oracle or,
    for the one-factor scenario of factor k, factor_oracle, so that
    errors name factor k."""
    return test_freeness(oracle, scenario.indices, max_len, scenario.scan_rules)


def scalar_component_check(
    scenario: TensorScenario, read: FactorRead | None = None
) -> list[str]:
    """Hypothesis screening for the necessary-condition checks.

    Returns human-readable problems: a joint variable that is the zero
    vector (a component with vanishing second moment) or a constant
    multiple of the unit (every component deterministic).  Every factor
    moment is read through factor_oracle(scenario, k, read): errors name the factor.
    """
    problems: list[str] = []
    for i in scenario.indices:
        x, x_star = Letter(i, False), Letter(i, True)
        zero = False
        all_det = True
        for k in range(1, scenario.K + 1):
            moment = factor_oracle(scenario, k, read)
            if moment((x, x_star)).is_zero():
                zero = True
                break
            if variance(moment, (x,)) != 0:
                all_det = False
        if zero:
            problems.append(f"joint variable {i} has a zero component")
        elif all_det:
            problems.append(
                f"joint variable {i} is a constant multiple of the unit"
            )
    return problems
