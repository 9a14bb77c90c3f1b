"""The two tensor freeness conditions, dominating-factor search, and the
necessary-condition checks for star-free diagonal families.

Condition (1): a single-variable word whose joint moment vanishes must
also vanish under the candidate factor.  Condition (2): a word whose
joint moment does not vanish must be deterministic in every other
factor.  Both are checked for every word up to a length bound and every
joint index; reports always carry that bound, never an unbounded claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    FactorNotFreeError,
    InsufficientMomentDataError,
    LimitError,
    NotDirectlyEvaluable,
    PreconditionError,
)
from .freeness import Verdict, test_freeness
from .scalars import ExactComplex
from .spaces import MomentFunctional, SpectralModel, check_axioms, variance
from .starwords import StarWord, iter_star_patterns, single_variable_word
from .tensor import (
    TensorScenario,
    factor_moment,
    factor_word,
    joint_oracle,
    normalized_scenario,
    scalar_component_check,
    tensor_moment,
)


@dataclass(frozen=True)
class TfcViolation:
    condition: int
    index: int
    pattern: tuple[bool, ...]
    factor: int
    tensor_value: ExactComplex
    factor_value: ExactComplex | None = None
    variance: Fraction | None = None

    def word_text(self) -> str:
        return single_variable_word(self.pattern, self.index).text()


@dataclass(frozen=True)
class TfcReport:
    k: int
    bound: int
    satisfied: bool
    dominating: int | None
    violations: tuple[TfcViolation, ...]
    freeness: Verdict | None
    patterns_checked: int
    notes: tuple[str, ...] = ()


def factor_freeness_verdict(scenario: TensorScenario, k: int, max_len: int):
    """Bounded star-freeness of factor k's component family.

    Spectral models flagged free synthesize their mixed moments from
    freeness, so the test would be a tautology; None signals that case.
    """
    functional = scenario.factors[k - 1]
    if isinstance(functional, SpectralModel) and functional.assume_free:
        return None

    # the family is indexed by the joint variables, so a repeated factor
    # component must be tested against itself, not collapsed away
    def oracle(letters):
        word = factor_word(scenario, StarWord(letters), k)
        return functional.moment(word)

    return test_freeness(oracle, scenario.indices, max_len)


def ensure_faithfulness(functional: MomentFunctional) -> bool:
    """Best-effort positive-definiteness check, at Gram length 2, backing
    determinism claims."""
    if functional.faithfulness_verified:
        return True
    try:
        report = check_axioms(functional, gram_len=2)
    except (NotDirectlyEvaluable, InsufficientMomentDataError, LimitError):
        return False
    return report.positive_definite


def check_tfc(scenario: TensorScenario, k: int, max_len: int = 8) -> TfcReport:
    """Both tensor freeness conditions for candidate factor k, over all
    single-variable star-words up to max_len letters and all joint
    indices.  The first violation of each condition is reported.

    Raises FactorNotFreeError when factor k's own family fails the
    bounded freeness test, which is a precondition of the definition.
    """
    if not 1 <= k <= scenario.K:
        raise PreconditionError(f"factor index {k} out of range 1..{scenario.K}")
    freeness_verdict = factor_freeness_verdict(scenario, k, max_len)
    if freeness_verdict is not None and not freeness_verdict.free:
        raise FactorNotFreeError(k, freeness_verdict)

    notes: list[str] = []
    for l in range(1, scenario.K + 1):
        if l != k and not ensure_faithfulness(scenario.factors[l - 1]):
            notes.append(
                f"factor {l}: faithfulness unverified, determinism is "
                "variance-zero only"
            )

    first_1: TfcViolation | None = None
    first_2: TfcViolation | None = None
    checked = 0
    for length in range(1, max_len + 1):
        for pattern in iter_star_patterns(length):
            for i in scenario.indices:
                checked += 1
                word = single_variable_word(pattern, i)
                value = tensor_moment(scenario, word)
                if value.is_zero():
                    if first_1 is None:
                        fk = factor_moment(scenario, word, k)
                        if not fk.is_zero():
                            first_1 = TfcViolation(
                                condition=1,
                                index=i,
                                pattern=pattern,
                                factor=k,
                                tensor_value=value,
                                factor_value=fk,
                            )
                elif first_2 is None:
                    for l in range(1, scenario.K + 1):
                        if l == k:
                            continue
                        spread = variance(
                            scenario.factors[l - 1], factor_word(scenario, word, l)
                        )
                        if spread != 0:
                            first_2 = TfcViolation(
                                condition=2,
                                index=i,
                                pattern=pattern,
                                factor=l,
                                tensor_value=value,
                                variance=spread,
                            )
                            break
            if first_1 is not None and first_2 is not None:
                break
        if first_1 is not None and first_2 is not None:
            break

    violations = tuple(v for v in (first_1, first_2) if v is not None)
    satisfied = not violations
    return TfcReport(
        k=k,
        bound=max_len,
        satisfied=satisfied,
        dominating=k if satisfied else None,
        violations=violations,
        freeness=freeness_verdict,
        patterns_checked=checked,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class DominatingSearch:
    dominating: int | None
    reports: dict[int, TfcReport]
    not_free: dict[int, Verdict]
    bound: int


def find_dominating(scenario: TensorScenario, max_len: int = 8) -> DominatingSearch:
    """Smallest factor index whose TFC check passes, searching k ascending.

    Factors whose own family fails the freeness precondition are recorded
    separately with their witnesses and skipped.
    """
    reports: dict[int, TfcReport] = {}
    not_free: dict[int, Verdict] = {}
    for k in range(1, scenario.K + 1):
        try:
            report = check_tfc(scenario, k, max_len)
        except FactorNotFreeError as exc:
            not_free[k] = exc.verdict
            continue
        reports[k] = report
        if report.satisfied:
            return DominatingSearch(k, reports, not_free, max_len)
    return DominatingSearch(None, reports, not_free, max_len)


# -- necessary conditions for free diagonal families ----------------------


@dataclass(frozen=True)
class NecessaryConditionsReport:
    """Outcome of the instance checks behind the main necessary conditions.

    classification is one of: hypotheses_not_met, not_free_at_bound,
    one_nonunitary_factor, power_hypothesis, missing_case, or
    claim1_violated (which would indicate a bug in this package, not a
    mathematical phenomenon).
    """

    bound: int
    hypotheses_met: bool
    hypothesis_problems: tuple[str, ...]
    non_unitary: tuple[tuple[int, int], ...]
    d_verdict: Verdict | None
    classification: str
    dominating: int | None = None
    tfc: TfcReport | None = None
    power_witness: tuple[int, int, int] | None = None
    group_like: bool | None = None
    claim1_holds: bool | None = None
    claim2_holds: bool | None = None
    claim3_holds: bool | None = None
    notes: tuple[str, ...] = ()


def _power_moment(scenario: TensorScenario, i: int, m: int) -> ExactComplex:
    return tensor_moment(scenario, single_variable_word((False,) * m, i))


def _component_power_deterministic(
    scenario: TensorScenario, k: int, i: int, m: int
) -> bool:
    functional = scenario.factors[k - 1]
    word = single_variable_word((False,) * m, scenario.component(i, k))
    return variance(functional, word) == 0


def check_necessary_conditions(
    scenario: TensorScenario, max_len: int = 6, gram_len: int = 2
) -> NecessaryConditionsReport:
    """Instance checks of the necessary conditions for a star-free
    diagonal family whose factor families are free faithful traces.

    The scenario is first screened (no zero or scalar joint variable),
    normalized so every component has unit second moment, and its factor
    hypotheses verified at the given bounds.  Then, if the diagonal
    family tests free up to max_len:

    - at most one factor may contain a non-unitary component;
    - with exactly one such factor, the TFC must hold through it;
    - with all components unitary, a nonvanishing joint power moment of
      a non-deterministic component forces the TFC through its factor.

    Scenarios where no such power exists fall into the open case and are
    classified (group_like tells whether every vanishing joint power
    vanishes factorwise), not judged.
    """
    problems = list(scalar_component_check(scenario))
    normalized = normalized_scenario(scenario)
    notes: list[str] = []

    for k in range(1, normalized.K + 1):
        verdict = factor_freeness_verdict(normalized, k, max_len)
        if verdict is not None and not verdict.free:
            witness = verdict.witness.text() if verdict.witness else "?"
            problems.append(
                f"factor {k} family is not star-free at length {max_len} "
                f"(witness {witness})"
            )
        functional = normalized.factors[k - 1]
        try:
            axioms = check_axioms(functional, gram_len=gram_len)
        except (NotDirectlyEvaluable, InsufficientMomentDataError) as exc:
            problems.append(f"factor {k} axioms not checkable: {exc}")
            continue
        if not (axioms.unital and axioms.hermitian and axioms.tracial):
            problems.append(f"factor {k} is not a Hermitian trace on its span")
        if not axioms.positive_semidefinite:
            problems.append(f"factor {k} is not positive on its span")
        elif not axioms.positive_definite:
            notes.append(
                f"factor {k}: faithfulness unverified at gram length {gram_len}"
            )

    if problems:
        return NecessaryConditionsReport(
            bound=max_len,
            hypotheses_met=False,
            hypothesis_problems=tuple(problems),
            non_unitary=(),
            d_verdict=None,
            classification="hypotheses_not_met",
            notes=tuple(notes),
        )

    # unitary iff the fourth moment of a normalized component is one
    non_unitary: list[tuple[int, int]] = []
    for k in range(1, normalized.K + 1):
        functional = normalized.factors[k - 1]
        for i in normalized.indices:
            word = single_variable_word(
                (False, True, False, True), normalized.component(i, k)
            )
            if functional.moment(word) != 1:
                non_unitary.append((k, i))
    non_unitary_factors = tuple(sorted({k for k, _ in non_unitary}))

    d_verdict = test_freeness(
        joint_oracle(normalized),
        normalized.indices,
        max_len,
        normalized.unitary_indices,
    )
    if not d_verdict.free:
        return NecessaryConditionsReport(
            bound=max_len,
            hypotheses_met=True,
            hypothesis_problems=(),
            non_unitary=tuple(non_unitary),
            d_verdict=d_verdict,
            classification="not_free_at_bound",
            notes=tuple(notes),
        )

    claim1 = len(non_unitary_factors) <= 1
    if not claim1:
        return NecessaryConditionsReport(
            bound=max_len,
            hypotheses_met=True,
            hypothesis_problems=(),
            non_unitary=tuple(non_unitary),
            d_verdict=d_verdict,
            classification="claim1_violated",
            claim1_holds=False,
            notes=tuple(notes)
            + ("two factors with non-unitary components in a free family",),
        )

    if non_unitary_factors:
        k0 = non_unitary_factors[0]
        report = check_tfc(normalized, k0, max_len)
        return NecessaryConditionsReport(
            bound=max_len,
            hypotheses_met=True,
            hypothesis_problems=(),
            non_unitary=tuple(non_unitary),
            d_verdict=d_verdict,
            classification="one_nonunitary_factor",
            dominating=report.dominating,
            tfc=report,
            claim1_holds=True,
            claim2_holds=report.satisfied,
            notes=tuple(notes),
        )

    witness: tuple[int, int, int] | None = None
    for m in range(1, max_len + 1):
        for i in normalized.indices:
            if _power_moment(normalized, i, m).is_zero():
                continue
            for k in range(1, normalized.K + 1):
                if not _component_power_deterministic(normalized, k, i, m):
                    witness = (k, m, i)
                    break
            if witness:
                break
        if witness:
            break

    if witness is not None:
        k0 = witness[0]
        report = check_tfc(normalized, k0, max_len)
        return NecessaryConditionsReport(
            bound=max_len,
            hypotheses_met=True,
            hypothesis_problems=(),
            non_unitary=(),
            d_verdict=d_verdict,
            classification="power_hypothesis",
            dominating=report.dominating,
            tfc=report,
            power_witness=witness,
            claim1_holds=True,
            claim3_holds=report.satisfied,
            notes=tuple(notes),
        )

    group_like = True
    for i in normalized.indices:
        for m in range(1, max_len + 1):
            if not _power_moment(normalized, i, m).is_zero():
                continue
            for k in range(1, normalized.K + 1):
                var = normalized.component(i, k)
                value = normalized.factors[k - 1].moment(
                    single_variable_word((False,) * m, var)
                )
                if not value.is_zero():
                    group_like = False
                    break
            if not group_like:
                break
        if not group_like:
            break

    return NecessaryConditionsReport(
        bound=max_len,
        hypotheses_met=True,
        hypothesis_problems=(),
        non_unitary=(),
        d_verdict=d_verdict,
        classification="missing_case",
        group_like=group_like,
        claim1_holds=True,
        notes=tuple(notes)
        + (
            "every nonvanishing joint power is deterministic at this bound; "
            "the necessary conditions assert nothing here",
        ),
    )
