"""The two tensor freeness conditions, dominating-factor search, and the
necessary-condition checks for star-free diagonal families.

Condition (1): a single-variable word whose joint moment vanishes must
also vanish under the candidate factor.  Condition (2): a word whose
joint moment does not vanish must be deterministic in every other
factor.  Both are checked for every word up to a length bound and every
joint index; reports always carry that bound, never an unbounded claim.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from typing import NamedTuple

from .errors import FactorAxiomsNotCheckable, FactorNotFreeError, PreconditionError
from .freeness import Verdict
from .scalars import ExactComplex
from .spaces import variance
from .starwords import StarWord, iter_star_patterns, single_variable_word
from .tensor import (
    FactorRead,
    TensorScenario,
    diagonal_verdict,
    factor_oracle,
    read_once,
    scalar_component_check,
    tensor_moment,
)


class TfcViolation(NamedTuple):
    condition: int
    index: int
    pattern: tuple[bool, ...]
    factor: int
    tensor_value: ExactComplex
    factor_value: ExactComplex | None = None
    variance: ExactComplex | None = None

    @property
    def word(self) -> StarWord:
        return single_variable_word(self.pattern, self.index)


class TfcReport(NamedTuple):
    k: int
    bound: int
    violations: tuple[TfcViolation, ...]
    freeness: Verdict | None
    patterns_checked: int
    notes: tuple[str, ...]

    @property
    def satisfied(self) -> bool:
        return not self.violations

    @property
    def dominating(self) -> int | None:
        return self.k if self.satisfied else None


def check_tfc(
    scenario: TensorScenario, k: int, max_len: int = 8, read: FactorRead | None = None
) -> TfcReport:
    """Both tensor freeness conditions for candidate factor k, over all
    single-variable star-words up to max_len letters and all joint
    indices.  The first violation of each condition is reported.  Factor
    moments are read by read, a check's own read_once by default, so
    each (word, factor) pair is read once.

    Raises FactorNotFreeError when factor k's own family fails the
    bounded freeness test, which is a precondition of the definition.
    """
    if not 1 <= k <= scenario.K:
        raise PreconditionError(f"factor index {k} out of range 1..{scenario.K}")
    read = read or read_once(scenario)
    freeness_verdict = scenario.factor_verdict(k, max_len, read)
    if freeness_verdict is not None and not freeness_verdict.free:
        raise FactorNotFreeError(k, freeness_verdict)

    others = [l for l in range(1, scenario.K + 1) if l != k]
    notes = tuple(
        f"factor {l}: faithfulness unverified, determinism is variance-zero only"
        for l in others
        if not scenario.faithful(l)
    )

    first_1: TfcViolation | None = None
    first_2: TfcViolation | None = None
    checked = 0
    patterns = chain.from_iterable(
        iter_star_patterns(length) for length in range(1, max_len + 1)
    )
    for pattern in patterns:
        for i in scenario.indices:
            checked += 1
            word = single_variable_word(pattern, i)
            value = tensor_moment(scenario, word, read)
            if value.is_zero():
                if first_1 is None:
                    fk = read(scenario, word, k)
                    if not fk.is_zero():
                        first_1 = TfcViolation(1, i, pattern, k, value, factor_value=fk)
            elif first_2 is None:
                for l in others:
                    spread = variance(factor_oracle(scenario, l, read), word)
                    if spread != 0:
                        first_2 = TfcViolation(2, i, pattern, l, value, variance=spread)
                        break
        if first_1 is not None and first_2 is not None:
            break

    violations = tuple(v for v in (first_1, first_2) if v is not None)
    return TfcReport(k, max_len, violations, freeness_verdict, checked, notes)


class DominatingSearch(NamedTuple):
    reports: dict[int, TfcReport]
    not_free: dict[int, Verdict]

    @property
    def dominating(self) -> int | None:
        return next((k for k, r in self.reports.items() if r.satisfied), None)


def find_dominating(scenario: TensorScenario, max_len: int = 8) -> DominatingSearch:
    """Smallest factor index whose TFC check passes, searching k ascending.

    Factors whose own family fails the freeness precondition are recorded
    separately with their witnesses and skipped.  All checks share one read_once.
    """
    reports: dict[int, TfcReport] = {}
    not_free: dict[int, Verdict] = {}
    read = read_once(scenario)
    for k in range(1, scenario.K + 1):
        try:
            report = check_tfc(scenario, k, max_len, read)
        except FactorNotFreeError as exc:
            not_free[k] = exc.verdict
            continue
        reports[k] = report
        if report.satisfied:
            break
    return DominatingSearch(reports, not_free)


# -- necessary conditions for free diagonal families ----------------------


class NecessaryConditionsReport(NamedTuple):
    """Outcome of the instance checks behind the main necessary conditions.

    classification is one of: hypotheses_not_met, not_free_at_bound,
    one_nonunitary_factor, power_hypothesis, missing_case, or
    claim1_violated.  Every one of them holds at the max_len of the check
    only: claim1_violated says that the diagonal family tested free
    through max_len although two factors hold non-unitary components,
    which either a witness beyond it or a fault in this package explains.

    The claims and the dominating factor follow from the classification
    and the TFC report, so they are derived rather than stored.  Its
    values are those of the scenario as given, in its own scale.
    """

    classification: str
    hypothesis_problems: tuple[str, ...]
    notes: tuple[str, ...]
    non_unitary: tuple[tuple[int, int], ...] = ()
    d_verdict: Verdict | None = None
    tfc: TfcReport | None = None
    power_witness: tuple[int, int, int] | None = None
    group_like: bool | None = None

    @property
    def hypotheses_met(self) -> bool:
        return self.classification != "hypotheses_not_met"

    @property
    def dominating(self) -> int | None:
        return None if self.tfc is None else self.tfc.dominating

    @property
    def claim1_holds(self) -> bool | None:
        if self.classification in ("hypotheses_not_met", "not_free_at_bound"):
            return None
        return self.classification != "claim1_violated"

    @property
    def claim2_holds(self) -> bool | None:
        if self.classification != "one_nonunitary_factor":
            return None
        return self.tfc.satisfied

    @property
    def claim3_holds(self) -> bool | None:
        if self.classification != "power_hypothesis":
            return None
        return self.tfc.satisfied


def check_necessary_conditions(
    scenario: TensorScenario, max_len: int = 6, gram_len: int = 2
) -> NecessaryConditionsReport:
    """Instance checks of the necessary conditions for a star-free
    diagonal family whose factor families are free faithful traces.

    The scenario is first screened (no zero or scalar joint variable)
    and its factor hypotheses verified at the given bounds.  Then, if the
    diagonal family tests free up to max_len:

    - at most one factor may contain a non-unitary component;
    - with exactly one such factor, the TFC must hold through it;
    - with all components unitary, a nonvanishing joint power moment of
      a non-deterministic component forces the TFC through its factor.

    Every step runs on the scenario as given: no outcome changes when a
    component a becomes c a with c > 0, and values stay in its scale.

    Scenarios where no such power exists fall into the open case and are
    classified (group_like tells whether every vanishing joint power
    vanishes factorwise), not judged.  Each (word, factor) pair is read
    once (read_once), by every step of the check.
    """
    read = read_once(scenario)
    problems = scalar_component_check(scenario, read)
    if problems:
        return NecessaryConditionsReport("hypotheses_not_met", tuple(problems), ())

    factors = range(1, scenario.K + 1)
    notes: list[str] = []
    for k in factors:
        verdict = scenario.factor_verdict(k, max_len, read)
        if verdict is not None and not verdict.free:
            witness = verdict.witness.text() if verdict.witness else "?"
            problems.append(
                f"factor {k} family is not star-free at length {max_len} "
                f"(witness {witness})"
            )
        try:
            axioms = scenario.axioms(k, gram_len)
        except FactorAxiomsNotCheckable as exc:
            problems.append(str(exc))
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
            "hypotheses_not_met", tuple(problems), tuple(notes)
        )

    joint = lambda letters: tensor_moment(scenario, letters, read)
    factor = {k: factor_oracle(scenario, k, read) for k in factors}
    power = lambda i, m: single_variable_word((False,) * m, i)
    joint_power = cache(lambda i, m: joint(power(i, m)))  # each x_i^m once
    # a / sqrt(phi(a a*)) is unitary iff phi(a a* a a*) = phi(a a*)^2
    second = lambda k, i, n: factor[k](single_variable_word((False, True) * n, i))
    non_unitary = tuple(
        (k, i)
        for k in factors
        for i in scenario.indices
        if second(k, i, 2) != second(k, i, 1) * second(k, i, 1)
    )
    non_unitary_factors = sorted({k for k, _ in non_unitary})
    d_verdict = diagonal_verdict(scenario, max_len, joint)

    def report(classification: str, *extra_notes: str, **found):
        return NecessaryConditionsReport(
            classification,
            (),
            tuple(notes) + extra_notes,
            non_unitary,
            d_verdict,
            **found,
        )

    if not d_verdict.free:
        return report("not_free_at_bound")
    if len(non_unitary_factors) > 1:
        return report(
            "claim1_violated",
            "two factors with non-unitary components in a free family",
        )

    # a nonvanishing joint power with a non-deterministic component
    power_witness = None
    if not non_unitary_factors:
        power_witness = next(
            (
                (k, m, i)
                for m in range(1, max_len + 1)
                for i in scenario.indices
                if not joint_power(i, m).is_zero()
                for k in factors
                if variance(factor[k], power(i, m)) != 0
            ),
            None,
        )
    if non_unitary_factors or power_witness is not None:
        k0 = non_unitary_factors[0] if non_unitary_factors else power_witness[0]
        return report(
            "one_nonunitary_factor" if non_unitary_factors else "power_hypothesis",
            tfc=check_tfc(scenario, k0, max_len, read),
            power_witness=power_witness,
        )

    # group-like: every vanishing joint power vanishes in every factor
    group_like = all(
        factor[k](power(i, m)).is_zero()
        for i in scenario.indices
        for m in range(1, max_len + 1)
        if joint_power(i, m).is_zero()
        for k in factors
    )
    return report(
        "missing_case",
        "every nonvanishing joint power is deterministic at this bound; "
        "the necessary conditions assert nothing here",
        group_like=group_like,
    )
