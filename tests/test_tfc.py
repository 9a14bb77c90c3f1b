"""Tensor freeness conditions, dominating-factor search, and the
necessary-condition classifier on the bundled scenarios."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorfree import spaces, tensor
from tensorfree.errors import FactorNotFreeError, PreconditionError, TensorFreeError
from tensorfree.freeness import centered_product_value
from tensorfree.groups import (
    FreeProductPresentation,
    GroupPresentation,
    multiply,
    parse_group_word,
)
from tensorfree.ncpartitions import MomentSequence
from tensorfree.scalars import ONE, ZERO
from tensorfree.spaces import (
    GroupAlgebraModel,
    SpectralModel,
    TableFunctional,
    check_axioms,
)
from tensorfree.starwords import parse_word as word
from tensorfree.tensor import (
    TensorScenario,
    factor_moment,
    joint_oracle,
    tensor_moment,
)
from tensorfree.tfc import (
    check_necessary_conditions,
    check_tfc,
    find_dominating,
)

from strategies import CIRCULAR, breaks_by_hand, group_algebras

F2 = GroupPresentation((FreeProductPresentation((None, None)),))
INTEGERS = GroupPresentation((FreeProductPresentation((None,)),))
ORDER2 = GroupPresentation((FreeProductPresentation((2,)),))
HAAR = MomentSequence({}, unitary=True)
HALF = MomentSequence({1: Fraction(1, 2)}, unitary=True)


def integer_model():
    return GroupAlgebraModel(INTEGERS, {1: parse_group_word(INTEGERS, "g1.1^1")})


def order2_model():
    return GroupAlgebraModel(ORDER2, {1: parse_group_word(ORDER2, "g1.1^1")})


# -- factor family freeness ------------------------------------------------


def test_assume_free_spectral_factor_has_no_verdict(bundled):
    scen = bundled("biased_unitary").tensor
    assert scen.factor_verdict(1, 6) is None
    # the group factor gets a real verdict
    assert scen.factor_verdict(2, 6) is not None


def test_repeated_component_is_tested_against_itself():
    # both joint variables name the same Haar generator, so the factor
    # family has two equal members and cannot be free
    haar = GroupAlgebraModel(F2, {1: parse_group_word(F2, "g1.1^1")})
    scen = TensorScenario(
        factors=(haar,), assignments={1: (1,), 2: (1,)}
    )
    verdict = scen.factor_verdict(1, 4)
    assert not verdict.free
    assert verdict.witness == word("x1 x2*")
    assert verdict.lhs == ONE


# -- check_tfc on bundled scenarios ----------------------------------------


def test_haar_factor_dominates(bundled):
    scen = bundled("haar_dominated").tensor
    report = check_tfc(scen, 1, 6)
    assert report.satisfied
    assert report.dominating == 1
    assert report.violations == ()
    assert report.patterns_checked == 252
    assert report.freeness is not None and report.freeness.free


def test_non_free_factor_is_rejected_as_candidate(bundled):
    scen = bundled("haar_dominated").tensor
    with pytest.raises(FactorNotFreeError) as exc:
        check_tfc(scen, 2, 6)
    assert exc.value.factor == 2
    assert exc.value.verdict.witness == word("x1 x1 x2*")


def test_candidate_index_out_of_range(bundled):
    scen = bundled("haar_dominated").tensor
    with pytest.raises(PreconditionError, match="out of range"):
        check_tfc(scen, 3, 4)


def test_condition_one_violation_is_reported_with_values():
    # infinite order times order two: the joint square vanishes while
    # the order-two component of the candidate factor does not
    scen = TensorScenario(
        factors=(integer_model(), order2_model()),
        assignments={1: (1, 1)},
    )
    report = check_tfc(scen, 2, 4)
    assert not report.satisfied
    assert report.dominating is None
    assert len(report.violations) == 1
    v = report.violations[0]
    assert v.condition == 1
    assert v.pattern == (False, False)
    assert v.factor == 2
    assert v.word.text() == "x1 x1"
    # the reported values re-evaluate
    assert tensor_moment(scen, word(v.word.text())) == v.tensor_value == ZERO
    assert factor_moment(scen, word(v.word.text()), 2) == v.factor_value == ONE


def test_condition_two_violation_carries_the_variance(bundled):
    scen = TensorScenario(
        factors=(order2_model(), bundled("circular_dominated").tensor.factors[0]),
        assignments={1: (1, 1)},
    )
    report = check_tfc(scen, 1, 4)
    assert not report.satisfied
    conditions = [v.condition for v in report.violations]
    assert conditions == [1, 2]
    v2 = report.violations[1]
    assert v2.pattern == (False, True)
    assert v2.factor == 2
    assert v2.tensor_value == ONE
    assert v2.variance == Fraction(1)
    assert v2.word.text() == "x1 x1*"


def test_report_consistency_invariant(bundled):
    reports = [
        check_tfc(bundled("haar_dominated").tensor, 1, 4),
        check_tfc(bundled("circular_dominated").tensor, 1, 4),
        check_tfc(
            TensorScenario(
                factors=(integer_model(), order2_model()),
                assignments={1: (1, 1)},
            ),
            2,
            4,
        ),
    ]
    for report in reports:
        assert report.satisfied == (not report.violations)
        assert (report.dominating == report.k) == report.satisfied


# -- dominating-factor search ----------------------------------------------


def test_find_dominating_stops_at_the_first_hit(bundled):
    search = find_dominating(bundled("haar_dominated").tensor, 6)
    assert search.dominating == 1
    assert sorted(search.reports) == [1]
    assert search.not_free == {}


def test_find_dominating_records_non_free_factors(bundled):
    search = find_dominating(bundled("free_without_dominating").tensor, 6)
    assert search.dominating is None
    assert search.reports == {}
    assert {k: v.witness for k, v in search.not_free.items()} == {
        1: word("x1 x2"),
        2: word("x1 x1 x2*"),
    }


def test_find_dominating_accepts_the_circular_factor(bundled):
    search = find_dominating(bundled("circular_dominated").tensor, 4)
    assert search.dominating == 1


def counted_axiom_checks(monkeypatch):
    """The Gram length of every axiom check from here on, in call order."""
    calls = []

    def counting(functional, gram_len=3):
        calls.append(gram_len)
        return check_axioms(functional, gram_len)

    monkeypatch.setattr(tensor, "check_axioms", counting)
    return calls


def test_find_dominating_checks_each_factor_faithfulness_once(bundled, monkeypatch):
    calls = counted_axiom_checks(monkeypatch)
    search = find_dominating(bundled("biased_power_k3").tensor, 4)
    assert sorted(search.reports) == [1, 2, 3]
    assert all(r.notes == () for r in search.reports.values())
    assert calls == [2, 2, 2]
    # a factor no candidate asks about is not checked at all
    calls.clear()
    assert find_dominating(bundled("circular_dominated").tensor, 4).dominating == 1
    assert calls == [2]


@pytest.mark.parametrize("name", ["circular_dominated", "biased_unitary", "doubly_free"])
def test_the_length_2_gram_basis_leads_every_longer_one(bundled, name):
    # so a Gram matrix definite at a longer length is definite on it too
    for factor in bundled(name).tensor.factors:
        short = spaces.gram_basis(factor, 2)
        assert spaces.gram_basis(factor, 3)[: len(short)] == short


@pytest.mark.parametrize("name", ["circular_dominated", "biased_unitary"])
def test_theorem_1_8_checks_each_factor_axioms_once(bundled, monkeypatch, name):
    calls = counted_axiom_checks(monkeypatch)
    report = check_necessary_conditions(bundled(name).tensor, 4, 2)
    assert report.tfc is not None and report.tfc.notes == ()
    # one hypothesis check per factor; check_tfc's faithfulness check on
    # the other factor is the same check, read from the scenario's cache
    assert calls == [2, 2]


@pytest.mark.parametrize("name", ["circular_dominated", "biased_unitary"])
def test_theorem_1_8_at_gram_length_3_checks_the_other_factor_at_2(
    bundled, monkeypatch, name
):
    calls = counted_axiom_checks(monkeypatch)
    report = check_necessary_conditions(bundled(name).tensor, 4, 3)
    assert report.tfc is not None and report.tfc.notes == ()
    # the faithfulness check of the factor other than the TFC's candidate
    # is a Gram-length-2 check of its own
    assert calls == [3, 3, 2]


# factor_moment calls of check_necessary_conditions at max_len 4: every
# step of the check reads through one memo (tensor.read_once), so each
# count is the number of distinct (word, factor) pairs the check reads;
# before the memo the screen, the factor scans, the diagonal scan and the
# TFC re-read 19, 86, 29 and 6 of them, for 64, 226, 59 and 20 calls
NECESSARY_CONDITIONS_CALLS = {
    "circular_dominated": 45,
    "biased_unitary": 140,
    "doubly_free": 30,
    "haar_dominated": 14,
}


@pytest.mark.parametrize("name", sorted(NECESSARY_CONDITIONS_CALLS))
def test_theorem_1_8_reads_each_second_moment_once_in_its_screen(
    bundled, monkeypatch, name
):
    calls = []
    factor_moment = tensor.factor_moment

    def counted(*args):
        calls.append(args)
        return factor_moment(*args)

    monkeypatch.setattr(tensor, "factor_moment", counted)
    check_necessary_conditions(bundled(name).tensor, 4)
    assert len(calls) == NECESSARY_CONDITIONS_CALLS[name]
    pairs = {(tuple(word), k) for _, word, k in calls}
    assert len(pairs) == len(calls)


def test_find_dominating_reads_each_factor_moment_once(bundled, monkeypatch):
    # neither candidate of biased_power_k2 passes, so both are checked and
    # share one memo; with a memo each, the two made 920 calls
    calls = []
    factor_moment = tensor.factor_moment
    monkeypatch.setattr(
        tensor, "factor_moment", lambda *args: calls.append(args) or factor_moment(*args)
    )
    search = find_dominating(bundled("biased_power_k2").tensor, 6)
    assert sorted(search.reports) == [1, 2] and search.dominating is None
    assert len({(tuple(word), k) for _, word, k in calls}) == len(calls) == 453


# -- faithfulness ------------------------------------------------------------


def test_scenario_faithfulness():
    g = parse_group_word(F2, "g1.1^1")
    h = parse_group_word(F2, "g1.2^1")
    degenerate = TableFunctional(F2, {1: g, 2: h}, {multiply(F2, g, h): 1})
    short = SpectralModel({1: MomentSequence({(False,): 0}, complete_through=1)})
    scen = TensorScenario(
        factors=(integer_model(), degenerate, short), assignments={1: (1, 1, 1)}
    )
    assert scen.faithful(1)
    # a Gram matrix that is semidefinite only
    assert not scen.faithful(2)
    # a table too short for the length-2 Gram matrix cannot be checked
    assert not scen.faithful(3)


def test_unverified_faithfulness_is_noted():
    # the degenerate table is not positive definite, so zero variance in
    # factor 2 cannot be read as determinism; the report says so
    g = parse_group_word(F2, "g1.1^1")
    h = parse_group_word(F2, "g1.2^1")
    degenerate = TableFunctional(F2, {1: g, 2: h}, {multiply(F2, g, h): 1})
    scen = TensorScenario(
        factors=(integer_model(), degenerate), assignments={1: (1, 1)}
    )
    report = check_tfc(scen, 1, 2)
    assert report.notes == (
        "factor 2: faithfulness unverified, determinism is variance-zero only",
    )
    assert check_tfc(scen, 2, 2).notes == ()


# -- necessary-condition classifier ----------------------------------------


def test_classifier_one_nonunitary_factor(bundled):
    report = check_necessary_conditions(bundled("circular_dominated").tensor, max_len=4)
    assert report.classification == "one_nonunitary_factor"
    assert report.non_unitary == ((1, 1),)
    assert report.dominating == 1
    assert report.claim1_holds and report.claim2_holds
    assert report.claim3_holds is None
    assert report.d_verdict is not None and report.d_verdict.free


def test_classifier_power_hypothesis(bundled):
    report = check_necessary_conditions(bundled("biased_unitary").tensor, max_len=6)
    assert report.classification == "power_hypothesis"
    assert report.power_witness == (1, 1, 1)
    assert report.dominating == 1
    assert report.claim1_holds and report.claim3_holds
    assert report.tfc is not None and report.tfc.satisfied


def test_classifier_missing_case_group_like(bundled):
    report = check_necessary_conditions(bundled("doubly_free").tensor, max_len=6)
    assert report.classification == "missing_case"
    assert report.group_like is True
    assert report.claim1_holds
    assert report.claim2_holds is None and report.claim3_holds is None


@pytest.mark.parametrize("K", [2, 3])
def test_classifier_missing_case_not_group_like(K, bundled):
    report = check_necessary_conditions(bundled(f"biased_power_k{K}").tensor, max_len=4)
    assert report.classification == "missing_case"
    assert report.group_like is False
    assert report.claim1_holds


def test_classifier_rejects_non_free_factor_families(bundled):
    report = check_necessary_conditions(bundled("free_without_dominating").tensor, max_len=6)
    assert report.classification == "hypotheses_not_met"
    assert not report.hypotheses_met
    assert report.hypothesis_problems == (
        "factor 1 family is not star-free at length 6 (witness x1 x2)",
        "factor 1 is not a Hermitian trace on its span",
        "factor 2 family is not star-free at length 6 (witness x1 x1 x2*)",
    )

    report = check_necessary_conditions(bundled("haar_dominated").tensor, max_len=6)
    assert report.classification == "hypotheses_not_met"
    assert report.hypothesis_problems == (
        "factor 2 family is not star-free at length 6 (witness x1 x1 x2*)",
    )


def test_classifier_screens_scalar_components():
    unit_model = GroupAlgebraModel(INTEGERS, {1: parse_group_word(INTEGERS, "e")})
    scen = TensorScenario(
        factors=(unit_model,), assignments={1: (1,)}
    )
    report = check_necessary_conditions(scen, max_len=4)
    assert report.classification == "hypotheses_not_met"
    assert report.hypothesis_problems == (
        "joint variable 1 is a constant multiple of the unit",
    )


def test_classifier_screen_reports_a_zero_component():
    # x1 of factor 1 is a star table with no moments: its second moment is
    # zero, so the joint variable x1 is zero; the screen must answer first
    empty = MomentSequence({}, complete_through=4)
    scen = TensorScenario(
        factors=(
            SpectralModel({1: empty, 2: HAAR}, assume_free=True),
            GroupAlgebraModel(
                INTEGERS,
                {n: parse_group_word(INTEGERS, f"g1.1^{n}") for n in (1, 2)},
            ),
        ),
        assignments={1: (1, 1), 2: (2, 2)},
    )
    report = check_necessary_conditions(scen, max_len=4)
    assert report.classification == "hypotheses_not_met"
    assert report.hypothesis_problems == ("joint variable 1 has a zero component",)
    assert report.d_verdict is None and report.notes == ()


def diagonal_pair(first, second):
    """Two assume_free factors, each holding x1 = first and x2 = second,
    paired diagonally: joint 1 = (1, 1) and joint 2 = (2, 2)."""
    return TensorScenario(
        factors=tuple(
            SpectralModel({1: first, 2: second}, assume_free=True) for _ in range(2)
        ),
        assignments={1: (1, 1), 2: (2, 2)},
    )


def circular_pair(bundled):
    circular = bundled("circular_dominated").tensor.factors[0].sequences[1]
    return diagonal_pair(circular, HAAR)


def test_circular_pair_witness_at_length_12(bundled):
    # Theorem 1.8 (1) says the circular pair is not star-free; its first
    # witness has 12 letters.  With u Haar and free from the a's and b's,
    # phi(a1 u b1 u* a2 u b2 u*) = X + Y - Z, and every block below is
    # c c*, so in the tensor square the joint moment is (X + Y - Z)^2
    # against a free prediction that leaves 2 (X - Z)(Y - Z).
    scenario = circular_pair(bundled)
    table = scenario.factors[0].sequences[1]
    cc = table.moment((False, True))
    cccc = table.moment((False, True, False, True))
    x = cccc * cc * cc  # phi(a1 a2) phi(b1) phi(b2)
    y = cc * cc * cccc  # phi(a1) phi(a2) phi(b1 b2)
    z = cc * cc * cc * cc
    witness = word("x1 x1* x2 x1 x1* x2* x1 x1* x2 x1 x1* x2*")
    oracle = joint_oracle(scenario)
    assert oracle(witness) == (x + y - z) * (x + y - z) == 9
    value = centered_product_value(oracle, witness, {1: 1, 2: 2})
    assert value == 2 * (x - z) * (y - z) == 2
    # the gauge keeps it: both exponent sums vanish, and past the
    # circular table's depth of 8 no constraint applies at all
    gauge = scenario.scan_rules.gauge
    assert gauge == ((0, ((1, 1),)), (0, ((2, 1),)))
    assert scenario.scan_rules.through == 8 < len(witness)
    assert not breaks_by_hand(witness, gauge)


def test_classifier_two_nonunitary_factors(bundled):
    # a bounded scan cannot tell a fault from a witness beyond its bound:
    # the diagonal pair tests free at this length although both factors
    # hold the circular element
    report = check_necessary_conditions(circular_pair(bundled), max_len=2)
    assert report.classification == "claim1_violated"
    assert report.non_unitary == ((1, 1), (2, 1))
    assert report.d_verdict.free and report.tfc is None
    assert report.notes[-1] == "two factors with non-unitary components in a free family"


def test_classifier_not_free_at_bound():
    report = check_necessary_conditions(diagonal_pair(HALF, HALF), max_len=4)
    assert report.classification == "not_free_at_bound"
    assert report.d_verdict.witness == word("x1 x2 x1 x2")
    assert report.tfc is None and report.power_witness is None

    # one letter shorter the witness is out of reach, and the power x1
    # has a non-deterministic component in factor 1
    shorter = check_necessary_conditions(diagonal_pair(HALF, HALF), max_len=3)
    assert shorter.power_witness == (1, 1, 1)


# (scenario, max_len, classification, claims 1-3, dominating, hypotheses_met)
CLASSIFICATIONS = [
    (lambda b: b("haar_dominated").tensor, 4,
     "hypotheses_not_met", (None, None, None), None, False),
    (lambda b: diagonal_pair(HALF, HALF), 4,
     "not_free_at_bound", (None, None, None), None, True),
    (circular_pair, 2,
     "claim1_violated", (False, None, None), None, True),
    (lambda b: b("circular_dominated").tensor, 4,
     "one_nonunitary_factor", (True, True, None), 1, True),
    (lambda b: diagonal_pair(HALF, HALF), 3,
     "power_hypothesis", (True, None, False), None, True),
    (lambda b: b("doubly_free").tensor, 4,
     "missing_case", (True, None, None), None, True),
]


@pytest.mark.parametrize(
    "build, max_len, classification, claims, dominating, met",
    [pytest.param(*row, id=row[2]) for row in CLASSIFICATIONS],
)
def test_classification_determines_claims(
    bundled, build, max_len, classification, claims, dominating, met
):
    report = check_necessary_conditions(build(bundled), max_len=max_len)
    assert report.classification == classification
    assert (report.claim1_holds, report.claim2_holds, report.claim3_holds) == claims
    assert report.dominating == dominating
    assert report.hypotheses_met is met


# -- invariance under rescaling a component ------------------------------------


# Fourier coefficients phi(v^n), n > 0, of unitaries v whose laws have a
# nonnegative density on the circle, so that every factor below is positive
LAWS = (
    {},
    {1: Fraction(1, 2)},
    {2: Fraction(1, 2)},
    {1: Fraction(1, 4), 2: Fraction(1, 4)},
)


def unitary_table(law) -> MomentSequence:
    """The star table of a unitary with power moments law: a pattern's
    moment is that of its net exponent."""
    table = {}
    for n in range(1, 7):
        for stars in product((False, True), repeat=n):
            net = abs(n - 2 * sum(stars))
            table[stars] = law.get(net, 0) if net else 1
    return MomentSequence(table, complete_through=6)


@st.composite
def star_table_scenarios(draw) -> TensorScenario:
    """A spectral factor whose x1 is a star table, a unitary's or the
    circular element's, then at times a group algebra; per factor, the
    joint variables take the components (1, 2) or a shared (1, 1)."""
    laws = st.sampled_from(LAWS)
    first = draw(st.one_of(laws.map(unitary_table), st.just(CIRCULAR)))
    unitaries = laws.map(lambda law: MomentSequence(law, unitary=True))
    second = draw(st.one_of(unitaries, st.just(CIRCULAR)))
    groups = draw(st.lists(group_algebras(), max_size=1))
    pair = st.sampled_from([(1, 2), (1, 2), (1, 1)])
    pairs = [draw(pair) for _ in range(1 + len(groups))]
    # a factor not declared free has no mixed moments, so it may hold only
    # a shared component
    free = pairs[0] == (1, 2) or draw(st.booleans())
    factors = [SpectralModel({1: first, 2: second}, assume_free=free), *groups]
    return TensorScenario(
        tuple(factors), {i: tuple(pair[i - 1] for pair in pairs) for i in (1, 2)}
    )


def rescaled(scenario: TensorScenario, c: Fraction) -> TensorScenario:
    """Every star-table component a of the first factor becomes c a: a
    pattern of length n gets c^n."""
    first = scenario.factors[0]
    sequences = {
        v: seq
        if seq.unitary
        else MomentSequence(
            {key: value * c ** len(key) for key, value in seq.values.items()},
            complete_through=seq.complete_through,
        )
        for v, seq in first.sequences.items()
    }
    factors = (SpectralModel(sequences, assume_free=first.assume_free),)
    return TensorScenario(factors + scenario.factors[1:], scenario.assignments)


def classifier_outcome(scenario: TensorScenario, max_len: int):
    """What the classifier decides, with its witness and violation words,
    or the type of the error it raised."""
    try:
        report = check_necessary_conditions(scenario, max_len)
    except TensorFreeError as exc:
        return type(exc)
    return (
        report.classification,
        report.hypothesis_problems,
        report.notes,
        report.non_unitary,
        report.power_witness,
        report.group_like,
        (report.claim1_holds, report.claim2_holds, report.claim3_holds),
        None if report.d_verdict is None else report.d_verdict.witness,
        None
        if report.tfc is None
        else tuple((v.condition, v.factor, v.word) for v in report.tfc.violations),
    )


@settings(max_examples=40, deadline=None)
@given(
    star_table_scenarios(),
    st.sampled_from([Fraction(2), Fraction(3), Fraction(1, 2)]),
    st.integers(2, 4),
)
def test_classifier_is_invariant_under_rescaling(scenario, c, max_len):
    # every step tests values for zero or compares pivots and orders, and
    # c a scales each of them by a positive factor
    assert classifier_outcome(rescaled(scenario, c), max_len) == classifier_outcome(
        scenario, max_len
    )


def scaled_haar_pair(second_moment) -> TensorScenario:
    """x1 is s^(1/2) u for a Haar unitary u, where s = phi(x1 x1*), in
    the first factor and a Haar unitary in the second; x2 is Haar in
    both.  A pattern of length n with as many stars as not has moment
    s^(n/2) under the first factor, and every other pattern 0."""
    table = {
        stars: Fraction(second_moment) ** (n // 2) if sum(stars) * 2 == n else 0
        for n in range(1, 5)
        for stars in product((False, True), repeat=n)
    }
    scaled = MomentSequence(table, complete_through=4)
    first = SpectralModel({1: scaled, 2: HAAR}, assume_free=True)
    haar = SpectralModel({1: HAAR, 2: HAAR}, assume_free=True)
    return TensorScenario((first, haar), {1: (1, 1), 2: (2, 2)})


def test_classifier_takes_an_irrational_normalizer():
    report = check_necessary_conditions(scaled_haar_pair(2), max_len=4)
    assert report.classification == "missing_case"
    assert report.non_unitary == ()
    assert report.group_like is True


def test_classifier_reports_a_negative_second_moment():
    report = check_necessary_conditions(scaled_haar_pair(-1), max_len=4)
    assert report.classification == "hypotheses_not_met"
    assert report.hypothesis_problems == ("factor 1 is not positive on its span",)
