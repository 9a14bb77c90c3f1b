"""Biased-power family: scenario guards, the alternating power scan and
its walk of one word per bracelet against the plain walk, and the
cumulant support filter table with its block pair bound."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorfree import counterexample, starwords, tensor
from tensorfree.counterexample import (
    BLOCK_PAIR_CAP,
    PowerScanLine,
    analyze_biased_power,
    biased_power_scenario,
    filter_counts,
    filter_table,
    reduced_word_count,
    scan_alternating_powers,
)
from tensorfree.errors import DepthLimitError, PreconditionError, ScenarioError
from tensorfree.freeness import (
    MIXED_MOMENT_LENGTH_CAP,
    FreeFamilySpec,
    Verdict,
    ScanRules,
    mixed_moment_by_cumulants,
    switching_words,
)
from tensorfree.groups import (
    FreeProductPresentation,
    GroupPresentation,
    parse_group_word,
)
from tensorfree.ncpartitions import MomentSequence
from tensorfree.scalars import ONE, ExactComplex
from tensorfree.spaces import GroupAlgebraModel, SpectralModel, check_axioms
from tensorfree.starwords import (
    StarWord,
    class_blocks,
    iter_letters,
    iter_sequences,
    parse_word as word,
)
from tensorfree.tensor import TensorScenario, joint_oracle, tensor_moment

from strategies import breaks_height_rule_by_hand, haar_type_scenarios

INTEGERS = GroupPresentation((FreeProductPresentation((None,)),))

# (noncrossing, pure parity, odd singletons only, disjoint capacity)
FILTER_TABLE = {
    1: (2, 1, 0, 0),
    2: (14, 3, 1, 1),
    3: (132, 12, 1, 1),
    4: (1430, 55, 5, 2),
    5: (16796, 273, 11, 1),
    6: (208012, 1428, 41, 3),
    7: (2674440, 7752, 120, 2),
}


def test_scenario_guards():
    with pytest.raises(ScenarioError, match="at least two factors"):
        biased_power_scenario(1, Fraction(1, 10))
    with pytest.raises(ScenarioError, match="alpha must be nonzero"):
        biased_power_scenario(2, 0)
    # the biased law is a state exactly when |alpha| <= 1/2
    for alpha in (1, Fraction(-3, 5), ExactComplex(Fraction(3, 10), Fraction(1, 2))):
        with pytest.raises(ScenarioError, match="alpha .* modulus above 1/2"):
            biased_power_scenario(2, alpha)
    on_the_circle = ExactComplex(Fraction(3, 10), Fraction(2, 5))
    for alpha in (Fraction(1, 2), Fraction(-1, 2), on_the_circle):
        assert biased_power_scenario(2, alpha).K == 2


def test_scenario_shape():
    scen = biased_power_scenario(3, Fraction(1, 10))
    assert scen.K == 3
    assert scen.indices == (1, 2)
    assert scen.assignments == {1: (1, 1, 1), 2: (2, 2, 2)}


def test_scan_requires_haar_type_marginals():
    biased = SpectralModel(
        {
            1: MomentSequence({1: Fraction(1, 2)}, unitary=True),
            2: MomentSequence({}, unitary=True),
        },
        assume_free=True,
    )
    with pytest.raises(PreconditionError, match="x1 is not Haar-type: power 1"):
        scan_alternating_powers(biased.moment_letters, (1, 2), 4, ScanRules())


def integer_pair() -> GroupAlgebraModel:
    """x1 = 1 and x2 = 2 in the integers under the canonical trace."""
    return GroupAlgebraModel(
        INTEGERS,
        {
            1: parse_group_word(INTEGERS, "g1.1^1"),
            2: parse_group_word(INTEGERS, "g1.1^2"),
        },
    )


def free_unitaries(moments) -> SpectralModel:
    """A free family of unitaries with the given power moments per variable."""
    return SpectralModel(
        {v: MomentSequence(m, unitary=True) for v, m in moments.items()},
        assume_free=True,
    )


def test_scan_finds_the_integer_pair_violation():
    # Haar-type marginals, yet x1^2 x2^-1 reduces to the identity
    model = integer_pair()
    rules = ScanRules()
    verdict, scan = scan_alternating_powers(model.moment_letters, (1, 2), 3, rules)
    assert not verdict.free
    assert verdict.witness.text() == "x1 x1 x2*"
    assert verdict.lhs == ONE
    assert verdict.words_checked == 40
    assert [(l.block_pairs, l.words, l.violations) for l in scan] == [
        (1, 24, 4),
        (2, 16, 2),
    ]


def test_scan_is_clean_on_the_biased_power_pair():
    scen = biased_power_scenario(2, Fraction(1, 10))
    verdict, scan = scan_alternating_powers(joint_oracle(scen), (1, 2), 4, ScanRules())
    assert verdict.free
    assert verdict.witness is None
    assert [(l.block_pairs, l.words, l.violations) for l in scan] == [
        (1, 48, 0),
        (2, 96, 0),
    ]


def test_k2_length_10_witness(scanned_words):
    # the first K = 2 violation: four block pairs, the filter lower bound
    witness = word("x1 x1 x2 x1 x2* x1* x1* x2 x1 x2*")
    assert witness in scanned_words((1, 2), 10)
    scen = biased_power_scenario(2, Fraction(1, 10))
    assert joint_oracle(scen)(witness) == Fraction(1, 100000)
    per_factor = []
    for factor in scen.factors:
        spec = FreeFamilySpec(
            {v: (lambda stars, v=v: factor.marginal_moment(v, stars)) for v in (1, 2)}
        )
        per_factor.append(mixed_moment_by_cumulants(spec, witness))
    assert per_factor == [Fraction(1, 100), Fraction(1, 1000)]


# -- the bracelet scan ------------------------------------------------------------

# nonreal, non-Haar power moments: values are nonzero and nonreal, so
# the conjugation under adjoint reversal is exercised
NONREAL_MOMENTS = {
    1: {1: Fraction(1, 2), 2: Fraction(1, 3)},
    2: {1: ExactComplex(Fraction(1, 5), Fraction(1, 7)), 3: Fraction(1, 4)},
}
LETTERS = iter_letters((1, 2))


def one_factor(model) -> TensorScenario:
    """The model's variables 1 and 2 as the joint variables of a
    one-factor tensor scenario."""
    return TensorScenario(factors=(model,), assignments={1: (1,), 2: (2,)})


def plain_oracle(scenario: TensorScenario):
    """The joint moment of every word evaluated on its own."""
    return lambda letters: tensor_moment(scenario, StarWord(tuple(letters)))


def plain_power_scan(joint, max_len, gauge, through=None):
    """scan_alternating_powers on variables 1 and 2, word by word: joint
    is asked about every word switching_words keeps, and each tally line
    counts its words in closed form."""
    tallies = {}
    for total in range(2, max_len + 1):
        for runs in range(2, total + 1):
            line = tallies.setdefault((runs + 1) // 2, [0, 0])
            line[0] += reduced_word_count(2, total, runs)
    first = None
    rules = ScanRules((1, 2), gauge, through=through)
    for word in switching_words((1, 2), max_len, rules):
        value = joint(word)
        if not value.is_zero():
            runs = len(class_blocks(word, {1: 1, 2: 2}))
            tallies[(runs + 1) // 2][1] += 1
            if first is None:
                first = word, value
    lines = sorted(tallies.items())
    scan = tuple(PowerScanLine(pairs, words, bad) for pairs, (words, bad) in lines)
    checked = sum(line.words for line in scan)
    witness, value = first or (None, None)
    return Verdict(witness is None, witness, value, max_len, checked), scan


def adjoint(letters):
    return tuple(l.adjoint() for l in reversed(letters))


def tracial_class(letters) -> frozenset:
    """Every rotation of the word and of its adjoint reversal."""
    return frozenset(
        w[i:] + w[:i] for w in (letters, adjoint(letters)) for i in range(len(w))
    )


def assert_tracial_classes(make, max_len):
    """The identities the bracelet scans read off unitary_trace, word by
    word: a rotation by one letter keeps the plain tensor moment, the
    adjoint reversal conjugates it, and dropping a first/last pair
    l ... l* keeps it.  Returns how many of the values were nonreal."""
    scenario = one_factor(make())
    assert scenario.scan_rules.trace
    joint = plain_oracle(scenario)
    values = {}
    for n in range(1, max_len + 1):
        values.update((w, joint(w)) for w in iter_sequences(LETTERS, n))
    for letters, value in values.items():
        assert values[letters[1:] + letters[:1]] == value, letters
        assert values[adjoint(letters)] == value.conjugate(), letters
        if len(letters) > 2 and letters[-1] == letters[0].adjoint():
            assert values[letters[1:-1]] == value, letters
    return sum(not value.is_real() for value in values.values())


def test_tracial_classes_match_the_free_unitary_oracle():
    assert assert_tracial_classes(lambda: free_unitaries(NONREAL_MOMENTS), 6) > 0


def test_tracial_classes_match_the_integer_pair_oracle():
    assert_tracial_classes(integer_pair, 6)


RATIONALS = st.fractions(min_value=-1, max_value=1, max_denominator=6)
POWER_MOMENTS = st.dictionaries(
    st.integers(1, 3), st.builds(ExactComplex, RATIONALS, RATIONALS), max_size=2
)


@settings(max_examples=25, deadline=None)
@given(POWER_MOMENTS, POWER_MOMENTS)
def test_tracial_classes_match_on_random_power_moments(m1, m2):
    assert_tracial_classes(lambda: free_unitaries({1: m1, 2: m2}), 4)


def test_tracial_classes_evaluate_once_per_class():
    # past the Haar-type probes, the bracelet scan asks joint once for
    # each class of the kept, cyclically reduced words, at that class's
    # least word in text order
    model = integer_pair()
    asked = []

    def joint(letters):
        asked.append(letters)
        return model.moment_letters(letters)

    max_len = 7
    scan_alternating_powers(joint, (1, 2), max_len, ScanRules(gauge=model.gauge))
    walked = asked[2 * (max_len - 1) * 2 :]
    kept = [
        w
        for w in switching_words((1, 2), max_len, ScanRules((1, 2), model.gauge))
        if w[-1] != w[0].adjoint()
    ]
    classes = {tracial_class(w) for w in kept}
    assert len(walked) == len(classes) < len(kept) / 4
    assert {tracial_class(w) for w in walked} == classes
    text = lambda w: (len(w), StarWord(w).text())
    least = {min(c, key=text) for c in classes}
    assert walked == sorted(least, key=text)


@pytest.mark.parametrize(
    "make_scenario, max_len, free",
    [
        (lambda: biased_power_scenario(2, Fraction(1, 10)), 8, True),
        (lambda: one_factor(integer_pair()), 6, False),
    ],
    ids=["biased-power", "integer-pair"],
)
def test_class_scan_matches_the_plain_scan(make_scenario, max_len, free):
    scenario = make_scenario()
    assert scenario.scan_rules.trace
    want = plain_power_scan(plain_oracle(make_scenario()), max_len, ())
    for rules in (ScanRules(), scenario.scan_rules):
        got = scan_alternating_powers(joint_oracle(scenario), (1, 2), max_len, rules)
        assert got == want
    verdict, lines = want
    assert verdict.free is free
    assert verdict.words_checked == sum(line.words for line in lines)


def test_bracelet_counts_on_the_biased_power_k2_graph():
    # one word per bracelet against every kept word, per length
    rules = biased_power_scenario(2, Fraction(1, 10)).scan_rules
    walk = lambda trace: Counter(
        len(w)
        for w in switching_words(
            (1, 2), 12, ScanRules((1, 2), rules.gauge, trace, through=rules.through)
        )
    )
    bracelets, kept = walk(True), walk(False)
    assert bracelets == {4: 2, 6: 8, 8: 55, 10: 346, 12: 2_418}
    assert kept == {4: 20, 6: 144, 8: 1_204, 10: 9_632, 12: 79_924}
    assert 8 * bracelets[12] <= kept[12]


@pytest.mark.parametrize(
    "K, length, kept, bracelets", [(2, 10, 54, 346), (3, 12, 14, 804)]
)
def test_the_height_rule_keeps_few_bracelets(monkeypatch, K, length, kept, bracelets):
    # a bracelet is kept when every factor passes it to its free engine,
    # which is stubbed here; the others are zero by some factor's
    # per-height rule (SpectralModel.moment_letters)
    scenario = biased_power_scenario(K, Fraction(1, 10))
    asked = Counter()
    for factor in scenario.factors:
        monkeypatch.setattr(
            factor._family, "mixed_moment_letters", lambda w: asked.update([w]) or ONE
        )
    gauge, through = scenario.scan_rules.gauge, scenario.scan_rules.through
    walk = lambda *heights: [
        w
        for w in switching_words(
            (1, 2), length, ScanRules((1, 2), gauge, True, *heights, through=through)
        )
        if len(w) == length
    ]
    words = walk()
    for w in words:
        for factor in scenario.factors:
            factor.moment_letters(w)
    assert len(words) == bracelets
    assert sum(count == K for count in asked.values()) == kept
    # the walk that carries heights yields exactly the kept ones
    assert walk(scenario.scan_rules.heights) == [w for w in words if asked[w] == K]


@settings(max_examples=30, deadline=None)
@given(haar_type_scenarios(), st.integers(2, 10))
# the biased-power pairs: factor 2's rule, and for K = 3 factors 2 and 3
# merged by lcm (x1 sums 0 mod 6 at every height)
@example(biased_power_scenario(2, Fraction(1, 10)), 10)
@example(biased_power_scenario(3, Fraction(1, 10)), 12)
# two rules at once: the Haar x2 in factor 1 and the Haar x1 in factor 2
@example(
    TensorScenario(
        factors=(
            free_unitaries({1: {2: Fraction(1, 3)}, 2: {}}),
            free_unitaries({1: {}, 2: {3: Fraction(1, 4)}}),
        ),
        assignments={1: (1, 1), 2: (2, 2)},
    ),
    10,
)
def test_height_walk_is_the_bracelet_walk_filtered(scenario, max_len):
    # the walk that carries heights drops a prefix only when no completion
    # keeps every factor's rule, so it yields the bracelet walk's words
    # that keep them all, in the same order.  It fails on a bound that
    # needs r letters for a residue r mod m (not min(r, m - r)), on a
    # starred Haar letter that raises the height, and on rules whose
    # moduli overwrite each other instead of merging by lcm
    gauge, through = scenario.scan_rules.gauge, scenario.scan_rules.through
    walk = lambda *heights: list(
        switching_words(
            (1, 2), max_len, ScanRules((1, 2), gauge, True, *heights, through=through)
        )
    )
    kept = [w for w in walk() if not breaks_height_rule_by_hand(w, scenario, through)]
    assert walk(scenario.scan_rules.heights) == kept


@settings(max_examples=25, deadline=None)
@given(haar_type_scenarios(), st.integers(2, 7))
# the biased-power pair through its length-10 witness
@example(biased_power_scenario(2, Fraction(1, 10)), 10)
# x1 biased in factor 1 and x2 in factor 2: x1 x2 x1* x2* violates, and
# so do longer words l c l* around it
@example(
    TensorScenario(
        factors=(
            free_unitaries({1: {1: Fraction(1, 2)}, 2: {}}),
            free_unitaries({1: {}, 2: {1: Fraction(1, 3)}}),
        ),
        assignments={1: (1, 1), 2: (2, 2)},
    ),
    8,
)
def test_bracelet_power_scan_matches_the_plain_walk(scenario, max_len):
    # verdict, witness, lhs, words_checked and every tally line
    assert scenario.scan_rules.trace
    rules = scenario.scan_rules
    plain = plain_power_scan(plain_oracle(scenario), max_len, rules.gauge, rules.through)
    got = scan_alternating_powers(joint_oracle(scenario), (1, 2), max_len, rules)
    assert got == plain


def test_depth_cap_fails_before_the_scan(monkeypatch):
    # past the free engine's cap the scan would reach a length-17 word
    # only after every shorter one; the analysis refuses at once
    def unreachable(*args):
        raise AssertionError("scanned")

    monkeypatch.setattr(counterexample, "scan_alternating_powers", unreachable)
    with pytest.raises(DepthLimitError) as caught:
        analyze_biased_power(2, Fraction(1, 10), MIXED_MOMENT_LENGTH_CAP + 1)
    assert str(caught.value) == "mixed moment word of length 17 exceeds bound 16"
    # bad scenario input is still reported first
    with pytest.raises(ScenarioError, match="at least two factors"):
        analyze_biased_power(1, Fraction(1, 10), MIXED_MOMENT_LENGTH_CAP + 1)


@pytest.mark.parametrize("K", [2, 3])
def test_biased_power_factors_are_hermitian_traces(K):
    # the premise of the class quotient, checked at a bound only; the
    # scan holds it by construction and never reads this check
    for factor in biased_power_scenario(K, Fraction(1, 10)).factors:
        report = check_axioms(factor, gram_len=3)
        assert report.tracial
        assert report.hermitian


def test_filter_table_counts():
    for t, expected in FILTER_TABLE.items():
        fc = filter_counts(t)
        got = (
            fc.noncrossing,
            fc.pure_parity,
            fc.no_even_singletons,
            fc.disjoint_singleton_capacity,
        )
        assert got == expected, f"t={t}"


def test_filter_supports_are_frozen_for_small_t():
    assert filter_counts(1).singleton_supports == ()
    assert filter_counts(2).singleton_supports == ((1, 3),)
    assert filter_counts(3).singleton_supports == ((1, 3, 5),)
    assert filter_counts(4).singleton_supports == ((1, 3, 5, 7), (1, 5), (3, 7))


@pytest.mark.parametrize("t", range(1, 6))
def test_filter_supports_structure(t):
    fc = filter_counts(t)
    assert fc.disjoint_singleton_capacity <= t
    assert fc.no_even_singletons <= fc.pure_parity <= fc.noncrossing
    for support in fc.singleton_supports:
        assert support == tuple(sorted(support))
        assert all(p % 2 == 1 and 1 <= p <= 2 * t for p in support)


def test_singleton_capacity_sequence():
    capacities = [filter_counts(t).disjoint_singleton_capacity for t in range(1, 8)]
    assert capacities == [
        0,
        1,
        1,
        2,
        1,
        3,
        2,
    ]


def test_minimal_block_pairs():
    # the table stops at the minimal t, or at the cap when there is none
    for K, minimal in ((1, 2), (2, 4), (3, 6), (4, None)):
        filters, found = filter_table(K)
        assert found == minimal
        last = minimal or BLOCK_PAIR_CAP  # capacity stays below 4 through t=7
        assert filters == tuple(filter_counts(t) for t in range(1, last + 1))
    with pytest.raises(ValueError, match="K must be positive"):
        filter_table(0)


def test_analysis_report_for_three_factors():
    report = analyze_biased_power(3, Fraction(1, 10), max_len=4)
    assert report.verdict.free and report.verdict.bound == 4
    assert [(l.block_pairs, l.words, l.violations) for l in report.scan] == [
        (1, 48, 0),
        (2, 96, 0),
    ]
    # the filter table stops the moment the capacity reaches K
    assert [f.disjoint_singleton_capacity for f in report.filters] == [
        0,
        1,
        1,
        2,
        1,
        3,
    ]
    assert report.minimal_block_pairs == 6
    assert report.filters[-1].block_pairs == 6


# (K, max_len): the factor_moment calls, which the walk and the oracle's
# order (TensorScenario.zero_first) and its stop at a zero factor set;
# the prefixes the walk asks its height step about and those it keeps;
# then the verdict's witness, lhs and words_checked and the (block pairs,
# words, violations) tallies, which no walk or evaluation order may
# change.  Without heights in the walk the calls were 481, 1,005 and 6,831.
ANALYSIS_WORK = {
    (2, 10): (
        137,
        (2295, 1593),
        "x1 x1 x2 x1 x2* x1* x1* x2 x1 x2*",
        Fraction(1, 100000),
        118056,
        [(1, 360, 0), (2, 8640, 0), (3, 43008, 0), (4, 53760, 64), (5, 12288, 16)],
    ),
    (3, 12): (
        67,
        (2949, 1618),
        None,
        None,
        1062832,
        [
            (1, 528, 0),
            (2, 19360, 0),
            (3, 168960, 0),
            (4, 456192, 0),
            (5, 360448, 0),
            (6, 57344, 0),
        ],
    ),
    (3, 14): (
        125,
        (12066, 6391),
        None,
        None,
        9565880,
        [
            (1, 728, 0),
            (2, 37856, 0),
            (3, 512512, 0),
            (4, 2416128, 0),
            (5, 4100096, 0),
            (6, 2236416, 0),
            (7, 262144, 0),
        ],
    ),
}


@pytest.mark.parametrize("K, max_len", sorted(ANALYSIS_WORK))
def test_analysis_work_is_pinned(monkeypatch, K, max_len):
    # the factor moments asked for, and the walk's work: the prefixes the
    # walk asks its height step about and those the step keeps
    calls = Counter()
    factor_moment = tensor.factor_moment
    iter_sequences = starwords.iter_sequences

    def counted(*args):
        calls["factor_moment"] += 1
        return factor_moment(*args)

    def counted_walk(alphabet, length, graph=None, step=None, necklaces=False):
        def counted(*args):
            state = step(*args)
            calls["asked"] += 1
            calls["kept"] += state is not None
            return state

        return iter_sequences(alphabet, length, graph, step and counted, necklaces)

    monkeypatch.setattr(tensor, "factor_moment", counted)
    monkeypatch.setattr(starwords, "iter_sequences", counted_walk)
    report = analyze_biased_power(K, Fraction(1, 10), max_len)
    witness = report.verdict.witness
    got = (
        calls["factor_moment"],
        (calls["asked"], calls["kept"]),
        witness and witness.text(),
        report.verdict.lhs,
        report.verdict.words_checked,
        [(l.block_pairs, l.words, l.violations) for l in report.scan],
    )
    assert got == ANALYSIS_WORK[K, max_len]
    assert report.verdict.free == (witness is None)


def test_analysis_propagates_scenario_guards():
    with pytest.raises(ScenarioError, match="at least two factors"):
        analyze_biased_power(1, Fraction(1, 10))
