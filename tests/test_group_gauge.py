"""The gauge skip for group algebras under the canonical trace.

G = prod_c (Z_{n_1} * ... * Z_{n_r}) maps onto its abelianization, the
direct sum of the Z_{n_j}, by exponent sums.  A word whose element has a
nonzero image there is not the identity, so its trace is zero, and so is
its centered alternating product.  These tests pin the constraints of
the bundled files and of small examples, hold the scans that skip such
words to their twins that evaluate every word, and check that every
skipped word is exactly zero."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorfree import cli
from tensorfree.errors import DepthLimitError
from tensorfree.freeness import ScanRules, centered_product_value, switching_words
from tensorfree.freeness import test_freeness as freeness_verdict
from tensorfree.groups import (
    FreeProductPresentation,
    GroupPresentation,
    abelian_image,
    parse_group_word,
)
from tensorfree.ncpartitions import MomentSequence
from tensorfree.scalars import ZERO
from tensorfree.spaces import GroupAlgebraModel, SpectralModel, TableFunctional
from tensorfree.starwords import iter_words, parse_word
from tensorfree.tensor import TensorScenario, joint_oracle

from strategies import (
    breaks_by_hand,
    group_algebras,
    spectral_factors,
    table_functionals,
)

CLASS_OF = {1: 1, 2: 2}


def group_model(orders, *texts) -> GroupAlgebraModel:
    presentation = GroupPresentation((FreeProductPresentation(orders),))
    return GroupAlgebraModel(
        presentation,
        {v: parse_group_word(presentation, text) for v, text in enumerate(texts, 1)},
    )


def test_abelian_image_is_the_exponent_sums():
    pres = GroupPresentation(
        (FreeProductPresentation((None, None)), FreeProductPresentation((3, 4)))
    )
    assert pres.abelian_orders == (0, 0, 3, 4)
    g = parse_group_word(pres, "g1.1^2 g1.2^-1 g1.1^-1 g2.1^1 g2.2^3 g2.1^1")
    assert abelian_image(pres, g) == (1, -1, 2, 3)
    # a commutator, and the cube of an order-3 generator, map to zero
    h = parse_group_word(pres, "g1.1^1 g1.2^1 g1.1^-1 g1.2^-1 g2.1^1 g2.2^1 g2.1^2")
    assert abelian_image(pres, h) == (0, 0, 0, 1)


@pytest.mark.parametrize(
    "name, gauge",
    [
        # free generators, one component or two merged: s1 = 0 and s2 = 0
        ("free_pair_collection", ((0, ((1, 1),)), (0, ((2, 1),)))),
        ("product_pair_collection", ((0, ((1, 1),)), (0, ((2, 1),)))),
        # Z2 * Z2 x Z3 * Z3: the mod-2 and mod-3 coordinates merge to mod 6
        ("mixed_order_collection", ((6, ((1, 1),)), (6, ((2, 1),)))),
        # x1 = g, x2 = g^2: s1 + 2 s2 = 0
        ("integer_pair_collection", ((0, ((1, 1), (2, 2))),)),
    ],
)
def test_bundled_group_gauges(bundled, name, gauge):
    assert bundled(name).collection.gauge == gauge


def scan(model, max_len, gauge):
    rules = ScanRules(gauge=gauge)
    return freeness_verdict(model.moment_letters, model.variables, max_len, rules)


@pytest.mark.parametrize(
    "model, gauge, witness",
    [
        # g and its inverse: a negative weight, and x1 x2 is the identity
        (
            group_model((None,), "g1.1^1", "g1.1^-1"),
            ((0, ((1, 1), (2, -1))),),
            "x1 x2",
        ),
        # weights 1 and 2: x1 x1 x2* is the identity
        (
            group_model((None,), "g1.1^1", "g1.1^2"),
            ((0, ((1, 1), (2, 2))),),
            "x1 x1 x2*",
        ),
        # x1's exponent sum in g1.1 is 3 = 0 mod 3: x1 weighs 0 there
        (
            group_model((3, 3), "g1.1^1 g1.2^1 g1.1^2", "g1.1^1"),
            ((3, ((1, 1),)), (3, ((2, 1),))),
            None,
        ),
        # two commutators: every coordinate is 0, so no constraint at all
        (
            group_model(
                (3, None), "g1.1^1 g1.2^1 g1.1^2 g1.2^-1", "g1.2^2 g1.1^1 g1.2^-2 g1.1^2"
            ),
            (),
            None,
        ),
    ],
)
def test_group_gauge_examples(model, gauge, witness):
    assert model.gauge == gauge
    verdict = scan(model, 4, model.gauge)
    assert verdict == scan(model, 4, ())
    assert verdict.witness == (witness and parse_word(witness))


def test_a_table_functional_gives_no_constraint():
    # a table of values is not the canonical trace: x1 x2 has value 1/10
    # although its element g1.1 g1.2 is not the identity
    pres = GroupPresentation((FreeProductPresentation((None, None)),))
    g, h, gh = (
        parse_group_word(pres, t) for t in ("g1.1^1", "g1.2^1", "g1.1^1 g1.2^1")
    )
    table = TableFunctional(pres, {1: g, 2: h}, {gh: Fraction(1, 10)})
    scenario = TensorScenario(factors=(table,), assignments={1: (1,), 2: (2,)})
    assert scenario.scan_rules.gauge == ()
    assert table.moment_letters(parse_word("x1 x2")) == Fraction(1, 10)


def test_group_constraints_take_the_table_depth_as_cap():
    # a Z_2-invariant star table declared through length 4 beside a free
    # group: the length-6 words with a run of five x1 letters all break
    # the group's s2 = 0, and they must still raise the depth limit
    half = Fraction(1, 2)
    table = MomentSequence(
        {(False, True): 1, (True, False): 1, (False, False): half, (True, True): half},
        complete_through=4,
    )
    haar = MomentSequence({}, unitary=True)
    scenario = TensorScenario(
        factors=(
            SpectralModel({1: table, 2: haar}, assume_free=True),
            group_model((None, None), "g1.1^1", "g1.2^1"),
        ),
        assignments={1: (1, 1), 2: (2, 2)},
    )
    assert scenario.scan_rules.gauge == ((0, ((1, 1),)), (0, ((2, 1),)))
    assert scenario.scan_rules.through == 4
    errors = []
    for rules in (ScanRules(), scenario.scan_rules):
        with pytest.raises(DepthLimitError) as caught:
            freeness_verdict(joint_oracle(scenario), (1, 2), 6, rules)
        errors.append(str(caught.value))
    assert errors[0] == errors[1]


# -- the skip against the full scan on generated group algebras ----------------


@settings(max_examples=40, deadline=None)
@given(group_algebras(), st.integers(2, 5))
@example(group_model((2, 3), "g1.1^1", "g1.2^1"), 5)
def test_group_gauge_matches_the_full_scan(model, max_len):
    assert scan(model, max_len, model.gauge) == scan(model, max_len, ())


def breaking_words(gauge, max_len, through=None):
    for length in range(2, max_len + 1):
        words = iter_words((1, 2), length)
        yield from (w for w in words if breaks_by_hand(w, gauge, through))


def assert_zero(oracle, word):
    assert oracle(word) == ZERO, word
    assert centered_product_value(oracle, word, CLASS_OF) == ZERO, word


@settings(max_examples=40, deadline=None)
@given(group_algebras(), st.integers(2, 4))
def test_every_word_the_group_gauge_breaks_is_zero(model, max_len):
    for word in breaking_words(model.gauge, max_len):
        assert_zero(model.moment_letters, word)


@st.composite
def group_tensor_scenarios(draw) -> TensorScenario:
    """A group algebra alone, or beside a spectral factor or a table
    functional in either order; per factor, joint variables 1 and 2 take
    the components (1, 2), (2, 1) or a shared (1, 1) or (2, 2)."""
    factors = [draw(group_algebras())]
    beside = st.one_of(spectral_factors(), table_functionals())
    factors += draw(st.lists(beside, max_size=1))
    factors = draw(st.permutations(factors))
    pairs = [draw(st.sampled_from([(1, 2), (2, 1), (1, 1), (2, 2)])) for _ in factors]
    return TensorScenario(
        factors=tuple(factors),
        assignments={i: tuple(pair[i - 1] for pair in pairs) for i in (1, 2)},
    )


def tensor_outcome(scenario, max_len, gauge):
    """The scan's verdict, or the type of the error it raised."""
    try:
        declared = scenario.scan_rules
        rules = ScanRules(declared.unitary, gauge, through=declared.through)
        return freeness_verdict(joint_oracle(scenario), (1, 2), max_len, rules)
    except Exception as exc:  # the twin must raise the same type
        return type(exc)


@settings(max_examples=40, deadline=None)
@given(group_tensor_scenarios(), st.integers(2, 4))
def test_group_factor_gauge_matches_the_full_scan(scenario, max_len):
    skipping = tensor_outcome(scenario, max_len, scenario.scan_rules.gauge)
    assert skipping == tensor_outcome(scenario, max_len, ())


@settings(max_examples=40, deadline=None)
@given(group_tensor_scenarios(), st.integers(2, 4))
def test_every_word_a_group_factor_breaks_is_zero(scenario, max_len):
    oracle = joint_oracle(scenario)
    rules = scenario.scan_rules
    for word in breaking_words(rules.gauge, max_len, rules.through):
        assert_zero(oracle, word)


# -- one word per bracelet under the canonical trace -----------------------------


@settings(max_examples=60, deadline=None)
@given(group_algebras())
def test_the_collection_view_declares_the_group_rules(model):
    # the canonical-trace scans read the rules of the collection viewed as
    # a one-factor tensor scenario: its gauge as the model declares it, a
    # Hermitian trace of unitaries and no per-height rule
    view = TensorScenario((model,), {v: (v,) for v in model.variables})
    unitary = frozenset(model.variables)
    assert view.scan_rules == ScanRules(unitary, model.gauge, True, ())
    assert cli._canonical_trace_verdict(model, 4) == bracelet_scan(model, 4)


@pytest.mark.parametrize(
    "name",
    [
        "free_pair_collection",
        "integer_pair_collection",
        "mixed_order_collection",
        "product_pair_collection",
    ],
)
def test_bundled_collection_views_declare_the_group_rules(bundled, name):
    model = bundled(name).collection
    view = TensorScenario((model,), {v: (v,) for v in model.variables})
    rules = ScanRules(frozenset(model.variables), model.gauge, True, ())
    assert view.scan_rules == rules


def bracelet_scan(model, max_len):
    rules = ScanRules(gauge=model.gauge, trace=True)
    return freeness_verdict(model.moment_letters, model.variables, max_len, rules)


@settings(max_examples=40, deadline=None)
@given(group_algebras(), st.integers(2, 6))
@example(group_model((2, 3), "g1.1^1", "g1.2^1"), 6)
def test_bracelet_group_scan_matches_the_plain_scan(model, max_len):
    # the canonical trace is a Hermitian trace: the whole verdict, witness,
    # lhs and words_checked included, is the plain walk's
    assert bracelet_scan(model, max_len) == scan(model, max_len, model.gauge)


@pytest.mark.parametrize(
    "model, witness",
    [
        # (g, g^2): g g g^-2 is the identity
        (group_model((None,), "g1.1^1", "g1.1^2"), "x1 x1 x2*"),
        # (g, g^-1): g g^-1 is the identity
        (group_model((None,), "g1.1^1", "g1.1^-1"), "x1 x2"),
        # finite orders: (g, g^2) in Z_4, where g g g^2 = g^4 is the identity
        (group_model((4,), "g1.1^1", "g1.1^2"), "x1 x1 x2"),
        # (ab, a) in Z_2 * Z_2: ab a ab a = e, a word of four blocks
        (group_model((2, 2), "g1.1^1 g1.2^1", "g1.1^1"), "x1 x2 x1 x2"),
        # the generators of Z_2 * Z_3 are free
        (group_model((2, 3), "g1.1^1", "g1.2^1"), None),
        # (e, g): the identity centers to zero, so it is free from anything
        (group_model((None,), "e", "g1.1^1"), None),
    ],
)
def test_bracelet_group_scan_examples(model, witness):
    for max_len in (4, 6):
        verdict = bracelet_scan(model, max_len)
        assert verdict == scan(model, max_len, model.gauge)
        assert verdict.witness == (witness and parse_word(witness))


def test_bracelet_counts_on_the_product_pair_graph(bundled):
    # one word per bracelet against every kept word, per length; the
    # canonical-trace scan takes no reduced-word rule, so l ... l* stays
    model = bundled("product_pair_collection").collection
    walk = lambda trace: Counter(
        len(w)
        for w in switching_words(model.variables, 10, ScanRules((), model.gauge, trace))
    )
    bracelets, kept = walk(True), walk(False)
    assert bracelets == {4: 5, 6: 42, 8: 355, 10: 3_390}
    assert kept == {4: 24, 6: 360, 8: 4_760, 10: 63_000}
