"""Group normal forms and the bounded freeness decision procedures."""

from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorfree import groups
from tensorfree.errors import PreconditionError, ScenarioError
from tensorfree.groups import (
    FreeProductPresentation,
    GroupElement,
    GroupFreenessVerdict,
    GroupPresentation,
    GroupWitness,
    element_order,
    group_dominating_report,
    identity,
    inverse,
    is_free_collection,
    multiply,
    parse_group_word,
    power,
    reduce,
    reduce_factor_word,
)

from strategies import group_elements, presentations

F2 = GroupPresentation((FreeProductPresentation((None, None)),))
INTEGERS = GroupPresentation((FreeProductPresentation((None,)),))
MIXED = GroupPresentation(
    (FreeProductPresentation((2, 2)), FreeProductPresentation((3, 3)))
)
Z4 = GroupPresentation((FreeProductPresentation((4,)),))
PRODUCT_PAIR = GroupPresentation(
    (FreeProductPresentation((None, None)), FreeProductPresentation((None, None)))
)


def test_presentation_rejects_small_orders():
    FreeProductPresentation((2, 3, None))  # fine
    with pytest.raises(ScenarioError, match=r"cyclic order must be >= 2 or inf, got 1"):
        FreeProductPresentation((1,))
    with pytest.raises(ScenarioError):
        FreeProductPresentation((0, 2))
    assert FreeProductPresentation((2, 3, None)).num_generators == 3
    assert MIXED.num_factors == 2


def test_presentations_and_elements_are_immutable_values():
    with pytest.raises(AttributeError):
        F2.factors[0].orders = (2,)
    a = parse_group_word(F2, "g1.1^1 g1.2^-1")
    with pytest.raises(AttributeError):
        a.components = ()
    twin = reduce(F2, [[(1, 1), (2, 1), (2, -2)]])
    assert twin == a and twin is not a
    assert hash(twin) == hash(a)
    assert {a: "found"}[twin] == "found"


def test_factor_word_reduction():
    free = FreeProductPresentation((None,))
    assert reduce_factor_word(free, [(1, 2), (1, -2)]) == ()
    assert reduce_factor_word(free, [(1, 1), (1, 1)]) == ((1, 2),)
    two = FreeProductPresentation((2,))
    assert reduce_factor_word(two, [(1, 1), (1, 1)]) == ()
    assert reduce_factor_word(two, [(1, -1)]) == ((1, 1),)
    three = FreeProductPresentation((3,))
    assert reduce_factor_word(three, [(1, -1)]) == ((1, 2),)
    assert reduce_factor_word(three, [(1, 5)]) == ((1, 2),)
    pair = FreeProductPresentation((None, None))
    assert reduce_factor_word(pair, [(1, 1), (2, 1), (2, -1), (1, -1)]) == ()


def test_parse_and_text():
    g = parse_group_word(F2, "g1.1^1 g1.2^-2")
    assert g.text() == "g1.1^1 g1.2^-2"
    assert parse_group_word(F2, "e").is_identity()
    assert parse_group_word(F2, "  ").is_identity()
    assert identity(F2).text() == "e"
    assert parse_group_word(F2, "g1.1").text() == "g1.1^1"  # exponent defaults to 1
    h = parse_group_word(MIXED, "g1.1^1 g2.1^2")
    assert h.components == (((1, 1),), ((1, 2),))
    assert h.text() == "g1.1^1 g2.1^2"


@pytest.mark.parametrize(
    "bad", ["h1.1", "g1.1^x", "g5.1^1", "g1.x^1", "gx.1", "g11"]
)
def test_parse_rejects_malformed_tokens(bad):
    with pytest.raises(ScenarioError):
        parse_group_word(F2, bad)


def test_parse_rejects_out_of_range_generator():
    # each component has its own generator count: MIXED's second has two
    for presentation, text in ((F2, "g1.3^1"), (MIXED, "g2.3^1"), (MIXED, "g2.0^1")):
        with pytest.raises(ScenarioError, match="out of range"):
            parse_group_word(presentation, text)


syllables = st.lists(
    st.tuples(st.integers(min_value=1, max_value=2), st.integers(min_value=-3, max_value=3)),
    max_size=5,
)
single_gen_syllables = st.lists(
    st.tuples(st.just(1), st.integers(min_value=-3, max_value=3)), max_size=5
)
mixed_elements = st.builds(
    lambda c1, c2: reduce(
        GroupPresentation((FreeProductPresentation((2, None)), FreeProductPresentation((3,)))),
        [c1, c2],
    ),
    syllables,
    single_gen_syllables,
)
LAW_PRES = GroupPresentation(
    (FreeProductPresentation((2, None)), FreeProductPresentation((3,)))
)


@given(mixed_elements, mixed_elements, mixed_elements)
def test_group_laws(a, b, c):
    e = identity(LAW_PRES)
    assert multiply(LAW_PRES, a, e) == a
    assert multiply(LAW_PRES, e, a) == a
    assert multiply(LAW_PRES, a, inverse(LAW_PRES, a)) == e
    lhs = multiply(LAW_PRES, multiply(LAW_PRES, a, b), c)
    rhs = multiply(LAW_PRES, a, multiply(LAW_PRES, b, c))
    assert lhs == rhs
    assert inverse(LAW_PRES, multiply(LAW_PRES, a, b)) == multiply(
        LAW_PRES, inverse(LAW_PRES, b), inverse(LAW_PRES, a)
    )


@given(mixed_elements, st.integers(min_value=-6, max_value=6))
def test_power_matches_repeated_multiplication(a, n):
    expected = identity(LAW_PRES)
    base = a if n >= 0 else inverse(LAW_PRES, a)
    for _ in range(abs(n)):
        expected = multiply(LAW_PRES, expected, base)
    assert power(LAW_PRES, a, n) == expected


def test_element_order():
    pres = GroupPresentation(
        (FreeProductPresentation((2,)), FreeProductPresentation((3,)))
    )
    d = parse_group_word(pres, "g1.1^1 g2.1^1")
    assert element_order(pres, d) == 6
    assert element_order(pres, identity(pres)) == 1
    assert element_order(F2, parse_group_word(F2, "g1.1^1")) is None
    # length-2 word in a free product of involutions has infinite order
    dihedral = GroupPresentation((FreeProductPresentation((2, 2)),))
    assert element_order(dihedral, parse_group_word(dihedral, "g1.1^1 g1.2^1")) is None
    six = GroupPresentation((FreeProductPresentation((6,)),))
    assert element_order(six, parse_group_word(six, "g1.1^2")) == 3
    # a conjugate of a generator keeps its order, however long it is
    z29 = GroupPresentation((FreeProductPresentation((29, 2)),))
    assert element_order(z29, parse_group_word(z29, "g1.2^1 g1.1^1 g1.2^1")) == 29
    conjugate = parse_group_word(F2, "g1.1^2 g1.2^-1 g1.1^-2")
    assert element_order(F2, conjugate) is None


def test_element_order_lcm_can_exceed_the_search_bound():
    big = GroupPresentation(
        (FreeProductPresentation((7,)), FreeProductPresentation((13,)))
    )
    d = parse_group_word(big, "g1.1^1 g2.1^1")
    assert element_order(big, d) == 91


@st.composite
def presented_elements(draw):
    """1-2 components of 1-3 generators of order 2, 3, 4 or infinite, and
    an element whose component words have up to 6 syllables."""
    components = draw(
        st.lists(
            st.lists(st.sampled_from((2, 3, 4, None)), min_size=1, max_size=3),
            min_size=1,
            max_size=2,
        )
    )
    pres = GroupPresentation(tuple(FreeProductPresentation(tuple(c)) for c in components))
    words = [
        draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=1, max_value=len(c)),
                    st.integers(min_value=-4, max_value=4).filter(bool),
                ),
                max_size=6,
            )
        )
        for c in components
    ]
    return pres, reduce(pres, words)


@settings(max_examples=300)
@given(presented_elements())
def test_element_order_matches_repeated_multiplication(case):
    # finite orders here divide lcm(4, 3) = 12, so 40 powers decide the order
    pres, g = case
    acc, brute = g, None
    for n in range(1, 41):
        if acc.is_identity():
            brute = n
            break
        acc = multiply(pres, acc, g)
    assert element_order(pres, g) == brute


# -- bounded freeness ----------------------------------------------------


def test_free_generator_pair_is_free():
    a = parse_group_word(F2, "g1.1^1")
    b = parse_group_word(F2, "g1.2^1")
    verdict = is_free_collection(F2, [a, b])
    assert verdict.free
    assert verdict.witness is None
    assert verdict.words_checked > 0
    assert verdict.max_blocks == 4 and verdict.max_exp == 3


def test_integer_pair_witness():
    e1 = parse_group_word(INTEGERS, "g1.1^1")
    e2 = parse_group_word(INTEGERS, "g1.1^2")
    verdict = is_free_collection(INTEGERS, [e1, e2])
    assert not verdict.free
    assert verdict.witness == GroupWitness(((1, 2), (2, -1)))
    assert verdict.witness.text() == "d1^2 d2^-1"
    assert verdict.words_checked == 14


def mixed_pair():
    d1 = parse_group_word(MIXED, "g1.1^1 g2.1^1")
    d2 = parse_group_word(MIXED, "g1.2^1 g2.2^1")
    return d1, d2


def test_mixed_order_pair_witness():
    d1, d2 = mixed_pair()
    verdict = is_free_collection(MIXED, [d1, d2])
    assert not verdict.free
    assert verdict.witness.blocks == ((1, 2), (2, 3), (1, -2), (2, 3))
    assert verdict.witness.text() == "d1^2 d2^3 d1^-2 d2^3"
    # honesty: the witness really multiplies out to the identity and no
    # block collapses on its own
    assert_reduces_to_identity(verdict.witness.blocks, {1: d1, 2: d2})


def assert_reduces_to_identity(blocks, elements):
    acc = identity(MIXED)
    for i, n in blocks:
        block = power(MIXED, elements[i], n)
        assert not block.is_identity()
        acc = multiply(MIXED, acc, block)
    assert acc.is_identity()


def test_commutator_witness_reduces_to_identity():
    # the commutator-style certificate d1^2 d2 d1^3 d2^-1 d1^-2 d2 d1^-3 d2^-1
    # built from the component orders 2 and 3
    d1, d2 = mixed_pair()
    commutator = ((1, 2), (2, 1), (1, 3), (2, -1), (1, -2), (2, 1), (1, -3), (2, -1))
    assert_reduces_to_identity(commutator, {1: d1, 2: d2})


def test_single_torsion_element_is_vacuously_free():
    two = GroupPresentation((FreeProductPresentation((2,)),))
    verdict = is_free_collection(two, [parse_group_word(two, "g1.1^1")])
    assert verdict.free
    assert verdict.words_checked == 0


# -- the search against its brute twin -------------------------------------------


def brute_free_collection(presentation, elements, max_blocks, max_exp):
    """is_free_collection's search with nothing skipped: every product of
    nontrivial powers with consecutive indices distinct, in the same order
    (block count, index sequence, exponents 1, -1, 2, -2, ...), multiplied
    out from scratch."""
    exps = [s * e for e in range(1, max_exp + 1) for s in (1, -1)]
    indices = range(1, len(elements) + 1)
    checked = 0
    for t in range(2, max_blocks + 1):
        for index_seq in product(indices, repeat=t):
            if any(i == j for i, j in zip(index_seq, index_seq[1:])):
                continue
            for exp_seq in product(exps, repeat=t):
                blocks = tuple(zip(index_seq, exp_seq))
                block_powers = [power(presentation, elements[i - 1], n) for i, n in blocks]
                if any(p.is_identity() for p in block_powers):
                    continue
                checked += 1
                acc = identity(presentation)
                for p in block_powers:
                    acc = multiply(presentation, acc, p)
                if acc.is_identity():
                    witness = GroupWitness(blocks)
                    return GroupFreenessVerdict(False, witness, max_blocks, max_exp, checked)
    return GroupFreenessVerdict(True, None, max_blocks, max_exp, checked)


Z4_FREE = GroupPresentation((FreeProductPresentation((4, None)),))
A = parse_group_word(Z4_FREE, "g1.1^1 g1.2^1 g1.1^1 g1.2^-1")


@st.composite
def collections(draw):
    """A presentation of 1-2 components with finite or infinite orders, and
    1-3 elements, each a random element or a power of one shared element,
    so that products can reduce to the identity."""
    presentation = draw(presentations())
    base = draw(group_elements(presentation))
    powers = st.integers(-3, 3).map(lambda e: power(presentation, base, e))
    element = st.one_of(group_elements(presentation), powers)
    return presentation, draw(st.lists(element, min_size=1, max_size=3))


@settings(max_examples=60, deadline=None)
@given(collections(), st.integers(2, 4), st.integers(1, 3))
# finite orders: the witness d1^2 d2^3 d1^-2 d2^3 sums to 6 in d2, which
# is 0 mod 6 but not 0, and in Z_4 the witness d1^2 d2 is g^4
@example((MIXED, list(mixed_pair())), 4, 3)
@example((Z4, [parse_group_word(Z4, "g1.1^1"), parse_group_word(Z4, "g1.1^2")]), 3, 3)
# in Z_4 * Z, a = g h g h^-1 maps to 2 mod 4, so a^3 a^3 and a^3 a^-3 both
# keep the gauge and only the second is the identity: the witness
# d1^3 d2^-1 is the second kept product of its head, after 24 products
@example((Z4_FREE, [A, power(Z4_FREE, A, 3)]), 2, 3)
def test_search_matches_its_brute_twin(case, max_blocks, max_exp):
    # witness and words_checked included: the gauge skip multiplies out
    # only the products with a zero abelian image, and counts them all
    presentation, elements = case
    got = is_free_collection(presentation, elements, max_blocks, max_exp)
    assert got == brute_free_collection(presentation, elements, max_blocks, max_exp)


def test_the_product_pair_search_builds_only_gauge_kept_products(bundled, monkeypatch):
    # the gauge asks each index's exponents to sum to zero, which only the
    # 72 four-block products d1^a d2^b d1^-a d2^-b and d2^a d1^b d2^-a d1^-b
    # do: 3 multiplies each, beside the 36 of the 12 powers, of the 3,096
    # products counted
    model = bundled("product_pair_collection").collection
    calls = []
    real = groups.multiply
    monkeypatch.setattr(groups, "multiply", lambda *args: calls.append(1) or real(*args))
    verdict = is_free_collection(model.presentation, list(model.elements.values()))
    assert verdict.free and verdict.words_checked == 3096
    assert len(calls) == 252


# -- projection kernels --------------------------------------------------


def projections(pres, g):
    return [
        (GroupPresentation((comp,)), GroupElement((word,)))
        for comp, word in zip(pres.factors, g.components)
    ]


def test_projection_kernel_witness_on_mixed_orders():
    # the first components die at power 2, the second at power 3
    d1, d2 = mixed_pair()
    for d in (d1, d2):
        assert element_order(MIXED, d) == 6
        assert [element_order(sub, c) for sub, c in projections(MIXED, d)] == [2, 3]
    assert power(MIXED, d1, 2).text() == "g2.1^2"


def test_projection_kernel_trivial_for_diagonal_pair():
    p1 = parse_group_word(PRODUCT_PAIR, "g1.1^1 g2.1^1")
    p2 = parse_group_word(PRODUCT_PAIR, "g1.2^1 g2.2^1")
    for p in (p1, p2):
        assert element_order(PRODUCT_PAIR, p) is None
        for sub, c in projections(PRODUCT_PAIR, p):
            assert element_order(sub, c) is None


def test_kernel_elements_are_deduplicated_kernel_members():
    d1, _ = mixed_pair()
    kernel = [power(MIXED, d1, n) for n in (2, 4)]
    assert [g.text() for g in kernel] == ["g2.1^2", "g2.1^1"]
    for g in kernel:
        assert not g.is_identity()
        assert not g.components[0]


# -- dominating component ---------------------------------------------------


def test_dominating_component_for_diagonal_pair():
    p1 = parse_group_word(PRODUCT_PAIR, "g1.1^1 g2.1^1")
    p2 = parse_group_word(PRODUCT_PAIR, "g1.2^1 g2.2^1")
    report = group_dominating_report(PRODUCT_PAIR, [p1, p2])
    assert report.collection_free
    assert report.dominating == 1
    assert report.component_reports == ((1, True, True), (2, True, True))
    assert report.searched and not report.suspect


def test_dominating_report_when_not_free():
    e1 = parse_group_word(INTEGERS, "g1.1^1")
    e2 = parse_group_word(INTEGERS, "g1.1^2")
    report = group_dominating_report(INTEGERS, [e1, e2])
    assert not report.collection_free
    assert report.freeness_witness == GroupWitness(((1, 2), (2, -1)))
    assert report.dominating is None
    assert report.component_reports == ()
    assert not report.searched


def test_dominating_report_flags_vacuous_freeness_as_suspect():
    # one element of order m*n in Zm x Zn passes the bounded freeness test
    # vacuously, but neither projection can dominate it; in Z5 x Z7 the
    # components die only past the exponent bound max_exp = 3
    for m, n in ((2, 3), (5, 7)):
        pres = GroupPresentation(
            (FreeProductPresentation((m,)), FreeProductPresentation((n,)))
        )
        d = parse_group_word(pres, "g1.1^1 g2.1^1")
        report = group_dominating_report(pres, [d])
        assert report.collection_free
        assert report.dominating is None
        assert report.component_reports == ((1, True, False), (2, True, False))
        assert report.suspect


def test_dominating_report_rejects_identity_members():
    with pytest.raises(PreconditionError):
        group_dominating_report(F2, [identity(F2)])
