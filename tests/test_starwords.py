"""Word algebra: parsing, adjoints, unitary reduction, block splitting,
and the lazy word walker with its necklace mode."""

import tracemalloc
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tensorfree.starwords import (
    EmptyWordError,
    Letter,
    StarWord,
    WordSyntaxError,
    adjoint_letters,
    class_blocks,
    iter_letters,
    iter_sequences,
    iter_star_patterns,
    iter_words,
    merge_powers,
    parse_word,
    power_word_to_star_word,
    single_variable_word,
)

letters = st.builds(Letter, st.integers(min_value=1, max_value=4), st.booleans())
words = st.builds(StarWord, st.lists(letters, min_size=1, max_size=10).map(tuple))
power_factors = st.lists(
    st.tuples(st.integers(min_value=1, max_value=3), st.integers(min_value=-3, max_value=3)),
    max_size=6,
)


def test_parse_canonical_text():
    w = parse_word("x1 x2* x1")
    assert w == (Letter(1, False), Letter(2, True), Letter(1, False))
    assert w.text() == "x1 x2* x1"
    assert str(w) == "x1 x2* x1"
    assert len(w) == 3
    assert parse_word("  x3*  ") == parse_word("x3*")


def test_star_words_are_immutable_values():
    w = parse_word("x1 x2*")
    with pytest.raises(AttributeError):
        w.letters = ()
    with pytest.raises(AttributeError):
        del w.letters
    twin = parse_word("x1  x2*")
    assert twin == w and twin is not w
    assert hash(twin) == hash(w)
    assert {w: "found"}[twin] == "found"
    assert w == tuple(w)


def test_parse_rejects_empty():
    with pytest.raises(EmptyWordError):
        parse_word("")
    with pytest.raises(EmptyWordError):
        parse_word("   ")
    with pytest.raises(EmptyWordError):
        StarWord(())


@pytest.mark.parametrize(
    "text,offset",
    [
        ("x1 y2", 3),
        (" y1", 1),
        ("x1 x*", 3),
        ("x-1", 0),
        ("x1 x2.5", 3),
        # only ASCII digits name an index
        ("x1 x\u00b9", 3),
        ("x\u0661", 0),
        ("x+1", 0),
    ],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(WordSyntaxError) as exc:
        parse_word(text)
    assert exc.value.offset == offset


@given(words)
def test_text_round_trip(w):
    assert parse_word(w.text()) == w


def test_adjoint_example():
    assert adjoint_letters(parse_word("x1 x2*")) == parse_word("x2 x1*")


@given(words, words)
def test_adjoint_is_an_involution_and_antihomomorphism(v, w):
    assert adjoint_letters(adjoint_letters(w)) == w
    assert adjoint_letters(v + w) == adjoint_letters(w) + adjoint_letters(v)
    assert len(adjoint_letters(w)) == len(w)


def test_single_variable_word():
    assert single_variable_word((False, True)) == parse_word("x1 x1*")
    assert single_variable_word([True], index=4) == parse_word("x4*")


def unitary_syllables(w):
    """A word of unitaries as syllables: x* is x^-1."""
    return [(l.index, -1 if l.star else 1) for l in w]


def test_reduce_unitary_examples():
    assert merge_powers(unitary_syllables(parse_word("x1 x1* x2"))) == ((2, 1),)
    assert merge_powers(unitary_syllables(parse_word("x1 x1 x2* x2* x2*"))) == (
        (1, 2),
        (2, -3),
    )
    assert merge_powers(unitary_syllables(parse_word("x1 x2 x2* x1*"))) == ()
    # a period folds exponents to their nonnegative residue
    assert merge_powers(unitary_syllables(parse_word("x1* x1* x2")), {1: 3}) == (
        (1, 1),
        (2, 1),
    )
    assert merge_powers(unitary_syllables(parse_word("x1 x1 x1 x2")), {1: 3}) == ((2, 1),)


@given(words)
def test_reduce_unitary_cancels_adjoint(w):
    doubled = StarWord(w + adjoint_letters(w))
    assert merge_powers(unitary_syllables(doubled)) == ()


def test_reduce_power_word_examples():
    assert merge_powers([(1, 2), (1, -2), (2, 1)]) == ((2, 1),)
    assert merge_powers([(1, 0), (2, 3)]) == ((2, 3),)
    assert merge_powers([(1, 1), (1, 1)]) == ((1, 2),)
    # a vanishing middle syllable lets its neighbours merge
    assert merge_powers([(1, 1), (2, 2), (2, -2), (1, 1)]) == ((1, 2),)
    assert merge_powers([(1, 1), (2, 2), (1, 1)], {2: 2}) == ((1, 2),)


def brute_force_reduction(syllables, orders):
    """Expand into letters x_key^(+-1), cancel letter by letter, then fold.

    Cancels an adjacent letter and its inverse, or a run of order[key]
    equal letters, until neither applies; finite-order exponents are then
    reported as nonnegative residues.
    """
    letters = []
    for key, exp in syllables:
        letters.extend([(key, 1 if exp > 0 else -1)] * abs(exp))
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            (k1, s1), (k2, s2) = letters[i], letters[i + 1]
            if k1 == k2 and s1 == -s2:
                del letters[i : i + 2]
                changed = True
                break
        if changed:
            continue
        for i, (key, sign) in enumerate(letters):
            order = orders.get(key)
            if order is not None and letters[i : i + order] == [(key, sign)] * order:
                del letters[i : i + order]
                changed = True
                break
    runs = []
    for key, sign in letters:
        if runs and runs[-1][0] == key:
            runs[-1][1] += sign
        else:
            runs.append([key, sign])
    return tuple(
        (key, exp if orders.get(key) is None else exp % orders[key])
        for key, exp in runs
    )


keyed_orders = st.dictionaries(
    st.integers(min_value=1, max_value=3), st.integers(min_value=2, max_value=4)
)
keyed_syllables = st.lists(
    st.tuples(st.integers(min_value=1, max_value=3), st.integers(min_value=-5, max_value=5)),
    max_size=8,
)


@given(keyed_syllables, keyed_orders)
def test_merge_powers_matches_letter_cancellation(syllables, orders):
    assert merge_powers(syllables, orders) == brute_force_reduction(syllables, orders)


def test_power_word_to_star_word():
    assert power_word_to_star_word(((1, 2), (2, -1))) == parse_word("x1 x1 x2*")


@given(power_factors)
def test_power_and_star_forms_agree(factors):
    reduced = merge_powers(factors)
    if reduced:
        star_word = power_word_to_star_word(reduced)
        assert merge_powers(unitary_syllables(star_word)) == reduced


def variable_classes(w):
    return {l.index: l.index for l in w}


def test_alternating_blocks_example():
    w = parse_word("x1 x1* x2 x1")
    assert class_blocks(w, variable_classes(w)) == [
        parse_word("x1 x1*"),
        parse_word("x2"),
        parse_word("x1"),
    ]


@given(words)
def test_alternating_blocks_partition_the_word(w):
    blocks = class_blocks(w, variable_classes(w))
    assert tuple(l for piece in blocks for l in piece) == w
    for piece, after in zip(blocks, blocks[1:]):
        assert piece[-1].index != after[0].index
    for piece in blocks:
        assert len({l.index for l in piece}) == 1


def test_class_blocks_group_by_class():
    w = parse_word("x1 x2 x3 x1*")
    class_of = {1: 1, 2: 1, 3: 2}
    blocks = class_blocks(w, class_of)
    assert blocks == [
        (Letter(1, False), Letter(2, False)),
        (Letter(3, False),),
        (Letter(1, True),),
    ]


def test_iter_letters_ordering():
    assert iter_letters([2, 1]) == [
        Letter(1, False),
        Letter(1, True),
        Letter(2, False),
        Letter(2, True),
    ]


def test_iter_words_counts_and_order():
    ws = list(iter_words([1], 2))
    assert [w.text() for w in ws] == ["x1 x1", "x1 x1*", "x1* x1", "x1* x1*"]
    assert len(list(iter_words([1, 2], 3))) == 4**3
    assert list(iter_words([1], 0)) == []
    three = [w.text() for w in iter_words([1, 2], 3)]
    assert three == sorted(three)


def test_iter_star_patterns():
    assert list(iter_star_patterns(2)) == [
        (False, False),
        (False, True),
        (True, False),
        (True, True),
    ]
    assert len(list(iter_star_patterns(4))) == 16


@pytest.mark.parametrize("indices", [[2, 10], [1, 10, 2]])
def test_iter_words_is_text_order_past_index_nine(indices):
    for length in range(1, 5):
        ws = [w.text() for w in iter_words(indices, length)]
        assert ws == sorted(ws)
        assert len(ws) == (2 * len(indices)) ** length


def test_iter_sequences_order_and_pruning():
    assert list(iter_sequences("ab", 2)) == [
        ("a", "a"),
        ("a", "b"),
        ("b", "a"),
        ("b", "b"),
    ]
    assert list(iter_sequences("ab", 0)) == []
    assert list(iter_sequences("ab", -1)) == []
    for n in range(1, 4):
        indices = range(1, n + 1)
        # consecutive items differ: the node after i holds every other index
        after = {i: {} for i in indices}
        for i, node in after.items():
            node.update((j, after[j]) for j in indices if j != i)
        for t in range(1, 6):
            brute = [
                seq
                for seq in product(indices, repeat=t)
                if all(a != b for a, b in zip(seq, seq[1:]))
            ]
            assert list(iter_sequences(indices, t, after)) == brute


def test_iter_sequences_follows_a_graph():
    # prefix sums of +-1 steps that stay nonnegative, the Dyck prefixes:
    # the node at sum 0 lacks -1, which prunes every tuple through it
    at = [{} for _ in range(9)]
    for k, node in enumerate(at[:-1]):
        node[1] = at[k + 1]
        if k:
            node[-1] = at[k - 1]
    for t in range(1, 8):
        brute = [
            seq
            for seq in product((1, -1), repeat=t)
            if all(sum(seq[:k]) >= 0 for k in range(1, t + 1))
        ]
        assert list(iter_sequences((1, -1), t, at[0])) == brute
    # the walk keeps the alphabet's order, not the node's, and an empty
    # root yields nothing
    assert list(iter_sequences("ab", 1, {"b": {}, "a": {}})) == [("a",), ("b",)]
    assert list(iter_sequences("ab", 3, {})) == []
    # with no graph, every tuple
    for t in range(1, 5):
        assert list(iter_sequences("abc", t)) == list(product("abc", repeat=t))


def every_item(items) -> dict:
    """The one-node graph that allows every item after every prefix."""
    node = {}
    node.update((item, node) for item in items)
    return node


def least_rotation(seq) -> bool:
    return all(seq <= seq[i:] + seq[:i] for i in range(len(seq)))


def test_necklace_mode_counts_and_order():
    """The necklace mode yields the least rotations in order.  With a
    graph and a step that refuses some items, it yields the plain mode's
    tuples that are least among their rotations, and the plain mode
    yields every tuple both allow: this catches a necklace mode that
    ignores step and a plain mode that applies the period bound."""
    # binary and ternary necklaces (OEIS A000031, A001867), in order
    for k, counts in ((2, [2, 3, 4, 6, 8, 14, 20, 36]), (3, [3, 6, 11, 24, 51, 130])):
        for n, count in enumerate(counts, 1):
            brute = [seq for seq in product(range(k), repeat=n) if least_rotation(seq)]
            walked = iter_sequences(range(k), n, every_item(range(k)), necklaces=True)
            assert list(walked) == brute
            assert len(brute) == count
    assert list(iter_sequences("ab", 0, every_item("ab"), necklaces=True)) == []
    # the walk follows a graph: consecutive items differ, so of "abab"
    # and "aabb" only the first is walked
    after = {"a": {}, "b": {}}
    after["a"]["b"] = after["b"]
    after["b"]["a"] = after["a"]
    assert list(iter_sequences("ab", 4, after, necklaces=True)) == [("a", "b", "a", "b")]

    def step(bs: int | None, item: str, left: int) -> int | None:
        # at most two b's, and no c last
        bs = (bs or 0) + (item == "b")
        return None if bs > 2 or (item == "c" and left == 0) else bs

    def kept(seq) -> bool:
        return seq.count("b") <= 2 and seq[-1] != "c"

    differ = {item: {} for item in "abc"}
    for item, node in differ.items():
        node.update((other, differ[other]) for other in "abc" if other != item)
    for graph, allowed in (
        (every_item("abc"), lambda seq: True),
        (differ, lambda seq: all(a != b for a, b in zip(seq, seq[1:]))),
    ):
        for n in range(1, 7):
            plain = list(iter_sequences("abc", n, graph, step))
            brute = [s for s in product("abc", repeat=n) if kept(s) and allowed(s)]
            assert plain == brute
            necklaces = list(iter_sequences("abc", n, graph, step, necklaces=True))
            assert necklaces == [s for s in plain if least_rotation(s)]
    # the step refuses necklaces that the graph allows
    assert ("a", "b", "b", "b") in iter_sequences("abc", 4, necklaces=True)
    assert ("a", "b", "b", "b") not in iter_sequences("abc", 4, None, step, True)


@pytest.mark.parametrize("indices", [[2, 10], [1, 10, 2]])
def test_necklace_words_are_least_in_text_order(indices):
    for length in range(1, 5):
        texts = lambda w: [" ".join(map(Letter.text, w[i:] + w[:i])) for i in range(length)]
        want = [
            w.text()
            for w in iter_words(indices, length)
            if w.text() == min(texts(w))
        ]
        graph = every_item(iter_letters(indices))
        assert [w.text() for w in iter_words(indices, length, graph, True)] == want


def test_iter_words_is_lazy():
    # the whole length-9 list over two variables holds 262,144 words
    tracemalloc.start()
    try:
        first = next(iter_words([1, 2], 9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first.text() == " ".join(["x1"] * 9)
    assert peak < 1 << 20
