"""The scan graph: scan_graphs keeps a letter after a prefix only when
some completion is reduced (no unitary letter right after its adjoint),
brings each constraint's weighted exponent sum to 0 mod its modulus and
uses two indices or more; the height step (freeness.height_step) keeps
it only when some completion keeps every per-height rule.  These tests
hold every length's root to the graph built for that length alone, the
graph's words, with and without the height step, and switching_words
to the plain walk filtered word by word, the graph's
nodes to the prefixes of the words it keeps, test_freeness's
closed-form words_checked to the switching words enumerated in text
order, and the power-word scan's closed-form word count to the reduced
words enumerated and counted letter by letter.  The necklace walk is
held to the plain walk filtered to least rotations, and switching_words'
bracelet mode to the least words of each class under rotation and
adjoint reversal.  tests/test_gauge.py holds the power-word scan to its
brute-force twin."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorfree.counterexample import biased_power_scenario, reduced_word_count
from tensorfree.freeness import ScanRules, height_step, scan_graphs, switching_words
from tensorfree.freeness import test_freeness as freeness_verdict
from tensorfree.scalars import ONE, ZERO
from tensorfree.spaces import SpectralModel
from tensorfree.starwords import (
    Letter,
    iter_letters,
    iter_sequences,
    iter_words,
    parse_word,
)

from tensorfree.tensor import TensorScenario

from strategies import (
    CIRCULAR,
    HAAR,
    breaks_by_hand,
    breaks_height_rule_by_hand,
    haar_spectral_factors,
    reduced_by_hand,
)

MODULI = st.sampled_from([0, 2, 3, 6])
CAPS = st.sampled_from([None, 3, 4, 5])
# a Haar x1 beside the circular element, rotation-invariant and not
# unitary: its rules hold through the circular table's 8 letters, and the
# scans walk every kept word, not bracelets
HAAR_BESIDE_CIRCULAR = TensorScenario(
    factors=(SpectralModel({1: HAAR, 2: CIRCULAR}, assume_free=True),),
    assignments={1: (1,), 2: (2,)},
)
HAAR_GAUGE = HAAR_BESIDE_CIRCULAR.scan_rules.gauge


BIASED_POWER_K2 = biased_power_scenario(2, Fraction(1, 10))


def scan_graph(gauge, through, indices, length, unitary):
    """The root of scan_graphs' graph of the words of length letters."""
    rules = ScanRules(unitary, gauge, through=through)
    return next(islice(scan_graphs(indices, rules), length, None))


def height_rules(heights):
    """The per-height rules of a walk's scenario (scan_rules.heights)."""
    return heights.scan_rules.heights if heights else ()


def breaks_heights(letters, heights, through) -> bool:
    """Whether the word breaks a per-height rule of the walk's scenario at
    a length the rules reach (through), by hand."""
    if heights is None:
        return False
    return breaks_height_rule_by_hand(letters, heights, through)


def held_step(heights, through, length):
    """switching_words' height step at one length."""
    held = heights and (through is None or length <= through)
    return height_step(height_rules(heights)) if held else None


@st.composite
def gauged_walks(draw, longest=7):
    """(indices, gauge, through, length, unitary, heights): 1-3 indices,
    up to three constraints of modulus 0, 2, 3 or 6 with weights -2..2 on
    some of the indices, one cap of None or 3-5 for the constraints and
    the per-height rules, a length of 1 to longest (1-5 over three
    indices, so the plain walk stays under 8,000 words), any subset of
    the indices as the unitary ones, and over two indices or more, at
    times, the one-factor scenario of haar_spectral_factors() on the
    indices, whose per-height rules the walk takes (None otherwise)."""
    n = draw(st.integers(1, 3))
    indices = tuple(range(1, n + 1))
    terms = st.lists(
        st.tuples(st.sampled_from(indices), st.integers(-2, 2)),
        min_size=1,
        max_size=n,
        unique_by=lambda term: term[0],
    ).map(tuple)
    gauge = draw(st.lists(st.tuples(MODULI, terms), max_size=3).map(tuple))
    through = draw(CAPS)
    length = draw(st.integers(1, longest if n < 3 else 5))
    unitary = tuple(sorted(draw(st.sets(st.sampled_from(indices)))))
    heights = None
    if n > 1 and draw(st.booleans()):
        factor = draw(haar_spectral_factors(n))
        heights = TensorScenario((factor,), {i: (i,) for i in indices})
    return indices, gauge, through, length, unitary, heights


@settings(max_examples=60, deadline=None)
@given(gauged_walks())
# a modulus-0 sum cut off before the prefix switches variable: x1 x1 x1
# leaves one letter, and 2 of its 4 completions stay in x1
@example(((1, 2), ((0, ((1, 1),)),), None, 4, (), None))
# the cap: the constraint reaches length 3, not length 5
@example(((1, 2), ((0, ((1, 1),)),), 3, 5, (), None))
# a bound met exactly: x1 x1 with two letters left can still come back
@example(((1, 2), ((0, ((1, 2), (2, 1))), (3, ((2, 1),))), 5, 4, (), None))
# the rule on x1 only: x2 x2* and x2* x2 stay, x1 x1* and x1* x1 go
@example(((1, 2), (), None, 4, (1,), None))
# both rules at once: s1 = 0 keeps x1 x1 x1* x1*, the rule cuts x1 x1*
@example(((1, 2), ((0, ((1, 1),)),), None, 6, (1, 2), None))
# two constraints together: every letter changes s1 + s2 by 1 mod 2, so
# s1 = 0 mod 2 and s2 = 0 keep no word of odd length (biased_power_k2)
@example(((1, 2), ((2, ((1, 1),)), (0, ((2, 1),))), None, 7, (1, 2), None))
# mixed_order_collection's constraints: s1 and s2 = 0 mod 6 force an even
# length, and no single sum rules out a prefix before the last letter
@example(((1, 2), ((6, ((1, 1),)), (6, ((2, 1),))), None, 7, (), None))
@example(((1, 2), ((6, ((1, 1),)), (6, ((2, 1),))), None, 6, (), None))
# one index: no word switches, so the root is empty, with a gauge or
# none and with the index unitary or not
@example(((1,), (), None, 7, (), None))
@example(((1,), ((0, ((1, 1),)),), None, 7, (1,), None))
# Haar x1 beside the rotation-invariant circular x2, in the plain walk:
# x1 x2 x1* x2* keeps the gauge but not the rule, x1 x2 x2* x1* keeps both
@example(((1, 2), HAAR_GAUGE, 8, 7, (1,), HAAR_BESIDE_CIRCULAR))
# the same rules held through 5 letters only: at length 6 the walk keeps
# words that break them
@example(((1, 2), HAAR_GAUGE, 5, 6, (1,), HAAR_BESIDE_CIRCULAR))
def test_pruned_walk_is_the_plain_walk_filtered(walk_input):
    # the height step fails this when iter_sequences ignores it, or when a
    # starred Haar letter raises the height
    indices, gauge, through, length, unitary, heights = walk_input
    graph = scan_graph(gauge, through, indices, length, unitary)
    keeps = lambda w: (
        reduced_by_hand(w, unitary)
        and not breaks_by_hand(w, gauge, through)
        and switching(w)
    )
    plain = [w for w in iter_words(indices, length) if keeps(w)]
    assert list(iter_words(indices, length, graph)) == plain
    step = held_step(heights, through, length)
    stepped = iter_words(indices, length, graph, step=step)
    kept = [w for w in plain if not breaks_heights(w, heights, through)]
    assert list(stepped) == kept
    # exact: every node reached above the last level is nonempty, so every
    # path from the root ends in a kept word and the walk follows no move
    # that no completion keeps; the root is empty exactly when no word is
    # kept
    assert bool(graph) == bool(plain)
    level = [graph] if plain else []
    for _ in range(length - 1):
        assert all(level)
        level = [node for parent in level for node in parent.values()]
    # the words of 2..length letters that the graphs keep, in order
    lengths = range(2, length + 1)
    expected = [
        w
        for n in lengths
        for w in iter_words(indices, n)
        if keeps(w) and not breaks_heights(w, heights, through)
    ]
    rules = ScanRules(unitary, gauge, False, height_rules(heights), through)
    assert list(switching_words(indices, length, rules)) == expected


def one_length_graph(gauge, through, indices, length, unitary):
    """The scan graph of one length built on its own, forward from the
    empty prefix and back from the last letter, with the constraints
    only when they hold at that length: the reference for each root of
    scan_graphs."""
    alphabet = iter_letters(indices)
    held = through is None or length <= through
    rows = [(m, dict(t)) for m, t in gauge] if held else []
    moduli = [m for m, _ in rows]
    letters = {
        l: (
            [(-1 if l.star else 1) * w.get(l.index, 0) for _, w in rows],
            l.adjoint() if l.index in unitary else None,
        )
        for l in alphabet
    }

    def after(state, letter, first):
        weights, refused = letters[letter]
        terms = zip(state[1], weights, moduli)
        sums = tuple((s + w) % m if m else s + w for s, w, m in terms)
        one = letter.index if first or state[2] == letter.index else None
        return refused, sums, one

    start = (None, (0,) * len(rows), None)
    level = {start}
    moves = []
    for depth in range(length):
        first = depth == 0
        moves.append(
            {s: {l: after(s, l, first) for l in alphabet if l != s[0]} for s in level}
        )
        level = {t for out in moves[-1].values() for t in out.values()}
    nodes = {s: {} for s in level if not any(s[1]) and s[2] is None}
    for out_of in reversed(moves):
        nodes = {
            s: kept
            for s, out in out_of.items()
            if (kept := {l: nodes[t] for l, t in out.items() if t in nodes})
        }
    return nodes.get(start, {})


@settings(max_examples=60, deadline=None)
@given(gauged_walks())
# a cap crossed on the way: the constraints hold through 3 letters only
@example(((1, 2), ((0, ((1, 1),)), (2, ((2, 1),))), 3, 7, (1, 2), None))
# biased_power_k2's rules through length 7
@example(((1, 2), ((2, ((1, 1),)), (0, ((2, 1),))), 16, 7, (1, 2), None))
def test_scan_graphs_build_every_length_as_one_graph_did(walk_input):
    # the forward levels are found once for every length; each length's
    # root still maps to the same moves as the graph built for it alone
    indices, gauge, through, length, unitary, _ = walk_input
    rules = ScanRules(unitary, gauge, through=through)
    roots = list(islice(scan_graphs(indices, rules), length + 1))
    lengths = range(length + 1)
    one_length = lambda n: one_length_graph(gauge, through, indices, n, unitary)
    assert roots == [one_length(n) for n in lengths]


# -- the necklace walk ------------------------------------------------------------


def least_turn(key, *others) -> bool:
    """Whether key is no greater than every rotation of itself and of
    the other keys."""
    return all(key <= k[i:] + k[:i] for k in (key, *others) for i in range(len(k)))


@settings(max_examples=40, deadline=None)
@given(gauged_walks(longest=8))
# x10 sorts before x2 in text though index 10 follows index 2
@example(((2, 10), ((2, ((10, 1),)),), None, 6, (10,), None))
@example(((2, 10), (), None, 5, (), None))
# periodic necklaces: x1 x2 x1 x2 x1 x2 and its like
@example(((1, 2), ((0, ((1, 1),)), (0, ((2, 1),))), None, 6, (), None))
# biased_power_k2's rules at length 8: 55 words, one per bracelet
@example(((1, 2), ((2, ((1, 1),)), (0, ((2, 1),))), 16, 8, (1, 2), None))
# and with its per-height rule: x1 sums 0 mod 2 at every height
@example(((1, 2), BIASED_POWER_K2.scan_rules.gauge, 16, 8, (1, 2), BIASED_POWER_K2))
def test_necklace_walk_is_the_plain_walk_filtered(walk_input):
    indices, gauge, through, length, unitary, heights = walk_input
    graph = scan_graph(gauge, through, indices, length, unitary)
    # words of one length compare as their texts do, letter by letter
    texts = {l: l.text() for l in iter_letters(indices)}
    text_key = lambda letters: tuple(map(texts.__getitem__, letters))
    least = lambda w: least_turn(text_key(w))
    plain = [w for w in iter_words(indices, length, graph) if least(w)]
    assert list(iter_words(indices, length, graph, True)) == plain
    step = held_step(heights, through, length)
    stepped = iter_words(indices, length, graph, True, step)
    kept = [w for w in plain if not breaks_heights(w, heights, through)]
    assert list(stepped) == kept
    # switching_words with trace: of those, the cyclically reduced words no
    # greater than any rotation of their adjoint reversal
    def rep(w):
        if w[0].index in unitary and w[-1] == w[0].adjoint():
            return False
        own = text_key(w)
        if not least_turn(own):
            return False
        return least_turn(own, text_key(tuple(l.adjoint() for l in reversed(w))))

    expected = [
        w
        for n in range(2, length + 1)
        for w in iter_words(indices, n, scan_graph(gauge, through, indices, n, unitary))
        if rep(w) and not breaks_heights(w, heights, through)
    ]
    rules = ScanRules(unitary, gauge, True, height_rules(heights), through)
    assert list(switching_words(indices, length, rules)) == expected


# -- test_freeness's closed-form count -------------------------------------------


def switching(letters) -> bool:
    return len({l.index for l in letters}) > 1


def words_in_text_order(indices, length):
    """Every letter tuple of one length, in the text order of its words
    (iter_words' order; tests/test_starwords.py holds it to sorting)."""
    return product(sorted(iter_letters(indices), key=Letter.text), repeat=length)


@lru_cache(maxsize=None)
def switching_total(indices, length) -> int:
    """The switching words of one length, by enumeration."""
    return sum(map(switching, words_in_text_order(indices, length)))


def position(indices, letters) -> int:
    """The 1-based position of a switching word among the switching words
    of its length in text order, by enumeration."""
    count = 0
    for word in words_in_text_order(indices, len(letters)):
        count += switching(word)
        if word == letters:
            return count
    raise AssertionError("not reached")


@st.composite
def switching_cases(draw):
    """(indices, letters): a switching word over two indices of length
    2-7 or three of length 2-6, the indices 1 and 10 among the pairs so
    that x1 sorts before x1* and x10."""
    indices = draw(st.sampled_from([(1, 2), (1, 10), (1, 2, 3)]))
    length = draw(st.integers(2, 7 if len(indices) == 2 else 6))
    letters = st.sampled_from(iter_letters(indices))
    word = draw(st.lists(letters, min_size=length, max_size=length).filter(switching))
    return indices, tuple(word)


def exponent_sums(letters, indices) -> dict[int, int]:
    return {
        i: sum(-1 if l.star else 1 for l in letters if l.index == i) for i in indices
    }


@settings(max_examples=40, deadline=None)
@given(switching_cases())
# three indices at length 7: every one-variable word that starts with x1,
# x1*, x2, x2* or x3 sorts before the word
@example(((1, 2, 3), parse_word("x3* x1 x2 x1* x3 x2* x3*")))
@example(((1, 10), parse_word("x10 x1* x1 x1* x10* x10* x1")))
def test_words_checked_is_the_witness_position(case):
    indices, word = case
    # nonzero on the word alone: every other word centers to zero, and so
    # does every word that breaks a gauge the word keeps, which spares the
    # walk most of them; words_checked must count them all the same
    joint = lambda letters: ONE if letters == word else ZERO
    sums = exponent_sums(word, indices)
    gauge = tuple((abs(s), ((i, 1),)) for i, s in sums.items())
    shorter = sum(switching_total(indices, n) for n in range(2, len(word)))
    rules = ScanRules(gauge=gauge)
    verdict = freeness_verdict(joint, indices, len(word), rules)
    assert verdict.witness == word
    assert verdict.words_checked == shorter + position(indices, word)
    # a free verdict counts every switching word through its bound
    verdict = freeness_verdict(joint, indices, len(word) - 1, rules)
    assert verdict.free
    assert verdict.words_checked == shorter


# -- the power-word scan's closed-form count ------------------------------------


def runs_of(letters) -> int:
    return 1 + sum(a.index != b.index for a, b in zip(letters, letters[1:]))


def brute_cells(n, length) -> Counter:
    """Reduced words of one length over n variables per run count, by
    enumerating them through the last-letter graph: the node after a
    letter holds every letter but its adjoint."""
    letters = iter_letters(range(1, n + 1))
    after = {l: {} for l in letters}
    for l, node in after.items():
        node.update((m, after[m]) for m in letters if m != l.adjoint())
    return Counter(map(runs_of, iter_sequences(letters, length, after)))


def counted_cells(n, length) -> Counter:
    """The same counts, letter by letter: (last letter, runs) -> words."""
    letters = iter_letters(range(1, n + 1))
    counts = Counter({(l, 1): 1 for l in letters})
    for _ in range(length - 1):
        extended = Counter()
        for (last, runs), words in counts.items():
            for l in letters:
                if l != last.adjoint():
                    extended[l, runs + (l.index != last.index)] += words
        counts = extended
    cells = Counter()
    for (_, runs), words in counts.items():
        cells[runs] += words
    return cells


@pytest.mark.parametrize("n", [2, 3])
def test_reduced_word_count_is_every_cell(n):
    for length in range(2, 10):
        cells = counted_cells(n, length)
        total = 2 * n * (2 * n - 1) ** (length - 1)
        assert sum(cells.values()) == total
        # the words are enumerated while there are at most 100,000 of them
        if total <= 100_000:
            assert cells == brute_cells(n, length)
        for runs in range(1, length + 1):
            assert reduced_word_count(n, length, runs) == cells[runs], (length, runs)
