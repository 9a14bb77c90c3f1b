"""The residue-carrying walk: GaugeWalk folds each constraint's weighted
exponent sum along the prefixes of a word walk and cuts off every prefix
that no completion keeps.  These tests hold the pruned walk to the plain
walk filtered word by word, its closed-form count of the cut-off words
to the number of words that switch variable, and the power-word scan's
closed-form word count to the reduced words enumerated and counted
letter by letter.  tests/test_gauge.py holds the power-word scan to its
brute-force twin."""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorfree.counterexample import reduced_word_count
from tensorfree.freeness import GaugeWalk
from tensorfree.starwords import StarWord, iter_letters, iter_sequences, iter_words

from strategies import breaks_by_hand

MODULI = st.sampled_from([0, 2, 3, 6])
CAPS = st.sampled_from([None, 3, 4, 5])


@st.composite
def gauged_walks(draw):
    """(indices, gauge, length): 1-3 indices, up to three constraints of
    modulus 0, 2, 3 or 6 with weights -2..2 on some of the indices and a
    cap of None or 3-5, and a length of 1-7 (1-5 over three indices, so
    the plain walk stays under 8,000 words)."""
    n = draw(st.integers(1, 3))
    indices = tuple(range(1, n + 1))
    terms = st.lists(
        st.tuples(st.sampled_from(indices), st.integers(-2, 2)),
        min_size=1,
        max_size=n,
        unique_by=lambda term: term[0],
    ).map(tuple)
    gauge = draw(st.lists(st.tuples(MODULI, terms, CAPS), max_size=3).map(tuple))
    length = draw(st.integers(1, 7 if n < 3 else 5))
    return indices, gauge, length


def one_variable(word: StarWord) -> bool:
    return len({l.index for l in word.letters}) == 1


@settings(max_examples=60, deadline=None)
@given(gauged_walks())
# a modulus-0 sum cut off before the prefix switches variable: x1 x1 x1
# leaves one letter, and 2 of its 4 completions stay in x1
@example(((1, 2), ((0, ((1, 1),), None),), 4))
# the cap: the constraint reaches length 3, not length 5
@example(((1, 2), ((0, ((1, 1),), 3),), 5))
# a bound met exactly: x1 x1 with two letters left can still come back
@example(((1, 2), ((0, ((1, 2), (2, 1)), None), (3, ((2, 1),), 5)), 4))
def test_pruned_walk_is_the_plain_walk_filtered(walk_input):
    indices, gauge, length = walk_input
    walk = GaugeWalk(gauge, indices, length)
    pruned = list(iter_words(indices, length, walk.step, walk.start))
    plain = [w for w in iter_words(indices, length) if not breaks_by_hand(w.letters, gauge)]
    assert pruned == plain
    n = len(indices)
    switching = sum(not one_variable(w) for w in pruned)
    assert switching + walk.pruned == (2 * n) ** length - n * 2**length


def test_walk_counts_the_cut_off_words_as_it_passes_them():
    # one Haar-like x1: a word keeps the gauge when its x1 letters balance
    gauge = ((0, ((1, 1),), None),)
    walk = GaugeWalk(gauge, (1, 2), 4)
    words = iter_words((1, 2), 4, walk.step, walk.start)
    assert next(words).text() == "x1 x1 x1* x1*"
    # x1 x1 x1 and x1 x1 x1* x1 were cut off first: 2 + 0 switching words
    assert walk.pruned == 2
    switching = sum(not one_variable(w) for w in words)
    assert switching + walk.pruned == 4**4 - 2 * 2**4


# -- the power-word scan's closed-form count ------------------------------------


def runs_of(letters) -> int:
    return 1 + sum(a.index != b.index for a, b in zip(letters, letters[1:]))


def brute_cells(n, length) -> Counter:
    """Reduced words of one length over n variables per run count, by
    enumerating them: the walk cuts off a letter next to its adjoint."""
    letters = iter_letters(range(1, n + 1))
    step = lambda last, l: None if last == l.adjoint() else l
    return Counter(map(runs_of, iter_sequences(letters, length, step)))


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
