"""The freeness engine: synthesized mixed moments, closed forms, and the
bounded star-freeness test."""

import random
from fractions import Fraction
from itertools import islice, product

import pytest

from tensorfree.counterexample import scan_alternating_powers
from tensorfree.errors import DepthLimitError, PreconditionError
from tensorfree.freeness import (
    FreeFamilySpec,
    ScanRules,
    Verdict,
    centered_product_value,
    mixed_moment_by_cumulants,
    scan_graphs,
)
from tensorfree.freeness import test_freeness as freeness_verdict
from tensorfree.groups import (
    FreeProductPresentation,
    GroupPresentation,
    parse_group_word,
)
from tensorfree.ncpartitions import MomentSequence
from tensorfree.scalars import ONE, ZERO, ExactComplex
from tensorfree.spaces import GroupAlgebraModel
from tensorfree.starwords import (
    Letter,
    class_blocks,
    iter_words,
    merge_powers,
    power_word_to_star_word,
    parse_word as word,
)

INTEGERS = GroupPresentation((FreeProductPresentation((None,)),))
F2 = GroupPresentation((FreeProductPresentation((None, None)),))


def mean_square_table(mean, square=Fraction(1)):
    """Star table with psi(b) = mean and psi(bb*) = psi(b*b) = square."""
    return MomentSequence(
        {(False,): mean, (False, True): square, (True, False): square},
        complete_through=4,
    )


def star_adapter(seq):
    if seq.unitary:
        return lambda stars: seq.moment(tuple(-1 if s else 1 for s in stars))
    return seq.moment


def test_engine_reproduces_the_worked_pair():
    spec = FreeFamilySpec(
        {
            1: mean_square_table(Fraction(1, 2)).moment,
            2: mean_square_table(Fraction(1, 3)).moment,
        }
    )
    assert spec.mixed_moment_letters(word("x1 x2")) == Fraction(1, 6)
    assert spec.mixed_moment_letters(word("x1 x2 x1* x2*")) == Fraction(1, 3)


def pair_closed_form(m1, sq1, m2, sq2):
    """Moment of b1 b2 b1* b2* for a star-free pair with means m_i and
    psi(b_i b_i*) = sq_i."""
    a1, a2 = m1.abs2(), m2.abs2()
    return a1 * sq2 + a2 * sq1 - ExactComplex(a1 * a2)


def pair_engine_moment(m1, sq1, m2, sq2):
    spec = FreeFamilySpec(
        {1: mean_square_table(m1, sq1).moment, 2: mean_square_table(m2, sq2).moment}
    )
    return spec.mixed_moment_letters(word("x1 x2 x1* x2*"))


def test_closed_form_alternating_pair():
    half, third = ExactComplex(Fraction(1, 2)), ExactComplex(Fraction(1, 3))
    assert pair_engine_moment(half, ONE, third, ONE) == Fraction(1, 3)
    assert pair_closed_form(half, ONE, third, ONE) == Fraction(1, 3)
    # centered pair: only the cross terms survive
    assert pair_engine_moment(ZERO, ONE, ZERO, ONE) == ZERO
    assert pair_engine_moment(ONE, ONE, ONE, ONE) == ONE


def test_closed_form_matches_engine_on_random_data():
    rng = random.Random(7)
    for _ in range(25):
        m1 = ExactComplex(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                          Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
        m2 = ExactComplex(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                          Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
        sq1 = ExactComplex(Fraction(rng.randint(0, 5), rng.randint(1, 3)))
        sq2 = ExactComplex(Fraction(rng.randint(0, 5), rng.randint(1, 3)))
        engine = pair_engine_moment(m1, sq1, m2, sq2)
        assert engine == pair_closed_form(m1, sq1, m2, sq2)


def test_conjugated_pair_closed_form():
    # b c1 b* c2 b c1* b* c2* with b = x3 Haar unitary free from (c1, c2)
    # has the plain alternating form in the c data
    haar = MomentSequence({}, unitary=True)
    spec = FreeFamilySpec(
        {
            1: mean_square_table(Fraction(1, 2)).moment,
            2: mean_square_table(Fraction(0)).moment,
            3: star_adapter(haar),
        }
    )
    engine = spec.mixed_moment_letters(word("x3 x1 x3* x2 x3 x1* x3* x2*"))
    assert engine == Fraction(1, 4)
    assert engine == pair_closed_form(ExactComplex(Fraction(1, 2)), ONE, ZERO, ONE)


def random_star_table(rng, max_len=4):
    """A Hermitian-consistent random real star table, complete through max_len."""
    values = {}
    for n in range(1, max_len + 1):
        for pattern in product((False, True), repeat=n):
            adj = tuple(not b for b in reversed(pattern))
            if pattern <= adj and pattern not in values:
                values[pattern] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    return MomentSequence(values)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_expansion_and_cumulant_routes_agree(seed):
    rng = random.Random(seed)
    spec = FreeFamilySpec(
        {1: random_star_table(rng).moment, 2: random_star_table(rng).moment}
    )
    for length in (1, 2, 3, 4):
        for w in iter_words([1, 2], length):
            engine = spec.mixed_moment_letters(w)
            assert engine == mixed_moment_by_cumulants(spec, w)


def test_engine_guards():
    spec = FreeFamilySpec({1: mean_square_table(Fraction(0)).moment})
    too_long = tuple(Letter(1 + i % 2, False) for i in range(17))
    with pytest.raises(DepthLimitError):
        spec.mixed_moment_letters(too_long)


def test_free_pair_passes_the_bounded_test():
    spec = FreeFamilySpec(
        {
            1: mean_square_table(Fraction(1, 2)).moment,
            2: mean_square_table(Fraction(1, 3)).moment,
        }
    )
    verdict = freeness_verdict(spec.mixed_moment_letters, (1, 2), max_len=4)
    assert verdict.free
    assert verdict.witness is None and verdict.lhs is None
    assert verdict.bound == 4
    assert verdict.words_checked > 0
    # one variable alone: no word switches, so no scan graph has a move
    # and no word is walked or evaluated, at any bound
    for unitary in [(), (1,)]:
        assert not any(islice(scan_graphs((1,), ScanRules(unitary)), 41))

    def never(letters):
        raise AssertionError(f"evaluated {letters}")

    verdict = freeness_verdict(never, (1,), max_len=24)
    assert verdict.free and verdict.words_checked == 0


def integer_oracle():
    model = GroupAlgebraModel(
        INTEGERS,
        {1: parse_group_word(INTEGERS, "g1.1^1"), 2: parse_group_word(INTEGERS, "g1.1^2")},
    )
    return model.moment_letters


def test_integer_powers_fail_with_the_shortest_witness():
    verdict = freeness_verdict(integer_oracle(), (1, 2), max_len=4)
    assert not verdict.free
    assert verdict.witness == word("x1 x1 x2*")
    assert verdict.lhs == ONE
    assert verdict.words_checked == 10


def test_centered_product_value_basics():
    oracle = integer_oracle()
    class_of = {1: 1, 2: 2}
    # one block: its centered part has mean zero
    assert centered_product_value(oracle, word("x1 x1*"), class_of) == ZERO
    assert centered_product_value(oracle, word("x1 x1 x2*"), class_of) == ONE
    assert centered_product_value(oracle, word("x1 x2"), class_of) == ZERO


def test_centered_products_vanish_under_a_free_family():
    rng = random.Random(11)
    spec = FreeFamilySpec(
        {
            1: random_star_table(rng).moment,
            2: star_adapter(MomentSequence({1: Fraction(1, 3)}, unitary=True, period=4)),
        }
    )
    class_of = {1: 1, 2: 2}
    alternating = 0
    for length in range(2, 5):
        for w in iter_words([1, 2], length):
            value = centered_product_value(spec.mixed_moment_letters, w, class_of)
            assert value == ZERO, w.text()
            alternating += len(class_blocks(w, class_of)) > 1
    assert alternating > 200


def test_centered_product_is_the_moment_minus_the_free_prediction():
    # x1 = g and x2 = g^2 in the integers are not free, but every word
    # shorter than the first witness (length 3) has its free value, so
    # through length 3 the centered product is the moment minus the
    # moment a free pair with the same marginals would have
    oracle = integer_oracle()
    spec = FreeFamilySpec(
        {
            v: (lambda stars, v=v: oracle(tuple(Letter(v, s) for s in stars)))
            for v in (1, 2)
        }
    )
    class_of = {1: 1, 2: 2}
    nonzero = 0
    for length in range(2, 4):
        for w in iter_words([1, 2], length):
            if len(class_blocks(w, class_of)) < 2:
                continue
            value = centered_product_value(oracle, w, class_of)
            assert value == oracle(w) - spec.mixed_moment_letters(w)
            nonzero += not value.is_zero()
    assert nonzero > 0


def test_haar_power_scan_agrees_with_the_general_path():
    model = GroupAlgebraModel(
        F2, {1: parse_group_word(F2, "g1.1^1"), 2: parse_group_word(F2, "g1.2^1")}
    )
    fast, _ = scan_alternating_powers(model.moment_letters, [1, 2], 6, ScanRules())
    assert fast.free
    general = freeness_verdict(model.moment_letters, (1, 2), max_len=4)
    assert general.free

    slow_fail = freeness_verdict(integer_oracle(), (1, 2), max_len=4)
    fast_fail, _ = scan_alternating_powers(integer_oracle(), [1, 2], 4, ScanRules())
    assert not fast_fail.free
    assert fast_fail.witness == slow_fail.witness == word("x1 x1 x2*")
    assert fast_fail.lhs == ONE


def test_haar_power_scan_precondition():
    biased = MomentSequence({1: Fraction(1, 4)}, unitary=True, period=3)
    oracle = lambda ls: star_adapter(biased)(tuple(l.star for l in ls))
    with pytest.raises(PreconditionError, match="Haar-type"):
        scan_alternating_powers(oracle, [1], 4, ScanRules())


def test_alternating_power_words(scanned_words):
    # the Haar-power scan walks the star forms of reduced alternating
    # power words, in text order within each total exponent size, one
    # per class under rotation and adjoint reversal: x1 x2 stands for
    # x2 x1, x2* x1* and x1* x2*
    two = [" ".join(l.text() for l in w) for w in scanned_words([1, 2], 2)]
    assert two == ["x1 x2", "x1 x2*"]
    three = [w for w in scanned_words([1, 2], 3) if len(w) == 3]
    assert len(three) == 4
    for letters in three:
        pw = merge_powers((l.index, -1 if l.star else 1) for l in letters)
        assert len(pw) >= 2
        assert sum(abs(e) for _, e in pw) == 3
        assert all(e != 0 for _, e in pw)
        assert all(a != b for (a, _), (b, _) in zip(pw, pw[1:]))
        assert power_word_to_star_word(pw) == letters


@pytest.mark.parametrize("variables", [(1, 2), (1, 2, 3)])
def test_reduced_walk_is_a_filter_of_iter_words(scanned_words, variables):
    # the reduced words in two variables or more that are cyclically
    # reduced and least in text among the rotations of themselves and of
    # their adjoint reversal
    def least(letters):
        text = lambda w: tuple(l.text() for l in w)
        adjoint = tuple(l.adjoint() for l in reversed(letters))
        turns = [w[i:] + w[:i] for w in (letters, adjoint) for i in range(len(w))]
        return text(letters) == min(map(text, turns))

    brute = [
        w
        for length in range(2, 7)
        for w in iter_words(variables, length)
        if all(b != a.adjoint() for a, b in zip(w, w[1:]))
        and len({l.index for l in w}) > 1
        and w[-1] != w[0].adjoint()
        and least(w)
    ]
    assert scanned_words(variables, 6) == brute


def test_block_pair_count():
    # the Haar-power scan tallies words by block pair count: 2t - 1 and
    # 2t alternating blocks both count t
    model = GroupAlgebraModel(
        F2, {1: parse_group_word(F2, "g1.1^1"), 2: parse_group_word(F2, "g1.2^1")}
    )
    _, scan = scan_alternating_powers(model.moment_letters, [1, 2], 5, ScanRules())
    assert [(line.block_pairs, line.words) for line in scan] == [
        (1, 80),
        (2, 320),
        (3, 64),
    ]
    assert all(line.violations == 0 for line in scan)


def test_verdict_shape():
    v = Verdict(True, None, None, 8, 12)
    assert v.bound == 8 and v.words_checked == 12
