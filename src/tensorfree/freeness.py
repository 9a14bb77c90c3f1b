"""Mixed moments of free families and bounded star-freeness testing.

The engine computes joint moments from marginal data alone using the
defining rule of freeness: alternating products of centered elements
have vanishing expectation.  Writing each block of a word as its
centered part plus a scalar and expanding gives the moment as a signed
sum of strictly shorter moments, which terminates and is exact.

The same moments are reachable through noncrossing cumulants, where
mixed-block terms vanish; both routes are implemented so they can
check each other.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, combinations, count, islice
from typing import (
    Callable,
    Collection,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Sequence,
)

from .errors import DepthLimitError
from .ncpartitions import cumulant_from_moments, moment_from_cumulants
from .scalars import ONE, ZERO, ExactComplex
from .starwords import (
    Letter,
    LetterTuple,
    StarWord,
    class_blocks,
    iter_letters,
    iter_words,
    text_ordered_letters,
)

MIXED_MOMENT_LENGTH_CAP = 16

MarginalOracle = Callable[[tuple[bool, ...]], ExactComplex]
JointOracle = Callable[[LetterTuple], ExactComplex]
# (modulus, ((index, weight), ...)) linear constraints on the exponent
# sums of a word's letters
Gauge = Sequence[tuple[int, Sequence[tuple[int, int]]]]
# (letter refused next, weighted exponent sums mod their moduli, the one
# index so far or None)
GaugeState = tuple[Letter | None, tuple[int, ...], int | None]
# (modulus, Haar indices, indices) per-height rules (height_step)
HeightRules = Sequence[tuple[int, tuple[int, ...], tuple[int, ...]]]


class FreeFamilySpec:
    """A free family of variables with marginal data.

    The constructor takes one marginal oracle per variable, a callable
    on star patterns; the variables are the free coordinates.
    """

    def __init__(self, marginals: Mapping[int, MarginalOracle]) -> None:
        self._marginals = dict(marginals)
        # the identity class map, so the engine splits words with the same
        # class_blocks as centered_product_value
        self._class_of = {v: v for v in self._marginals}
        self._memo: dict[LetterTuple, ExactComplex] = {}
        self._cumulant_memos: dict[int, dict] = {v: {} for v in self._marginals}

    def class_moment(self, var: int, letters: LetterTuple) -> ExactComplex:
        if not letters:
            return ONE
        return self._marginals[var](tuple(l.star for l in letters))

    def class_cumulant(self, var: int, letters: LetterTuple) -> ExactComplex:
        return cumulant_from_moments(
            lambda ls: self.class_moment(var, ls), letters, self._cumulant_memos[var]
        )

    def mixed_moment_letters(self, letters: LetterTuple) -> ExactComplex:
        """Joint moment of a word across the free family."""
        if len(letters) > MIXED_MOMENT_LENGTH_CAP:
            raise DepthLimitError(
                "mixed moment word", len(letters), MIXED_MOMENT_LENGTH_CAP
            )
        return self._eval(letters)

    def _eval(self, letters: LetterTuple) -> ExactComplex:
        if not letters:
            return ONE
        cached = self._memo.get(letters)
        if cached is not None:
            return cached
        blocks = class_blocks(letters, self._class_of)
        if len(blocks) == 1:
            value = self.class_moment(letters[0].index, letters)
        else:
            betas = [self.class_moment(ls[0].index, ls) for ls in blocks]
            value = _dropped_block_sum(self._eval, letters, blocks, betas)
        self._memo[letters] = value
        return value


def _dropped_block_sum(
    evaluate: JointOracle,
    letters: LetterTuple,
    blocks: Sequence[LetterTuple],
    betas: Sequence[ExactComplex],
) -> ExactComplex:
    """Sum over nonempty sets S of blocks with nonzero means beta of
    (-1)^(|S|+1) prod_{s in S} beta_s evaluate(word with S removed).

    Writing each block as its centered part plus its mean and expanding
    the product shows phi(w) = phi(centered alternating product) + this
    sum; freeness makes the centered product vanish.

    The sets are visited by size, each in combinations order, and each
    is built from the set without its last block: one multiply for the
    coefficient, and the kept letters before the last dropped block
    extended by one slice.  A kept word of moment zero adds nothing.
    """
    nonzero = [s for s, beta in enumerate(betas) if not beta.is_zero()]
    ends = list(accumulate(map(len, blocks)))
    # per set of the previous size: prod beta (None for the empty set),
    # its kept letters before its last block, and where that block ends
    level: dict[tuple[int, ...], tuple[ExactComplex | None, LetterTuple, int]] = {
        (): (None, (), 0)
    }
    total = ZERO
    for size in range(1, len(nonzero) + 1):
        extended = {}
        for dropped in combinations(nonzero, size):
            coeff, head, start = level[dropped[:-1]]
            last = dropped[-1]
            beta = betas[last]
            coeff = beta if coeff is None else coeff * beta
            head = head + letters[start : ends[last] - len(blocks[last])]
            extended[dropped] = (coeff, head, ends[last])
            value = evaluate(head + letters[ends[last] :])
            if not value.is_zero():
                term = coeff * value
                total = total + term if size % 2 == 1 else total - term
        level = extended
    return total


def mixed_moment_by_cumulants(spec: FreeFamilySpec, word: LetterTuple) -> ExactComplex:
    """The same mixed moment as a sum over noncrossing partitions.

    Cumulants mixing distinct variables vanish for free families, so each
    partition contributes the product of single-variable block cumulants.
    """

    def block_cumulant(letters: LetterTuple) -> ExactComplex:
        indices = {l.index for l in letters}
        if len(indices) > 1:
            return ZERO
        return spec.class_cumulant(indices.pop(), letters)

    return moment_from_cumulants(block_cumulant, word)


# -- bounded star-freeness testing ---------------------------------------


class Verdict(NamedTuple):
    """Outcome of a bounded freeness test.

    A failure carries the first violating word in (length, text) order;
    lhs is the centered alternating product's value, which freeness
    would make zero.
    """

    free: bool
    witness: StarWord | None
    lhs: ExactComplex | None
    bound: int
    words_checked: int


def centered_product_value(
    oracle: JointOracle, letters: LetterTuple, class_of: dict[int, int]
) -> ExactComplex:
    """Value of the centered alternating product along the class blocks.

    A single-class word is one block, whose centered part has mean zero.
    """
    blocks = class_blocks(letters, class_of)
    if len(blocks) < 2:
        return ZERO
    betas = [oracle(ls) for ls in blocks]
    value = oracle(letters)
    dropped = _dropped_block_sum(oracle, letters, blocks, betas)
    # the sum is zero for most scanned words; skip the exact subtraction then
    return value if dropped.is_zero() else value - dropped


def _memoized(oracle: JointOracle) -> JointOracle:
    memo: dict[LetterTuple, ExactComplex] = {}

    def wrapped(letters: LetterTuple) -> ExactComplex:
        if not letters:
            return ONE
        value = memo.get(letters)
        if value is None:
            value = oracle(letters)
            memo[letters] = value
        return value

    return wrapped


class ScanRules(NamedTuple):
    """The rules by which a scan walks fewer words (scan_graphs,
    switching_words), each exact: the witness and its lhs are those of the
    scan over every word.  TensorScenario.scan_rules combines them from
    the factors' declared structure (spaces.MomentFunctional); a scan
    that needs other rules replaces fields of those with _replace.

    * unitary names indices whose variables are unitary; the walk keeps
      the words with no letter of one of them right after its adjoint.
      For a unitary u, u u* = u* u = 1, so such a word has the centered
      alternating product of the word without the pair, or zero when the
      pair was its block's only letters; at the first violating length
      every violating word is reduced.
    * gauge lists linear constraints (m, weights): a word of at most
      through letters has moment zero unless its weighted exponent sum,
      +w per plain letter and -w per starred one of an index of weight
      w, is 0 mod m (m = 0: is 0).  They are the rotation symmetries of
      a tensor scenario's factors or the abelianization of a group
      algebra under its canonical trace (GroupAlgebraModel.gauge).
    * trace declares the joint functional a Hermitian trace; the scan
      then evaluates one word per bracelet (switching_words).  While
      every shorter centered product vanishes, a word whose first and
      last blocks share an index centers as its rotation that merges
      them, and a word of two blocks or more keeps its centered value
      under rotation by whole blocks (the trace property), so the value
      is a function of the necklace; a word l ... l* of a unitary l
      rotates into a word with l* l inside and centers to zero; and the
      adjoint reversal's value is the conjugate (Hermitian symmetry).  So
      at the first length with a nonzero value the violating words are
      whole classes, each class's least word is the rep the walk yields,
      and the first violating rep is the witness of the full scan; at
      every shorter length the reps' zeros are every word's.
    * heights lists per-height rules (m, Haar indices, indices) of
      height_step, held at the lengths through reaches: the zeros of a
      factor with a Haar variable (SpectralModel.height_rules).
    * through is the longest word for which the gauge and the heights
      hold (None: every length); past it a skipped word could have raised
      (TensorScenario.evaluable_through), so longer words are walked.

    A block with a nonzero mean keeps every gauge constraint and every
    per-height residue, so every shorter word the inclusion-exclusion
    evaluates for a word that breaks one breaks it too, and the word
    centers to zero.
    """

    unitary: Collection[int] = frozenset()
    gauge: Gauge = ()
    trace: bool = False
    heights: HeightRules = ()
    through: int | None = None


def scan_graphs(
    indices: Iterable[int], rules: ScanRules
) -> Iterator[dict[Letter, dict]]:
    """The roots of the graphs of the words of 0, 1, 2, ... letters that
    a scan keeps, lazily, for starwords.iter_words: each node maps a
    letter allowed after its prefix to the node after it, and a letter is
    allowed when some completion keeps the word by three rules at once:
    reduced and gauge (rules.unitary and rules.gauge, ScanRules), and
    switching: the word uses two indices or more, since a word in one
    index is one block and centers to zero.

    The state after a prefix is (the letter refused next, one weighted
    exponent sum per constraint, reduced mod m when m > 0, the prefix's
    one index or None once it switches).  The states each prefix length
    reaches are found level by level from the empty prefix, once for all
    lengths; then, per length, from the last letter back, a state keeps
    the moves into states with a kept completion, and a state with none
    is dropped.  So every node above the last level is nonempty, and a
    root is empty exactly when no word of its length is kept.
    """
    gauge, unitary = rules.gauge, rules.unitary
    alphabet = iter_letters(indices)
    moduli = [m for m, _ in gauge]
    # per letter, its weight per constraint and the letter it refuses next
    letters = {
        l: (
            [(-1 if l.star else 1) * dict(t).get(l.index, 0) for _, t in gauge],
            l.adjoint() if l.index in unitary else None,
        )
        for l in alphabet
    }

    def after(state: GaugeState, letter: Letter, first: bool) -> GaugeState:
        weights, refused = letters[letter]
        terms = zip(state[1], weights, moduli)
        sums = tuple((s + w) % m if m else s + w for s, w, m in terms)
        one = letter.index if first or state[2] == letter.index else None
        return refused, sums, one

    start: GaugeState = (None, (0,) * len(gauge), None)
    level = {start}
    moves: list[dict[GaugeState, dict[Letter, GaugeState]]] = []
    for n in count():
        held = rules.through is None or n <= rules.through
        # a kept word has switched index, and every sum is 0 while the gauge holds
        nodes: dict[GaugeState, dict] = {
            s: {} for s in level if s[2] is None and not (held and any(s[1]))
        }
        for out_of in reversed(moves):
            nodes = {
                s: kept
                for s, out in out_of.items()
                if (kept := {l: nodes[t] for l, t in out.items() if t in nodes})
            }
        yield nodes.get(start, {})
        moves.append(
            {s: {l: after(s, l, not n) for l in alphabet if l != s[0]} for s in level}
        )
        level = {t for out in moves[-1].values() for t in out.values()}


def height_step(rules: HeightRules) -> Callable:
    """The step of starwords.iter_words that drops a prefix when no
    completion keeps every rule (m, Haar indices, indices): the Haar
    letters' exponent sum is 0, and at each height h (after a prefix of
    Haar sum h) the indices' letters have a sum 0 mod m (0 when m = 0).
    The caller passes it only at the lengths the rules hold.  The state
    is, per rule, the height and the nonzero residues by height (None:
    the empty prefix).  A completion needs a letter per unit of each
    residue's distance from 0, and a Haar letter per step of the
    shortest path from the height through every height with a residue
    to 0; so no word that keeps every rule is dropped, and a word that
    breaks one is.
    """

    @cache
    def step(state: tuple | None, letter: Letter, left: int) -> tuple | None:
        sign = -1 if letter.star else 1
        out = []
        for (h, residues), (m, haar, terms) in zip(state or start, rules):
            if letter.index in terms:
                moved = dict(residues)
                moved[h] = (moved.get(h, 0) + sign) % m if m else moved.get(h, 0) + sign
                residues = tuple(sorted((g, r) for g, r in moved.items() if r))
            h += sign * (letter.index in haar)
            heights = [0, *(g for g, _ in residues)]
            lo, hi = min(heights), max(heights)
            need = sum(min(r, m - r) if m else abs(r) for _, r in residues)
            if need + hi - lo + min(abs(h - lo) + hi, abs(h - hi) - lo) > left:
                return None
            out.append((h, residues))
        return tuple(out)

    start = ((0, ()),) * len(rules)
    return step


def switching_words(
    indices: Collection[int], max_len: int, rules: ScanRules
) -> Iterator[StarWord]:
    """The words of 2..max_len letters that scan_graphs keeps and that,
    at the lengths rules.through reaches, keep every rule of
    rules.heights (height_step), in (length, text) order.

    With rules.trace, one word per bracelet: the walk in necklace mode
    (starwords.iter_sequences) yields the kept words least among their
    rotations in text order, and of those this keeps the ones that are
    cyclically reduced (not a letter l of an index in rules.unitary first
    and l* last) and no greater than the least rotation of their adjoint
    reversal.  A cyclically reduced word's rotations and adjoint
    reversals keep every rule with it, so each class of kept, cyclically
    reduced words under rotation and adjoint reversal yields its least.

    A necklace's first letter has its least rank, so an adjoint rank
    below it starts a smaller rotation, and only the rotations that
    start at a rank equal to it can tie or win.
    """
    rank = {l: r for r, l in enumerate(text_ordered_letters(indices))}
    adjoint_rank = {l: rank[l.adjoint()] for l in rank}
    refused_last = {l: l.adjoint() for l in rank if l.index in rules.unitary}

    def least_in_bracelet(letters: StarWord) -> bool:
        first = letters[0]
        if letters[-1] == refused_last.get(first):
            return False
        least = rank[first]
        adjoint = [adjoint_rank[l] for l in reversed(letters)]
        if min(adjoint) < least:
            return False
        own = [rank[l] for l in letters]
        return all(
            own <= adjoint[i:] + adjoint[:i]
            for i, r in enumerate(adjoint)
            if r == least
        )

    graphs = scan_graphs(indices, rules)
    step = height_step(rules.heights) if rules.heights else None
    through = max_len if rules.through is None else rules.through
    for length, graph in zip(range(2, max_len + 1), islice(graphs, 2, None)):
        held = step if length <= through else None
        words = iter_words(indices, length, graph, rules.trace, held)
        yield from filter(least_in_bracelet, words) if rules.trace else words


def _switching_rank(indices: Collection[int], letters: LetterTuple) -> int:
    """The 1-based rank of a switching word among the words of its length
    in text order that use at least two indices: per position j and
    smaller letter c there, the (2n)^r words that follow letters[:j] + c,
    less the 2^r of them in one index when letters[:j] + c is in one."""
    alphabet = text_ordered_letters(indices)
    rank = 1
    for j, letter in enumerate(letters):
        r = len(letters) - 1 - j
        for c in alphabet[: alphabet.index(letter)]:
            one_index = all(l.index == c.index for l in letters[:j])
            rank += len(alphabet) ** r - (2**r if one_index else 0)
    return rank


def test_freeness(
    joint: JointOracle,
    indices: Iterable[int],
    max_len: int = 8,
    rules: ScanRules = ScanRules(),
) -> Verdict:
    """Bounded star-freeness of the variables with the given indices
    under a joint functional.

    Scans every word up to max_len letters that switches variable at
    least once, computes the centered alternating product by
    inclusion-exclusion through the joint oracle, and reports the first
    nonzero value in (length, canonical text) order.  words_checked
    counts every such word up to and including the witness, in closed
    form: (2n)^L - n 2^L per shorter length L over n indices, plus the
    witness's rank in its own (_switching_rank).

    Only the words that switching_words walks by rules are built and
    evaluated; every other word's centered product is zero or that of a
    shorter word (ScanRules), so the witness and its lhs are those of the
    scan over every word.
    """
    class_of = {i: i for i in indices}
    n = len(class_of)
    oracle = _memoized(joint)
    shorter = lambda length: sum((2 * n) ** L - n * 2**L for L in range(2, length))
    for word in switching_words(class_of, max_len, rules):
        value = centered_product_value(oracle, word, class_of)
        if not value.is_zero():
            checked = shorter(len(word)) + _switching_rank(class_of, word)
            return Verdict(False, word, value, max_len, checked)
    return Verdict(True, None, None, max_len, shorter(max_len + 1))
