"""Analysis of the biased-power tensor family.

For K >= 2 factors, build the pair of joint unitaries

    D_1 = a_1 (x) ... (x) a_K     with  phi_k(a_k^n) = alpha iff n = k,
    D_2 = u_1 (x) ... (x) u_K     with every u_k Haar unitary,

where (a_k, u_k) is *-free inside factor k.  Every nonzero power of D_1
and D_2 then has vanishing moment even though each a_k keeps a biased
power moment, so none of the necessary-condition machinery applies to
the pair.  The operations here scan alternating power words in (D_1,
D_2) for freeness violations and measure how the cumulant support of
such a word shrinks under the parity and singleton filters.  The filter
analysis yields a lower bound on the block pair count, and hence on the
length, of any word that could witness non-freeness.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb
from typing import Iterable, NamedTuple, Sequence

from .errors import DepthLimitError, PreconditionError, ScenarioError
from .freeness import JointOracle, ScanRules, Verdict, switching_words
from .ncpartitions import MomentSequence, catalan, iter_pure_parity_blocks
from .scalars import as_scalar
from .spaces import SpectralModel
from .starwords import (
    LetterTuple,
    adjoint_letters,
    iter_letters,
    power_word_to_star_word,
)
from .tensor import TensorScenario, joint_oracle

# alpha of the biased-power scenario when none is given
DEFAULT_ALPHA = Fraction(1, 10)
# the filter table stops at this many block pairs
BLOCK_PAIR_CAP = 7


def biased_power_scenario(K: int, alpha) -> TensorScenario:
    """Tensor scenario pairing one biased power unitary per factor with
    a Haar unitary.

    Joint variable 1 collects the biased components a_k, joint variable
    2 the Haar ones.  With a single factor, D_1 = a_1 would keep the
    nonvanishing first moment alpha, so K >= 2 is required for the
    vanishing-power profile the analysis is about.  The law of a_k has
    density 1 + 2 Re(conj(alpha) e^{ik theta}), which is a state exactly
    when |alpha| <= 1/2.
    """
    if K < 2:
        raise ScenarioError(
            "the biased power family needs at least two factors; with one "
            "factor the joint variable keeps a nonvanishing power moment"
        )
    value = as_scalar(alpha)
    if value.is_zero():
        raise ScenarioError("alpha must be nonzero")
    if value.abs2() > Fraction(1, 4):
        raise ScenarioError(
            f"alpha {value} has modulus above 1/2, so the biased law is not a state"
        )
    factors = []
    for k in range(1, K + 1):
        biased = MomentSequence({k: value}, unitary=True)
        haar = MomentSequence({}, unitary=True)
        factors.append(SpectralModel({1: biased, 2: haar}, assume_free=True))
    return TensorScenario(
        factors=tuple(factors), assignments={1: (1,) * K, 2: (2,) * K}
    )


# -- power word scan ------------------------------------------------------


class PowerScanLine(NamedTuple):
    """Scan totals for one block pair count."""

    block_pairs: int
    words: int
    violations: int


def reduced_word_count(n: int, length: int, runs: int) -> int:
    """The reduced words (no letter next to its adjoint) of the given
    length over n variables whose letters fall into the given number of
    maximal one-variable runs.

    Such a word is a sequence of run variables, each unlike the one
    before (n (n-1)^(runs-1) of them), a composition of the length into
    run lengths (C(length-1, runs-1)), and a sign per run: a reduced run
    is a nonzero power, all plain letters or all starred ones.
    """
    return n * (n - 1) ** (runs - 1) * comb(length - 1, runs - 1) * 2**runs


def scan_alternating_powers(
    joint: JointOracle, variables: Sequence[int], max_len: int, rules: ScanRules
) -> tuple[Verdict, tuple[PowerScanLine, ...]]:
    """Exhaustive freeness scan over reduced alternating power words.

    Requires every single power up to the bound to have vanishing
    moment, which makes each word's plain moment equal to its centered
    alternating product.  Unlike the early-stopping freeness tests this
    covers every word of total exponent size 2..max_len and tallies
    words and nonzero values per block pair count; the verdict carries
    the first violation in (length, text) order if any exists.

    Each tally line counts its words in closed form
    (reduced_word_count), and words_checked is their total.
    freeness.switching_words with every variable unitary walks the
    reduced words that use two variables, the star forms of the reduced
    alternating power words, and keep the gauge constraints and the
    per-height rules of rules (TensorScenario.scan_rules); every other
    word has moment zero.

    joint must be a Hermitian trace of unitaries, as analyze_biased_power's
    scenario is by its factors' declarations (SpectralModel.unitary_trace)
    and a group algebra under its canonical trace is.  Then a word's moment
    is a function of its class under rotation and adjoint reversal
    (conjugated on the adjoint side), at every length, and joint is asked
    once per bracelet (switching_words with trace): a violating rep adds
    each distinct rotation of itself and of its adjoint reversal, every
    one of them kept, to its own run count's tally.  The kept words that
    are not cyclically reduced are the reduced l c l*, whose moment is
    that of c; so the violating ones of each length are those with c
    among the violations two letters shorter, counted without a call to
    joint.  The witness is the first violating rep: at the first
    violating length every violating word is cyclically reduced, and a
    rep is the least word of its class.
    """
    for v in variables:
        for e in range(1, max_len):
            for sign in (e, -e):
                if not joint(power_word_to_star_word(((v, sign),))).is_zero():
                    raise PreconditionError(
                        f"marginal of x{v} is not Haar-type: power {sign} "
                        "has nonzero moment"
                    )
    n = len(set(variables))
    tallies: dict[int, list[int]] = {}
    for total in range(2, max_len + 1):
        for runs in range(2, total + 1):
            words = reduced_word_count(n, total, runs)
            if words:
                tallies.setdefault((runs + 1) // 2, [0, 0])[0] += words
    first = None
    # per length, the violating words counted by (first letter, last
    # letter, run count): all that growing l c l* and the tallies read
    violating: dict[int, Counter] = {}
    # the closed-form tallies count the reduced words, one per bracelet
    rules = rules._replace(unitary=variables, trace=True)
    for word in switching_words(variables, max_len, rules):
        value = joint(word)
        if not value.is_zero():
            size = len(word)
            adjoint = adjoint_letters(word)
            orbit = {w[i:] + w[:i] for w in (word, adjoint) for i in range(size)}
            found = violating.setdefault(size, Counter())
            found.update((w[0], w[-1], _run_count(w)) for w in orbit)
            if first is None:
                first = word, value
    alphabet = iter_letters(variables)
    for length in range(4, max_len + 1):
        found = violating.setdefault(length, Counter())
        for (head, tail, runs), count in violating.get(length - 2, {}).items():
            for l in alphabet:
                if head != l.adjoint() and tail != l:
                    more = (l.index != head.index) + (l.index != tail.index)
                    found[l, l.adjoint(), runs + more] += count
    for found in violating.values():
        for (_, _, runs), count in found.items():
            tallies[(runs + 1) // 2][1] += count
    scan = tuple(
        PowerScanLine(pairs, words, bad)
        for pairs, (words, bad) in sorted(tallies.items())
    )
    checked = sum(line.words for line in scan)
    witness, value = first or (None, None)
    return Verdict(witness is None, witness, value, max_len, checked), scan


def _run_count(letters: LetterTuple) -> int:
    """The maximal one-variable runs of a word's letters."""
    return 1 + sum(a.index != b.index for a, b in zip(letters, letters[1:]))


# -- cumulant support filters ---------------------------------------------


class FilterCounts(NamedTuple):
    """Partition counts surviving each cumulant support filter at one t.

    An alternating word of block pair count t expands over the
    noncrossing partitions of its 2t blocks.  Freeness of the factor
    pairs kills mixed-parity blocks, Haar components kill even
    singletons, and the biased marginals force every singleton of a
    surviving partition to carry one designated exponent per factor.
    disjoint_singleton_capacity is the largest number of factors those
    singleton constraints can serve simultaneously: partitions with
    pairwise disjoint singleton sets, one per factor.  The supports are
    the distinct singleton position sets of the surviving partitions;
    a factor's partition set is nonempty exactly when some support is
    labeled entirely with that factor's exponent.
    """

    block_pairs: int
    noncrossing: int
    pure_parity: int
    no_even_singletons: int
    disjoint_singleton_capacity: int
    singleton_supports: tuple[tuple[int, ...], ...]


def _max_disjoint(sets: Iterable[frozenset[int]]) -> int:
    """Size of the largest pairwise disjoint subfamily."""
    family = sorted(set(sets), key=lambda s: (len(s), sorted(s)))
    best = 0

    def extend(i: int, used: frozenset[int], count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if count + (len(family) - i) <= best:
            return
        for j in range(i, len(family)):
            if used & family[j]:
                continue
            extend(j + 1, used | family[j], count + 1)

    extend(0, frozenset(), 0)
    return best


def filter_counts(t: int) -> FilterCounts:
    """Count the partitions of {1..2t} surviving each filter stage."""
    two_t = 2 * t
    pure = 0
    no_even = 0
    sets: set[frozenset[int]] = set()
    for blocks in iter_pure_parity_blocks(two_t):
        pure += 1
        singles = frozenset(b[0] for b in blocks if len(b) == 1)
        # pure-parity noncrossing partitions always own a singleton, so
        # each surviving partition really does constrain an exponent
        assert singles
        if all(p % 2 == 1 for p in singles):
            no_even += 1
            sets.add(singles)
    supports = tuple(sorted(tuple(sorted(s)) for s in sets))
    return FilterCounts(
        t, catalan(two_t), pure, no_even, _max_disjoint(sets), supports
    )


def filter_table(K: int) -> tuple[tuple[FilterCounts, ...], int | None]:
    """The filter rows for t = 1, 2, ... and the smallest t whose
    filtered partitions can serve K factors at once.

    A violating word must keep, for every factor k, some partition all
    of whose singletons carry exponent +-k; distinct factors therefore
    need partitions with pairwise disjoint singleton sets.  The table
    grows until that capacity first reaches K, and its last t is then
    the minimal one, a necessary size bound only: nothing here says a
    violation of that size exists.  None means the capacity stays below
    K through BLOCK_PAIR_CAP, where the table stops.
    """
    if K < 1:
        raise ValueError("K must be positive")
    rows: list[FilterCounts] = []
    for t in range(1, BLOCK_PAIR_CAP + 1):
        rows.append(filter_counts(t))
        if rows[-1].disjoint_singleton_capacity >= K:
            return tuple(rows), t
    return tuple(rows), None


# -- full analysis ---------------------------------------------------------


class BiasedPowerReport(NamedTuple):
    verdict: Verdict
    scan: tuple[PowerScanLine, ...]
    filters: tuple[FilterCounts, ...]
    minimal_block_pairs: int | None


def analyze_biased_power(K: int, alpha, max_len: int = 8) -> BiasedPowerReport:
    """Scan the biased-power pair for freeness violations and locate the
    smallest block pair count the filters leave open.

    The scan walks only the words whose x2 exponent sum is 0 and whose
    x1 letters at every height (the x2 sum before them) sum to 0 mod
    lcm(2..K) (the gauge and heights of the scenario's scan_rules: factor k's
    a_k has nonzero powers +-k only, and each u_k is Haar); every other
    word has moment zero and is counted in closed form.
    The scan evaluates one word per bracelet (scan_alternating_powers),
    because each factor is a free product of unitary
    power-moment laws, a Hermitian trace of unitaries by its declaration
    (SpectralModel.unitary_trace).

    Past the scenario's evaluable_through, which is the free engine's
    MIXED_MOMENT_LENGTH_CAP here, the free engine refuses every mixed
    word, and the scan would reach one only after every shorter length,
    so the depth limit is raised before the scan, with the message the
    first such word would give.  The scan's Haar-type check that it
    skips cannot fail here: every factor gives x2 Haar, and the power n
    of x1 needs n = k in every factor k at once.

    The filter table is filter_table(K).
    """
    scenario = biased_power_scenario(K, alpha)
    cap = scenario.evaluable_through
    if cap is not None and max_len > cap:
        raise DepthLimitError("mixed moment word", cap + 1, cap)
    verdict, scan = scan_alternating_powers(
        joint_oracle(scenario), (1, 2), max_len, scenario.scan_rules
    )
    return BiasedPowerReport(verdict, scan, *filter_table(K))
