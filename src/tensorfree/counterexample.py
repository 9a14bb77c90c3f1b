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

from fractions import Fraction
from math import comb
from typing import Iterable, NamedTuple, Sequence

from .errors import PreconditionError, ScenarioError
from .freeness import Gauge, JointOracle, Verdict, switching_words
from .ncpartitions import MomentSequence, catalan, iter_pure_parity_blocks
from .scalars import as_scalar
from .spaces import SpectralModel
from .starwords import power_word_to_star_word
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
    joint: JointOracle, variables: Sequence[int], max_len: int = 8, gauge: Gauge = ()
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
    alternating power words, and keep the gauge constraints
    (TensorScenario.gauge_moduli); joint is asked about each of them,
    and every other word has moment zero.
    analyze_biased_power passes the biased-power scenario's
    joint_oracle; that scenario is a trace of unitaries by construction,
    so the oracle evaluates one word per tracial class
    (tensor._tracial_classes).  The scan itself does not rely on that.
    """
    for v in variables:
        for e in range(1, max_len):
            for sign in (e, -e):
                letters = power_word_to_star_word(((v, sign),)).letters
                if not joint(letters).is_zero():
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
    for word in switching_words(variables, max_len, variables, gauge):
        letters = word.letters
        value = joint(letters)
        if not value.is_zero():
            runs = 1 + sum(a.index != b.index for a, b in zip(letters, letters[1:]))
            tallies[(runs + 1) // 2][1] += 1
            if first is None:
                first = word, value
    scan = tuple(
        PowerScanLine(pairs, words, bad)
        for pairs, (words, bad) in sorted(tallies.items())
    )
    checked = sum(line.words for line in scan)
    witness, value = first or (None, None)
    return Verdict(witness is None, witness, value, max_len, checked), scan


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

    The scan walks only the words whose x1 exponent sum is 0 mod
    lcm(2..K) and whose x2 exponent sum is 0 (the scenario's
    gauge_moduli: factor k's a_k has nonzero powers +-k only, and each
    u_k is Haar); every other word has moment zero and is counted in
    closed form.
    joint_oracle evaluates the tensor product once per tracial class,
    because each factor is a free product of unitary power-moment laws
    (TensorScenario.unitary_trace).

    The filter table is filter_table(K).
    """
    scenario = biased_power_scenario(K, alpha)
    verdict, scan = scan_alternating_powers(
        joint_oracle(scenario), (1, 2), max_len, scenario.gauge_moduli
    )
    return BiasedPowerReport(verdict, scan, *filter_table(K))
