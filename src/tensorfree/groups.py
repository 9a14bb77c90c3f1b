"""Direct products of free products of cyclic groups, with normal forms.

Elements are stored componentwise; inside each direct-product component
a word is an alternating sequence of syllables (generator, exponent)
with nonzero exponents reduced modulo the generator order.  Reduction is
the stack merge of starwords.merge_powers, so equality of elements is
equality of normal forms.

On top of the arithmetic sit exact element orders and the decision
procedures of Prop 1.6: bounded freeness of a collection via alternating
products, which builds only the products its abelian gauge keeps and
counts the rest in closed form, and the dominating-component search
built on it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product as iter_product
from math import gcd, lcm
from operator import add
from typing import Mapping, NamedTuple, Sequence

from .errors import PreconditionError, ScenarioError
from .starwords import iter_sequences, merge_powers, parse_int

Syllable = tuple[int, int]  # (1-based generator index, nonzero exponent)
FactorWord = tuple[Syllable, ...]


class _FreeProductFields(NamedTuple):
    orders: tuple[int | None, ...]  # per generator; None means infinite


class FreeProductPresentation(_FreeProductFields):
    """One direct-product component: a free product of cyclic groups."""

    def __new__(cls, orders: tuple[int | None, ...]) -> "FreeProductPresentation":
        for d in orders:
            if d is not None and d < 2:
                raise ScenarioError(f"cyclic order must be >= 2 or inf, got {d}")
        return tuple.__new__(cls, (orders,))

    @property
    def num_generators(self) -> int:
        return len(self.orders)

    @cached_property
    def generator_orders(self) -> dict[int, int]:
        """Finite orders keyed by 1-based generator index."""
        return {j: d for j, d in enumerate(self.orders, start=1) if d is not None}


class GroupPresentation(NamedTuple):
    """A direct product of free-product components."""

    factors: tuple[FreeProductPresentation, ...]

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    @property
    def abelian_orders(self) -> tuple[int, ...]:
        """The abelianization is the direct sum of Z_n over the generators
        of every component, in order; n per generator, 0 for Z."""
        return tuple(d or 0 for comp in self.factors for d in comp.orders)


class GroupElement(NamedTuple):
    components: tuple[FactorWord, ...]

    def is_identity(self) -> bool:
        return all(not w for w in self.components)

    def text(self) -> str:
        words = enumerate(self.components, start=1)
        return " ".join(f"g{k}.{j}^{e}" for k, w in words for j, e in w) or "e"


def identity(presentation: GroupPresentation) -> GroupElement:
    return GroupElement(tuple(() for _ in presentation.factors))


def reduce_factor_word(
    component: FreeProductPresentation, syllables: Sequence[Syllable]
) -> FactorWord:
    return merge_powers(syllables, component.generator_orders)


def reduce(
    presentation: GroupPresentation,
    syllables_per_component: Sequence[Sequence[Syllable]],
) -> GroupElement:
    """Normal form of an unreduced componentwise word."""
    words = syllables_per_component
    return GroupElement(tuple(map(reduce_factor_word, presentation.factors, words)))


def multiply(
    presentation: GroupPresentation, a: GroupElement, b: GroupElement
) -> GroupElement:
    words = map(add, a.components, b.components)
    return GroupElement(tuple(map(reduce_factor_word, presentation.factors, words)))


def inverse(presentation: GroupPresentation, a: GroupElement) -> GroupElement:
    words = (tuple((j, -e) for j, e in reversed(w)) for w in a.components)
    return GroupElement(tuple(map(reduce_factor_word, presentation.factors, words)))


def power(presentation: GroupPresentation, a: GroupElement, n: int) -> GroupElement:
    if n < 0:
        return power(presentation, inverse(presentation, a), -n)
    acc = identity(presentation)
    base = a
    while n:
        if n & 1:
            acc = multiply(presentation, acc, base)
        base = multiply(presentation, base, base)
        n >>= 1
    return acc


def abelian_image(presentation: GroupPresentation, g: GroupElement) -> tuple[int, ...]:
    """The image of g in the abelianization (GroupPresentation.
    abelian_orders): per generator of every component, the exponent sum
    of g's normal form, reduced mod the generator's order.  It is a
    homomorphism, so the identity maps to zero."""
    image: list[int] = []
    for comp, word in zip(presentation.factors, g.components):
        sums = [0] * comp.num_generators
        for j, e in word:
            sums[j - 1] += e
        image.extend(s % d if d else s for s, d in zip(sums, comp.orders))
    return tuple(image)


def abelian_gauge(
    presentation: GroupPresentation, elements: Mapping[int, GroupElement]
) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """The abelianization's constraints on a product of the labelled
    elements that is the identity, as (modulus, ((label, weight), ...))
    pairs sorted by weights: freeness.Gauge's form.

    A product maps to the weighted exponent sum of its factors in each
    coordinate Z_n of the abelianization (abelian_image), label v
    weighing the coordinate of v's element and its inverse the negative.
    A nonzero sum means the product is not the identity.  Coordinates
    with the same weights merge by lcm, and those where every weight is
    zero constrain nothing and are left out.
    """
    images = {v: abelian_image(presentation, g) for v, g in elements.items()}
    moduli: dict[tuple[tuple[int, int], ...], int] = {}
    for c, n in enumerate(presentation.abelian_orders):
        weights = tuple((v, image[c]) for v, image in images.items() if image[c])
        if weights:
            moduli[weights] = lcm(moduli.get(weights, n), n)
    return tuple((m, weights) for weights, m in sorted(moduli.items()))


def parse_group_word(presentation: GroupPresentation, text: str) -> GroupElement:
    """Parse tokens like ``g1.2^-3``; the bare token ``e`` is the identity."""
    stripped = text.strip()
    if stripped == "e" or not stripped:
        return identity(presentation)
    per_component: list[list[Syllable]] = [[] for _ in presentation.factors]
    for token in stripped.split():
        if token == "e":
            continue
        if not token.startswith("g"):
            raise ScenarioError(f"bad group token {token!r}")
        body, caret, exp_text = token[1:].partition("^")
        exp = 1
        if caret:
            try:
                exp = parse_int(exp_text, signed=True)
            except ValueError:
                raise ScenarioError(f"bad exponent in group token {token!r}") from None
        k_text, _, j_text = body.partition(".")
        try:
            k, j = parse_int(k_text, signed=False), parse_int(j_text, signed=False)
        except ValueError:
            raise ScenarioError(f"bad group token {token!r}") from None
        if not 1 <= k <= presentation.num_factors:
            raise ScenarioError(f"component {k} out of range in {token!r}")
        if not 1 <= j <= presentation.factors[k - 1].num_generators:
            raise ScenarioError(f"generator g{k}.{j} out of range in {token!r}")
        per_component[k - 1].append((j, exp))
    return reduce(presentation, per_component)


# -- orders ------------------------------------------------------------


def _syllable_order(order: int | None, exp: int) -> int | None:
    if order is None:
        return None  # infinite cyclic, nonzero power has infinite order
    exp %= order
    return order // gcd(exp, order)


def _factor_word_order(
    component: FreeProductPresentation, word: FactorWord
) -> int | None:
    """Order of one reduced component word, or None when it is infinite.

    An element of a free product of cyclic groups has finite order only if
    it is conjugate into a factor (Lyndon and Schupp, Combinatorial Group
    Theory, Ch. IV.1).  Conjugating the last syllable to the front merges
    it into the first while the two share a generator; the cyclically
    reduced word left has finite order only if it is one syllable.
    """
    while len(word) >= 2 and word[0][0] == word[-1][0]:
        word = merge_powers((word[-1],) + word[:-1], component.generator_orders)
    if not word:
        return 1
    if len(word) == 1:
        j, e = word[0]
        return _syllable_order(component.orders[j - 1], e)
    return None


def element_order(presentation: GroupPresentation, g: GroupElement) -> int | None:
    """Least n >= 1 with g^n = e, or None when g has infinite order.

    The order is the lcm of the componentwise orders.
    """
    orders: list[int] = []
    for comp, word in zip(presentation.factors, g.components):
        d = _factor_word_order(comp, word)
        if d is None:
            return None
        orders.append(d)
    return lcm(*orders)


# -- bounded freeness search -------------------------------------------

ExponentBlocks = tuple[tuple[int, int], ...]  # (1-based element index, exponent)


class GroupWitness(NamedTuple):
    """An alternating product of element powers that reduces to identity."""

    blocks: ExponentBlocks

    def text(self) -> str:
        return " ".join(f"d{i}^{n}" for i, n in self.blocks)


class GroupFreenessVerdict(NamedTuple):
    free: bool
    witness: GroupWitness | None
    max_blocks: int
    max_exp: int
    words_checked: int


def is_free_collection(
    presentation: GroupPresentation,
    elements: Sequence[GroupElement],
    max_blocks: int = 4,
    max_exp: int = 3,
) -> GroupFreenessVerdict:
    """Bounded group-freeness test by alternating products of powers.

    Enumerates products g_{i(1)}^{n(1)} ... g_{i(t)}^{n(t)} with
    consecutive indices distinct, 2 <= t <= max_blocks, 0 < |n| <= max_exp,
    skipping blocks whose power is already the identity.  The collection is
    free within bounds iff no such product reduces to the identity.
    The first violation in breadth-first order (block count, then index
    sequence, then exponents) is the witness; it numbers the elements
    1..n in listing order.

    A product whose image in the abelianization is nonzero (abelian_gauge)
    is not the identity, so it is never built: the search walks the heads
    (the first t - 1 blocks) and looks up the last blocks whose folded
    image cancels the head's.  words_checked still counts every product
    up to and including the witness, in closed form per head.
    """
    exps = [s * n for n in range(1, max_exp + 1) for s in (1, -1)]
    # the nontrivial powers, keyed (index, exponent) in search order
    powers = {
        (i, e): p
        for i, g in enumerate(elements, start=1)
        for e in exps
        if not (p := power(presentation, g, e)).is_identity()
    }
    gauge = abelian_gauge(presentation, dict(enumerate(elements, start=1)))
    moduli = [m for m, _ in gauge]
    fold = lambda sums: tuple(s % m if m else s for s, m in zip(sums, moduli))
    # per nontrivial power, its weighted exponent sum per constraint
    images = {(i, e): tuple(e * dict(w).get(i, 0) for _, w in gauge) for i, e in powers}
    indices = range(1, len(elements) + 1)
    blocks_of = {i: [key for key in powers if key[0] == i] for i in indices}
    # per index and folded image, the index's blocks there, with their places
    last_blocks: dict[tuple, list[tuple[int, tuple[int, int]]]] = {}
    for keys in blocks_of.values():
        for place, key in enumerate(keys, start=1):
            last_blocks.setdefault((key[0], fold(images[key])), []).append((place, key))
    checked = 0
    differ = lambda before, i, _: None if i == before else i  # a new index next
    for t in range(2, max_blocks + 1):
        for *head_indices, i in iter_sequences(indices, t, step=differ):
            for head in iter_product(*map(blocks_of.get, head_indices)):
                sums = map(sum, zip(*map(images.get, head)))
                for place, key in last_blocks.get((i, fold(-s for s in sums)), ()):
                    acc = powers[head[0]]
                    for block in head[1:] + (key,):
                        acc = multiply(presentation, acc, powers[block])
                    if acc.is_identity():
                        witness = GroupWitness(head + (key,))
                        checked += place
                        return GroupFreenessVerdict(
                            False, witness, max_blocks, max_exp, checked
                        )
                checked += len(blocks_of[i])
    return GroupFreenessVerdict(True, None, max_blocks, max_exp, checked)


# -- dominating factor for free direct-product collections ---------------


class GroupDominatingReport(NamedTuple):
    """The collection's freeness witness (None when free within the
    bounds) and, for a free collection, one (k, projections free, orders
    preserved) row per component; everything else follows from these."""

    freeness_witness: GroupWitness | None
    component_reports: tuple[tuple[int, bool, bool], ...]

    @property
    def collection_free(self) -> bool:
        return self.freeness_witness is None

    @property
    def dominating(self) -> int | None:
        """The first component whose projections are free and keep orders."""
        rows = self.component_reports
        return next((k for k, free, orders in rows if free and orders), None)

    @property
    def searched(self) -> bool:
        """Components are searched exactly when the collection is free."""
        return self.collection_free

    @property
    def suspect(self) -> bool:
        """Free collection but no component passed: bounds or a fault."""
        return self.collection_free and self.dominating is None


def _component_elements(
    presentation: GroupPresentation, elements: Sequence[GroupElement], k: int
) -> tuple[GroupPresentation, list[GroupElement]]:
    sub = GroupPresentation((presentation.factors[k - 1],))
    return sub, [GroupElement((g.components[k - 1],)) for g in elements]


def group_dominating_report(
    presentation: GroupPresentation,
    elements: Sequence[GroupElement],
    max_blocks: int = 4,
    max_exp: int = 3,
) -> GroupDominatingReport:
    """For a free collection of direct products, locate a component whose
    projections are free and respect the order condition.

    The order condition is exact: the k-th component of every d_i has the
    same order as d_i (both may be infinite).  Only the freeness searches
    are bounded.  When the collection is free but no component passes, the
    result is flagged suspect: either the bounds are too small or there is
    an implementation fault, because a dominating component must exist for
    free collections.
    """
    for g in elements:
        if g.is_identity():
            raise PreconditionError("collection must not contain the neutral element")
    verdict = is_free_collection(presentation, elements, max_blocks, max_exp)
    if not verdict.free:
        return GroupDominatingReport(verdict.witness, ())

    orders = [element_order(presentation, g) for g in elements]
    reports: list[tuple[int, bool, bool]] = []
    for k in range(1, presentation.num_factors + 1):
        sub, comps = _component_elements(presentation, elements, k)
        comp_free = is_free_collection(sub, comps, max_blocks, max_exp).free
        orders_ok = all(element_order(sub, c) == d for c, d in zip(comps, orders))
        reports.append((k, comp_free, orders_ok))
    return GroupDominatingReport(None, tuple(reports))
