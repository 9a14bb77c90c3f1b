"""Direct products of free products of cyclic groups, with normal forms.

Elements are stored componentwise; inside each direct-product component
a word is an alternating sequence of syllables (generator, exponent)
with nonzero exponents reduced modulo the generator order.  Reduction is
a stack merge, so equality of elements is equality of normal forms.

On top of the arithmetic sit the bounded decision procedures: freeness
of a collection via alternating products, projection kernels, and the
commutator-style witness for mixed-order direct products.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iter_product
from math import gcd, lcm
from operator import ne
from typing import Iterator, Sequence, Union

from .errors import PreconditionError, ScenarioError
from .starwords import iter_sequences, merge_powers

Syllable = tuple[int, int]  # (1-based generator index, nonzero exponent)
FactorWord = tuple[Syllable, ...]


@dataclass(frozen=True)
class FreeProductPresentation:
    """One direct-product component: a free product of cyclic groups."""

    orders: tuple[int | None, ...]  # per generator; None means infinite

    def __post_init__(self) -> None:
        for d in self.orders:
            if d is not None and d < 2:
                raise ScenarioError(f"cyclic order must be >= 2 or inf, got {d}")

    @property
    def num_generators(self) -> int:
        return len(self.orders)

    @cached_property
    def generator_orders(self) -> dict[int, int]:
        """Finite orders keyed by 1-based generator index."""
        return {j: d for j, d in enumerate(self.orders, start=1) if d is not None}


@dataclass(frozen=True)
class GroupPresentation:
    """A direct product of free-product components."""

    factors: tuple[FreeProductPresentation, ...]

    @property
    def num_factors(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class GroupElement:
    components: tuple[FactorWord, ...]

    def is_identity(self) -> bool:
        return all(not w for w in self.components)

    def text(self) -> str:
        parts = []
        for k, word in enumerate(self.components, start=1):
            for j, e in word:
                parts.append(f"g{k}.{j}^{e}")
        return " ".join(parts) if parts else "e"


def identity(presentation: GroupPresentation) -> GroupElement:
    return GroupElement(tuple(() for _ in presentation.factors))


def reduce_factor_word(
    component: FreeProductPresentation, syllables: Sequence[Syllable]
) -> FactorWord:
    n = component.num_generators
    for j, _ in syllables:
        if not 1 <= j <= n:
            raise ScenarioError(f"generator g.{j} out of range")
    return merge_powers(syllables, component.generator_orders)


def reduce(
    presentation: GroupPresentation,
    syllables_per_component: Sequence[Sequence[Syllable]],
) -> GroupElement:
    """Normal form of an unreduced componentwise word."""
    if len(syllables_per_component) != presentation.num_factors:
        raise ScenarioError("component count does not match presentation")
    return GroupElement(
        tuple(
            reduce_factor_word(comp, sylls)
            for comp, sylls in zip(presentation.factors, syllables_per_component)
        )
    )


def multiply(
    presentation: GroupPresentation, a: GroupElement, b: GroupElement
) -> GroupElement:
    return GroupElement(
        tuple(
            reduce_factor_word(comp, wa + wb)
            for comp, wa, wb in zip(presentation.factors, a.components, b.components)
        )
    )


def inverse(presentation: GroupPresentation, a: GroupElement) -> GroupElement:
    return GroupElement(
        tuple(
            reduce_factor_word(comp, tuple((j, -e) for j, e in reversed(w)))
            for comp, w in zip(presentation.factors, a.components)
        )
    )


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
                exp = int(exp_text)
            except ValueError:
                raise ScenarioError(f"bad exponent in group token {token!r}") from None
        k_text, dot, j_text = body.partition(".")
        if not dot or not k_text.isdigit() or not j_text.isdigit():
            raise ScenarioError(f"bad group token {token!r}")
        k, j = int(k_text), int(j_text)
        if not 1 <= k <= presentation.num_factors:
            raise ScenarioError(f"component {k} out of range in {token!r}")
        per_component[k - 1].append((j, exp))
    return reduce(presentation, per_component)


# -- orders ------------------------------------------------------------


def _syllable_order(order: int | None, exp: int) -> int | None:
    if order is None:
        return None  # infinite cyclic, nonzero power has infinite order
    exp %= order
    return order // gcd(exp, order)


def _factor_word_order(
    component: FreeProductPresentation, word: FactorWord, bound: int
) -> int | None:
    """Order of one component word, or None when not found within bound."""
    if not word:
        return 1
    if len(word) == 1:
        j, e = word[0]
        return _syllable_order(component.orders[j - 1], e)
    sub = GroupPresentation((component,))
    g = GroupElement((word,))
    acc = g
    for n in range(1, bound + 1):
        if acc.is_identity():
            return n
        acc = multiply(sub, acc, g)
    return None


def element_order(
    presentation: GroupPresentation, g: GroupElement, bound: int = 24
) -> int | None:
    """Least n with g^n = e, as the lcm of componentwise orders.

    Returns None when some component has no order within the bound
    (in particular for known-infinite components).  The lcm may exceed
    the bound; it is still exact because each component order is.
    """
    orders: list[int] = []
    for comp, word in zip(presentation.factors, g.components):
        d = _factor_word_order(comp, word, bound)
        if d is None:
            return None
        orders.append(d)
    return lcm(*orders) if orders else 1


# -- bounded freeness search -------------------------------------------

ExponentBlocks = tuple[tuple[int, int], ...]  # (1-based element index, exponent)


@dataclass(frozen=True)
class GroupWitness:
    """An alternating product of element powers that reduces to identity."""

    blocks: ExponentBlocks

    def text(self) -> str:
        return " ".join(f"d{i}^{n}" for i, n in self.blocks)


@dataclass(frozen=True)
class GroupFreenessVerdict:
    free: bool
    witness: GroupWitness | None
    max_blocks: int
    max_exp: int
    words_checked: int


ElementCollection = Union[Sequence["GroupElement"], Mapping[int, "GroupElement"]]


def _element_list(elements: ElementCollection) -> list[GroupElement]:
    """Collections can be given as sequences or index keyed mappings;
    witnesses always number the elements 1..n in listing (key) order."""
    if isinstance(elements, Mapping):
        return [elements[k] for k in sorted(elements)]
    return list(elements)


def _exponent_order(max_exp: int) -> list[int]:
    out: list[int] = []
    for e in range(1, max_exp + 1):
        out.extend((e, -e))
    return out


def _nontrivial_powers(
    presentation: GroupPresentation, elements: Sequence[GroupElement], max_exp: int
) -> dict[tuple[int, int], GroupElement]:
    powers: dict[tuple[int, int], GroupElement] = {}
    for i, g in enumerate(elements, start=1):
        for e in _exponent_order(max_exp):
            p = power(presentation, g, e)
            if not p.is_identity():
                powers[(i, e)] = p
    return powers


def _subgroup_words(
    presentation: GroupPresentation,
    elements: Sequence[GroupElement],
    max_blocks: int,
    max_exp: int,
) -> Iterator[tuple[ExponentBlocks, GroupElement]]:
    """Products of powers of the collection, breadth-first by block count."""
    powers = _nontrivial_powers(presentation, elements, max_exp)
    exp_order = _exponent_order(max_exp)
    for t in range(1, max_blocks + 1):
        for index_seq in iter_sequences(range(1, len(elements) + 1), t, ne):
            for exps in iter_product(exp_order, repeat=t):
                blocks = tuple(zip(index_seq, exps))
                factors = []
                ok = True
                for key in blocks:
                    p = powers.get(key)
                    if p is None:
                        ok = False
                        break
                    factors.append(p)
                if not ok:
                    continue
                acc = factors[0]
                for f in factors[1:]:
                    acc = multiply(presentation, acc, f)
                yield blocks, acc


def is_free_collection(
    presentation: GroupPresentation,
    elements: ElementCollection,
    max_blocks: int = 4,
    max_exp: int = 3,
) -> GroupFreenessVerdict:
    """Bounded group-freeness test by alternating products of powers.

    Enumerates products g_{i(1)}^{n(1)} ... g_{i(t)}^{n(t)} with
    consecutive indices distinct, 2 <= t <= max_blocks, 0 < |n| <= max_exp,
    skipping blocks whose power is already the identity.  The collection is
    free within bounds iff no such product reduces to the identity.
    The first violation in breadth-first order is the witness.
    """
    checked = 0
    for blocks, element in _subgroup_words(
        presentation, _element_list(elements), max_blocks, max_exp
    ):
        if len(blocks) < 2:
            continue
        checked += 1
        if element.is_identity():
            return GroupFreenessVerdict(
                False, GroupWitness(blocks), max_blocks, max_exp, checked
            )
    return GroupFreenessVerdict(True, None, max_blocks, max_exp, checked)


# -- projection kernels -------------------------------------------------


@dataclass(frozen=True)
class KernelReport:
    component: int
    trivial_within_bounds: bool
    witness: GroupWitness | None
    element: GroupElement | None
    max_blocks: int
    max_exp: int


def _component_is_identity(g: GroupElement, k: int) -> bool:
    return not g.components[k - 1]


def projection_kernel_trivial(
    presentation: GroupPresentation,
    elements: ElementCollection,
    component: int,
    max_blocks: int = 4,
    max_exp: int = 3,
) -> KernelReport:
    """Search the generated subgroup for a nonidentity element killed by
    the projection onto one direct-product component.

    Shortest kernel witnesses come first because the walk is breadth-first
    over block count and then exponent magnitude.
    """
    if not 1 <= component <= presentation.num_factors:
        raise ScenarioError(f"component {component} out of range")
    elements = _element_list(elements)
    for blocks, element in _subgroup_words(presentation, elements, max_blocks, max_exp):
        if not element.is_identity() and _component_is_identity(element, component):
            return KernelReport(
                component, False, GroupWitness(blocks), element, max_blocks, max_exp
            )
    return KernelReport(component, True, None, None, max_blocks, max_exp)


def kernel_elements(
    presentation: GroupPresentation,
    elements: ElementCollection,
    component: int,
    max_blocks: int = 3,
    max_exp: int = 2,
) -> list[GroupElement]:
    """All bounded-search kernel elements for one projection, deduplicated."""
    elements = _element_list(elements)
    found: list[GroupElement] = []
    seen: set = set()
    for _, element in _subgroup_words(presentation, elements, max_blocks, max_exp):
        if element.is_identity() or not _component_is_identity(element, component):
            continue
        if element not in seen:
            seen.add(element)
            found.append(element)
    return found


# -- mixed-order commutator witness --------------------------------------


@dataclass(frozen=True)
class CommutatorWitnessReport:
    blocks: ExponentBlocks  # over the two elements, 1 = d_i, 2 = d_j
    reduces_to_identity: bool
    nontrivial_blocks: bool

    def word_text(self) -> str:
        return " ".join(f"d{i}^{n}" for i, n in self.blocks)


def commutator_witness(
    presentation: GroupPresentation,
    d_i: GroupElement,
    d_j: GroupElement,
    m: int,
    n: int,
) -> CommutatorWitnessReport:
    """Freeness-violating word for mixed-order direct product elements.

    Hypothesis: the first component of d_i dies at power m while the rest
    does not, and the rest dies at power n while the first component does
    not.  Then d_i^m d_j d_i^n d_j^-1 d_i^-m d_j d_i^-n d_j^-1 reduces to
    the identity although every block is nontrivial, so (d_i, d_j) is not
    free whenever d_j is nontrivial and distinct from d_i.
    """
    if presentation.num_factors < 2:
        raise PreconditionError("commutator witness needs at least two components")
    if d_i == d_j:
        raise PreconditionError("commutator witness requires distinct elements")
    if d_j.is_identity():
        raise PreconditionError("d_j must be nontrivial")

    pm = power(presentation, d_i, m)
    pn = power(presentation, d_i, n)
    first_dies_at_m = _component_is_identity(pm, 1)
    rest_alive_at_m = any(pm.components[k] for k in range(1, presentation.num_factors))
    rest_dies_at_n = all(
        not pn.components[k] for k in range(1, presentation.num_factors)
    )
    first_alive_at_n = not _component_is_identity(pn, 1)
    if not (first_dies_at_m and rest_alive_at_m and rest_dies_at_n and first_alive_at_n):
        raise PreconditionError(
            "order pattern does not hold: need component 1 of d_i to die at m "
            "(rest surviving) and the rest to die at n (component 1 surviving)"
        )

    blocks: ExponentBlocks = (
        (1, m), (2, 1), (1, n), (2, -1), (1, -m), (2, 1), (1, -n), (2, -1),
    )
    elements = {1: d_i, 2: d_j}
    acc = identity(presentation)
    nontrivial = True
    for idx, e in blocks:
        block_power = power(presentation, elements[idx], e)
        if block_power.is_identity():
            nontrivial = False
        acc = multiply(presentation, acc, block_power)
    return CommutatorWitnessReport(blocks, acc.is_identity(), nontrivial)


# -- dominating factor for free direct-product collections ---------------


@dataclass(frozen=True)
class GroupDominatingReport:
    collection_free: bool
    freeness_witness: GroupWitness | None
    dominating: int | None
    component_reports: tuple[tuple[int, bool, bool], ...]  # (k, comp free, orders ok)
    searched: bool
    suspect: bool  # free collection but no component passed: bounds or bug


def _component_elements(
    presentation: GroupPresentation, elements: Sequence[GroupElement], k: int
) -> tuple[GroupPresentation, list[GroupElement]]:
    sub = GroupPresentation((presentation.factors[k - 1],))
    return sub, [GroupElement((g.components[k - 1],)) for g in elements]


def group_dominating_report(
    presentation: GroupPresentation,
    elements: ElementCollection,
    max_blocks: int = 4,
    max_exp: int = 3,
) -> GroupDominatingReport:
    """For a free collection of direct products, locate a component whose
    projections are free and respect the order condition.

    The order condition bounded to n <= max_exp: whenever d_i^n is not the
    identity, its k-th component is not either.  When the collection is
    free but no component passes, the result is flagged suspect: either
    the bounds are too small or there is an implementation fault, because
    a dominating component must exist for free collections.
    """
    elements = _element_list(elements)
    for g in elements:
        if g.is_identity():
            raise PreconditionError("collection must not contain the neutral element")
    verdict = is_free_collection(presentation, elements, max_blocks, max_exp)
    if not verdict.free:
        return GroupDominatingReport(False, verdict.witness, None, (), False, False)

    reports: list[tuple[int, bool, bool]] = []
    dominating: int | None = None
    for k in range(1, presentation.num_factors + 1):
        sub, comps = _component_elements(presentation, elements, k)
        comp_free = is_free_collection(sub, comps, max_blocks, max_exp).free
        orders_ok = True
        for g in elements:
            for e in range(1, max_exp + 1):
                pe = power(presentation, g, e)
                if not pe.is_identity() and not pe.components[k - 1]:
                    orders_ok = False
                    break
            if not orders_ok:
                break
        reports.append((k, comp_free, orders_ok))
        if dominating is None and comp_free and orders_ok:
            dominating = k
    return GroupDominatingReport(
        True, None, dominating, tuple(reports), True, dominating is None
    )
