"""Bundled scenarios with exactly known behavior.

Each builder returns a ScenarioFile whose verdicts under the checks in
this package are known in closed form, so the test suite and the CLI
have fixed targets.  write_all saves them as JSON next to the package
for use as CLI inputs.
"""

from __future__ import annotations

from fractions import Fraction

from .counterexample import DEFAULT_ALPHA, biased_power_scenario
from .groups import (
    FreeProductPresentation,
    GroupPresentation,
    multiply,
    parse_group_word,
)
from .ncpartitions import MomentSequence, enumerate_nc
from .scalars import ExactComplex, as_scalar
from .scenario import GroupCollection, ScenarioFile, save_scenario
from .spaces import GroupAlgebraModel, SpectralModel, TableFunctional
from .starwords import iter_star_patterns
from .tensor import TensorScenario

FREE_GROUP_2 = GroupPresentation((FreeProductPresentation((None, None)),))
INTEGERS = GroupPresentation((FreeProductPresentation((None,)),))


def _haar_sequence() -> MomentSequence:
    return MomentSequence({}, unitary=True)


def circular_sequence() -> MomentSequence:
    """Star moments of a circular element.

    The moment of a star pattern counts its noncrossing pairings in
    which every pair joins a plain letter to a starred one.  Odd and
    unbalanced patterns get no entry, hence evaluate to zero through
    the declared completeness bound of 8 letters.
    """
    through = 8
    values: dict[tuple[bool, ...], ExactComplex] = {}
    for n in range(2, through + 1, 2):
        pairings = [
            blocks for blocks in enumerate_nc(n) if all(len(b) == 2 for b in blocks)
        ]
        for pattern in iter_star_patterns(n):
            if 2 * sum(pattern) != n:
                continue
            count = 0
            for blocks in pairings:
                if all(pattern[b[0] - 1] != pattern[b[1] - 1] for b in blocks):
                    count += 1
            if count:
                values[pattern] = as_scalar(count)
    return MomentSequence(values, complete_through=through)


def free_without_dominating() -> ScenarioFile:
    """Two joint variables that are star-free while neither factor
    satisfies the tensor freeness conditions.

    Factor one perturbs the canonical trace of the free group on g, h
    by the value 1/10 at gh and its inverse (which breaks traciality);
    factor two takes the integer powers 1 and 2 under the canonical
    trace.  The diagonal pair (g x 1, h x 2) is star-free, yet the
    dominating-factor search comes back empty.
    """
    g = parse_group_word(FREE_GROUP_2, "g1.1^1")
    h = parse_group_word(FREE_GROUP_2, "g1.2^1")
    gh = multiply(FREE_GROUP_2, g, h)
    factor1 = TableFunctional(FREE_GROUP_2, {1: g, 2: h}, {gh: Fraction(1, 10)})
    factor2 = GroupAlgebraModel(
        INTEGERS,
        {1: parse_group_word(INTEGERS, "g1.1^1"), 2: parse_group_word(INTEGERS, "g1.1^2")},
    )
    tensor = TensorScenario(
        factors=(factor1, factor2),
        assignments={1: (1, 1), 2: (2, 2)},
        name="free_without_dominating",
    )
    return ScenarioFile(
        name="free_without_dominating",
        kind="tensor",
        tensor=tensor,
        bounds={"max_len": 8, "gram_len": 2},
    )


def haar_dominated() -> ScenarioFile:
    """Free pair (g, h) tensored with the integer powers 1 and 2.

    Factor one carries a free pair of canonical-trace unitaries, so it
    dominates: both tensor freeness conditions hold with k = 1 and the
    diagonal pair is star-free.
    """
    factor1 = GroupAlgebraModel(
        FREE_GROUP_2,
        {1: parse_group_word(FREE_GROUP_2, "g1.1^1"), 2: parse_group_word(FREE_GROUP_2, "g1.2^1")},
    )
    factor2 = GroupAlgebraModel(
        INTEGERS,
        {1: parse_group_word(INTEGERS, "g1.1^1"), 2: parse_group_word(INTEGERS, "g1.1^2")},
    )
    tensor = TensorScenario(
        factors=(factor1, factor2),
        assignments={1: (1, 1), 2: (2, 2)},
        name="haar_dominated",
    )
    return ScenarioFile(
        name="haar_dominated",
        kind="tensor",
        tensor=tensor,
        bounds={"max_len": 6, "gram_len": 2},
    )


def doubly_free() -> ScenarioFile:
    """Free pairs in both factors, paired off diagonally.

    Every joint power moment vanishes and so do all its factor parts,
    the situation the necessary conditions leave open; the diagonal
    pair is nevertheless star-free, and both factors dominate.
    """

    def free_pair() -> GroupAlgebraModel:
        return GroupAlgebraModel(
            FREE_GROUP_2,
            {
                1: parse_group_word(FREE_GROUP_2, "g1.1^1"),
                2: parse_group_word(FREE_GROUP_2, "g1.2^1"),
            },
        )

    tensor = TensorScenario(
        factors=(free_pair(), free_pair()),
        assignments={1: (1, 1), 2: (2, 2)},
        name="doubly_free",
    )
    return ScenarioFile(
        name="doubly_free",
        kind="tensor",
        tensor=tensor,
        bounds={"max_len": 6, "gram_len": 2},
    )


def circular_dominated() -> ScenarioFile:
    """A circular element times a Haar unitary.

    The circular factor is the unique non-unitary one, so it is the
    only candidate dominating factor, and the conditions hold for it
    within the stated bounds.
    """
    factor1 = SpectralModel({1: circular_sequence()})
    factor2 = SpectralModel({1: _haar_sequence()})
    tensor = TensorScenario(
        factors=(factor1, factor2),
        assignments={1: (1, 1)},
        name="circular_dominated",
    )
    return ScenarioFile(
        name="circular_dominated",
        kind="tensor",
        tensor=tensor,
        bounds={"max_len": 4, "gram_len": 2},
    )


def biased_unitary() -> ScenarioFile:
    """A period-3 unitary with moment 1/4 at both nonzero powers, times
    the unit of the other factor; and a Haar unitary times the integer 1.

    No single power of the first variable has a vanishing moment, so
    condition (2) does all the work there and is satisfied because the
    partner is the unit.  The second variable only survives on balanced
    patterns, where its integer partner reduces to zero.
    """
    u = MomentSequence({1: Fraction(1, 4), 2: Fraction(1, 4)}, unitary=True, period=3)
    factor1 = SpectralModel({1: u, 2: _haar_sequence()}, assume_free=True)
    factor2 = GroupAlgebraModel(
        INTEGERS,
        {1: parse_group_word(INTEGERS, "e"), 2: parse_group_word(INTEGERS, "g1.1^1")},
    )
    tensor = TensorScenario(
        factors=(factor1, factor2),
        assignments={1: (1, 1), 2: (2, 2)},
        name="biased_unitary",
    )
    return ScenarioFile(
        name="biased_unitary",
        kind="tensor",
        tensor=tensor,
        bounds={"max_len": 6, "gram_len": 2},
    )


def biased_power(K: int) -> ScenarioFile:
    """K factors, each a unitary whose single nonzero power moment sits
    at a different exponent, tensored against Haar partners."""
    tensor = biased_power_scenario(K, DEFAULT_ALPHA)
    return ScenarioFile(
        name=tensor.name,
        kind="tensor",
        tensor=tensor,
        bounds={"max_len": 8, "gram_len": 2},
        alpha=as_scalar(DEFAULT_ALPHA),
    )


def mixed_order_collection() -> ScenarioFile:
    """Products of torsion generators of orders two and three.

    d1 = s1 t1 and d2 = s2 t2 with s_i of order two and t_i of order
    three in independent free products.  The pair is not free: a
    commutator-shaped word in d1^2, d2 reduces to the identity, and the
    block search finds it.
    """
    presentation = GroupPresentation(
        (FreeProductPresentation((2, 2)), FreeProductPresentation((3, 3)))
    )
    collection = GroupCollection(
        presentation,
        {
            1: parse_group_word(presentation, "g1.1^1 g2.1^1"),
            2: parse_group_word(presentation, "g1.2^1 g2.2^1"),
        },
        name="mixed_order_collection",
    )
    return ScenarioFile(
        name="mixed_order_collection",
        kind="group",
        collection=collection,
        bounds={"max_blocks": 8, "max_exp": 3},
    )


def free_pair_collection() -> ScenarioFile:
    """The two generators of the free group: a collection that is free,
    and whose canonical-trace model is star-free."""
    collection = GroupCollection(
        FREE_GROUP_2,
        {
            1: parse_group_word(FREE_GROUP_2, "g1.1^1"),
            2: parse_group_word(FREE_GROUP_2, "g1.2^1"),
        },
        name="free_pair_collection",
    )
    return ScenarioFile(
        name="free_pair_collection",
        kind="group",
        collection=collection,
        bounds={"max_blocks": 4, "max_exp": 3},
    )


def product_pair_collection() -> ScenarioFile:
    """Diagonal free pairs inside a direct product of two free groups.

    The collection (g x g', h x h') is free, and already the first
    component dominates: its projections are free and no nontrivial
    power of an element dies under it.
    """
    presentation = GroupPresentation(
        (FreeProductPresentation((None, None)), FreeProductPresentation((None, None)))
    )
    collection = GroupCollection(
        presentation,
        {
            1: parse_group_word(presentation, "g1.1^1 g2.1^1"),
            2: parse_group_word(presentation, "g1.2^1 g2.2^1"),
        },
        name="product_pair_collection",
    )
    return ScenarioFile(
        name="product_pair_collection",
        kind="group",
        collection=collection,
        bounds={"max_blocks": 4, "max_exp": 3},
    )


def integer_pair_collection() -> ScenarioFile:
    """The integers 1 and 2 as a collection: not free (1 + 1 - 2 = 0),
    with the star-word witness x1 x1 x2* on the canonical-trace side."""
    collection = GroupCollection(
        INTEGERS,
        {
            1: parse_group_word(INTEGERS, "g1.1^1"),
            2: parse_group_word(INTEGERS, "g1.1^2"),
        },
        name="integer_pair_collection",
    )
    return ScenarioFile(
        name="integer_pair_collection",
        kind="group",
        collection=collection,
        bounds={"max_blocks": 4, "max_exp": 3},
    )


def all_scenarios() -> tuple[ScenarioFile, ...]:
    return (
        free_without_dominating(),
        haar_dominated(),
        doubly_free(),
        circular_dominated(),
        biased_unitary(),
        biased_power(2),
        biased_power(3),
        mixed_order_collection(),
        free_pair_collection(),
        product_pair_collection(),
        integer_pair_collection(),
    )


def write_all(directory) -> list[str]:
    """Save every bundled scenario as <name>.json under directory."""
    import os

    os.makedirs(directory, exist_ok=True)
    paths = []
    for scenario in all_scenarios():
        path = os.path.join(str(directory), scenario.name + ".json")
        save_scenario(scenario, path)
        paths.append(path)
    return paths
