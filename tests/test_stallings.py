"""An exact oracle for collections in direct products of free groups.

Nontrivial elements d_1..d_n of a free group are a free collection exactly
when they are a free basis of the subgroup H they generate, and since a
free group of finite rank is Hopfian, exactly when rank(H) = n.  Stallings
folding computes rank(H) = E - V + 1 of the folded graph of the bouquet
of the d_i's reduced words (Stallings, "Topology of finite graphs",
Invent. Math. 71, 1983; Kapovich and Myasnikov, "Stallings foldings and
subgroups of free groups", J. Algebra 248, 2002).

In a direct product, a component where the projections are a free basis
makes the collection free: a product of nontrivial powers that is the
identity projects to one there, and a nontrivial projection has infinite
order.  Then the bounded group search, the canonical-trace scan and
prop-1-6's row for that component must say free at every bound.
"""

from itertools import count

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from tensorfree import cli
from tensorfree.groups import (
    FreeProductPresentation,
    GroupPresentation,
    group_dominating_report,
    is_free_collection,
    parse_group_word,
)
from tensorfree.spaces import GroupAlgebraModel

from strategies import free_group_collections

F2 = GroupPresentation((FreeProductPresentation((None, None)),))
F2_BY_F2 = GroupPresentation((FreeProductPresentation((None, None)),) * 2)


def stallings_rank(words) -> int:
    """The rank of the subgroup of a free group that the reduced words
    (tuples of (generator, exponent) syllables) generate.

    Each word is a loop at the base vertex 0, one edge u -j-> v per letter
    g_j (v -j-> u for g_j^-1).  A fold takes two edges with one label that
    leave one vertex, or enter one, identifies their other ends and drops
    one edge; the folded graph has no two such edges, and its rank
    E - V + 1 is that of the subgroup."""
    fresh = count(1)
    edges: list[tuple[int, int, int]] = []
    for word in words:
        letters = [(j, e > 0) for j, e in word for _ in range(abs(e))]
        path = [0] + [next(fresh) for _ in letters[1:]] + [0]
        for (j, forward), u, v in zip(letters, path, path[1:]):
            edges.append((u, j, v) if forward else (v, j, u))
    while fold := _first_fold(edges):
        n, keep, drop = fold
        del edges[n]
        edges = [
            (keep if u == drop else u, j, keep if v == drop else v)
            for u, j, v in edges
        ]
    vertices = {x for u, _, v in edges for x in (u, v)} or {0}
    return len(edges) - len(vertices) + 1


def _first_fold(edges):
    """(index of an edge to drop, the far end to keep, the far end to
    merge into it) for the first edge that shares its label and its tail
    or its head with an earlier one, or None when the graph is folded."""
    seen = {}
    for n, (u, j, v) in enumerate(edges):
        for key, far in (((u, j, True), v), ((v, j, False), u)):
            if key in seen:
                return n, seen[key], far
            seen[key] = far
    return None


def component_free(elements, k) -> bool:
    """Whether the k-th projections are a free basis of their subgroup."""
    return stallings_rank([g.components[k - 1] for g in elements]) == len(elements)


@pytest.mark.parametrize(
    "texts, rank",
    [
        (["g1.1^1"], 1),
        (["e"], 0),
        (["g1.1^1", "g1.2^1"], 2),
        # a power of a generator adds nothing
        (["g1.1^1", "g1.1^2"], 1),
        (["g1.1^2", "g1.1^3"], 1),
        (["g1.1^1 g1.2^1", "g1.1^1 g1.2^-1"], 2),
        (["g1.1^1", "g1.2^1", "g1.1^1 g1.2^1"], 2),
        # a commutator, and a conjugate beside the conjugating generator
        (["g1.1^1 g1.2^1 g1.1^-1 g1.2^-1"], 1),
        (["g1.1^1 g1.2^1 g1.1^-1", "g1.2^1"], 2),
        (["g1.1^1 g1.2^1 g1.1^-1", "g1.1^1"], 2),
        # the words of even length: a subgroup of index 2, so of rank 3
        (["g1.1^2", "g1.2^2", "g1.1^1 g1.2^1"], 3),
        (["g1.1^2", "g1.1^1 g1.2^1", "g1.2^1 g1.1^1"], 3),
        # a^2 = (ab)(a^-1 b)^-1: only the fold of the two b edges into the
        # base finds it
        (["g1.1^1 g1.2^1", "g1.1^-1 g1.2^1", "g1.1^2"], 2),
    ],
)
def test_stallings_rank_examples(texts, rank):
    words = [parse_group_word(F2, text).components[0] for text in texts]
    assert stallings_rank(words) == rank


@settings(max_examples=100, deadline=None)
@given(free_group_collections(), st.integers(2, 4), st.integers(1, 3), st.integers(2, 6))
# free in the first component only, where the second has (a, a^2)
@example(
    (F2_BY_F2, [parse_group_word(F2_BY_F2, t) for t in ("g1.1 g2.1", "g1.2 g2.1^2")]),
    4,
    3,
    5,
)
def test_folding_free_means_every_bounded_search_says_free(
    case, max_blocks, max_exp, max_len
):
    presentation, elements = case
    free_in = [
        k
        for k in range(1, presentation.num_factors + 1)
        if component_free(elements, k)
    ]
    verdict = is_free_collection(presentation, elements, max_blocks, max_exp)
    if not free_in:
        # a bound the theory does not give is not asserted; recorded only
        event("not free by folding: " + ("free" if verdict.free else "witness"))
        return
    event("free by folding")
    assert verdict.free
    model = GroupAlgebraModel(presentation, dict(enumerate(elements, start=1)))
    assert cli._canonical_trace_verdict(model, max_len).free
    rows = group_dominating_report(
        presentation, elements, max_blocks, max_exp
    ).component_reports
    for k in free_in:
        assert rows[k - 1] == (k, True, True)
