"""The paper's Example (B) as a metamorphic oracle for the group routes.

Group elements under the canonical trace are star-free exactly when the
cyclic groups they generate form a free product.  Two constructions
decide that without any search:

* free: one direct-product component whose projections d_i are nonzero
  powers of distinct infinite-order generators.  Projecting onto it maps
  every alternating product of nontrivial powers to a reduced word, never
  the identity, whatever the other components hold;
* not free: g^a and g^b, both nontrivial, commute, so the commutator
  d1 d2 d1^-1 d2^-1 is the identity, a witness of 4 blocks of exponent
  +-1, and x1 x2 x1* x2* centers to 1 under the canonical trace.

The command line's three group routes (group-freeness, the
canonical-trace test-freeness and prop-1-6's collection_free) must agree
with the construction at every bound that reaches those witnesses.
prop-1-6's suspect flag is a diagnostic, not an oracle, and is not read.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tensorfree import cli
from tensorfree.groups import (
    FreeProductPresentation,
    GroupElement,
    GroupPresentation,
    power,
)

from strategies import ORDERS, group_elements, presentations

MAX_EXP = 2
BOUNDS = ("--max-len", "4", "--max-blocks", "4", "--max-exp", str(MAX_EXP))
EXPONENTS = st.sampled_from([e for n in range(1, MAX_EXP + 1) for e in (n, -n)])


def group_file(presentation: GroupPresentation, elements) -> dict:
    components = [
        {"cyclic_orders": ["inf" if d is None else d for d in comp.orders]}
        for comp in presentation.factors
    ]
    return {
        "version": 1,
        "kind": "group",
        "name": "example_b",
        "presentation": {"components": components},
        "elements": {str(v): g.text() for v, g in enumerate(elements, 1)},
    }


def verdicts(presentation, elements) -> dict[str, bool]:
    """Each route's freeness verdict on the collection, run through the
    command line at BOUNDS."""
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "collection.json"
        out = Path(tmp) / "report.json"
        path.write_text(json.dumps(group_file(presentation, elements)))
        for command in ("group-freeness", "test-freeness", "prop-1-6"):
            assert cli.main([str(path), command, *BOUNDS, "--out", str(out)]) in (0, 1)
            report = json.loads(out.read_text())["report"]
            if command == "group-freeness":
                found["group"] = report["group"]["free"]
                found["group canonical trace"] = report["canonical_trace"]["free"]
            elif command == "test-freeness":
                found["canonical trace"] = report["canonical_trace"]["free"]
            else:
                found["prop-1-6"] = report["collection_free"]
    return found


@st.composite
def free_collections(draw):
    """Two elements whose projections onto one component are nonzero
    powers of distinct infinite-order generators; the other components
    (up to two) and a finite generator beside them are random."""
    others = draw(st.one_of(st.just(None), presentations()))
    orders = [None, None] + draw(st.lists(ORDERS, max_size=1))
    lead = FreeProductPresentation(tuple(draw(st.permutations(orders))))
    place = draw(st.integers(0, 0 if others is None else others.num_factors))
    rest = () if others is None else others.factors
    presentation = GroupPresentation(rest[:place] + (lead,) + rest[place:])
    generators = [j for j, d in enumerate(lead.orders, 1) if d is None]
    generators = draw(st.permutations(generators))[:2]
    elements = []
    for j in generators:
        g = draw(group_elements(presentation))
        components = list(g.components)
        components[place] = ((j, draw(EXPONENTS)),)
        elements.append(GroupElement(tuple(components)))
    return presentation, elements


@settings(max_examples=15, deadline=None)
@given(free_collections())
def test_free_by_construction_is_free_on_every_route(case):
    found = verdicts(*case)
    assert all(found.values()), found


@st.composite
def commuting_collections(draw):
    """g^a and g^b for a random generator g and 0 < |a|, |b| <= MAX_EXP,
    both nontrivial, with a random third element or none, in any order."""
    presentation = draw(presentations())
    c = draw(st.integers(0, presentation.num_factors - 1))
    comp = presentation.factors[c]
    j = draw(st.integers(1, comp.num_generators))
    order = comp.orders[j - 1]
    g = GroupElement(
        tuple(((j, 1),) if k == c else () for k in range(presentation.num_factors))
    )
    nontrivial = EXPONENTS.filter(lambda e: order is None or e % order)
    elements = [power(presentation, g, draw(nontrivial)) for _ in range(2)]
    third = group_elements(presentation).filter(lambda h: not h.is_identity())
    elements += draw(st.lists(third, max_size=1))
    return presentation, draw(st.permutations(elements))


@settings(max_examples=15, deadline=None)
@given(commuting_collections())
def test_commuting_powers_fail_every_route(case):
    found = verdicts(*case)
    assert not any(found.values()), found
