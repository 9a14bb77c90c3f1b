"""Hypothesis strategies for small valid scenarios: moment sequences and
spectral factors, group algebras of free products of cyclic groups
under the canonical trace or a table of values, tensor scenarios that
are Hermitian traces of unitaries by construction, and tensor scenarios
that mix every kind of factor; and the gauge, per-height and
reduced-word rules evaluated word by word, the twins of the scans'
pruned walk."""

from pathlib import Path

from hypothesis import strategies as st

from tensorfree.groups import (
    FreeProductPresentation,
    GroupElement,
    GroupPresentation,
    inverse,
    multiply,
    power,
    reduce,
)
from tensorfree.ncpartitions import MomentSequence
from tensorfree.scalars import ExactComplex
from tensorfree.scenario import load_scenario
from tensorfree.spaces import GroupAlgebraModel, SpectralModel, TableFunctional
from tensorfree.starwords import iter_words
from tensorfree.tensor import TensorScenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

RATIONALS = st.fractions(min_value=-1, max_value=1, max_denominator=4)
COMPLEX = st.builds(ExactComplex, RATIONALS, RATIONALS)


@st.composite
def unitary_sequences(draw) -> MomentSequence:
    """Haar, or a few nonzero Hermitian power moments, optionally periodic:
    one value per pair {p, -p} of folded powers, real where p = -p."""
    period = draw(st.sampled_from([None, None, 2, 3, 4, 6]))
    top = 4 if period is None else period // 2
    powers = draw(st.lists(st.integers(1, top), max_size=2, unique=True))
    values = {}
    for p in powers:
        value = draw(COMPLEX)
        if period is not None and 2 * p == period:
            value = ExactComplex(value.re)
        values[p] = value
    return MomentSequence(values, unitary=True, period=period)


def canonical_patterns(length):
    """One star pattern per adjoint pair {key, reversed flipped key}."""
    for key in iter_words((1,), length):
        stars = tuple(l.star for l in key)
        adjoint = tuple(not s for s in reversed(stars))
        if stars <= adjoint:
            yield stars, stars == adjoint


@st.composite
def star_tables(draw) -> MomentSequence:
    """A table whose nonzero patterns all shift by a multiple of m (m = 0:
    balanced), with x x* = x* x = 1, complete through 3 or 4 letters; or
    one with no complete_through that lists every pattern through 2
    letters, so a longer one raises."""
    m = draw(st.sampled_from([0, 2, 3]))
    complete = draw(st.sampled_from([3, 4, 4, None]))
    values = {(False, True): 1, (True, False): 1}
    for length in range(1, (complete or 2) + 1):
        for stars, self_adjoint in canonical_patterns(length):
            shift = len(stars) - 2 * sum(stars)
            if stars in values:
                continue
            value = 0
            if not (shift % m if m else shift) and draw(st.booleans()):
                value = draw(COMPLEX)
                value = ExactComplex(value.re) if self_adjoint else value
            if value or complete is None:
                values[stars] = value
    return MomentSequence(values, complete_through=complete)


# the circular element of circular_dominated, complete through length 8
CIRCULAR = (
    load_scenario(SCENARIOS / "circular_dominated.json").tensor.factors[0].sequences[1]
)


@st.composite
def spectral_factors(draw):
    """Two variables, mostly assume_free: a unitary or a star table, then
    a unitary, a star table or the circular element."""
    first = draw(st.one_of(unitary_sequences(), star_tables()))
    second = draw(
        st.one_of(unitary_sequences(), star_tables(), st.just(CIRCULAR))
    )
    free = draw(st.sampled_from([True, True, True, False]))
    return SpectralModel({1: first, 2: second}, assume_free=free)


# -- group algebras ------------------------------------------------------------

ORDERS = st.sampled_from([None, 2, 3, 4])


@st.composite
def presentations(draw) -> GroupPresentation:
    """1-2 direct-product components, each a free product of 1-2 cyclic
    groups of order 2, 3, 4 or infinite."""
    components = draw(
        st.lists(st.lists(ORDERS, min_size=1, max_size=2), min_size=1, max_size=2)
    )
    return GroupPresentation(
        tuple(FreeProductPresentation(tuple(c)) for c in components)
    )


@st.composite
def group_elements(draw, presentation: GroupPresentation) -> GroupElement:
    """A random reduced element: up to 3 syllables of exponent 1-3 or
    -1..-3 per component, then reduced."""
    words = [
        draw(
            st.lists(
                st.tuples(
                    st.integers(1, comp.num_generators),
                    st.integers(-3, 3).filter(bool),
                ),
                max_size=3,
            )
        )
        for comp in presentation.factors
    ]
    return reduce(presentation, words)


@st.composite
def group_algebras(draw) -> GroupAlgebraModel:
    """The canonical trace on two elements of a random presentation, each
    a random element or a power of one shared random element, so that
    words in both variables can reduce to the identity."""
    presentation = draw(presentations())
    base = draw(group_elements(presentation))
    powers = st.integers(-3, 3).map(lambda e: power(presentation, base, e))
    element = st.one_of(group_elements(presentation), powers)
    return GroupAlgebraModel(presentation, {v: draw(element) for v in (1, 2)})


@st.composite
def free_group_collections(draw) -> tuple[GroupPresentation, list[GroupElement]]:
    """A direct product of 1-2 free groups of rank 1 or 2, and 2-3
    elements: a random nontrivial one, then random nontrivial ones,
    nonzero powers of an earlier one or products of two earlier ones, so
    that many collections are not free."""
    ranks = draw(st.lists(st.sampled_from([1, 2, 2, 2]), min_size=1, max_size=2))
    presentation = GroupPresentation(
        tuple(FreeProductPresentation((None,) * r) for r in ranks)
    )
    nontrivial = group_elements(presentation).filter(lambda g: not g.is_identity())
    elements = [draw(nontrivial)]
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["random", "random", "random", "power", "product"]))
        a, b = (draw(st.sampled_from(elements)) for _ in range(2))
        if kind == "power":
            element = power(presentation, a, draw(st.sampled_from([-2, -1, 2])))
        elif kind == "product":
            element = multiply(presentation, a, b)
        else:
            element = draw(nontrivial)
        elements.append(element)
    return presentation, elements


@st.composite
def table_functionals(draw) -> TableFunctional:
    """Two random elements, and real values at up to two other elements
    (the inverses are filled by Hermitian symmetry)."""
    presentation = draw(presentations())
    elements = {v: draw(group_elements(presentation)) for v in (1, 2)}
    table = {}
    for g in draw(st.lists(group_elements(presentation), max_size=2)):
        if not g.is_identity() and inverse(presentation, g) not in table:
            table[g] = ExactComplex(draw(RATIONALS))
    return TableFunctional(presentation, elements, table)


# -- tensor scenarios that are unitary traces ------------------------------------

HAAR = MomentSequence({}, unitary=True)


@st.composite
def free_unitary_factors(draw, haar=()) -> SpectralModel:
    """An assume_free factor of two unitaries, Haar for the variables in
    haar and unitary_sequences() for the others."""
    return SpectralModel(
        {v: HAAR if v in haar else draw(unitary_sequences()) for v in (1, 2)},
        assume_free=True,
    )


@st.composite
def haar_spectral_factors(draw, size=None) -> SpectralModel:
    """An assume_free factor of two or three variables (size of them when
    given) in a random order: a Haar unitary beside one or two
    unitary_sequences() (Haar at times) or star_tables() with a
    complete_through, so that the per-height rule of
    SpectralModel.moment_letters applies."""
    complete = star_tables().filter(lambda seq: seq.complete_through is not None)
    fewest, most = (size - 1, size - 1) if size else (1, 2)
    others = draw(
        st.lists(
            st.one_of(unitary_sequences(), complete), min_size=fewest, max_size=most
        )
    )
    order = draw(st.permutations(range(1, len(others) + 2)))
    return SpectralModel(dict(zip(order, [HAAR, *others])), assume_free=True)


@st.composite
def unitary_trace_scenarios(draw) -> TensorScenario:
    """One or two factors, each free unitaries or a group algebra under the
    canonical trace, so TensorScenario.scan_rules.trace holds; per factor,
    joint variables 1 and 2 take the components (1, 2), (2, 1) or a
    shared (1, 1) or (2, 2)."""
    factor = st.one_of(free_unitary_factors(), group_algebras())
    factors = draw(st.lists(factor, min_size=1, max_size=2))
    pairs = [draw(st.sampled_from([(1, 2), (2, 1), (1, 1), (2, 2)])) for _ in factors]
    return TensorScenario(
        factors=tuple(factors),
        assignments={i: tuple(pair[i - 1] for pair in pairs) for i in (1, 2)},
    )


@st.composite
def haar_type_scenarios(draw) -> TensorScenario:
    """K = 2 or 3 factors of free unitaries joined diagonally, and at times
    a group algebra as one more factor.  Each joint variable has a Haar
    component in one of the free factors, so every single power has
    moment zero, as the power-word scan requires."""
    K = draw(st.sampled_from([2, 3]))
    haar_in = {v: draw(st.integers(0, K - 1)) for v in (1, 2)}
    factors = [
        draw(free_unitary_factors({v for v in (1, 2) if haar_in[v] == k}))
        for k in range(K)
    ]
    factors += draw(st.lists(group_algebras(), max_size=1))
    return TensorScenario(
        factors=tuple(factors),
        assignments={v: (v,) * len(factors) for v in (1, 2)},
    )


@st.composite
def mixed_tensor_scenarios(draw) -> TensorScenario:
    """One to three factors of any kind: spectral_factors() (star tables
    with and without complete_through, free or not), group_algebras(),
    table_functionals() or free_unitary_factors(); per factor, joint
    variables 1 and 2 take the components (1, 2), (2, 1) or a shared
    (1, 1) or (2, 2)."""
    factor = st.one_of(
        spectral_factors(), group_algebras(), table_functionals(), free_unitary_factors()
    )
    factors = draw(st.lists(factor, min_size=1, max_size=3))
    pairs = [draw(st.sampled_from([(1, 2), (2, 1), (1, 1), (2, 2)])) for _ in factors]
    return TensorScenario(
        factors=tuple(factors),
        assignments={i: tuple(pair[i - 1] for pair in pairs) for i in (1, 2)},
    )


def breaks_by_hand(letters, gauge, through=None) -> bool:
    """Whether the word, of at most through letters (any length when
    through is None), breaks a (modulus, weights) gauge constraint: its
    weighted exponent sum, +w per plain letter and -w per starred one, is
    not 0 mod m (m = 0: not 0)."""
    if through is not None and len(letters) > through:
        return False
    for m, weights in gauge:
        weight = dict(weights)
        total = sum((-1 if l.star else 1) * weight.get(l.index, 0) for l in letters)
        if (total % m if m else total) != 0:
            return True
    return False


def breaks_height_rule_by_hand(letters, scenario, through=None) -> bool:
    """Whether the word, of at most through letters (any length when
    through is None), breaks some factor's declared height rule
    (m, Haar variables, variables) read in that factor's components:
    the exponent sum of the Haar letters is not 0, or at some height n
    the exponent sum of the variables' letters at height n (the exponent
    sum of the Haar letters before them) is not 0 mod m (m = 0: not 0)."""
    if through is not None and len(letters) > through:
        return False
    for k, factor in enumerate(scenario.factors):
        for m, haar, terms in factor.height_rules:
            height, sums = 0, {}
            for l in letters:
                v, sign = scenario.assignments[l.index][k], -1 if l.star else 1
                if v in haar:
                    height += sign
                elif v in terms:
                    sums[height] = sums.get(height, 0) + sign
            if height or any(s % m if m else s for s in sums.values()):
                return True
    return False


def reduced_by_hand(letters, unitary) -> bool:
    """Whether no letter of an index in unitary stands right after its
    adjoint."""
    return not any(
        b.index in unitary and a == b.adjoint() for a, b in zip(letters, letters[1:])
    )
