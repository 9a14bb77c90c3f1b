"""The paper's Example (A) as a metamorphic oracle for the tensor scans.

Let factor 1 hold a declared-free family of Haar unitaries u_1, u_2, and
let every other factor's components of the joint variables be unitaries
a_i.  The factor-1 moment of a word is 1 when its u-word is the identity
of the free group and 0 otherwise.  When it is the identity, the same
word in the a_i is the identity as well, because the map u_i -> a_i is
a group homomorphism, and its moment is 1 under any unital functional.
So the joint moments are those of factor 1 alone, and the diagonal
family u_i (x) a_i is star-free, whatever the other factors hold.

test_freeness with the scenario's unitary indices and gauge, as the
command line runs it, must say free.  Its scan through bound 6 is the
scan at every smaller bound followed by more lengths, so one verdict at
6 covers every bound through 6.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tensorfree.freeness import test_freeness as freeness_verdict
from tensorfree.ncpartitions import MomentSequence
from tensorfree.spaces import SpectralModel
from tensorfree.tensor import TensorScenario, joint_oracle

from strategies import group_algebras, table_functionals, unitary_sequences

MAX_LEN = 6
HAAR = MomentSequence({}, unitary=True)
HAAR_PAIR = SpectralModel({1: HAAR, 2: HAAR}, assume_free=True)

UNITARY_FACTORS = st.one_of(
    st.builds(
        lambda a, b: SpectralModel({1: a, 2: b}, assume_free=True),
        unitary_sequences(),
        unitary_sequences(),
    ),
    group_algebras(),
    table_functionals(),
)


@st.composite
def example_a_scenarios(draw) -> TensorScenario:
    """The Haar pair as factor 1, joint variable i taking u_i, then one or
    two factors whose components are all unitary: free unitaries with
    random power moments, or two group elements under the canonical
    trace or a table; each shares one component or takes both, in either
    order."""
    others = draw(st.lists(UNITARY_FACTORS, min_size=1, max_size=2))
    pairs = [(1, 2)] + [
        draw(st.sampled_from([(1, 2), (2, 1), (1, 1), (2, 2)])) for _ in others
    ]
    return TensorScenario(
        factors=(HAAR_PAIR, *others),
        assignments={i: tuple(pair[i - 1] for pair in pairs) for i in (1, 2)},
    )


@settings(max_examples=60, deadline=None)
@given(example_a_scenarios())
def test_haar_factor_keeps_the_family_free(scenario):
    assert scenario.scan_rules.unitary == {1, 2}
    verdict = freeness_verdict(
        joint_oracle(scenario), scenario.indices, MAX_LEN, scenario.scan_rules
    )
    assert verdict.free
    assert verdict.words_checked == sum(4**n - 2 * 2**n for n in range(2, MAX_LEN + 1))
