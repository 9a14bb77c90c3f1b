"""The factor scans against their twin that evaluates every word.

TensorScenario.factor_verdict scans factor k's family (a_{k;i})_i as the
one-factor scenario of factor k, so it walks only the reduced words of
factor k's unitaries that keep the gauge of its declared structure.
Its twin here passes no rule; both must agree on the verdict, the
witness, its lhs and the words checked, or raise the same error for the
same factor and word."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorfree import freeness
from tensorfree.errors import TensorFreeError
from tensorfree.freeness import centered_product_value
from tensorfree.freeness import test_freeness as freeness_verdict
from tensorfree.groups import (
    FreeProductPresentation,
    GroupPresentation,
    multiply,
    parse_group_word,
)
from tensorfree.ncpartitions import MomentSequence
from tensorfree.scalars import ExactComplex
from tensorfree.spaces import GroupAlgebraModel, SpectralModel, TableFunctional
from tensorfree.tensor import TensorScenario, factor_oracle

from strategies import group_algebras, spectral_factors, table_functionals

F2 = GroupPresentation((FreeProductPresentation((None, None)),))


def factor_scan(scenario, k, max_len):
    return scenario.factor_verdict(k, max_len)


def full_scan(scenario, k, max_len):
    return freeness_verdict(factor_oracle(scenario, k), scenario.indices, max_len)


def outcome(scan, scenario, k, max_len):
    """The scan's verdict fields, or its error's type, factor and word."""
    try:
        v = scan(scenario, k, max_len)
    except TensorFreeError as exc:
        return type(exc), getattr(exc, "factor", None), getattr(exc, "word_text", None)
    return v.free, v.witness, v.lhs, v.words_checked


@st.composite
def factor_scenarios(draw) -> TensorScenario:
    """One or two factors over two variables; per factor, joint variables
    1 and 2 take the components (1, 2), (2, 1), (1, 1) or (2, 2)."""
    factor = st.one_of(spectral_factors(), group_algebras(), table_functionals())
    factors = draw(st.lists(factor, min_size=1, max_size=2))
    pairs = [draw(st.sampled_from([(1, 2), (2, 1), (1, 1), (2, 2)])) for _ in factors]
    return TensorScenario(
        factors=tuple(factors),
        assignments={i: tuple(pair[i - 1] for pair in pairs) for i in (1, 2)},
    )


A, B = (parse_group_word(F2, f"g1.{g}^1") for g in (1, 2))
HAAR = MomentSequence({}, unitary=True)
# a group algebra beside two unitaries without a freeness flag, whose
# mixed words factor 2 cannot evaluate
UNFLAGGED_SECOND = TensorScenario(
    factors=(GroupAlgebraModel(F2, {1: A, 2: B}), SpectralModel({1: HAAR, 2: HAAR})),
    assignments={1: (1, 1), 2: (2, 2)},
)
# a table with value 1/2 at ab beside the canonical trace of the free pair
# a, b: factor 1's witness x1 x2 breaks factor 2's gauge, not factor 1's
HALF_AT_AB = TensorScenario(
    factors=(
        TableFunctional(
            F2, {1: A, 2: B}, {multiply(F2, A, B): ExactComplex(Fraction(1, 2))}
        ),
        GroupAlgebraModel(F2, {1: A, 2: B}),
    ),
    assignments={1: (1, 1), 2: (2, 2)},
)


@settings(max_examples=40, deadline=None)
@given(factor_scenarios(), st.integers(2, 5))
@example(UNFLAGGED_SECOND, 4)
@example(HALF_AT_AB, 3)
def test_factor_scans_match_the_full_scan(scenario, max_len):
    for k, functional in enumerate(scenario.factors, 1):
        if isinstance(functional, SpectralModel) and functional.assume_free:
            # a family whose mixed moments come from freeness is free by fiat
            assert scenario.factor_verdict(k, max_len) is None
            continue
        assert outcome(factor_scan, scenario, k, max_len) == outcome(
            full_scan, scenario, k, max_len
        )


def test_doubly_free_factor_scan_evaluates_few_words(bundled, monkeypatch):
    scenario = bundled("doubly_free").tensor
    evaluated = []

    def recording(oracle, letters, class_of):
        evaluated.append(letters)
        return centered_product_value(oracle, letters, class_of)

    monkeypatch.setattr(freeness, "centered_product_value", recording)
    verdict = scenario.factor_verdict(1, 6)
    assert verdict.free
    assert verdict.words_checked == 5_208
    # one reduced switching word per bracelet, of those that keep both of
    # factor 1's constraints: factor 1 is a group algebra, a Hermitian
    # trace of unitaries
    assert len(evaluated) == 3


def test_free_without_dominating_factor_2_witness(bundled):
    scenario = bundled("free_without_dominating").tensor
    verdict = scenario.factor_verdict(2, 6)
    assert not verdict.free
    assert verdict.witness.text() == "x1 x1 x2*"
    assert verdict.lhs == 1
    assert verdict.words_checked == 10
    assert outcome(factor_scan, scenario, 2, 6) == outcome(
        full_scan, scenario, 2, 6
    )
