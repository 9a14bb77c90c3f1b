"""Moment functionals: group traces, exceptional tables, spectral models,
and the exact axiom checks on word spans."""

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorfree import groups, spaces
from tensorfree.errors import (
    DimensionLimitError,
    NotDirectlyEvaluable,
    ScenarioError,
    TensorFreeError,
)
from tensorfree.groups import (
    FreeProductPresentation,
    GroupPresentation,
    identity,
    inverse,
    multiply,
    parse_group_word,
)
from tensorfree.ncpartitions import MomentSequence
from tensorfree.scalars import ONE, ZERO, ExactComplex
from tensorfree.spaces import (
    GroupAlgebraModel,
    MomentFunctional,
    SpectralModel,
    TableFunctional,
    check_axioms,
    gram_basis,
    gram_matrix,
    hermitian_ldl_signature,
    variance,
)
from tensorfree.starwords import Letter, iter_letters, parse_word as word

from strategies import HAAR, group_algebras, haar_spectral_factors, table_functionals

F2 = GroupPresentation((FreeProductPresentation((None, None)),))


def f2_trace():
    return GroupAlgebraModel(
        F2,
        {1: parse_group_word(F2, "g1.1^1"), 2: parse_group_word(F2, "g1.2^1")},
    )


def beta_table(beta):
    g = parse_group_word(F2, "g1.1^1")
    h = parse_group_word(F2, "g1.2^1")
    return TableFunctional(F2, {1: g, 2: h}, {multiply(F2, g, h): beta})


def test_canonical_trace_values():
    model = f2_trace()
    assert model.moment_letters(word("x1 x1*")) == ONE
    assert model.moment_letters(word("x1 x2")) == ZERO
    assert model.moment_letters(word("x1 x2 x2* x1*")) == ONE
    assert model.moment_letters(()) == ONE
    assert model.variables == (1, 2)


def test_group_model_star_is_group_inverse():
    model = f2_trace()
    a = model.elements[1]
    assert model.element_of((Letter(1, True),)) == inverse(F2, a)
    assert model.reduced_key(word("x1 x1*")) == identity(F2)


def test_table_functional_values():
    model = beta_table(Fraction(1, 10))
    assert model.moment_letters(word("x1 x2")) == Fraction(1, 10)
    # the inverse entry is filled by conjugation
    assert model.moment_letters(word("x2* x1*")) == Fraction(1, 10)
    assert model.moment_letters(word("x2 x1")) == ZERO
    assert model.moment_letters(word("x1 x1*")) == ONE


def test_table_functional_guards():
    g = parse_group_word(F2, "g1.1^1")
    h = parse_group_word(F2, "g1.2^1")
    with pytest.raises(ScenarioError, match="identity"):
        TableFunctional(F2, {1: g, 2: h}, {identity(F2): Fraction(2)})
    TableFunctional(F2, {1: g, 2: h}, {identity(F2): 1})  # restating 1 is fine
    gh = multiply(F2, g, h)
    hg_inv = inverse(F2, gh)
    with pytest.raises(ScenarioError, match="Hermitian"):
        TableFunctional(
            F2,
            {1: g, 2: h},
            {gh: ExactComplex(0, 1), hg_inv: ExactComplex(0, 1)},
        )


# -- group-backed reads against products of elements ----------------------------

MIXED = GroupPresentation(
    (FreeProductPresentation((2, 2)), FreeProductPresentation((3, 3)))
)
PRODUCT_PAIR = GroupPresentation((F2.factors[0], F2.factors[0]))


def first_letters_shared():
    """On F2 x F2, x1 = (a, c) and x2 = (a, d): x1 x2* cancels in the first
    component only."""
    return GroupAlgebraModel(
        PRODUCT_PAIR,
        {
            1: parse_group_word(PRODUCT_PAIR, "g1.1^1 g2.1^1"),
            2: parse_group_word(PRODUCT_PAIR, "g1.1^1 g2.2^1"),
        },
    )


def multiplied_by_hand(model, letters):
    """The letters' elements multiplied one at a time (groups.multiply),
    a starred letter's as its inverse."""
    acc = identity(model.presentation)
    for l in letters:
        g = model.elements[l.index]
        if l.star:
            g = inverse(model.presentation, g)
        acc = multiply(model.presentation, acc, g)
    return acc


def moment_by_hand(model, letters):
    element = multiplied_by_hand(model, letters)
    if element.is_identity():
        return ONE
    table = getattr(model, "table", {})
    return table.get(element, ZERO)


group_words = st.lists(
    st.builds(Letter, st.sampled_from((1, 2)), st.booleans()), max_size=10
).map(tuple)


@settings(max_examples=200, deadline=None)
@given(st.one_of(group_algebras(), table_functionals()), group_words)
# a finite-order component: d1^2 d2^3 d1^-2 d2^3 is the identity
@example(
    GroupAlgebraModel(
        MIXED,
        {
            1: parse_group_word(MIXED, "g1.1^1 g2.1^1"),
            2: parse_group_word(MIXED, "g1.2^1 g2.2^1"),
        },
    ),
    word("x1 x1 x2 x2 x2 x1* x1* x2 x2 x2"),
)
# the first component cancels and only the second does not
@example(first_letters_shared(), word("x1 x2*"))
# the entry at g h, read through its inverse h^-1 g^-1: the conjugate
@example(beta_table(ExactComplex(Fraction(1, 3), Fraction(1, 5))), word("x2* x1*"))
def test_group_backed_reads_match_products_of_elements(model, letters):
    assert model.element_of(letters) == multiplied_by_hand(model, letters)
    assert model.moment_letters(letters) == moment_by_hand(model, letters)


def test_group_backed_examples_by_value():
    pair = first_letters_shared()
    assert pair.element_of(word("x1 x2*")).text() == "g2.1^1 g2.2^-1"
    assert pair.moment_letters(word("x1 x2*")) == ZERO
    beta = ExactComplex(Fraction(1, 3), Fraction(1, 5))
    assert beta_table(beta).moment_letters(word("x2* x1*")) == beta.conjugate()


def test_group_backed_moments_reduce_no_group_element(monkeypatch):
    # parsing the elements reduces them; reading the models does not
    models = (f2_trace(), beta_table(Fraction(1, 10)))
    calls = []
    monkeypatch.setattr(groups, "reduce", lambda *args: calls.append(args))
    words = [word("x1 x2 x2* x1*"), word("x1 x2"), word("x2* x1*"), ()]
    for model in models:
        for letters in words:
            model.moment_letters(letters)
    assert calls == []


def test_spectral_marginals_and_mixed_words():
    seq1 = MomentSequence({(False,): Fraction(1, 2)}, complete_through=2)
    seq2 = MomentSequence({(False,): Fraction(1, 3)}, complete_through=2)
    closed = SpectralModel({1: seq1, 2: seq2})
    assert closed.moment_letters(word("x1")) == Fraction(1, 2)
    assert closed.moment_letters(word("x1 x1*")) == ZERO  # declared complete through 2
    with pytest.raises(NotDirectlyEvaluable):
        closed.moment_letters(word("x1 x2"))

    free = SpectralModel({1: seq1, 2: seq2}, assume_free=True)
    # centered product of two free variables vanishes, so the mixed moment
    # is the product of the means
    assert free.moment_letters(word("x1 x2")) == Fraction(1, 6)
    assert not free.sequences[1].unitary


def test_spectral_reduced_keys():
    u = MomentSequence({1: Fraction(1, 4)}, unitary=True, period=3)
    s = MomentSequence({(False,): 0}, complete_through=2)
    model = SpectralModel({1: u, 2: s})
    k = model.reduced_key
    assert k(word("x1 x1 x1")) == k(())
    assert k(word("x1 x1*")) == k(())
    assert k(word("x1 x1")) == k(word("x1*"))  # exp 2 = -1 mod 3
    assert k(word("x2 x2*")) != k(())  # star variables have no relations
    assert k(word("x2 x2*")) != k(word("x2* x2"))
    assert k(word("x2 x2")) != k(word("x2"))
    # a unitary run that cancels joins the star letters on either side
    assert k(word("x2 x1 x1* x2")) == k(word("x2 x2"))
    assert k(word("x2 x1 x1 x1 x2*")) == k(word("x2 x2*"))
    assert model.sequences[1].unitary


def test_equal_spectral_models_declare_equal_rules():
    # the per-height rule takes the least Haar variable, whatever the
    # order of the keys the model was given
    biased = MomentSequence({2: Fraction(1, 3)}, unitary=True)
    for sequences in ({1: HAAR, 2: HAAR}, {1: HAAR, 2: biased, 3: HAAR}):
        forward = SpectralModel(sequences, True)
        reverse = SpectralModel(dict(reversed(sequences.items())), True)
        assert forward == reverse
        assert forward.height_rules == reverse.height_rules
        assert forward.gauge == reverse.gauge
    rules = SpectralModel({2: HAAR, 1: HAAR}, True).height_rules
    assert rules == ((0, (1,), (2,)),)


def test_variance_values():
    model = f2_trace()
    assert variance(model.moment_letters, word("x1")) == 1
    assert variance(model.moment_letters, word("x1 x1*")) == 0
    biased = beta_table(Fraction(1, 10))
    assert variance(biased.moment_letters, word("x1 x2")) == 1 - Fraction(1, 100)


def test_variance_requires_real_second_moment():
    class Rigged(MomentFunctional):
        variables = (1,)

        def moment_letters(self, letters):
            return ExactComplex(0, 1) if len(letters) == 2 else ZERO

    with pytest.raises(ScenarioError, match="not real"):
        variance(Rigged().moment_letters, word("x1"))


def test_check_axioms_decides_positive_definiteness():
    assert check_axioms(f2_trace(), gram_len=2).positive_definite
    assert not check_axioms(beta_table(Fraction(1)), gram_len=2).positive_definite


def test_free_group_trace_axioms_all_pass():
    model = f2_trace()
    report = check_axioms(model, gram_len=2)
    assert report.unital and report.hermitian and report.tracial
    assert report.positive_semidefinite and report.positive_definite
    assert report.basis_size == 17  # 1 + 4 + 12 reduced words
    assert report.notes == ()


def test_biased_table_breaks_traciality_but_stays_positive():
    report = check_axioms(beta_table(Fraction(1, 10)), gram_len=2)
    assert report.unital and report.hermitian
    assert not report.tracial
    assert any("trace property fails" in n for n in report.notes)
    assert report.positive_semidefinite and report.positive_definite
    assert report.basis_size == 17


def test_large_bias_defeats_positivity():
    report = check_axioms(beta_table(Fraction(1)), gram_len=2)
    assert not report.positive_semidefinite and not report.positive_definite
    report2 = check_axioms(beta_table(Fraction(2)), gram_len=2)
    assert not report2.positive_semidefinite


def z(re, im=0):
    return ExactComplex(Fraction(re), Fraction(im))


LDL_CASES = [
    ([[z(1), z(0)], [z(0), z(0)]], (True, False)),
    ([[z(0), z(1)], [z(1), z(0)]], (False, False)),
    ([[z(2), z(1)], [z(1), z(2)]], (True, True)),
    ([[z(1), z(2)], [z(2), z(1)]], (False, False)),
    ([[z(1), z(0, 1)], [z(0, -1), z(1)]], (True, False)),
    ([[z(-1)]], (False, False)),
    ([], (True, True)),
]


@pytest.mark.parametrize("matrix,expected", LDL_CASES)
def test_exact_positivity_signature(matrix, expected):
    assert hermitian_ldl_signature(matrix) == expected


def determinant(matrix):
    """Leibniz expansion: the sum over permutations of signed products."""
    n = len(matrix)
    total = ZERO
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        term = ONE if inversions % 2 == 0 else -ONE
        for row, col in enumerate(perm):
            term = term * matrix[row][col]
        total = total + term
    return total


def sylvester_signature(matrix):
    """(psd, pd) by Sylvester's criterion: a Hermitian matrix is positive
    semidefinite iff every principal minor is >= 0, and positive definite
    iff every leading principal minor is > 0."""
    d = len(matrix)
    minors = {
        rows: determinant([[matrix[i][j] for j in rows] for i in rows])
        for size in range(1, d + 1)
        for rows in combinations(range(d), size)
    }
    assert all(m.im == 0 for m in minors.values())
    psd = all(m.re >= 0 for m in minors.values())
    pd = all(minors[tuple(range(size))].re > 0 for size in range(1, d + 1))
    return psd, pd


@pytest.mark.parametrize("matrix,expected", [case for case in LDL_CASES if case[0]])
def test_sylvester_signature_agrees(matrix, expected):
    assert sylvester_signature(matrix) == expected


RATIONALS = st.fractions(min_value=-2, max_value=2, max_denominator=3)
GAUSSIAN = st.builds(ExactComplex, RATIONALS, RATIONALS)


@st.composite
def hermitian_matrices(draw):
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        # B B* with B of d rows and r <= d columns; r < d makes it
        # semidefinite but singular
        r = draw(st.integers(0, d))
        b = [[draw(GAUSSIAN) for _ in range(r)] for _ in range(d)]

        def entry(i, j):
            return sum((b[i][k] * b[j][k].conjugate() for k in range(r)), ZERO)

        return [[entry(i, j) for j in range(d)] for i in range(d)]
    m = [[ZERO] * d for _ in range(d)]
    for i in range(d):
        m[i][i] = ExactComplex(draw(RATIONALS))
        for j in range(i + 1, d):
            m[i][j] = draw(GAUSSIAN)
            m[j][i] = m[i][j].conjugate()
    return m


@settings(max_examples=300, deadline=None)
@given(hermitian_matrices())
def test_ldl_signature_matches_sylvester(matrix):
    assert hermitian_ldl_signature(matrix) == sylvester_signature(matrix)


def test_ldl_rejects_imaginary_pivot():
    with pytest.raises(ScenarioError, match="Hermitian"):
        hermitian_ldl_signature([[z(0, 1)]])


def test_gram_basis_normal_forms_and_cap(monkeypatch):
    u = MomentSequence({}, unitary=True, period=3)
    model = SpectralModel({1: u})
    assert len(gram_basis(model, 2)) == 3  # unit, u, u^2
    haar = SpectralModel({1: MomentSequence({}, unitary=True)})
    assert len(gram_basis(haar, 2)) == 5  # exponents -2..2
    monkeypatch.setattr(spaces, "GRAM_BASIS_CAP", 5)
    with pytest.raises(DimensionLimitError, match="cap is 5"):
        gram_basis(f2_trace(), 2)


def test_gram_matrix_of_haar_powers_is_the_identity():
    haar = SpectralModel({1: MomentSequence({}, unitary=True)})
    basis = gram_basis(haar, 2)
    gram = gram_matrix(haar, basis)
    for i, row in enumerate(gram):
        for j, entry in enumerate(row):
            assert entry == (ONE if i == j else ZERO)


# -- the per-height rule ---------------------------------------------------------


def outcome(evaluate, letters):
    """The value, or the error's type and message."""
    try:
        return "value", evaluate(letters)
    except TensorFreeError as exc:
        return type(exc), str(exc)


@st.composite
def mixed_words(draw, model):
    """Words in two variables or more: up to 12 letters, at times closed
    by a run of the least Haar variable that brings its exponent sum to 0
    (the words the rule passes to the free engine), or 17 letters, one
    past the engine's cap."""
    alphabet = st.sampled_from(iter_letters(model.variables))
    if draw(st.integers(0, 4)) == 0:
        letters = draw(st.lists(alphabet, min_size=17, max_size=17))
    else:
        letters = draw(st.lists(alphabet, min_size=2, max_size=12))
        haar = min(v for v, seq in model.sequences.items() if seq == HAAR)
        height = sum((-1) ** l.star for l in letters if l.index == haar)
        if draw(st.booleans()) and len(letters) + abs(height) <= 12:
            letters += [Letter(haar, height > 0)] * abs(height)
    return tuple(letters)


@settings(max_examples=150, deadline=None)
@given(haar_spectral_factors(), st.data())
def test_the_height_rule_matches_the_free_engine(model, data):
    # every value, and past a cap every error (type and message), is the
    # free engine's own
    for _ in range(6):
        letters = data.draw(mixed_words(model))
        if len({l.index for l in letters}) < 2:
            continue
        engine = outcome(model._family.mixed_moment_letters, letters)
        assert outcome(model.moment_letters, letters) == engine


def test_the_height_rule_skips_the_free_engine(monkeypatch):
    # factor 2 of biased_power_k2: a of powers +-2 only (modulus 2) and a
    # Haar u.  u a u* a* has one a at height 1 and one at height 0, odd
    # sums both, so it is zero without the engine, as is u a a with its
    # even sum at height 1 but its Haar sum 1; u a a u* a* a* has sums 2
    # and -2 and is evaluated
    model = SpectralModel(
        {1: MomentSequence({2: Fraction(1, 10)}, unitary=True), 2: HAAR},
        assume_free=True,
    )
    engine = model._family.mixed_moment_letters
    asked = []
    monkeypatch.setattr(
        model._family, "mixed_moment_letters", lambda w: asked.append(w) or engine(w)
    )
    assert model.moment_letters(word("x2 x1 x2* x1*")) == ZERO
    assert model.moment_letters(word("x2 x1 x1")) == ZERO
    assert asked == []
    kept = word("x2 x1 x1 x2* x1* x1*")
    assert model.moment_letters(kept) == Fraction(1, 100)
    assert asked == [kept]
