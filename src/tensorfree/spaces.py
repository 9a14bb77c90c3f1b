"""Moment functionals on concretely presented noncommutative probability spaces.

Three interchangeable models:

* group algebras with the canonical trace (1 at the identity, 0 elsewhere),
* group algebras with a finite table of exceptional values on normal forms,
* spectral models whose variables carry explicit moment sequences, with
  mixed words synthesized by freeness when the family is flagged free.

All moments are exact.  The axiom checker builds the Gram matrix of all
reduced words up to a length bound and decides positivity exactly by a
Hermitian LDL elimination.
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import chain
from typing import Iterator, NamedTuple, Sequence

from . import freeness
from .errors import DimensionLimitError, NotDirectlyEvaluable, ScenarioError
from .groups import FactorWord, GroupElement, GroupPresentation, abelian_gauge, inverse
from .ncpartitions import MomentSequence
from .scalars import ONE, ZERO, ExactComplex, as_scalar
from .starwords import Letter, LetterTuple, adjoint_letters, iter_letters, merge_powers

GRAM_BASIS_CAP = 320


class MomentFunctional:
    """Common surface of the three models: exact moments of star-words.

    A model also declares the structure the tensor scans read to walk
    fewer words: its unitary_variables; unitary_trace (a Hermitian trace
    of unitaries); assume_free (free variables by construction); a gauge
    (freeness.Gauge over its own variables) and height_rules
    (freeness.HeightRules, likewise) that every word of nonzero moment
    keeps; gauge_exact, when every word that keeps the gauge has a
    nonzero moment, so the model is zero exactly off it; and
    evaluable_through(used), the length through which every word in the
    variables used evaluates without error, the one cap of every rule.
    This base declares nothing, so an unknown model is walked in full.
    """

    variables: tuple[int, ...]
    unitary_variables = frozenset()
    unitary_trace = False
    assume_free = False
    gauge = ()
    gauge_exact = False
    height_rules = ()

    def evaluable_through(self, used: set[int]) -> int | None:
        """None when every word in the variables used evaluates, at every
        length; 0 when a word may fail at any length, as here."""
        return 0

    def moment_letters(self, letters: LetterTuple) -> ExactComplex:
        raise NotImplementedError

    def reduced_key(self, letters: LetterTuple):
        """Normal form key used to deduplicate basis words."""
        raise NotImplementedError


class GroupBackedModel(MomentFunctional):
    """Base for models whose variables are elements of a presented group.

    One letter table, built with the model, holds per component each
    letter's syllables (its element's, or the inverse's when starred); a
    read concatenates them and reduces each component once by
    starwords.merge_powers, building no GroupElement it does not return.
    """

    def __init__(
        self, presentation: GroupPresentation, elements: dict[int, GroupElement]
    ) -> None:
        self.presentation = presentation
        # variable order is key order, here and wherever elements are listed
        self.elements = {v: elements[v] for v in sorted(elements)}
        self.variables = tuple(self.elements)
        # a group element is unitary under any functional
        self.unitary_variables = frozenset(self.variables)
        of_letter = {
            Letter(v, star): inverse(presentation, g) if star else g
            for v, g in self.elements.items()
            for star in (False, True)
        }
        self._letter_syllables = tuple(
            ({l: g.components[c] for l, g in of_letter.items()}, comp.generator_orders)
            for c, comp in enumerate(presentation.factors)
        )

    def _reduced(self, letters: LetterTuple) -> Iterator[FactorWord]:
        # the product's reduced word per component, each when it is drawn
        for syllables, orders in self._letter_syllables:
            unreduced = chain.from_iterable(map(syllables.__getitem__, letters))
            yield merge_powers(unreduced, orders)

    def element_of(self, letters: LetterTuple) -> GroupElement:
        """The product of the letters' elements."""
        return GroupElement(tuple(self._reduced(letters)))

    reduced_key = element_of

    def evaluable_through(self, used: set[int]) -> None:
        return None  # every product of group elements has a value


class GroupAlgebraModel(GroupBackedModel):
    """Group algebra with the canonical trace, a Hermitian trace."""

    unitary_trace = True

    def moment_letters(self, letters: LetterTuple) -> ExactComplex:
        # zero at the first component that does not cancel
        return ZERO if any(self._reduced(letters)) else ONE

    @cached_property
    def gauge(self) -> freeness.Gauge:
        """The abelianization's constraints on a word of nonzero trace
        (groups.abelian_gauge over the variables' elements): a word whose
        element has a nonzero image there is not the identity, so its
        trace is zero, at every length."""
        return abelian_gauge(self.presentation, self.elements)

    @cached_property
    def gauge_exact(self) -> bool:
        """A group whose every component has at most one generator is
        abelian, so its abelianization is itself: a word of zero image
        there is the identity, of trace 1."""
        return all(c.num_generators <= 1 for c in self.presentation.factors)


class TableFunctional(GroupBackedModel):
    """Group algebra with finitely many exceptional values on normal forms.

    The table maps reduced group elements to scalars; everything else is 0
    except the identity, which is 1.  Hermitian consistency (the value at
    an inverse is the conjugate) is enforced, filling missing inverses.
    """

    def __init__(
        self,
        presentation: GroupPresentation,
        elements: dict[int, GroupElement],
        table: dict[GroupElement, ExactComplex],
    ) -> None:
        super().__init__(presentation, elements)
        self.table: dict[GroupElement, ExactComplex] = {}
        for element, raw in table.items():
            value = as_scalar(raw)
            if element.is_identity():
                if value != ONE:
                    raise ScenarioError("the identity must have value 1")
                continue
            inv = inverse(presentation, element)
            for key, val in ((element, value), (inv, value.conjugate())):
                if key in self.table and self.table[key] != val:
                    raise ScenarioError(
                        f"Hermitian symmetry violated at table entry {key.text()!r}"
                    )
                self.table[key] = val

    def moment_letters(self, letters: LetterTuple) -> ExactComplex:
        words = tuple(self._reduced(letters))
        return self.table.get(GroupElement(words), ZERO) if any(words) else ONE


class SpectralModel(MomentFunctional):
    """Variables given by explicit single-variable moment sequences.

    Words in one variable are read off the sequence; genuinely mixed words
    are synthesized by the freeness engine when assume_free is set (or,
    beside a Haar variable, found zero by the per-height rules before it),
    and are otherwise not directly evaluable.
    """

    def __init__(
        self, variables: dict[int, MomentSequence], assume_free: bool = False
    ) -> None:
        self.sequences = dict(variables)
        self.variables = tuple(sorted(self.sequences))
        self.assume_free = assume_free
        self._periods = {
            v: seq.period for v, seq in self.sequences.items() if seq.unitary
        }
        self.unitary_variables = frozenset(self._periods)
        # a free product of unitary power-moment laws, each Hermitian by
        # construction, is a Hermitian trace of unitaries
        self.unitary_trace = assume_free and len(self._periods) == len(self.sequences)
        self._family = freeness.FreeFamilySpec(
            {v: partial(self.marginal_moment, v) for v in self.sequences}
        )
        self._height_step = freeness.height_step(self.height_rules)

    def marginal_moment(self, var: int, stars: Sequence[bool]) -> ExactComplex:
        seq = self.sequences[var]
        if seq.unitary:
            return seq.moment(tuple(-1 if s else 1 for s in stars))
        return seq.moment(tuple(stars))

    def moment_letters(self, letters: LetterTuple) -> ExactComplex:
        if not letters:
            return ONE
        indices = {l.index for l in letters}
        if len(indices) == 1:
            var = indices.pop()
            return self.marginal_moment(var, tuple(l.star for l in letters))
        if not self.assume_free:
            raise NotDirectlyEvaluable(
                "mixed word in a spectral model without a freeness flag"
            )
        if self.height_rules and len(letters) <= self.evaluable_through(indices):
            state = None  # the walk's step drops a word that breaks a rule
            for left, letter in zip(range(len(letters) - 1, -1, -1), letters):
                if (state := self._height_step(state, letter, left)) is None:
                    return ZERO
        return self._family.mixed_moment_letters(letters)

    @cached_property
    def height_rules(self) -> freeness.HeightRules:
        """With assume_free and a Haar variable h, the least unitary of
        rotation modulus 0, the rule (m_v, (h,), (v,)) of
        freeness.height_step per other variable v, of rotation modulus
        m_v, that every word of nonzero moment keeps.  Empty otherwise.

        Then B * L(Z) = (*_n u^n B u^-n) x| Z for u = x_h and B the
        algebra of the other variables (Voiculescu, Dykema and Nica,
        1992): the copies u^n B u^-n are free, each with B's law, and a
        free product of rotation-invariant states is invariant under
        independent rotations, one per copy and variable.
        """
        moduli = {v: self.sequences[v].rotation_modulus for v in self.variables}
        haar = tuple(v for v, m in moduli.items() if m == 0 and v in self._periods)[:1]
        if not (self.assume_free and haar):
            return ()
        return tuple((m, haar, (v,)) for v, m in moduli.items() if (v,) != haar)

    def reduced_key(self, letters: LetterTuple):
        # unitary letters are the syllables x^+-1, folded by their period;
        # star-table variables admit no relations, so each of their letters
        # is a key of its own whose exponent only grows and never cancels
        syllables = [
            (l.index, -1 if l.star else 1)
            if self.sequences[l.index].unitary
            else (l, 1)
            for l in letters
        ]
        return merge_powers(syllables, self._periods)

    def __eq__(self, other) -> bool:
        # by the declared data, the freeness flag and the sequences
        declared = lambda m: (m.assume_free, m.sequences)
        return isinstance(other, SpectralModel) and declared(self) == declared(other)

    @cached_property
    def gauge(self) -> freeness.Gauge:
        """With assume_free the law is the free product of the marginals,
        so rotating one variable v by a lambda that keeps v's marginal
        (MomentSequence.rotation_modulus m: lambda^m = 1) keeps the whole
        law: v weighs 1, mod m.  Modulus 1 constrains nothing and is left
        out; without assume_free nothing is declared."""
        if not self.assume_free:
            return ()
        moduli = ((v, self.sequences[v].rotation_modulus) for v in self.variables)
        return tuple((m, ((v, 1),)) for v, m in moduli if m != 1)

    def evaluable_through(self, used: set[int]) -> int | None:
        """A star table fails past its complete_through, and at any length
        without one; mixed words (two or more variables used) fail past
        MIXED_MOMENT_LENGTH_CAP with assume_free, and at any length
        without it.  Power sequences never fail."""
        caps: list[int] = []
        if len(used) > 1:
            if not self.assume_free:
                return 0
            caps.append(freeness.MIXED_MOMENT_LENGTH_CAP)
        for var in used:
            seq = self.sequences[var]
            if not seq.unitary:
                if seq.complete_through is None:
                    return 0
                caps.append(seq.complete_through)
        return min(caps, default=None)


# -- derived quantities -------------------------------------------------


def variance(moment: freeness.JointOracle, letters: LetterTuple) -> ExactComplex:
    """Exact variance psi(b b*) - |psi(b)|^2 of the word b, a real
    scalar, by the moment oracle psi of a letter tuple.

    Zero variance makes the word a scalar multiple of the unit only
    when the functional is faithful; callers that read it as
    determinism say so in their reports.
    """
    mean = moment(letters)
    second = moment(letters + adjoint_letters(letters))
    if not second.is_real():
        raise ScenarioError("psi(b b*) is not real; Hermitian symmetry is broken")
    return second - mean.abs2()


# -- axioms at a word-length level ---------------------------------------


class AxiomReport(NamedTuple):
    unital: bool
    hermitian: bool
    tracial: bool
    positive_semidefinite: bool
    positive_definite: bool
    basis_size: int
    gram_len: int
    notes: tuple[str, ...]


def gram_basis(functional: MomentFunctional, gram_len: int) -> list[LetterTuple]:
    """First word per normal form, over all words of length <= gram_len."""
    basis: list[LetterTuple] = [()]
    seen = {functional.reduced_key(())}
    alphabet = iter_letters(functional.variables)

    # walk the quotient: extending a redundant word cannot reach a normal
    # form its shorter representative does not reach with budget to spare
    frontier: list[LetterTuple] = [()]
    for _ in range(gram_len):
        next_frontier: list[LetterTuple] = []
        for prefix in frontier:
            for letter in alphabet:
                word = prefix + (letter,)
                key = functional.reduced_key(word)
                if key not in seen:
                    seen.add(key)
                    basis.append(word)
                    next_frontier.append(word)
                    if len(basis) > GRAM_BASIS_CAP:
                        raise DimensionLimitError(
                            "Gram basis", len(basis), GRAM_BASIS_CAP
                        )
        frontier = next_frontier
    return basis


def gram_matrix(
    functional: MomentFunctional, basis: Sequence[LetterTuple]
) -> list[list[ExactComplex]]:
    adjoints = [adjoint_letters(w) for w in basis]
    return [
        [functional.moment_letters(w + adj) for adj in adjoints] for w in basis
    ]


def hermitian_ldl_signature(matrix: list[list[ExactComplex]]) -> tuple[bool, bool]:
    """(psd, pd) for a Hermitian matrix, by exact elimination.

    A zero pivot with a nonzero remaining row defeats semidefiniteness;
    a zero pivot alone only defeats definiteness.
    """
    d = len(matrix)
    a = [row[:] for row in matrix]
    pd = True
    for r in range(d):
        pivot = a[r][r]
        if not pivot.is_real():
            raise ScenarioError("Gram matrix is not Hermitian")
        if pivot.sign() < 0:
            return (False, False)
        if pivot.is_zero():
            pd = False
            if any(not a[r][c].is_zero() for c in range(r + 1, d)):
                return (False, False)
            continue
        for i in range(r + 1, d):
            if a[i][r].is_zero():
                continue
            f = a[i][r] / pivot
            row_r = a[r]
            row_i = a[i]
            for j in range(r + 1, d):
                row_i[j] = row_i[j] - f * row_r[j]
    return (True, pd)


def check_axioms(functional: MomentFunctional, gram_len: int = 3) -> AxiomReport:
    """Verify unitality, Hermitian symmetry, traciality, and positivity
    on the span of all reduced words of length <= gram_len."""
    basis = gram_basis(functional, gram_len)
    notes: list[str] = []

    unital = functional.moment_letters(()) == ONE

    hermitian = True
    for w in basis:
        lhs = functional.moment_letters(adjoint_letters(w))
        rhs = functional.moment_letters(w).conjugate()
        if lhs != rhs:
            hermitian = False
            notes.append(f"hermitian symmetry fails at {_text_of(w)}")
            break

    tracial = True
    for b in basis:
        for c in basis:
            if functional.moment_letters(b + c) != functional.moment_letters(c + b):
                tracial = False
                notes.append(
                    f"trace property fails at b={_text_of(b)} c={_text_of(c)}"
                )
                break
        if not tracial:
            break

    psd, pd = hermitian_ldl_signature(gram_matrix(functional, basis))
    return AxiomReport(
        unital, hermitian, tracial, psd, pd, len(basis), gram_len, tuple(notes)
    )


def _text_of(letters: LetterTuple) -> str:
    return " ".join(l.text() for l in letters) if letters else "1"
