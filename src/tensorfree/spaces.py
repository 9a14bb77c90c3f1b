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

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Sequence

from . import freeness
from .errors import DimensionLimitError, NotDirectlyEvaluable, ScenarioError
from .groups import GroupElement, GroupPresentation, inverse, reduce
from .ncpartitions import MomentSequence
from .scalars import ONE, ZERO, ExactComplex, as_scalar
from .starwords import Letter, LetterTuple, StarWord, iter_letters, merge_powers

GRAM_BASIS_CAP = 320


def _adjoint_letters(letters: LetterTuple) -> LetterTuple:
    return tuple(Letter(l.index, not l.star) for l in reversed(letters))


class MomentFunctional:
    """Common surface of the three models: exact moments of star-words."""

    variables: tuple[int, ...]

    def __init__(self) -> None:
        self.faithfulness_verified = False

    def moment(self, word: StarWord) -> ExactComplex:
        return self.moment_letters(word.letters)

    def moment_letters(self, letters: LetterTuple) -> ExactComplex:
        raise NotImplementedError

    def reduced_key(self, letters: LetterTuple):
        """Normal form key used to deduplicate basis words."""
        raise NotImplementedError

    def _check_vars(self, letters: LetterTuple) -> None:
        for l in letters:
            if l.index not in self.variables:
                raise ScenarioError(f"unknown variable x{l.index}")


class GroupBackedModel(MomentFunctional):
    """Base for models whose variables are elements of a presented group."""

    def __init__(
        self, presentation: GroupPresentation, generators: dict[int, GroupElement]
    ) -> None:
        super().__init__()
        self.presentation = presentation
        self.generators = dict(generators)
        self.variables = tuple(sorted(self.generators))
        self._inverses = {
            v: inverse(presentation, g) for v, g in self.generators.items()
        }

    def element_of(self, letters: LetterTuple) -> GroupElement:
        """The product of the letters' elements: each component's syllables
        are concatenated and reduced once."""
        self._check_vars(letters)
        syllables: list[list] = [[] for _ in self.presentation.factors]
        for l in letters:
            g = self._inverses[l.index] if l.star else self.generators[l.index]
            for sylls, word in zip(syllables, g.components):
                sylls.extend(word)
        return reduce(self.presentation, syllables)

    def reduced_key(self, letters: LetterTuple) -> GroupElement:
        return self.element_of(letters)


class GroupAlgebraModel(GroupBackedModel):
    """Group algebra with the canonical trace."""

    def moment_letters(self, letters: LetterTuple) -> ExactComplex:
        return ONE if self.element_of(letters).is_identity() else ZERO


class TableFunctional(GroupBackedModel):
    """Group algebra with finitely many exceptional values on normal forms.

    The table maps reduced group elements to scalars; everything else is 0
    except the identity, which is 1.  Hermitian consistency (the value at
    an inverse is the conjugate) is enforced, filling missing inverses.
    """

    def __init__(
        self,
        presentation: GroupPresentation,
        generators: dict[int, GroupElement],
        table: dict[GroupElement, ExactComplex],
    ) -> None:
        super().__init__(presentation, generators)
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
        element = self.element_of(letters)
        if element.is_identity():
            return ONE
        return self.table.get(element, ZERO)


class SpectralModel(MomentFunctional):
    """Variables given by explicit single-variable moment sequences.

    Words in one variable are read off the sequence; genuinely mixed words
    are synthesized by the freeness engine when assume_free is set and are
    otherwise not directly evaluable.
    """

    def __init__(
        self, variables: dict[int, MomentSequence], assume_free: bool = False
    ) -> None:
        super().__init__()
        self.sequences = dict(variables)
        self.variables = tuple(sorted(self.sequences))
        self.assume_free = assume_free
        self._periods = {
            v: seq.period for v, seq in self.sequences.items() if seq.unitary
        }
        self._family = freeness.FreeFamilySpec(
            {v: partial(self.marginal_moment, v) for v in self.sequences}
        )

    def marginal_moment(self, var: int, stars: Sequence[bool]) -> ExactComplex:
        seq = self.sequences[var]
        if seq.unitary:
            return seq.moment(tuple(-1 if s else 1 for s in stars))
        return seq.moment(tuple(stars))

    def moment_letters(self, letters: LetterTuple) -> ExactComplex:
        self._check_vars(letters)
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
        return self._family.mixed_moment_letters(letters)

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


# -- derived quantities -------------------------------------------------


def variance(functional: MomentFunctional, word: StarWord) -> Fraction:
    """Exact variance psi(b b*) - |psi(b)|^2 of a word.

    Zero variance makes the word a scalar multiple of the unit only
    when the functional is faithful; callers that read it as
    determinism say so in their reports.
    """
    letters = word.letters
    mean = functional.moment_letters(letters)
    second = functional.moment_letters(letters + _adjoint_letters(letters))
    if second.im != 0:
        raise ScenarioError("psi(b b*) is not real; Hermitian symmetry is broken")
    return second.re - mean.abs2()


# -- axioms at a word-length level ---------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    unital: bool
    hermitian: bool
    tracial: bool
    positive_semidefinite: bool
    positive_definite: bool
    basis_size: int
    gram_len: int
    notes: tuple[str, ...] = ()


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
    adjoints = [_adjoint_letters(w) for w in basis]
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
        if pivot.im != 0:
            raise ScenarioError("Gram matrix is not Hermitian")
        if pivot.re < 0:
            return (False, False)
        if pivot.re == 0:
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
        lhs = functional.moment_letters(_adjoint_letters(w))
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

    if pd:
        functional.faithfulness_verified = True
    return AxiomReport(
        unital, hermitian, tracial, psd, pd, len(basis), gram_len, tuple(notes)
    )


def _text_of(letters: LetterTuple) -> str:
    return " ".join(l.text() for l in letters) if letters else "1"
