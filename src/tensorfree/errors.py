"""Shared exception types, kept central so the CLI can map them to exit codes."""

from __future__ import annotations


class TensorFreeError(Exception):
    """Base class for package errors."""


class ScenarioError(TensorFreeError):
    """Scenario file or in-memory scenario is structurally invalid."""


class LimitError(TensorFreeError):
    """A configured enumeration or dimension bound was exceeded."""


class EnumerationLimitError(LimitError):
    def __init__(self, what: str, requested: int, cap: int) -> None:
        super().__init__(f"{what} for n={requested} exceeds cap {cap}")


class DimensionLimitError(LimitError):
    def __init__(self, what: str, size: int, cap: int) -> None:
        super().__init__(f"{what} needs dimension {size}, cap is {cap}")


class DepthLimitError(LimitError):
    def __init__(self, what: str, size: int, cap: int) -> None:
        super().__init__(f"{what} of length {size} exceeds bound {cap}")


class InsufficientMomentDataError(TensorFreeError):
    """A required lower-order moment is missing from a moment table."""


class NotDirectlyEvaluable(TensorFreeError):
    """The model cannot evaluate this word without a freeness assumption."""


class FactorNotEvaluable(TensorFreeError):
    def __init__(self, factor: int, word_text: str, reason: str) -> None:
        super().__init__(f"factor {factor} cannot evaluate '{word_text}': {reason}")


class FactorAxiomsNotCheckable(TensorFreeError):
    def __init__(self, factor: int, reason: str) -> None:
        super().__init__(f"factor {factor} axioms not checkable: {reason}")


class PreconditionError(TensorFreeError):
    """An operation's mathematical precondition does not hold."""


class FactorNotFreeError(PreconditionError):
    def __init__(self, factor: int, verdict) -> None:
        witness = verdict.witness.text() if verdict.witness else "?"
        super().__init__(
            f"factor {factor} family is not star-free within bounds (witness: {witness})"
        )
        self.factor = factor
        self.verdict = verdict

