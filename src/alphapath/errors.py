"""Exception types shared across the package."""

from __future__ import annotations


class AlphaPathError(Exception):
    """Base class for all errors raised by this package."""


class LexError(AlphaPathError):
    """A character outside the expression alphabet (or a non-finite numeric literal)."""

    def __init__(self, position: int, character: str):
        self.position = position
        self.character = character
        super().__init__(f"illegal character {character!r} at position {position}")


class ParseError(AlphaPathError):
    """Token stream does not match the expression grammar."""

    def __init__(self, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(f"expected {expected} at position {position}")


class UnknownVariableError(AlphaPathError):
    """Variable name outside t, x0..x{n-1} for the problem's order."""

    def __init__(self, name: str, position: int | None = None):
        self.name = name
        self.position = position
        where = f" at position {position}" if position is not None else ""
        super().__init__(f"unknown variable {name!r}{where}")


class UnknownFunctionError(AlphaPathError):
    """Called function is not in the whitelist."""

    def __init__(self, name: str, position: int | None = None):
        self.name = name
        self.position = position
        where = f" at position {position}" if position is not None else ""
        super().__init__(f"unknown function {name!r}{where}")


class NonFiniteError(AlphaPathError):
    """Evaluation produced (or would produce) a non-finite double."""

    def __init__(self, at: str):
        self.at = at
        super().__init__(f"non-finite value in {at}")


class DomainError(AlphaPathError):
    """Argument outside the mathematical domain of an operation."""


class ConfigError(AlphaPathError):
    """Invalid specification, grid, or run configuration."""


class BlowUpError(AlphaPathError):
    """Trajectory left the finite range during integration.

    ``last_good_time`` is the last node at which the state was still finite
    and inside the blow-up threshold.
    """

    def __init__(self, last_good_time: float, alpha: float | None = None):
        self.last_good_time = last_good_time
        self.alpha = alpha
        tag = f" (alpha={alpha})" if alpha is not None else ""
        super().__init__(f"trajectory blew up after t={last_good_time}{tag}")


class FanSolveError(AlphaPathError):
    """One or more alpha-path solves in a fan failed."""

    def __init__(self, failures: list[tuple[float, BlowUpError]]):
        self.failures = failures
        alphas = ", ".join(str(a) for a, _ in failures)
        super().__init__(f"fan solve failed for alpha in [{alphas}]: {failures[0][1]}")


class MonotonicityError(AlphaPathError):
    """Fan is not strictly increasing in alpha where an operation requires it."""


class HypothesisError(AlphaPathError):
    """An operation refused to run because hypothesis checks failed."""
