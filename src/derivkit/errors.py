"""Exception hierarchy for the checker.

Every failure mode gets its own class so callers can match on type
rather than scraping message strings. All of them derive from
DerivkitError, which is what the CLI catches at the top level.
"""

from __future__ import annotations


class DerivkitError(Exception):
    """Base class for all errors raised by this package."""


class UnboundSymbol(DerivkitError):
    """An expression referenced a name absent from the environment."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound symbol: {name}")


class NoExactValue(DerivkitError):
    """Exact evaluation met a node it does not take: a series, a power
    past its cap, a function application or an unbound name."""


class NonIntegerPow(DerivkitError):
    """A power node carried a non-integer exponent where an int was required."""


class NotDerivable(DerivkitError):
    """An obligation could not be discharged from the hypotheses in scope."""

    def __init__(self, obligation: str):
        self.obligation = obligation
        super().__init__(f"not derivable: {obligation}")


class SearchBudgetExhausted(DerivkitError):
    """A discharge search spent its judgement calls without a proof; the
    obligation fails, like any other failure of the step that raised it."""


class ArityMismatch(DerivkitError):
    """A function symbol was applied to the wrong number of arguments."""


class DerivSyntaxError(DerivkitError):
    """Parse failure; carries the 1-based line and column of the offending token."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{message} at line {line}, col {col}")


class DuplicateName(DerivkitError):
    """A declaration reused a name already bound in the same theory."""


class UndeclaredSymbol(DerivkitError):
    """A formula or let body referenced a name never declared in the theory."""

    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        super().__init__(f"undeclared symbol {name!r} at line {line}")


class StepFailed(DerivkitError):
    """A proof step did not apply to the current goal state; the message
    is the reason."""


class ObligationFailed(DerivkitError):
    """A side condition generated by a step could not be discharged; the
    message is the printed obligation."""


class GoalNotClosed(DerivkitError):
    """Proof script ran out of steps with the goal still open."""


class RejectionStarvation(DerivkitError):
    """Sampler could not find points satisfying the hypotheses."""
