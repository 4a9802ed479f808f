"""Exception types shared across the package.

The CLI's command group maps these onto exit codes for every verb:
failed preconditions or verification exit 1, and every other error
(parsing, malformed construction parameters) exits 2.
"""


class ClosureLabError(Exception):
    """Base class for all package errors."""


class DuplicateRow(ClosureLabError):
    """A matrix or family was built with a repeated row/set."""


class Empty(ClosureLabError):
    """A matrix or family was built with no rows at all."""


class IndexOutOfRange(ClosureLabError):
    """A 1-based column or element index fell outside [1, width]."""


class WidthCapExceeded(ClosureLabError):
    """Requested width is beyond the supported packed-word cap."""


class ParameterOutOfRange(ClosureLabError):
    """A construction parameter violates its documented range."""


class ParseError(ClosureLabError):
    """A text input could not be parsed; names the offending line."""

    def __init__(self, source: str, lineno: int, message: str):
        self.source = source
        self.lineno = lineno
        self.message = message
        super().__init__(f"{source}:{lineno}: {message}")


class PreconditionViolated(ClosureLabError):
    """The input does not satisfy the operation's hypothesis."""


class NotDecomposable(ClosureLabError):
    """A row is not the OR of any subset of the given basis."""


class VerificationFailed(ClosureLabError):
    """An internal consistency check failed; signals a bug, not bad input."""


class BasisVerificationFailed(VerificationFailed):
    """The constructed basis failed its own orthogonality/decomposition check."""


class AllEmpty(ClosureLabError):
    """Every member of the family is the empty set; no witness element exists."""


class CampaignFailure(ClosureLabError):
    """A verification campaign found a failing family (reproducers dumped)."""

    def __init__(self, message: str, reproducers: list[str]):
        self.reproducers = reproducers
        super().__init__(message)
