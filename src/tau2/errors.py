"""Exception hierarchy shared across the package.

Each class carries the CLI's answer to it, the exit-code table: its stable
``exit_code`` and the ``label`` that starts its one stderr line.  A class
that sets neither answers as its parent does.
"""


class Tau2Error(Exception):
    """Base class for all package errors."""

    exit_code, label = 1, "error"


class ParseError(Tau2Error):
    """Malformed input text; carries a line number when available."""

    exit_code, label = 1, "parse error"

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DimensionMismatchError(Tau2Error):
    """Vector/matrix dimensions do not agree."""


class PresentationMismatchError(Tau2Error):
    """Elements from different presentations were combined."""


class PreconditionError(Tau2Error):
    """A documented operation precondition does not hold."""

    exit_code, label = 2, "precondition failed"


class BudgetExceededError(Tau2Error):
    """An enumeration would exceed its configured evaluation budget."""

    exit_code, label = 3, "budget exceeded"


class InternalInvariantError(Tau2Error):
    """A computation contradicted an identity that must always hold."""

    exit_code, label = 4, "internal invariant violated"
