"""Shared exception types.

The library distinguishes three failure modes: bad input (DomainError),
a configured enumeration budget being exceeded (ResourceLimitError), and
an internal identity that should hold by construction failing to hold
(InvariantError, which always indicates a bug rather than bad input).
"""


class DomainError(ValueError):
    """Input violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed its configured cap."""


class InvariantError(RuntimeError):
    """An internal cross-check failed; this signals an implementation bug.

    ``reproducer``, when the check knows it, names the failing input: a
    mapping with the structure as JSON under ``"input"`` (what ``ohg``
    reads) plus whatever else selects the failing check.
    """

    def __init__(self, message: str, *, reproducer: dict | None = None) -> None:
        super().__init__(message)
        self.reproducer = reproducer
