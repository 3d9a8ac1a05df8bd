"""Exception types shared across the package.

The CLI maps these onto exit codes: usage/domain problems exit 1,
resource-limit refusals exit 2, failed cross-checks exit 3.
"""


class DomainError(ValueError):
    """An operation was called outside its contract: a negative degree, a
    field order that is not a prime power, a reducible modulus, ..."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed a configured enumeration or size budget."""


class InternalInconsistencyError(RuntimeError):
    """Two independent routes to the same quantity disagreed.

    This always indicates a bug (wrong basis, wrong rank, ...) and is never
    a recoverable user error.
    """
