"""Exception types shared across the package.

The CLI maps these onto exit codes: InputError -> 2, IngestionError -> 3,
NumericInvariantError -> 4.
"""

__all__ = [
    "KGroupsError",
    "InputError",
    "RejectedMoveError",
    "IngestionError",
    "NumericInvariantError",
]


class KGroupsError(Exception):
    """Base class for all errors raised by this package."""


class InputError(KGroupsError):
    """Invalid argument, malformed in-memory data, or violated precondition."""


class RejectedMoveError(KGroupsError):
    """A relocation that would empty its source cluster (or is otherwise
    structurally impossible) was requested."""


class IngestionError(KGroupsError):
    """A dataset file could not be parsed or failed its integrity checks."""


class NumericInvariantError(KGroupsError):
    """An internal numeric consistency check failed (solver state diverged
    from its from-scratch recomputation)."""
