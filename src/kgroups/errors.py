"""Exception types shared across the package, and the integer check of settings records.

The CLI maps these onto exit codes: InputError -> 2, IngestionError -> 3,
NumericInvariantError -> 4.
"""

import operator

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


def check_int_fields(record, *names, seed):
    """Raise InputError unless the named fields hold integers, not bools, and `seed` one >= 0."""
    for name, kind in [(name, "an") for name in names] + [(seed, "a nonnegative")]:
        value = getattr(record, name)
        try:
            ok = not isinstance(value, bool) and (operator.index(value) >= 0 or name != seed)
        except TypeError:
            ok = False
        if not ok:
            raise InputError(f"{name} must be {kind} integer, got {value!r}")
