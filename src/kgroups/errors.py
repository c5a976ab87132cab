"""Exception types shared across the package, and the field check of settings records.

The CLI maps these onto exit codes: InputError -> 2, IngestionError -> 3,
NumericInvariantError -> 4.
"""

import math
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


def check_fields(fields, reals=(), **least):
    """Raise InputError unless each field named in `least` holds an integer of at
    least its bound and each one in `reals` a finite real number, neither a bool.

    `fields` maps names to values, e.g. vars(record)."""
    for name, low in [*least.items(), *((name, None) for name in reals)]:
        value = fields[name]
        try:
            ok = math.isfinite(value) if low is None else operator.index(value) >= low
        except (TypeError, OverflowError):
            ok = False
        if not ok or isinstance(value, bool):
            kind = "a finite number" if low is None else f"an integer >= {low}"
            raise InputError(f"{name} must be {kind}, got {value!r}")
