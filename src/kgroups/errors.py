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


def check_sequence(value, name, numbers=False, choices=None) -> tuple:
    """`value` as a nonempty tuple, of finite floats when `numbers`, of names in
    `choices` when given: InputError naming the field otherwise.  A bare str or
    bytes is refused, never split into characters."""
    if not isinstance(value, (str, bytes, bytearray)):
        try:
            items = tuple(map(float, value) if numbers else value)
            if items and all(math.isfinite(v) if numbers else choices is None or v in choices for v in items):
                return items
        except (TypeError, ValueError):
            pass
    kind = " of finite numbers" * numbers + (f" of names from {choices}" if choices else "")
    raise InputError(f"{name} must be a nonempty sequence{kind}, got {value!r}")


def check_index(value, size, name) -> int:
    """`value` as an int in 0..size-1: InputError for a bool, a non-integer
    or an id out of range, the `check_fields` rule with an upper bound."""
    if type(value) is not int:
        check_fields({name: value}, **{name: 0})
        value = operator.index(value)
    if not 0 <= value < size:
        raise InputError(f"{name} {value} outside 0..{size - 1}")
    return value
