"""Exception hierarchy shared across the package, and its input rules.

Keeping these in one place lets the CLI map them onto stable exit codes:
invalid input and regime mismatches are caller errors, InternalError marks a
broken invariant inside the library itself. `instance`, `integer`, `real`
and `sequence` are the one home of the type rules for caller input: each
returns the value it accepts, coerced, and refuses anything else with
InvalidInputError.
"""

import itertools
import numbers
from collections.abc import Mapping, Set

import numpy as np

__all__ = ["InvalidInputError", "RegimeError", "InternalError"]


class InvalidInputError(ValueError):
    """Malformed or out-of-domain argument (shapes, ordering, negativity)."""


class RegimeError(InvalidInputError):
    """A scheme or formula was requested outside its antenna regime."""


class InternalError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


def instance(x, cls: type):
    """`x`, refused unless it is an instance of `cls`."""
    if isinstance(x, cls):
        return x
    article = "an" if cls.__name__[0] in "AEIOU" else "a"
    raise InvalidInputError(f"expected {article} {cls.__name__}, got {type(x).__name__}")


def integer(x, name: str, lo: int = 0, hi: int | None = None) -> int:
    """`x` as a plain int: a Python or numpy integer, never a bool (nor a
    float, 1.0 included), in [lo, hi], or with no upper bound when `hi` is
    None."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool) and lo <= x and (hi is None or x <= hi):
        return int(x)
    if hi is not None:
        rule = f"an integer in [{lo}, {hi}]"
    else:
        rule = "a nonnegative integer" if lo == 0 else "a positive integer" if lo == 1 else f"an integer >= {lo}"
    raise InvalidInputError(f"{name} must be {rule}, got {x!r}")


def real(x, name: str) -> float:
    """`x` as a float: a real number, never a bool, that a float can hold."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise InvalidInputError(f"{name} must be a real number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise InvalidInputError(f"{name} {x!r} is too large for a float") from None


def sequence(values, refusal: str, most: int) -> tuple:
    """The first `most` + 1 entries of `values` as a tuple, enough to refuse
    more than `most`, else raise `refusal`. A string, bytes, mapping or set is
    refused: it iterates as characters, keys or in hash order."""
    if type(values) is tuple and len(values) <= most:  # what the slice returns, without its call
        return values
    if not isinstance(values, (str, bytes, Mapping, Set)):
        try:
            return tuple(itertools.islice(values, most + 1))
        except TypeError:  # not iterable
            pass
    raise InvalidInputError(f"{refusal}, got {values!r}")
