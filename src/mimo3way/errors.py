"""Exception hierarchy shared across the package, and its input rules.

Keeping these in one place lets the CLI map them onto stable exit codes:
invalid input and regime mismatches are caller errors, InternalError marks a
broken invariant inside the library itself. `instance`, `integer` and `real`
are the one home of the type rules for caller input: each returns the value
it accepts, coerced, and refuses anything else with InvalidInputError.
"""

import math
import numbers

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


def real(x, name: str, lo=None, noun: str = "real") -> float:
    """`x` as a float: a real number, never a bool, that a float can hold.
    With `lo` it must also be finite and >= lo, and every refusal says so,
    calling the value a finite `noun`."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        refusal = f"{name} must be a real number, got {x!r}"
    else:
        try:
            value = float(x)
        except OverflowError:
            refusal = f"{name} {x!r} is too large for a float"
        else:
            if lo is None or lo <= value < math.inf:
                return value
    if lo is not None:
        refusal = f"{name} must be a finite {noun} >= {lo}, got {x!r}"
    raise InvalidInputError(refusal)
