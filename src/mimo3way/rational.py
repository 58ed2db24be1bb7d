"""Exact rational scalars.

All antenna counts, stream counts, and bound values in this package are exact
`fractions.Fraction` values; floats never enter bound or allocation
arithmetic. JSON carries rationals as "p/q" strings (plain "p" when whole).
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import InvalidInputError

__all__ = ["frac", "frac_str", "triple", "denominator_lcm"]


def frac(x) -> Fraction:
    """Coerce int (Python or numpy, never bool) / Fraction / "p/q" string to
    Fraction. Floats are rejected: silently converting binary floats would
    poison exact comparisons."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise InvalidInputError(f"expected a rational number, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"cannot parse rational from {x!r}") from exc
    if isinstance(x, np.integer):
        return Fraction(int(x))
    raise InvalidInputError(f"expected int, Fraction, or 'p/q' string, got {type(x).__name__}")


def frac_str(x: Fraction) -> str:
    """Render as "p/q" ("p" when the denominator is 1)."""
    return str(x) if type(x) is Fraction else str(Fraction(x))


def _rationals(values, refusal: str) -> tuple[Fraction, ...]:
    """Coerce a sequence of rationals, else raise `refusal`. A string, bytes,
    mapping or set is refused: it iterates as characters, keys or in hash
    order."""
    if not isinstance(values, (str, bytes, Mapping, Set)):
        try:
            return tuple(frac(v) for v in values)
        except TypeError:  # not iterable
            pass
    raise InvalidInputError(f"{refusal}, got {values!r}")


def triple(values, name: str = "triple") -> tuple[Fraction, Fraction, Fraction]:
    """Coerce a 3-sequence of nonnegative rationals."""
    vals = _rationals(values, f"{name} must be a sequence of 3 rationals")
    if len(vals) != 3:
        raise InvalidInputError(f"{name} must have exactly 3 entries, got {len(vals)}")
    if any(v < 0 for v in vals):
        raise InvalidInputError(f"{name} entries must be >= 0, got {vals}")
    return vals


def denominator_lcm(values) -> int:
    """lcm of the denominators of a collection of rationals (1 if empty)."""
    return lcm(1, *(frac(v).denominator for v in values))
