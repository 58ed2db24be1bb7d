"""Exact rational scalars.

All antenna counts, stream counts, and bound values in this package are exact
`fractions.Fraction` values; floats never enter bound or allocation
arithmetic. JSON carries rationals as "p/q" strings (plain "p" when whole).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .errors import InvalidInputError, sequence

__all__ = ["frac", "frac_str", "triple"]

# Largest decimal exponent `frac` reads, checked before the Fraction is built
# (Fraction("1e10000000") builds a 10-million-digit int): the digit count
# Python already refuses to read as an int.
_MAX_EXPONENT = 4300


def frac(x) -> Fraction:
    """Coerce int (Python or numpy, never bool) / Fraction / "p/q" string to
    Fraction. Floats are rejected: silently converting binary floats would
    poison exact comparisons."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise InvalidInputError(f"expected a rational number, got {x!r}")
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        try:
            if abs(int(x.lower().partition("e")[2] or 0)) <= _MAX_EXPONENT:
                return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            why = ": its denominator is zero" if isinstance(exc, ZeroDivisionError) else ""
            raise InvalidInputError(f"cannot parse rational from {x!r}{why}") from exc
        raise InvalidInputError(f"the exponent of {x!r} is outside [-{_MAX_EXPONENT}, {_MAX_EXPONENT}]")
    raise InvalidInputError(f"expected int, Fraction, or 'p/q' string, got {type(x).__name__}")


def frac_str(x: Fraction) -> str:
    """Render as "p/q" ("p" when the denominator is 1)."""
    return str(x) if type(x) is Fraction else str(Fraction(x))


def _rationals(values, refusal: str, most: int) -> tuple[Fraction, ...]:
    """Coerce the first `most` + 1 of a sequence of rationals (`errors.sequence`), else raise `refusal`."""
    return tuple(frac(v) for v in sequence(values, refusal, most))


def triple(values, name: str = "triple") -> tuple[Fraction, Fraction, Fraction]:
    """Coerce a 3-sequence of nonnegative rationals."""
    vals = _rationals(values, f"{name} must be a sequence of 3 rationals", 3)
    if len(vals) != 3:
        raise InvalidInputError(f"{name} must have exactly 3 entries, got {len(vals)}")
    if any(v < 0 for v in vals):
        raise InvalidInputError(f"{name} entries must be >= 0, got {vals}")
    return vals


def _to_integers(values) -> tuple[list[int], int]:
    """Scale rationals (Fraction or int) to integers by the lcm of their
    denominators; returns the integers and the scale (1 if empty)."""
    s = lcm(*(x.denominator for x in values))
    if s == 1:
        return [x.numerator for x in values], 1
    return [x.numerator * (s // x.denominator) for x in values], s
