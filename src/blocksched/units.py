"""Decimal-minute arithmetic helpers.

Every time quantity inside this package is kept in tenths of a minute, as an
exact int (or Fraction when a value falls off the 0.1-minute grid, e.g. the
slack-adjusted appointment times).  Keeping a single integer grid makes the
golden timelines bit-exact across platforms; conversion to display minutes
happens only at the I/O boundary.
"""

from __future__ import annotations

from fractions import Fraction

Scalar = int | Fraction  # a time value in tenths of a minute


def tenths(minutes) -> Scalar:
    """Convert a minutes value (number, decimal string, or Fraction) to tenths.

    Returns an int whenever the value sits on the 0.1-minute grid.
    """
    if isinstance(minutes, str):
        value = Fraction(minutes) * 10
    elif isinstance(minutes, float):
        # floats come from user code / JSON; trust their shortest repr
        value = Fraction(repr(minutes)) * 10
    else:
        value = Fraction(minutes) * 10
    if value.denominator == 1:
        return int(value)
    return value


def fmt_minutes(value: Scalar) -> str:
    """Render a tenths value as a decimal-minute string ("17.8", "26.25", "90")."""
    frac = Fraction(value) / 10
    return fmt_number(frac)


def fmt_number(value) -> str:
    """Exact decimal string for ints/Fractions with 2,5-smooth denominators."""
    if isinstance(value, float):
        return repr(value)
    frac = Fraction(value)
    num, den = frac.numerator, frac.denominator
    if den == 1:
        return str(num)
    scale = 0
    while den % 2 == 0:
        den //= 2
        scale += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:  # not a finite decimal; fall back to float
        return repr(float(frac))
    digits = max(scale, fives)
    scaled = num * 10**digits // frac.denominator
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, part = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{str(part).zfill(digits)}"


def round_half_away(value) -> int:
    """Round to the nearest integer, halves away from zero (1.8 -> 2, 2.5 -> 3)."""
    frac = Fraction(value)
    if frac < 0:
        return -round_half_away(-frac)
    whole, rem = divmod(frac.numerator, frac.denominator)
    return int(whole + (1 if 2 * rem >= frac.denominator else 0))
