from fractions import Fraction

import pytest

from blocksched.units import fmt_minutes, fmt_number, round_half_away, tenths


def test_tenths_roundtrip():
    assert tenths("17.8") == 178
    assert tenths(10) == 100
    assert tenths(17.8) == 178          # via float repr


def test_on_grid():
    # a value on the 0.1-minute grid converts to an int, one off it does not
    assert isinstance(tenths("6"), int) and isinstance(tenths("10.7"), int)
    assert not isinstance(tenths("10.55"), int)


def test_fmt_minutes():
    assert fmt_minutes(178) == "17.8"
    assert fmt_minutes(900) == "90"
    assert fmt_minutes(Fraction(525, 2)) == "26.25"


def test_fmt_number_falls_back_to_float_for_thirds():
    assert fmt_number(Fraction(1, 4)) == "0.25"
    assert fmt_number(Fraction(1, 3)) == repr(1 / 3)


@pytest.mark.parametrize("value,expected", [
    ("1.8", 2), ("2.5", 3), ("-2.5", -3), ("0.4", 0), (2, 2), ("1.5", 2)])
def test_round_half_away(value, expected):
    assert round_half_away(Fraction(value)) == expected
