from fractions import Fraction

import pytest

from nsgames import DomainError, as_rational, format_rational, parse_rational


def test_parse_canonical_and_integers():
    assert parse_rational("2/3") == Fraction(2, 3)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("5") == Fraction(5)
    assert parse_rational("4/6") == Fraction(2, 3)  # normalized on the way in
    assert parse_rational("3/-6") == Fraction(-1, 2)


@pytest.mark.parametrize("bad", ["", "x", "1/0", "1.5", "1/2/3", "2 3", 3, None])
def test_parse_rejects_garbage(bad):
    with pytest.raises(DomainError):
        parse_rational(bad)


def test_format_always_p_over_q():
    assert format_rational(Fraction(1)) == "1/1"
    assert format_rational(Fraction(0)) == "0/1"
    assert format_rational(Fraction(-2, 4)) == "-1/2"


def test_round_trip():
    for value in (Fraction(0), Fraction(2, 3), Fraction(-11, 7), Fraction(10**40, 3)):
        assert parse_rational(format_rational(value)) == value


def test_as_rational_rejects_floats_and_bools():
    assert as_rational(3) == Fraction(3)
    assert as_rational("1/3") == Fraction(1, 3)
    with pytest.raises(DomainError):
        as_rational(0.5)  # type: ignore[arg-type]
    with pytest.raises(DomainError):
        as_rational(True)  # type: ignore[arg-type]
