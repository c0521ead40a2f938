"""Exact rational scalars and their canonical string form.

Every probability, density and LP coefficient in this package is an
arbitrary-precision rational (`fractions.Fraction`).  The wire format for a
rational is the string ``"p/q"`` with ``q > 0`` and ``gcd(p, q) = 1``; plain
integer strings are accepted on input and normalized on output.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DomainError

Rational = Fraction

_RATIONAL_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(-?\d+)\s*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` (or a bare integer string) into a reduced Fraction."""
    match = _RATIONAL_RE.match(text) if isinstance(text, str) else None
    if match is None:
        raise DomainError(f"not a rational literal: {text!r}")
    num = int(match.group(1))
    den = int(match.group(2)) if match.group(2) is not None else 1
    if den == 0:
        raise DomainError(f"zero denominator in rational literal: {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Canonical ``"p/q"`` form, denominator always present and positive."""
    frac = Fraction(value)
    return f"{frac.numerator}/{frac.denominator}"


def as_rational(value: int | str | Fraction) -> Fraction:
    """Coerce ints, ``"p/q"`` strings and Fractions; reject floats.

    Floats are rejected on purpose: silently rationalizing binary floats would
    defeat the exactness contract of the package.
    """
    if isinstance(value, bool):
        raise DomainError("booleans are not rationals")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise DomainError(f"cannot interpret {type(value).__name__} as an exact rational")
