"""Exact integer and rational arithmetic helpers.

All quantities in this package are Python ints (arbitrary precision) or
``fractions.Fraction`` values (always stored in lowest terms with a positive
denominator), so every comparison and every bound evaluation is exact.
"""
from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

Rational = Fraction

__all__ = [
    "Rational",
    "binomial",
    "factorial",
    "rational_pow",
    "parse_rational",
    "format_rational",
    "format_int",
]


def binomial(n: int, k: int) -> int:
    """C(n, k) for n >= 0, with the convention C(n, k) = 0 outside 0 <= k <= n.

    The out-of-range convention lets summation formulas run over uniform
    index ranges without special-casing the ends.
    """
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError("factorial requires n >= 0")
    return math.factorial(n)


def rational_pow(base: Fraction | int, e: int) -> Fraction:
    """Exact integer power of a rational, including negative exponents."""
    base = Fraction(base)
    if e < 0 and base == 0:
        raise ZeroDivisionError("zero base with negative exponent")
    return base**e


def parse_rational(text: str) -> Fraction:
    """Parse the canonical wire form 'p/q' or 'p' (optional leading '-')."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc
    return value


def format_int(value: int) -> str:
    """Decimal digits of an integer, however many there are.

    ``str(int)`` refuses integers past ``sys.get_int_max_str_digits()``
    (4300 digits by default), which the bound values pass from n = 26 on;
    the conversion through Decimal has no such limit and is exact.
    """
    return str(Decimal(value))


def format_rational(value: Fraction | int) -> str:
    """Canonical wire form: lowest terms, 'p/q', or just 'p' when q = 1."""
    value = Fraction(value)
    num = format_int(value.numerator)
    return num if value.denominator == 1 else f"{num}/{format_int(value.denominator)}"
