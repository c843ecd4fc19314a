"""Exact integer and rational arithmetic helpers.

All quantities in this package are Python ints (arbitrary precision) or
``fractions.Fraction`` values (always stored in lowest terms with a positive
denominator), so every comparison and every bound evaluation is exact.
Checks that add or compare many rationals first put them on one integer
scale with ``common_scale`` and then work on Python ints alone.

The wire forms are written with ``str()`` on pieces of at most
``_STR_DIGITS`` digits, which no setting of Python's int/str digit limit
refuses, and read with ``int()`` when every digit string is that short;
longer numbers, decimals and exponents are read through ``Decimal``, which
has no such limit.
"""
from __future__ import annotations

import math
import re
import reprlib
from decimal import Decimal
from fractions import Fraction
from typing import Sequence

Rational = Fraction

_DIGITS = r"\d+(?:_\d+)*"
#: what ``Fraction`` reads: 'p/q' with integers p and q, or a decimal 'p'
_RATIONAL = re.compile(
    rf"[-+]?(?=\.?\d)(?:{_DIGITS})?(?:/{_DIGITS}|(?:\.(?:{_DIGITS})?)?(?:[eE](?P<exponent>[-+]?{_DIGITS}))?)"
)
#: largest decimal exponent ``parse_rational`` expands: 1e10000 is a
#: 33 000-bit integer, while 1e10000000 took 15.8 s to build
MAX_EXPONENT = 10_000
#: the lowest int/str digit limit ``sys.set_int_max_str_digits`` accepts, so
#: ``int()`` and ``str()`` convert this many digits under any setting
_STR_DIGITS = 640

__all__ = [
    "Rational",
    "binomial",
    "factorial",
    "rational_pow",
    "common_scale",
    "parse_rational",
    "MAX_EXPONENT",
    "json_int",
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


def common_scale(values: Sequence[Fraction | int]) -> tuple[int, list[int]]:
    """``(d, nums)``: d > 0 is the lcm of the values' denominators and each
    value equals ``num / d``, so sums and comparisons of the values become
    sums and comparisons of the integers ``nums`` against multiples of d."""
    d = math.lcm(*[v.denominator for v in values])
    return d, [v.numerator * (d // v.denominator) for v in values]


def parse_rational(text: str) -> Fraction:
    """Parse the canonical wire form 'p/q' or 'p' (optional leading '-').

    A lone 'p' may also be a decimal such as '0.5', read exactly. The
    canonical forms with parts of at most ``_STR_DIGITS`` digits are read
    with ``int()``; every other form goes through Decimal, so there is no
    int/str digit limit on either part. Both paths accept the same texts
    with the same values and messages. A decimal exponent above
    ``MAX_EXPONENT`` in absolute value is refused before it is expanded.
    """
    if not isinstance(text, str):
        raise ValueError(f"not a rational: {text!r}")
    stripped = text.strip()
    num, slash, den = stripped.partition("/")
    # int() would also take inner whitespace and underscores, so the fast
    # path is held to signed runs of decimal digits, which the pattern
    # below accepts with the same value
    digits = num[1:] if num[:1] in ("-", "+") else num
    if (
        digits.isdecimal()
        and len(digits) <= _STR_DIGITS
        and (not slash or den.isdecimal() and len(den) <= _STR_DIGITS)
    ):
        if not slash:
            return Fraction(int(num))
        try:
            return Fraction(int(num), int(den))
        except ZeroDivisionError as exc:
            raise ValueError(f"not a rational: {text!r}") from exc
    match = _RATIONAL.fullmatch(stripped)
    if not match:
        raise ValueError(f"not a rational: {text!r}")
    exponent = match["exponent"]
    if exponent is not None and abs(Decimal(exponent)) > MAX_EXPONENT:
        raise ValueError(f"exponent of {text[:40]!r} exceeds {MAX_EXPONENT}")
    if not slash:
        return Fraction(Decimal(num))
    try:
        return Fraction(int(Decimal(num)), int(Decimal(den)))
    except ZeroDivisionError as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def json_int(value, what: str) -> int:
    """An integer field of a JSON document: a JSON integer and nothing else,
    so never a float or a bool, which ``int()`` would truncate or turn into
    0/1, nor a string, which ``int()`` would read."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {reprlib.repr(value)}")
    return value


def format_int(value: int) -> str:
    """Decimal digits of an integer, however many there are.

    ``str(int)`` refuses integers past ``sys.get_int_max_str_digits()``
    (4300 digits by default, 640 at the lowest setting), which the bound
    values pass from n = 26 on, and it is quadratic in the digit count. So
    ``str()`` writes only pieces of at most ``_STR_DIGITS`` digits, such as
    every tensor entry of a certify request, and a longer value is split by
    divide and conquer (Brent & Zimmermann, *Modern Computer Arithmetic*,
    section 1.7): for an upper bound w on its digit count, divmod by
    10^(w // 2) gives a high piece of at most w - w // 2 digits and a low
    piece written zero-padded to w // 2, each split again until it fits.
    Each power of ten is built once per call; the leading piece is written
    unpadded, and dropped while it is zero.
    """
    # an upper bound on the digit count, as log10(2) < 0.30103
    width = value.bit_length() * 30103 // 100_000 + 1
    if width <= _STR_DIGITS:
        return str(value)
    pieces = ["-"] if value < 0 else []
    powers: dict[int, int] = {}

    def write(v: int, width: int, lead: bool) -> None:
        if width <= _STR_DIGITS:
            digits = str(v)
            pieces.append(digits if lead else digits.zfill(width))
            return
        low = width // 2
        if low not in powers:
            powers[low] = 10**low
        high, rest = divmod(v, powers[low])
        if high or not lead:
            write(high, width - low, lead)
            lead = False
        write(rest, low, lead)

    write(abs(value), width, True)
    return "".join(pieces)


def format_rational(value: Fraction | int) -> str:
    """Canonical wire form: lowest terms, 'p/q', or just 'p' when q = 1."""
    if type(value) is not Fraction:
        value = Fraction(value)
    num = format_int(value.numerator)
    return num if value.denominator == 1 else f"{num}/{format_int(value.denominator)}"
