import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochpoly.numerics import (
    MAX_EXPONENT,
    binomial,
    factorial,
    format_int,
    format_rational,
    parse_rational,
    rational_pow,
)


@pytest.mark.parametrize(
    "n, k, expected",
    [
        (7, 7, 1),
        (8, 7, 8),
        (23, 19, 8855),  # 23*22*21*20/24, via the multiplicative formula
        (0, 0, 1),
        (10, -1, 0),
        (10, 11, 0),
        (5, 2, 10),
    ],
)
def test_binomial_values(n, k, expected):
    assert binomial(n, k) == expected


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_symmetry_and_pascal():
    rng = random.Random(20240811)
    for _ in range(300):
        n = rng.randrange(0, 201)
        k = rng.randrange(0, n + 1) if n else 0
        assert binomial(n, k) == binomial(n, n - k)
        if 1 <= k <= n - 1:
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


@pytest.mark.parametrize("n, expected", [(0, 1), (3, 6), (6, 720)])
def test_factorial(n, expected):
    assert factorial(n) == expected


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-2)


def test_rational_pow():
    assert rational_pow(Fraction(2, 3), 2) == Fraction(4, 9)
    assert rational_pow(Fraction(6), 6) == 46656
    assert rational_pow(Fraction(1, 2), 0) == 1
    assert rational_pow(Fraction(1, 2), -2) == 4
    with pytest.raises(ZeroDivisionError):
        rational_pow(Fraction(0), -1)


def test_rational_arithmetic_is_exact():
    rng = random.Random(7)
    for _ in range(200):
        a = Fraction(rng.randrange(-999, 1000), rng.randrange(1, 1000))
        b = Fraction(rng.randrange(-999, 1000), rng.randrange(1, 1000))
        assert (a + b) - b == a
        assert Fraction(a.numerator, a.denominator) == a  # normalization idempotent


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1/2", Fraction(1, 2)),
        ("-1/2", Fraction(-1, 2)),
        ("3", Fraction(3)),
        ("2/4", Fraction(1, 2)),
        (" 7/3 ", Fraction(7, 3)),
        ("0.5", Fraction(1, 2)),
        ("-1_000/4", Fraction(-250)),
    ],
)
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


def test_parse_rational_rejects_garbage():
    for bad in ("", "x", "1/0", "1.5.2", "1.5/2", "1__0", "nan", "inf"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_parse_rational_caps_the_exponent():
    assert parse_rational(f"1e{MAX_EXPONENT}") == 10**MAX_EXPONENT
    assert parse_rational(f"2.5e-{MAX_EXPONENT}") == Fraction(5, 2 * 10**MAX_EXPONENT)
    assert parse_rational("1_0E+1_0") == 10**11
    for bad in (f"1e{MAX_EXPONENT + 1}", f"-3.5e-{MAX_EXPONENT + 1}", "1e10000000", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="exponent"):
            parse_rational(bad)


def test_format_rational_canonical():
    assert format_rational(Fraction(4, 8)) == "1/2"
    assert format_rational(Fraction(-4, 8)) == "-1/2"
    assert format_rational(Fraction(8, 2)) == "4"
    assert format_rational(0) == "0"
    # round trip
    for f in (Fraction(3, 7), Fraction(-22, 5), Fraction(9)):
        assert parse_rational(format_rational(f)) == f


def test_format_int_beyond_str_digit_limit():
    for v in (0, 7, -12, 10 ** (sys.get_int_max_str_digits() + 5) + 3):
        assert int(Decimal(format_int(v))) == v
    assert format_int(-(10**5000)) == "-1" + "0" * 5000
    big = Fraction(10**5000 + 1, 3)
    assert parse_rational(format_rational(big)) == big


def _format_int_reference(v):
    """The one-step conversion ``format_int`` used before it split values."""
    return str(Decimal(v))


_EDGE_VALUES = {
    "0": 0,
    "1": 1,
    "-1": -1,
    **{f"10^{k}{d:+d}": 10**k + d for k in (999, 1000, 1001, 1999, 2000, 2001, 3999, 4000, 4001) for d in (-1, 0)},
    "-10^4000": -(10**4000),
    # the low half is a long run of zeros
    "10^5000+7": 10**5000 + 7,
    # a 3/10 digit estimate undercounts these by about 100 digits
    "2^100000-1": 2**100_000 - 1,
    "-2^100000+1": -(2**100_000 - 1),
}


@pytest.mark.parametrize("name", _EDGE_VALUES)
def test_format_int_edge_values(name):
    v = _EDGE_VALUES[name]
    assert format_int(v) == _format_int_reference(v)


@st.composite
def _big_ints(draw):
    digits = draw(st.integers(0, 30_000))
    rng = draw(st.randoms(use_true_random=False))
    value = rng.randrange(10**digits)
    if draw(st.booleans()):
        # long runs of zeros or nines inside the digits, where each low
        # piece must keep its leading zeros
        value = value // 10 ** (digits // 2) * 10 ** (digits // 2) + draw(st.integers(-(10**9), 10**9))
    return value if draw(st.booleans()) else -value


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_big_ints())
def test_format_int_matches_the_one_step_conversion(v):
    assert format_int(v) == _format_int_reference(v)
