import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from stochpoly.numerics import (
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
    ],
)
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


def test_parse_rational_rejects_garbage():
    for bad in ("", "x", "1/0", "1.5.2"):
        with pytest.raises(ValueError):
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
    num, den = format_rational(big).split("/")
    assert Fraction(int(Decimal(num)), int(Decimal(den))) == big
