import random
import re
import sys
from contextlib import contextmanager
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


@contextmanager
def int_str_digit_limit(limit):
    """Run the block under ``sys.set_int_max_str_digits(limit)``."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


#: the lowest limit ``sys.set_int_max_str_digits`` accepts
LOWEST_LIMIT = 640


@pytest.mark.parametrize("limit", [LOWEST_LIMIT, 0])
def test_format_int_around_the_str_switch(limit):
    """Values whose digit estimate falls on either side of the ``str()``
    switch at 640 digits, written under the lowest digit limit as they are
    by the one-step Decimal conversion."""
    values = [10**k + d for k in (637, 638, 639, 640, 641, 642, 700) for d in (-1, 0, 1)]
    values += [2**b + d for b in range(2110, 2140) for d in (-1, 0)]
    with int_str_digit_limit(limit):
        for v in values:
            for w in (v, -v):
                assert format_int(w) == _format_int_reference(w)
            for q in (1, 3, 10**639 + 1, 10**700 + 3):
                f = Fraction(v, q)
                expected = _format_int_reference(f.numerator)
                if f.denominator != 1:
                    expected += "/" + _format_int_reference(f.denominator)
                assert format_rational(f) == expected
                assert format_rational(-f) == "-" + expected


# --- parse_rational against the Decimal-only reader it replaced -------------

_DIGITS = r"\d+(?:_\d+)*"
_REFERENCE_RATIONAL = re.compile(
    rf"[-+]?(?=\.?\d)(?:{_DIGITS})?(?:/{_DIGITS}|(?:\.(?:{_DIGITS})?)?(?:[eE](?P<exponent>[-+]?{_DIGITS}))?)"
)


def reference_parse_rational(text):
    """``parse_rational`` as it was before its ``int()`` path: every text
    through the pattern and Decimal."""
    if not isinstance(text, str):
        raise ValueError(f"not a rational: {text!r}")
    stripped = text.strip()
    match = _REFERENCE_RATIONAL.fullmatch(stripped)
    if not match:
        raise ValueError(f"not a rational: {text!r}")
    exponent = match["exponent"]
    if exponent is not None and abs(Decimal(exponent)) > MAX_EXPONENT:
        raise ValueError(f"exponent of {text[:40]!r} exceeds {MAX_EXPONENT}")
    num, slash, den = stripped.partition("/")
    if not slash:
        return Fraction(Decimal(num))
    try:
        return Fraction(int(Decimal(num)), int(Decimal(den)))
    except ZeroDivisionError as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def value_or_message(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


#: ASCII, Arabic-Indic, Devanagari and fullwidth digits, all category Nd
_DIGIT_CHARS = "0123456789" + "\u0660\u0663\u0669" + "\u0966\u0967" + "\uff10\uff11\uff19"


@st.composite
def _digit_runs(draw):
    """Digit strings, mostly short, sometimes 600-700 or 5000 long, at
    times with underscores or a stray character."""
    size = draw(st.sampled_from([1, 2, 3, 20, 600, 639, 640, 641, 700, 5000]))
    # one recorded draw seeds the digits, not one draw per digit
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ascii_only = draw(st.booleans())
    pool = "0123456789" if ascii_only else _DIGIT_CHARS
    run = "".join(rng.choice(pool) for _ in range(size))
    edit = draw(st.sampled_from(["", "", "", "", "", "underscore", "double underscore", "stray"]))
    if edit and size > 1:
        at = rng.randrange(1, size)
        insert = {"underscore": "_", "double underscore": "__", "stray": draw(st.sampled_from("x² .e"))}[edit]
        run = run[:at] + insert + run[at:]
    return run


@st.composite
def _rational_texts(draw):
    sign = draw(st.sampled_from(["", "", "", "-", "-", "+", "--"]))
    num = draw(_digit_runs())
    form = draw(st.sampled_from(["p", "p", "p/q", "p/q", "p/q", "p /q", "p/ q", "p/0", "0/0", "p/-q", "decimal", "exponent", "empty"]))
    if form == "p":
        body = num
    elif form == "empty":
        body = draw(st.sampled_from(["", "/", "/2", "-", ".", "e5"]))
    elif form == "decimal":
        frac = draw(st.sampled_from(["", "5", "25", "0_1"]))
        body = draw(st.sampled_from([f"{num}.{frac}", f".{num}", f"{num}."]))
    elif form == "exponent":
        exp = draw(st.sampled_from(["5", "-3", "+0_1", "10000", "10001", "-10001", "99999999"]))
        body = f"{num}{draw(st.sampled_from('eE'))}{exp}"
    else:
        den = draw(_digit_runs())
        body = {"p/q": f"{num}/{den}", "p /q": f"{num} /{den}", "p/ q": f"{num}/ {den}", "p/0": f"{num}/0",
                "0/0": "0/0", "p/-q": f"{num}/-{den}"}[form]
    pad = st.sampled_from(["", "", " ", "\t", "\n ", "\u3000"])
    return draw(pad) + sign + body + draw(pad)


@pytest.mark.parametrize("limit", [4300, LOWEST_LIMIT])  # Python's default and the lowest
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(text=_rational_texts())
def test_parse_rational_matches_the_decimal_reader(limit, text):
    """The same value or the same ValueError message as the Decimal-only
    reader, at the default int/str digit limit and at the lowest one."""
    with int_str_digit_limit(limit):
        assert value_or_message(parse_rational, text) == value_or_message(reference_parse_rational, text)


@pytest.mark.parametrize(
    "text",
    ["1 /2", "1/ 2", "1/0", "-0/0", "+7", "\u0663/\u0664", "1_000/4", "1/2_0", "0.5", "1e3", "1/2/3", "-", "/2", "٣٫٥"],
)
def test_parse_rational_edge_texts_match_the_decimal_reader(text):
    assert value_or_message(parse_rational, text) == value_or_message(reference_parse_rational, text)
    with int_str_digit_limit(LOWEST_LIMIT):
        for digits in (639, 640, 641, 5000):
            long = "7" * digits
            for t in (long, f"-{long}/{long}3", f"1/{long}", f" {long}/9 "):
                assert value_or_message(parse_rational, t) == value_or_message(reference_parse_rational, t)
