import hashlib
import json
import math
from fractions import Fraction

import pytest

from stochpoly import bounds
from stochpoly.bounds import (
    _binomials,
    _pairs,
    _primes_upto,
    _zz_opt_sum,
    bound_cpz,
    bound_lower,
    bound_lzz,
    bound_zz_half,
    bound_zz_opt,
    check_hockey_stick,
    check_lemma_2ab,
    sweep_hockey_stick,
    sweep_lemma_2ab,
    verify_chain,
)
from stochpoly.numerics import parse_rational


def test_cpz_values():
    assert bound_cpz(1) == 1
    assert bound_cpz(2) == Fraction(170544, 8) == 21318
    assert bound_cpz(3) == Fraction(math.comb(65, 26), 27)


def test_lzz_values():
    assert bound_lzz(1) == 1  # C(1,1) + C(0,1) = 1 + 0
    assert bound_lzz(2) == 2  # C(7,7) + C(7,7)
    assert bound_lzz(3) == 8855 + 1540 == 10395  # C(23,19) + C(22,19)


def test_zz_opt_values():
    assert bound_zz_opt(1) == 1
    assert bound_zz_opt(2) == 70 + 56 + 28 + 8 == 162
    assert bound_zz_opt(3) == sum(math.comb(27, k) for k in range(9, 20))


def test_zz_half_values():
    assert bound_zz_half(1) == 2
    assert bound_zz_half(2) == math.comb(15, 8) == 6435
    assert bound_zz_half(3) == math.comb(46, 27)


def test_lower_values():
    assert bound_lower(1) == 1
    assert bound_lower(2) == 1  # 2^4 / 2^4
    assert bound_lower(3) == Fraction(46656, 19683)


def test_bounds_reject_nonpositive():
    for fn in (bound_cpz, bound_lzz, bound_zz_opt, bound_zz_half, bound_lower):
        with pytest.raises(ValueError):
            fn(0)


def test_lemma_2ab_instances():
    res = check_lemma_2ab(24, 19, 3)
    assert res.hypothesis_satisfied  # 19*4 = 76 > 27
    assert res.inequality_holds  # 2*C(24,19) = 85008 < C(27,19) = 2220075
    assert 2 * math.comb(24, 19) == 85008
    assert math.comb(27, 19) == 2220075

    res = check_lemma_2ab(5, 2, 2)
    assert not res.hypothesis_satisfied  # 2*3 = 6 < 7 = 5+2
    assert res.inequality_holds is (2 * math.comb(5, 2) < math.comb(7, 2))

    with pytest.raises(ValueError):
        check_lemma_2ab(0, 1, 2)


def test_lemma_2ab_small_sweep():
    assert sweep_lemma_2ab(max_a=30, max_k=4) == []


def test_hockey_stick_instances():
    res = check_hockey_stick(8, 4, 3)
    assert res.hypothesis_satisfied
    assert res.inequality_holds
    assert sum(math.comb(8, 4 + k) for k in range(4)) == 162 <= math.comb(11, 7) == 330

    res = check_hockey_stick(9, 5, 0)
    assert res.inequality_holds  # equality C(9,5) <= C(9,5)

    res = check_hockey_stick(27, 9, 10)
    assert res.hypothesis_satisfied and res.inequality_holds

    with pytest.raises(ValueError):
        check_hockey_stick(-1, 0, 0)


def test_hockey_stick_small_sweep():
    assert sweep_hockey_stick(max_a=20) == []


def test_verify_chain_n2():
    r = verify_chain(2)
    assert (r.lzz, r.zz_opt, r.zz_half) == (2, 162, 6435)
    assert r.cpz == 21318
    assert r.mid == 8  # C(8,7)
    assert r.lower_latin == 2
    assert r.all_hold
    assert r.ordering == ("lower_latin", "lzz", "zz_opt", "zz_half", "cpz")
    assert r.relations == ("=", "<", "<", "<")


def test_verify_chain_n3():
    r = verify_chain(3)
    assert r.lzz == 10395
    assert r.mid == 2220075
    assert r.lower_latin == 12
    assert r.all_hold
    # empirically the cpz bound lands above the lzz bound, the opposite of
    # the order the summary display suggests
    assert r.ordering.index("lzz") < r.ordering.index("cpz")


def test_verify_chain_uses_rational_lower_bound_beyond_latin_range():
    r = verify_chain(7)
    assert isinstance(r.lower_latin, Fraction)
    assert r.all_hold


def test_verify_chain_rejects_n1():
    with pytest.raises(ValueError):
        verify_chain(1)


def test_chain_spot_checks_midrange():
    for n in (4, 10, 25):
        assert verify_chain(n).all_hold


def test_report_json_round_trippable():
    payload = verify_chain(2).to_json()
    assert payload["lzz"] == "2"
    assert payload["checks"]["lzz_lt_mid"] is True
    assert payload["ordering"][0] == "lower_latin"
    # from n = 26 the values have more digits than int(str) reads
    for n in (2, 26):
        r = verify_chain(n)
        payload = r.to_json()
        values = {
            "lower_latin": r.lower_latin,
            "cpz": r.cpz,
            "lzz": r.lzz,
            "zz_opt": r.zz_opt,
            "zz_half": r.zz_half,
            "mid_binomial": r.mid,
        }
        assert {name: parse_rational(payload[name]) for name in values} == values


def _zz_opt_reference(n):
    """The zz_opt sum term by term: a fresh binomial per term where that is
    cheap, the sequential ratio recurrence beyond."""
    cubes, lo, hi = n**3, n**2, 3 * n**2 - 3 * n + 1
    if n <= 12:
        return sum(math.comb(cubes, k) for k in range(lo, hi + 1))
    term = total = math.comb(cubes, lo)
    for k in range(lo, hi):
        term = term * (cubes - k) // (k + 1)
        total += term
    return total


@pytest.mark.parametrize("n", range(1, 13))
def test_zz_opt_matches_literal_sum(n):
    assert bound_zz_opt(n) == sum(math.comb(n**3, k) for k in range(n**2, 3 * n**2 - 3 * n + 2))


# n = 14, 32, 33 and 46 have (2n - 1)(n - 1) = 31, 1, 0 and 31 ratio steps
# mod the zz_opt splitting's block of 32
@pytest.mark.parametrize("n", [*range(2, 15), 26, 32, 33, 46, 50, 64])
def test_verify_chain_matches_binomial_definitions(n):
    cubes, low = n**3, 3 * n**2 - 3 * n + 1
    cpz = Fraction(math.comb(cubes + 6 * n**2 - 6 * n + 2, cubes - 1), cubes)
    lzz = math.comb(cubes - ((n - 1) ** 3 + 1) // 2, low) + math.comb(cubes - ((n - 1) ** 3 + 2) // 2, low)
    zz_opt = _zz_opt_reference(n)
    zz_half = math.comb(cubes + low, cubes)
    mid = math.comb(cubes, low)
    loose = math.comb(cubes + 3 * n**2, cubes)
    r = verify_chain(n)
    assert (r.cpz, r.lzz, r.zz_opt, r.zz_half, r.mid) == (cpz, lzz, zz_opt, zz_half, mid)
    lower = Fraction(r.lower_latin)
    assert r.checks == {
        "lzz_lt_mid": lzz < mid,
        "mid_lt_zz_opt": mid < zz_opt,
        "zz_opt_lt_zz_half": zz_opt < zz_half,
        "lzz_le_cpz": lzz <= cpz,
        "lower_le_lzz": lower <= lzz,
        "zz_half_lt_loose": zz_half < loose,
    }


def test_zz_opt_sum_refuses_a_remainder(monkeypatch):
    merge = bounds._merge

    def off_by_one(left, right):
        p, q, t = merge(left, right)
        return p, q, t + 1

    monkeypatch.setattr(bounds, "_merge", off_by_one)
    with pytest.raises(AssertionError, match="remainder at n = 10"):
        _zz_opt_sum(10, math.comb(1000, 100))


def test_verify_chain_reports_are_pinned():
    # the JSON reports for n = 2..64, as written before the zz_opt leaves
    # became blocks and format_int began to split its values
    text = "\n".join(json.dumps(verify_chain(n).to_json(), sort_keys=True) for n in range(2, 65))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "aa4e3e216fb5ec83cad5aad150e6ff77fa80ce64f8c2b394d6524d95d3488562"


def test_binomials_match_comb_up_to_300():
    for a in range(301):
        assert _binomials([(a, b) for b in range(a + 1)]) == [math.comb(a, b) for b in range(a + 1)]


@pytest.mark.parametrize("n", [1, 2, 26, 50, 64])
def test_binomials_match_comb_on_the_chain_pairs(n):
    pairs = _pairs(n)
    assert set(pairs) == {"cpz", "lzz1", "lzz2", "zz_opt", "mid", "zz_half", "loose"}
    expected = [math.comb(a, b) for a, b in pairs.values()]  # comb is 0 for b > a
    assert _binomials(list(pairs.values())) == expected


def test_binomials_edge_cases():
    # a = 0 and 1, b = 0 and b = a, prime a (a itself lies in the bulk
    # slice) and prime-power a (exponents above 1 from the Legendre sum),
    # all in one call sharing one sieve
    pairs = [(0, 0), (1, 0), (1, 1), (7, 0), (7, 7), (7, 3), (97, 48), (1009, 1), (1009, 500)]
    pairs += [(2**10, 2**9), (3**6, 100), (5**4, 5**3), (7**3, 7**2 + 1), (2**12, 1)]
    # b > a is 0, as lzz's second binomial C(0, 1) at n = 1 needs; and pairs
    # whose edge is min(b, a - b), well above sqrt(a), so the primes between
    # take the carry test and the slices start above it
    pairs += [(0, 1), (3, 5), (1000, 300), (100_000, 40_000), (100_000, 60_000)]
    assert _binomials(pairs) == [math.comb(a, b) for a, b in pairs]
    assert _binomials([]) == []


def test_primes_upto_matches_trial_division():
    primes = [p for p in range(2, 2000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    for top in range(2000):
        assert _primes_upto(top) == [p for p in primes if p <= top]

