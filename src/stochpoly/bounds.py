"""Exact evaluation and comparison of the known vertex-count bounds.

For the polytope of n x n x n line-stochastic tensors, four upper bounds on
the number of vertices circulate, each from a different proof technique, and
Latin squares give a lower bound:

* cpz      (1/n^3) * C(n^3 + 6n^2 - 6n + 2, n^3 - 1)      (hyperplane induction)
* lzz      C(n^3 - floor(((n-1)^3+1)/2), 3n^2-3n+1)
           + C(n^3 - floor(((n-1)^3+2)/2), 3n^2-3n+1)      (upper bound theorem)
* zz_opt   sum_{k=n^2}^{3n^2-3n+1} C(n^3, k)               (linear programming)
* zz_half  C(n^3 + 3n^2 - 3n + 1, n^3)                     (halfspace counting)
* lower    (n!)^(2n) / n^(n^2) <= L(n) <= vertex count     (Latin squares)

Everything here is exact big-integer / rational arithmetic; a report either
proves the expected strict orderings for a given n or records the violation.
Every binomial the chain needs (``_pairs``; tens of thousands of digits at
n = 50) is built from its prime factorisation: one sieve up to the largest
top index, Legendre's formula for each exponent and a balanced product, so
no step divides a multi-limb integer (``_binomials``). The zz_opt sum takes
its first term from there and the rest from one binary splitting of its term
ratios: leaves of 32 consecutive steps, each built by one Horner loop, folded
in the same balanced order (``_fold``) as two halves whose root forms only Q
and T, and ended by one exact division. The values have about n^3 digits;
``BoundReport.to_json`` writes them with ``numerics.format_int``, which
splits a long value at powers of ten and converts only pieces of at most
640 digits with ``str()``.
The two combinatorial lemmas the comparisons rest on (the shifted-binomial
doubling inequality and a hockey-stick style sum bound) are exposed as
checkable statements so they can be swept for counterexamples.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from math import isqrt
from operator import mul
from typing import Callable, Sequence, TypeVar, Union

from .numerics import binomial, factorial, format_int, format_rational, rational_pow

__all__ = [
    "BoundReport",
    "LemmaCheck",
    "bound_cpz",
    "bound_lzz",
    "bound_zz_opt",
    "bound_zz_half",
    "bound_lower",
    "check_lemma_2ab",
    "check_hockey_stick",
    "sweep_lemma_2ab",
    "sweep_hockey_stick",
    "verify_chain",
]

_T = TypeVar("_T")


def _primes_upto(top: int) -> list[int]:
    """The primes p <= top, from a sieve over the odd numbers."""
    if top < 2:
        return []
    odd = bytearray([1]) * ((top + 1) // 2)  # odd[i] stands for 2i + 1
    odd[0] = 0
    for i in range(1, (isqrt(top) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            start = p * p // 2
            odd[start::p] = bytes(len(range(start, len(odd), p)))
    return [2, *compress(range(1, top + 1, 2), odd)]


def _fold(items: list[_T], op: Callable[[_T, _T], _T], unit: _T) -> _T:
    """Reduce items in order by an associative op, neighbours combined round
    by round, so the large operands meet only near the root; unit if empty."""
    while len(items) > 1:
        odd = items[-1:] if len(items) % 2 else []
        items = [op(x, y) for x, y in zip(items[::2], items[1::2])] + odd
    return items[0] if items else unit


def _binomials(pairs: Sequence[tuple[int, int]]) -> list[int]:
    """C(a, b) for each pair (a, b) with b >= 0 (0 for b > a), from one prime
    sieve up to the largest a, with no division by a multi-limb integer.

    By Legendre's formula the exponent of a prime p in C(a, b) is
    sum_i (a // p^i - b // p^i - (a - b) // p^i), the number of carries when
    b and a - b are added in base p (Kummer); see Goetgheluck 1987,
    *Computing binomial coefficients*. A prime p above
    edge = max(sqrt(a), min(b, a - b)) has at most one multiple in
    (max(b, a - b), a], and exponent 1 exactly when it has one, so those
    factors are the bisected slices of the sieve between max(b, a - b) // m
    and a // m for m = 1, 2, ... A prime in (sqrt(a), edge] has exponent 0
    or 1, and 1 exactly when a mod p < b mod p (a carry out of the last
    digit). Only the primes up to sqrt(a) need the full sum. A pair asked
    for twice is computed once.
    """
    primes = _primes_upto(max((a for a, _ in pairs), default=0))
    values = {}
    for a, b in dict.fromkeys(pairs):
        if b > a:
            values[a, b] = 0
            continue
        c = a - b
        high, root = max(b, c), isqrt(a)
        edge = max(root, min(b, c))
        small, tested = bisect_right(primes, root), bisect_right(primes, edge)
        factors = [p for p in primes[small:tested] if a % p < b % p]
        for m in range(1, a // (edge + 1) + 1):
            start = bisect_right(primes, max(high // m, edge), tested)
            factors += primes[start : bisect_right(primes, a // m, start)]
        for p in primes[:small]:
            e, q = 0, p
            while q <= a:
                e += a // q - b // q - c // q
                q *= p
            if e:
                factors.append(p**e)
        values[a, b] = _fold(factors, mul, 1)
    return [values[pair] for pair in pairs]


def _pairs(n: int) -> dict[str, tuple[int, int]]:
    """Every binomial C(a, b) of the bound chain at n, as (a, b) by name;
    zz_opt is the first term of its sum, and loose is C(n^3 + 3n^2, n^3)."""
    cubes, low = n**3, 3 * n**2 - 3 * n + 1
    return {
        "cpz": (cubes + 6 * n**2 - 6 * n + 2, cubes - 1),
        "lzz1": (cubes - ((n - 1) ** 3 + 1) // 2, low),
        "lzz2": (cubes - ((n - 1) ** 3 + 2) // 2, low),
        "zz_opt": (cubes, n**2),
        "mid": (cubes, low),
        "zz_half": (cubes + low, cubes),
        "loose": (cubes + 3 * n**2, cubes),
    }


def bound_cpz(n: int) -> Fraction:
    """Upper bound from hyperplane induction: C(p, n^3 - 1) / n^3 with
    p = n^3 + 6n^2 - 6n + 2. Not an integer in general, so kept rational."""
    _require_positive(n)
    (top,) = _binomials([_pairs(n)["cpz"]])
    return Fraction(top, n**3)


def bound_lzz(n: int) -> int:
    """Upper bound from the McMullen-style vertex maximum for a polytope of
    this dimension and facet count: a sum of two binomials."""
    _require_positive(n)
    pairs = _pairs(n)
    return sum(_binomials([pairs["lzz1"], pairs["lzz2"]]))


#: ratio steps per leaf of the zz_opt splitting; 16 to 128 time alike
_ZZ_BLOCK = 32


def _merge(left: tuple[int, int, int], right: tuple[int, int, int]) -> tuple[int, int, int]:
    p1, q1, t1 = left
    p2, q2, t2 = right
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _zz_opt_sum(n: int, first: int) -> int:
    """Sum of C(n^3, k) for k = n^2 .. 3n^2 - 3n + 1, from its first term.

    Binary splitting (Haible & Papanikolaou 1998) of the term ratios
    C(N, k+1) / C(N, k) = (N - k) / (k + 1): over a run of steps, P and Q
    are the products of the numerators and denominators and T / Q is the
    sum of the running ratio products. Each leaf is a block of
    ``_ZZ_BLOCK`` consecutive steps, built by one Horner loop that appends
    one step at a time, exactly as ``_merge`` would. The blocks are folded
    by ``_merge`` in two halves, and the root forms only the Q and T it
    uses; the sum is first * (Q + T) / Q, exact.
    """
    cubes, steps = n**3, range(n**2, 3 * n**2 - 3 * n + 1)
    blocks = []
    for start in range(0, len(steps), _ZZ_BLOCK):
        p, q, t = 1, 1, 0
        for k in steps[start : start + _ZZ_BLOCK]:
            t = t * (k + 1) + p * (cubes - k)
            p *= cubes - k
            q *= k + 1
        blocks.append((p, q, t))
    half = len(blocks) // 2
    p1, q1, t1 = _fold(blocks[:half], _merge, (1, 1, 0))
    _, q2, t2 = _fold(blocks[half:], _merge, (1, 1, 0))
    q, t = q1 * q2, t1 * q2 + p1 * t2
    total, rest = divmod(first * (q + t), q)
    if rest:
        raise AssertionError(f"binary splitting of the zz_opt sum left a remainder at n = {n}")
    return total


def bound_zz_opt(n: int) -> int:
    """Upper bound from basic-solution counting: sum of C(n^3, k) for
    support sizes k from n^2 through 3n^2 - 3n + 1.

    Evaluated by binary splitting of the term-ratio series: leaves of 32
    consecutive ratio steps, products of balanced halves, a root that skips
    the unused product of numerators, and one exact division, instead of
    about 2n^2 sequential big-integer steps.
    """
    _require_positive(n)
    return _zz_opt_sum(n, *_binomials([_pairs(n)["zz_opt"]]))


def bound_zz_half(n: int) -> int:
    """Upper bound from the halfspace description: C(n^3 + 3n^2 - 3n + 1, n^3)."""
    _require_positive(n)
    (value,) = _binomials([_pairs(n)["zz_half"]])
    return value


def bound_lower(n: int) -> Fraction:
    """Explicit lower bound (n!)^(2n) / n^(n^2), dominated by the Latin
    square count L(n)."""
    _require_positive(n)
    return rational_pow(Fraction(factorial(n)), 2 * n) / Fraction(n) ** (n**2)


def _require_positive(n: int) -> None:
    if n < 1:
        raise ValueError("n must be positive")


@dataclass(frozen=True)
class LemmaCheck:
    """Outcome of instantiating a lemma: did the hypothesis hold, and did
    the conclusion hold (reported regardless, so sweeps can spot vacuous or
    violated cases)."""

    params: dict
    hypothesis_satisfied: bool
    inequality_holds: bool

    @property
    def violated(self) -> bool:
        return self.hypothesis_satisfied and not self.inequality_holds

    def to_json(self) -> dict:
        return {
            "params": dict(self.params),
            "hypothesis_satisfied": self.hypothesis_satisfied,
            "inequality_holds": self.inequality_holds,
        }


def check_lemma_2ab(a: int, b: int, k: int) -> LemmaCheck:
    """Doubling lemma: for positive integers with k >= 2, a > b and
    b(k+1) > a + k, shifting the upper index by k more than doubles the
    binomial: 2*C(a, b) < C(a+k, b)."""
    if min(a, b, k) < 1:
        raise ValueError("a, b, k must be positive")
    hypothesis = k >= 2 and a > b and b * (k + 1) > a + k
    conclusion = 2 * binomial(a, b) < binomial(a + k, b)
    return LemmaCheck({"a": a, "b": b, "k": k}, hypothesis, conclusion)


def check_hockey_stick(a: int, b: int, m: int) -> LemmaCheck:
    """Sliding-sum bound via Pascal's identity: sum_{k=0}^{m} C(a, b+k)
    <= C(a+m, b+m)."""
    if min(a, b, m) < 0:
        raise ValueError("a, b, m must be nonnegative")
    hypothesis = b + m <= a
    lhs = sum(binomial(a, b + k) for k in range(m + 1))
    conclusion = lhs <= binomial(a + m, b + m)
    return LemmaCheck({"a": a, "b": b, "m": m}, hypothesis, conclusion)


def sweep_lemma_2ab(max_a: int = 60, max_k: int = 6) -> list[LemmaCheck]:
    """All violations (expected: none) over 1 <= b < a <= max_a, k <= max_k."""
    bad = []
    for a in range(1, max_a + 1):
        for b in range(1, a + 1):
            for k in range(1, max_k + 1):
                res = check_lemma_2ab(a, b, k)
                if res.violated:
                    bad.append(res)
    return bad


def sweep_hockey_stick(max_a: int = 40) -> list[LemmaCheck]:
    """All violations (expected: none) over 0 <= b + m <= a <= max_a."""
    bad = []
    for a in range(max_a + 1):
        for b in range(a + 1):
            for m in range(a - b + 1):
                res = check_hockey_stick(a, b, m)
                if res.violated:
                    bad.append(res)
    return bad


_BOUND_NAMES = ("lower_latin", "cpz", "lzz", "zz_opt", "zz_half")


@dataclass(frozen=True)
class BoundReport:
    """All bound values for one n plus the verdicts of the expected
    comparisons.

    mid is C(n^3, 3n^2-3n+1), the pivot quantity separating the lzz and
    zz_opt bounds in the refined comparison. lower_latin is the exact Latin
    square count when that is computable (n <= 5) and the explicit rational
    lower bound otherwise. ordering lists the five bounds sorted ascending
    by exact comparison, with the relation ('<' or '=') between neighbors.
    """

    n: int
    lower_latin: Union[int, Fraction]
    cpz: Fraction
    lzz: int
    zz_opt: int
    zz_half: int
    mid: int
    checks: dict = field(compare=False)
    ordering: tuple = ()
    relations: tuple = ()

    @property
    def all_hold(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "lower_latin": format_rational(Fraction(self.lower_latin)),
            "cpz": format_rational(self.cpz),
            "lzz": format_int(self.lzz),
            "zz_opt": format_int(self.zz_opt),
            "zz_half": format_int(self.zz_half),
            "mid_binomial": format_int(self.mid),
            "checks": dict(self.checks),
            "ordering": list(self.ordering),
            "relations": list(self.relations),
        }


def verify_chain(n: int) -> BoundReport:
    """Evaluate every bound at n and test the expected exact comparisons.

    The lower bound is the exact Latin square count L(n) for n <= 5, where
    counting is feasible, and the explicit rational bound beyond.

    Asserted relations (recorded as named booleans, not exceptions):

    * lzz_lt_mid / mid_lt_zz_opt: lzz < C(n^3, 3n^2-3n+1) < zz_opt, i.e. the
      polytope-theory bound beats the linear-programming bound with room to
      spare (strict for n >= 2).
    * zz_opt_lt_zz_half: the linear-programming bound beats the halfspace
      bound.
    * lzz_le_cpz: the polytope-theory bound is no worse than the
      hyperplane-induction bound.
    * lower_le_lzz: the Latin lower bound sits below every upper bound.
    * zz_half_lt_loose: C(n^3 + 3n^2 - 3n + 1, n^3) < C(n^3 + 3n^2, n^3),
      the final slack remark.

    The empirical sorted order of all five quantities is recorded as data;
    the published summary chain lists the cpz bound below the lzz bound,
    which disagrees with the sharpness claim cited for them (and with the
    numbers: at n = 3 the cpz bound is astronomically larger), so no
    assertion is made about their displayed order, only the observed one.
    """
    if n < 2:
        raise ValueError("the comparison chain needs n >= 2")
    from .enumeration import count_latin_squares

    lower: Union[int, Fraction] = count_latin_squares(n) if n <= 5 else bound_lower(n)

    pairs = _pairs(n)
    c = dict(zip(pairs, _binomials(list(pairs.values()))))
    cpz = Fraction(c["cpz"], n**3)
    lzz = c["lzz1"] + c["lzz2"]
    zz_opt = _zz_opt_sum(n, c["zz_opt"])
    mid, zz_half, loose = c["mid"], c["zz_half"], c["loose"]

    checks = {
        "lzz_lt_mid": lzz < mid,
        "mid_lt_zz_opt": mid < zz_opt,
        "zz_opt_lt_zz_half": zz_opt < zz_half,
        "lzz_le_cpz": lzz <= cpz,
        "lower_le_lzz": Fraction(lower) <= lzz,
        "zz_half_lt_loose": zz_half < loose,
    }

    values = {
        "lower_latin": Fraction(lower),
        "cpz": cpz,
        "lzz": Fraction(lzz),
        "zz_opt": Fraction(zz_opt),
        "zz_half": Fraction(zz_half),
    }
    ordering = tuple(sorted(_BOUND_NAMES, key=lambda name: (values[name], name)))
    relations = tuple(
        "=" if values[ordering[i]] == values[ordering[i + 1]] else "<"
        for i in range(len(ordering) - 1)
    )
    return BoundReport(
        n=n,
        lower_latin=lower,
        cpz=cpz,
        lzz=lzz,
        zz_opt=zz_opt,
        zz_half=zz_half,
        mid=mid,
        checks=checks,
        ordering=ordering,
        relations=relations,
    )
