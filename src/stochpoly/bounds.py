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
The two combinatorial lemmas the comparisons rest on (the shifted-binomial
doubling inequality and a hockey-stick style sum bound) are exposed as
checkable statements so they can be swept for counterexamples.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

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


def bound_cpz(n: int) -> Fraction:
    """Upper bound from hyperplane induction: C(p, n^3 - 1) / n^3 with
    p = n^3 + 6n^2 - 6n + 2. Not an integer in general, so kept rational."""
    _require_positive(n)
    p = n**3 + 6 * n**2 - 6 * n + 2
    return Fraction(binomial(p, n**3 - 1), n**3)


def bound_lzz(n: int) -> int:
    """Upper bound from the McMullen-style vertex maximum for a polytope of
    this dimension and facet count: a sum of two binomials."""
    _require_positive(n)
    cubes = n**3
    half1 = ((n - 1) ** 3 + 1) // 2
    half2 = ((n - 1) ** 3 + 2) // 2
    low = 3 * n**2 - 3 * n + 1
    return binomial(cubes - half1, low) + binomial(cubes - half2, low)


def bound_zz_opt(n: int) -> int:
    """Upper bound from basic-solution counting: sum of C(n^3, k) for
    support sizes k from n^2 through 3n^2 - 3n + 1.

    Computed incrementally (C(N, k+1) = C(N, k)*(N-k)/(k+1), exact integer
    steps) because at the sweep ceiling a fresh binomial per term is the
    slow part.
    """
    _require_positive(n)
    cubes = n**3
    lo, hi = n**2, 3 * n**2 - 3 * n + 1
    term = binomial(cubes, lo)
    total = term
    for k in range(lo, hi):
        term = term * (cubes - k) // (k + 1)
        total += term
    return total


def bound_zz_half(n: int) -> int:
    """Upper bound from the halfspace description: C(n^3 + 3n^2 - 3n + 1, n^3)."""
    _require_positive(n)
    return binomial(n**3 + 3 * n**2 - 3 * n + 1, n**3)


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


def verify_chain(n: int, latin_count: Optional[int] = None) -> BoundReport:
    """Evaluate every bound at n and test the expected exact comparisons.

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
    if latin_count is None and n <= 5:
        from .enumeration import count_latin_squares

        latin_count = count_latin_squares(n)
    lower: Union[int, Fraction] = latin_count if latin_count is not None else bound_lower(n)

    cpz = bound_cpz(n)
    lzz = bound_lzz(n)
    zz_opt = bound_zz_opt(n)
    zz_half = bound_zz_half(n)
    mid = binomial(n**3, 3 * n**2 - 3 * n + 1)

    checks = {
        "lzz_lt_mid": lzz < mid,
        "mid_lt_zz_opt": mid < zz_opt,
        "zz_opt_lt_zz_half": zz_opt < zz_half,
        "lzz_le_cpz": lzz <= cpz,
        "lower_le_lzz": Fraction(lower) <= lzz,
        "zz_half_lt_loose": zz_half < binomial(n**3 + 3 * n**2, n**3),
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
