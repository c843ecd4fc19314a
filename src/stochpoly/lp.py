"""Exact rational LP feasibility via phase-1 simplex with Bland's rule.

Decides whether {M x = rhs, x >= 0} has a solution, entirely in Fraction
arithmetic. Every answer ships with a machine-checkable certificate: a
nonnegative witness that re-substitutes exactly when feasible, or a Farkas
vector y with yT M >= 0 componentwise and yT rhs < 0 when infeasible.
Bland's least-index pivot rule makes the solver deterministic and immune to
cycling on degenerate inputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .numerics import format_rational
from .tensor import Tensor3, is_line_stochastic

__all__ = [
    "LPProblem",
    "FeasibilityResult",
    "solve_feasibility",
    "verify_witness",
    "verify_farkas",
    "in_permutation_hull",
    "membership_problem",
]


@dataclass(frozen=True)
class LPProblem:
    """Equality system M x = rhs with x >= 0 on every variable."""

    matrix: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]

    @staticmethod
    def build(matrix: Sequence[Sequence], rhs: Sequence) -> "LPProblem":
        rows = tuple(tuple(Fraction(v) for v in row) for row in matrix)
        b = tuple(Fraction(v) for v in rhs)
        if len(rows) != len(b):
            raise ValueError("rhs length must match row count")
        width = {len(r) for r in rows}
        if len(width) > 1:
            raise ValueError("ragged matrix")
        return LPProblem(rows, b)

    @property
    def num_rows(self) -> int:
        return len(self.matrix)

    @property
    def num_cols(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0


@dataclass(frozen=True)
class FeasibilityResult:
    status: str  # "feasible" | "infeasible"
    witness: Optional[tuple[Fraction, ...]] = None
    certificate: Optional[tuple[Fraction, ...]] = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"

    def to_json(self) -> dict:
        out = {"status": self.status}
        if self.witness is not None:
            out["witness"] = [format_rational(v) for v in self.witness]
        if self.certificate is not None:
            out["certificate"] = [format_rational(v) for v in self.certificate]
        return out


def solve_feasibility(problem: LPProblem) -> FeasibilityResult:
    """Phase-1 simplex: minimize the sum of artificial variables.

    Zero optimum yields a witness, positive optimum yields the Farkas vector
    read off the artificial columns' reduced costs.
    """
    m, n = problem.num_rows, problem.num_cols
    if m == 0:
        return FeasibilityResult("feasible", witness=tuple())
    # flip rows to make the right-hand side nonnegative
    flipped = [problem.rhs[i] < 0 for i in range(m)]
    tab = []
    for i in range(m):
        sign = -1 if flipped[i] else 1
        row = [sign * v for v in problem.matrix[i]]
        row.extend(Fraction(1) if j == i else Fraction(0) for j in range(m))
        row.append(sign * problem.rhs[i])
        tab.append(row)
    width = n + m + 1
    basis = [n + i for i in range(m)]
    # reduced costs: 0 for basic artificials, minus the column sum otherwise
    obj = [Fraction(0)] * width
    for j in range(n):
        obj[j] = -sum(tab[i][j] for i in range(m))
    obj[-1] = -sum(tab[i][-1] for i in range(m))

    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        # Bland ratio test: least ratio, ties by least basic variable index
        leave, best = None, None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                ratio = tab[i][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise RuntimeError("phase-1 objective is bounded; unbounded pivot column")
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        prow = tab[leave]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [v - f * p for v, p in zip(tab[i], prow)]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [v - f * p for v, p in zip(obj, prow)]
        basis[leave] = enter

    optimum = sum(tab[i][-1] for i in range(m) if basis[i] >= n)
    if optimum == 0:
        x = [Fraction(0)] * n
        for i in range(m):
            if basis[i] < n:
                x[basis[i]] = tab[i][-1]
        witness = tuple(x)
        if not verify_witness(problem, witness):
            raise AssertionError("simplex witness fails exact re-substitution")
        return FeasibilityResult("feasible", witness=witness)
    # dual prices from the artificial columns: price_i = 1 - reduced_cost_i,
    # then negate to match the yT M >= 0, yT rhs < 0 convention and undo the
    # row flips
    y = []
    for i in range(m):
        price = Fraction(1) - obj[n + i]
        val = -price
        y.append(-val if flipped[i] else val)
    certificate = tuple(y)
    if not verify_farkas(problem, certificate):
        raise AssertionError("simplex Farkas certificate fails exact re-check")
    return FeasibilityResult("infeasible", certificate=certificate)


def verify_witness(problem: LPProblem, witness: Sequence[Fraction]) -> bool:
    """Exact re-substitution: M x = rhs and x >= 0."""
    if len(witness) != problem.num_cols:
        return False
    if any(v < 0 for v in witness):
        return False
    for row, b in zip(problem.matrix, problem.rhs):
        if sum(c * x for c, x in zip(row, witness)) != b:
            return False
    return True


def verify_farkas(problem: LPProblem, y: Sequence[Fraction]) -> bool:
    """Farkas conditions: yT M >= 0 componentwise and yT rhs < 0."""
    if len(y) != problem.num_rows:
        return False
    for j in range(problem.num_cols):
        if sum(y[i] * problem.matrix[i][j] for i in range(problem.num_rows)) < 0:
            return False
    return sum(y[i] * problem.rhs[i] for i in range(problem.num_rows)) < 0


def membership_problem(t: Tensor3, generators: Sequence[Tensor3]) -> LPProblem:
    """The (n^3 + 1)-row system for hull membership: one row per tensor
    entry matching sum(weight_g * G[entry]) to t[entry], plus the weights
    summing to 1."""
    if not generators:
        raise ValueError("need at least one generator")
    n = t.n
    for g in generators:
        if g.n != n:
            raise ValueError("generator dimension mismatch")
        if not is_line_stochastic(g):
            raise ValueError("generators must be line-stochastic")
        if any(v not in (0, 1) for layer in g.entries for row in layer for v in row):
            raise ValueError("generators must be (0,1)-tensors")
    flat_t = t.flatten()
    flats = [g.flatten() for g in generators]
    matrix = [[flats[g][p] for g in range(len(generators))] for p in range(n**3)]
    matrix.append([Fraction(1)] * len(generators))
    rhs = list(flat_t) + [Fraction(1)]
    return LPProblem.build(matrix, rhs)


def in_permutation_hull(t: Tensor3, generators: Sequence[Tensor3]) -> FeasibilityResult:
    """Is t a convex combination of the given (0,1) line-stochastic tensors?"""
    return solve_feasibility(membership_problem(t, generators))
