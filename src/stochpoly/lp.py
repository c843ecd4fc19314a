"""Exact rational LP feasibility via phase-1 simplex with Bland's rule.

Decides whether {M x = rhs, x >= 0} has a solution, entirely in exact
arithmetic: the simplex tableau is fraction-free on integers. Every answer
ships with a machine-checkable certificate: a nonnegative witness that
re-substitutes exactly when feasible, or a Farkas vector y with yT M >= 0
componentwise and yT rhs < 0 when infeasible. The problem, the witness and
the certificate are Fractions; the tableau and both re-checks work on their
numerators over a common denominator (``numerics.common_scale``).
Bland's least-index pivot rule makes the solver deterministic and immune to
cycling on degenerate inputs.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ._kernels import pivot
from .numerics import common_scale, format_rational
from .tensor import Tensor3, tensor_to_latin

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
        rows = tuple(tuple(v if type(v) is Fraction else Fraction(v) for v in row) for row in matrix)
        b = tuple(v if type(v) is Fraction else Fraction(v) for v in rhs)
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

    The tableau holds den times each entry, in integers once column j and
    the right-hand side are scaled by the lcms of their denominators;
    positive scalings change no Bland choice.
    """
    m, n = problem.num_rows, problem.num_cols
    if m == 0:
        return FeasibilityResult("feasible", witness=tuple())
    # scale each column (the right-hand side last) to integers, flip rows
    # to make the right-hand side nonnegative and put the artificials between
    scale, columns = zip(*map(common_scale, [*zip(*problem.matrix), problem.rhs]))
    tab = [[-v for v in row] if row[n] < 0 else list(row) for row in zip(*columns)]
    tab = [row[:n] + [int(j == i) for j in range(m)] + row[n:] for i, row in enumerate(tab)]
    # reduced costs: 0 for basic artificials, minus the column sum otherwise
    obj = [-sum(col) for col in zip(*tab)]
    obj[n : n + m] = [0] * m
    tab.append(obj)
    basis = [n + i for i in range(m)]
    den = 1

    while True:
        enter = next((j for j in range(n + m) if tab[m][j] < 0), None)
        if enter is None:
            break
        # Bland ratio test: least ratio, ties by least basic variable index;
        # ratios are compared by cross-multiplying positive coefficients
        leave = None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0 and (
                leave is None
                or (tab[i][-1] * tab[leave][enter], basis[i]) < (tab[leave][-1] * coef, basis[leave])
            ):
                leave = i
        if leave is None:
            raise RuntimeError("phase-1 objective is bounded; unbounded pivot column")
        den = pivot(tab, leave, enter, den)
        basis[leave] = enter

    if sum(tab[i][-1] for i in range(m) if basis[i] >= n) == 0:
        x = [Fraction(0)] * n
        for i in range(m):
            if basis[i] < n:
                x[basis[i]] = Fraction(tab[i][-1] * scale[basis[i]], den * scale[n])
        witness = tuple(x)
        if not verify_witness(problem, witness):
            raise AssertionError("simplex witness fails exact re-substitution")
        return FeasibilityResult("feasible", witness=witness)
    # dual prices from the artificial columns: price_i = 1 - reduced_cost_i,
    # then negate to match the yT M >= 0, yT rhs < 0 convention and undo the
    # row flips
    certificate = tuple(
        Fraction(den - tab[m][n + i], den if b < 0 else -den) for i, b in enumerate(problem.rhs)
    )
    if not verify_farkas(problem, certificate):
        raise AssertionError("simplex Farkas certificate fails exact re-check")
    return FeasibilityResult("infeasible", certificate=certificate)


def verify_witness(problem: LPProblem, witness: Sequence[Fraction]) -> bool:
    """Exact re-substitution: M x = rhs and x >= 0.

    With x = xs / d and a row scaled by its own lcm, (row, b) = (cs, c) / e,
    the row holds exactly when sum(cs * xs) == c * d.
    """
    if len(witness) != problem.num_cols:
        return False
    d, xs = common_scale(witness)
    if any(v < 0 for v in xs):
        return False
    for row, b in zip(problem.matrix, problem.rhs):
        _, (*cs, c) = common_scale((*row, b))
        if sum(map(operator.mul, cs, xs)) != c * d:
            return False
    return True


def verify_farkas(problem: LPProblem, y: Sequence[Fraction]) -> bool:
    """Farkas conditions: yT M >= 0 componentwise and yT rhs < 0.

    y and each column of M (the right-hand side last) are scaled by their
    own positive lcms, which change no sign.
    """
    if len(y) != problem.num_rows:
        return False
    _, ys = common_scale(y)
    if any(sum(map(operator.mul, ys, common_scale(col)[1])) < 0 for col in zip(*problem.matrix)):
        return False
    return sum(map(operator.mul, ys, common_scale(problem.rhs)[1])) < 0


def membership_problem(t: Tensor3, generators: Sequence[Tensor3]) -> LPProblem:
    """The (n^3 + 1)-row system for hull membership: one row per tensor
    entry matching sum(weight_g * G[entry]) to t[entry], plus the weights
    summing to 1."""
    if not generators:
        raise ValueError("need at least one generator")
    for g in generators:
        if g.n != t.n:
            raise ValueError("generator dimension mismatch")
        try:
            tensor_to_latin(g)
        except ValueError as exc:
            raise ValueError(f"generators must be permutation tensors: {exc}") from exc
    matrix = [*zip(*(g.flatten() for g in generators)), [Fraction(1)] * len(generators)]
    return LPProblem.build(matrix, [*t.flatten(), Fraction(1)])


def in_permutation_hull(t: Tensor3, generators: Sequence[Tensor3]) -> FeasibilityResult:
    """Is t a convex combination of the given (0,1) line-stochastic tensors?"""
    return solve_feasibility(membership_problem(t, generators))
