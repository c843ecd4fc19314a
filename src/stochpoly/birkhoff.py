"""Greedy Birkhoff decomposition of doubly stochastic matrices.

A doubly stochastic matrix is the line-stochastic tensor of order 2: its
2n lines are its rows and columns, checked by the line scan of every order
(``tensor``). It is the classical, well-behaved case: the doubly stochastic
matrices form the convex hull of the n! permutation matrices, and the
greedy algorithm below (repeatedly match the positive entries, subtract
the smallest matched entry times that permutation) expresses any input as
a convex combination of at most n^2 - 2n + 2 permutations, since each
subtraction moves the remainder into a strictly lower-dimensional face.
The order-3 tensor analogue of this decomposition does not exist, which is
what the rest of this package is about.

``DoublyStochasticMatrix`` is a frozen, slotted dataclass, immutable and
compared, hashed, pickled and copied by value like ``tensor.Tensor3``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .numerics import common_scale, format_rational
from .tensor import _first_violation, _rational_row, _read_json

__all__ = [
    "DoublyStochasticMatrix",
    "NotDoublyStochastic",
    "Decomposition",
    "decompose",
    "find_positive_matching",
    "matrix_to_json",
    "matrix_from_json",
]


class NotDoublyStochastic(ValueError):
    """A matrix has a negative entry or a row or column sum other than 1."""


@dataclass(frozen=True, slots=True)
class DoublyStochasticMatrix:
    """n x n nonnegative matrix with all row and column sums exactly 1."""

    n: int
    rows: tuple[tuple[Fraction, ...], ...]

    def __init__(self, rows: Sequence[Sequence[Fraction | int | str]]):
        n = len(rows)
        if n == 0:
            raise ValueError("empty matrix")
        if any(len(row) != n for row in rows):
            raise ValueError("matrix is not square")
        grid = tuple(tuple(v if type(v) is Fraction else Fraction(v) for v in row) for row in rows)
        # the order-2 lines: rows (axis 2) before columns, so a negative entry
        # is reported on its row; a sum is formed only when its line fails
        flat = [v for row in grid for v in row]
        violation, nums = _first_violation(n, 2, flat)
        if violation is not None:
            (axis, (index,)), cells = violation
            if min(nums[c] for c in cells) < 0:
                raise NotDoublyStochastic(f"negative entry in row {index}")
            line = "row" if axis == 2 else "column"
            raise NotDoublyStochastic(f"{line} {index} sums to {sum(flat[c] for c in cells)}, not 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", grid)


@dataclass(frozen=True)
class Decomposition:
    """Convex combination sum(weight_i * P_i) of permutation matrices;
    perms[i] maps row -> column, 0-based."""

    n: int
    terms: tuple[tuple[Fraction, tuple[int, ...]], ...]

    def reconstruct(self) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.n for _ in range(self.n)]
        for weight, perm in self.terms:
            for i, j in enumerate(perm):
                out[i][j] += weight
        return out

    def to_json(self) -> list[dict]:
        return [
            {"weight": format_rational(w), "perm": list(perm)} for w, perm in self.terms
        ]


def find_positive_matching(rows: Sequence[Sequence[Fraction | int]]) -> tuple[int, ...]:
    """A permutation hitting only positive entries, by augmenting paths.

    Rows are processed in order and columns tried ascending, so the result
    is deterministic. Existence is guaranteed for (scaled) doubly stochastic
    inputs; failure means the input was not one.
    """
    n = len(rows)
    match_col = [-1] * n  # column -> row

    def augment(i: int, seen: list[bool]) -> bool:
        # take the first free column before displacing an earlier row, so
        # e.g. the all-positive matrix yields the identity permutation
        for j in range(n):
            if rows[i][j] > 0 and match_col[j] < 0 and not seen[j]:
                match_col[j] = i
                return True
        for j in range(n):
            if rows[i][j] > 0 and not seen[j]:
                seen[j] = True
                if augment(match_col[j], seen):
                    match_col[j] = i
                    return True
        return False

    for i in range(n):
        if not augment(i, [False] * n):
            raise ValueError("no positive perfect matching; matrix is not doubly stochastic")
    perm = [-1] * n
    for j, i in enumerate(match_col):
        perm[i] = j
    return tuple(perm)


def decompose(m: DoublyStochasticMatrix) -> Decomposition:
    """Greedy Birkhoff: peel off one positively-matched permutation at a
    time, weighted by its smallest matched entry, until nothing remains.
    Each step zeroes at least one entry, and the remainder stays a scaled
    doubly stochastic matrix, so the loop terminates with weights summing
    to 1 in at most n^2 - 2n + 2 terms.

    The loop runs on one integer scale, d the lcm of the entries'
    denominators: the matching tests the sign of an int, and each weight
    becomes one Fraction over d."""
    n = m.n
    d, nums = common_scale([v for row in m.rows for v in row])
    work = [nums[i * n : (i + 1) * n] for i in range(n)]
    terms = []
    remaining = d  # current common row/column sum of work
    while remaining > 0:
        perm = find_positive_matching(work)
        weight = min(work[i][perm[i]] for i in range(n))
        for i in range(n):
            work[i][perm[i]] -= weight
        terms.append((Fraction(weight, d), perm))
        remaining -= weight
    if any(v != 0 for row in work for v in row):
        raise AssertionError("decomposition left a nonzero remainder")
    return Decomposition(n=n, terms=tuple(terms))


def matrix_to_json(m: DoublyStochasticMatrix) -> dict:
    return {"n": m.n, "rows": [[format_rational(v) for v in row] for row in m.rows]}


def matrix_from_json(obj: dict) -> DoublyStochasticMatrix:
    return _read_json(obj, "matrix", "rows", 2, _rational_row, DoublyStochasticMatrix)
