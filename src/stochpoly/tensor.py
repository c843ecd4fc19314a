"""Order-3 cubical tensors, line-stochasticity, Latin squares, and the
bijection between Latin squares and the (0,1) line-stochastic tensors.

A *line* of an n x n x n tensor is the set of n entries obtained by fixing
two of the three indices; there are 3n^2 lines. A tensor is line-stochastic
when every entry is nonnegative and every line sums to exactly 1.

Indices are 0-based everywhere in process; the JSON layer and the Line
descriptors report 1-based indices.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence

from .numerics import format_rational, json_int, parse_rational

__all__ = [
    "Tensor3",
    "LatinSquare",
    "Line",
    "LineCheck",
    "lines",
    "check_line_stochastic",
    "is_line_stochastic",
    "latin_to_tensor",
    "tensor_to_latin",
    "support",
    "convex_combine",
    "uniform_tensor",
    "fractional_vertex_example",
    "tensor_to_json",
    "tensor_from_json",
    "latin_to_json",
    "latin_from_json",
]


class Line(NamedTuple):
    """One line of a cubical tensor: ``axis`` is the varying index position
    (1, 2 or 3), ``fixed`` holds the 1-based values of the two fixed indices
    in increasing position order."""

    axis: int
    fixed: tuple[int, int]

    def to_json(self) -> dict:
        return {"axis": self.axis, "fixed": list(self.fixed)}


class LineCheck(NamedTuple):
    ok: bool
    violation: Optional[Line]


class Tensor3:
    """Dense n x n x n tensor of exact rationals, immutable value type.

    ``entries[i][j][k]`` is the entry at (i+1, j+1, k+1) in 1-based notation.
    """

    __slots__ = ("n", "entries", "_hash")

    def __init__(self, entries: Sequence[Sequence[Sequence[Fraction | int | str]]]):
        n = len(entries)
        if n == 0:
            raise ValueError("empty tensor")
        rows = []
        for layer in entries:
            if len(layer) != n:
                raise ValueError(f"tensor is not cubical: expected {n} rows")
            cols = []
            for row in layer:
                if len(row) != n:
                    raise ValueError(f"tensor is not cubical: expected {n} columns")
                cols.append(tuple(Fraction(v) for v in row))
            rows.append(tuple(cols))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", tuple(rows))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor3 is immutable")

    def __getitem__(self, idx: tuple[int, int, int]) -> Fraction:
        i, j, k = idx
        return self.entries[i][j][k]

    def flatten(self) -> tuple[Fraction, ...]:
        """Row-major flattening; entry (i, j, k) lands at ((i*n) + j)*n + k."""
        n = self.n
        return tuple(
            self.entries[i][j][k] for i in range(n) for j in range(n) for k in range(n)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Tensor3) and self.entries == other.entries

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash(self.entries)
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Tensor3(n={self.n})"


class LatinSquare:
    """n x n array over {1..n} where every row and every column is a
    permutation; validated at construction."""

    __slots__ = ("n", "cells")

    def __init__(self, cells: Sequence[Sequence[int]]):
        n = len(cells)
        if n == 0:
            raise ValueError("empty square")
        grid = tuple(tuple(int(v) for v in row) for row in cells)
        full = frozenset(range(1, n + 1))
        for r, row in enumerate(grid):
            if len(row) != n or frozenset(row) != full:
                raise ValueError(f"row {r + 1} is not a permutation of 1..{n}")
        for c in range(n):
            if frozenset(row[c] for row in grid) != full:
                raise ValueError(f"column {c + 1} is not a permutation of 1..{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "cells", grid)

    def __setattr__(self, name, value):
        raise AttributeError("LatinSquare is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, LatinSquare) and self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def __lt__(self, other: "LatinSquare") -> bool:
        return self.cells < other.cells

    def __repr__(self) -> str:
        return f"LatinSquare({[list(r) for r in self.cells]})"


def lines(n: int) -> Iterator[tuple[Line, list[tuple[int, int, int]]]]:
    """All 3n^2 lines in canonical order: axis-3 lines (fix i, j), then
    axis-2 (fix i, k), then axis-1 (fix j, k), lexicographic within each
    block. This order matches the constraint-row order of the polytope's
    equality system."""
    rng = range(n)
    for i in rng:
        for j in rng:
            yield Line(3, (i + 1, j + 1)), [(i, j, k) for k in rng]
    for i in rng:
        for k in rng:
            yield Line(2, (i + 1, k + 1)), [(i, j, k) for j in rng]
    for j in rng:
        for k in rng:
            yield Line(1, (j + 1, k + 1)), [(i, j, k) for i in rng]


def check_line_stochastic(t: Tensor3) -> LineCheck:
    """Verdict plus the first violating line (negative entry or sum != 1)."""
    for line, cells in lines(t.n):
        total = Fraction(0)
        for i, j, k in cells:
            v = t.entries[i][j][k]
            if v < 0:
                return LineCheck(False, line)
            total += v
        if total != 1:
            return LineCheck(False, line)
    return LineCheck(True, None)


def is_line_stochastic(t: Tensor3) -> bool:
    return check_line_stochastic(t).ok


def latin_to_tensor(s: LatinSquare) -> Tensor3:
    """The (0,1) tensor with a 1 at (i, j, k) exactly when cell (i, j) of the
    square holds symbol k."""
    n = s.n
    return Tensor3(
        [
            [[1 if s.cells[i][j] == k + 1 else 0 for k in range(n)] for j in range(n)]
            for i in range(n)
        ]
    )


def tensor_to_latin(t: Tensor3) -> LatinSquare:
    """Inverse of latin_to_tensor; rejects tensors that are not (0,1)-valued
    line-stochastic."""
    n = t.n
    check = check_line_stochastic(t)
    if not check.ok:
        raise ValueError(f"tensor is not line-stochastic (line {check.violation})")
    cells = []
    for i in range(n):
        row = []
        for j in range(n):
            symbol = None
            for k in range(n):
                v = t.entries[i][j][k]
                if v == 1:
                    symbol = k + 1
                elif v != 0:
                    raise ValueError(f"entry at ({i + 1},{j + 1},{k + 1}) is not 0 or 1")
            row.append(symbol)
        cells.append(row)
    return LatinSquare(cells)


def support(t: Tensor3) -> frozenset[tuple[int, int, int]]:
    """0-based index triples of the nonzero entries."""
    n = t.n
    return frozenset(
        (i, j, k)
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if t.entries[i][j][k] != 0
    )


def convex_combine(
    weights: Sequence[Fraction | int], tensors: Sequence[Tensor3]
) -> Tensor3:
    """Entrywise weighted sum; weights must be nonnegative and sum to 1."""
    if len(weights) != len(tensors) or not tensors:
        raise ValueError("need one weight per tensor, at least one of each")
    ws = [Fraction(w) for w in weights]
    if any(w < 0 for w in ws):
        raise ValueError("weights must be nonnegative")
    if sum(ws) != 1:
        raise ValueError("weights must sum to 1")
    n = tensors[0].n
    if any(t.n != n for t in tensors):
        raise ValueError("dimension mismatch among tensors")
    rng = range(n)
    return Tensor3(
        [
            [
                [
                    sum((w * t.entries[i][j][k] for w, t in zip(ws, tensors)), Fraction(0))
                    for k in rng
                ]
                for j in rng
            ]
            for i in rng
        ]
    )


def uniform_tensor(n: int) -> Tensor3:
    """All entries 1/n; the barycenter of the polytope."""
    v = Fraction(1, n)
    return Tensor3([[[v] * n] * n] * n)


# Frontal layers (layer k holds the matrix over (i, j)) of the standard
# 3 x 3 x 3 fractional vertex: half-integer entries, support size 17. It is
# line-stochastic and an extreme point, yet lies outside the convex hull of
# the 12 permutation tensors, witnessing that for order 3 the (0,1) tensors
# no longer generate the whole polytope.
_FRACTIONAL_VERTEX_LAYERS = (
    ((0, 1, 1), (1, 1, 0), (1, 0, 1)),
    ((1, 1, 0), (0, 1, 1), (1, 0, 1)),
    ((1, 0, 1), (1, 0, 1), (0, 2, 0)),
)


def fractional_vertex_example() -> Tensor3:
    """The canonical half-integer vertex of the n = 3 polytope."""
    n = 3
    half = Fraction(1, 2)
    return Tensor3(
        [
            [[half * _FRACTIONAL_VERTEX_LAYERS[k][i][j] for k in range(n)] for j in range(n)]
            for i in range(n)
        ]
    )


def tensor_to_json(t: Tensor3) -> dict:
    return {
        "n": t.n,
        "entries": [
            [[format_rational(v) for v in row] for row in layer] for layer in t.entries
        ],
    }


def tensor_from_json(obj: dict) -> Tensor3:
    try:
        n = json_int(obj["n"], "n")
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError("tensor JSON needs fields 'n' and 'entries'") from exc
    try:
        t = Tensor3([[[parse_rational(str(v)) for v in row] for row in layer] for layer in entries])
    except TypeError as exc:
        raise ValueError("tensor JSON 'entries' must be an n x n x n array") from exc
    if t.n != n:
        raise ValueError(f"declared n={n} but entries are {t.n}^3")
    return t


def latin_to_json(s: LatinSquare) -> dict:
    return {"n": s.n, "cells": [list(row) for row in s.cells]}


def latin_from_json(obj: dict) -> LatinSquare:
    try:
        n = json_int(obj["n"], "n")
        cells = obj["cells"]
    except (KeyError, TypeError) as exc:
        raise ValueError("latin square JSON needs fields 'n' and 'cells'") from exc
    try:
        s = LatinSquare([[json_int(v, "a latin square cell") for v in row] for row in cells])
    except TypeError as exc:
        raise ValueError("latin square JSON 'cells' must be an n x n array") from exc
    if s.n != n:
        raise ValueError(f"declared n={n} but cells are {s.n}x{s.n}")
    return s
