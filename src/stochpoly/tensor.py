"""Tensors of order 3, the line system of every order, line-stochasticity,
Latin squares, and the bijection between Latin squares and the (0,1)
line-stochastic tensors.

A *line* of a tensor of order d and dimension n, which has n^d entries, is
the set of n entries obtained by fixing all indices but one; there are
d n^(d-1) lines, d through each entry. A tensor is line-stochastic when
every entry is nonnegative and every line sums to exactly 1. ``Tensor3`` is
order 3; ``birkhoff``'s doubly stochastic matrices are order 2. Indices are
0-based in process; the JSON layer and the Line descriptors are 1-based.

Entries are ``Fraction`` values at every public boundary. The line check and
``convex_combine`` read each tensor's numerators and denominators once into
two int lists, put the values they add on one integer scale (the lcm of
their denominators), sum Python ints, and build at most one ``Fraction`` per
output entry. The lines of each dimension and order are built once, as a
table of (``Line``, cell tuple) pairs in canonical order, which ``lines(n)``,
the line check, the polytope's equality system and the double description
all read.

``Tensor3`` and ``LatinSquare`` are frozen, slotted dataclasses, like the
package's other value types: their own constructors validate the input, and
the dataclass makes them immutable and gives them equality, hashing, pickling
and copying by value. ``tensor_from_json``, ``latin_from_json`` and
``birkhoff.matrix_from_json`` share one reader and its messages.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from operator import add, floordiv, itemgetter, mul, ne
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .numerics import common_scale, format_rational, json_int, parse_rational

__all__ = [
    "flatten_index",
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
    """One line of a tensor of order d: ``axis`` is the varying index
    position (1..d), ``fixed`` holds the 1-based values of the d - 1 fixed
    indices in increasing position order."""

    axis: int
    fixed: tuple[int, ...]

    def to_json(self) -> dict:
        return {"axis": self.axis, "fixed": list(self.fixed)}


class LineCheck(NamedTuple):
    ok: bool
    violation: Optional[Line]


def flatten_index(n: int, *index: int) -> int:
    """Position of the entry at ``index``, 0-based, in the row-major flat
    tuple of a tensor of dimension n and order len(index); also the entry's
    column in the polytope's equality system."""
    return sum(i * n**p for p, i in enumerate(reversed(index)))


@dataclass(frozen=True, slots=True)
class Tensor3:
    """Dense n x n x n tensor of exact rationals, a frozen value type.

    The entries are stored once, as the row-major flat tuple that
    ``flatten()`` returns: entry (i, j, k), 0-based, sits at
    ``flatten_index(n, i, j, k)``.
    """

    n: int
    _flat: tuple[Fraction, ...]

    def __init__(self, entries: Sequence[Sequence[Sequence[Fraction | int | str]]]):
        n = len(entries)
        if n == 0:
            raise ValueError("empty tensor")
        flat = []
        for layer in entries:
            if len(layer) != n:
                raise ValueError(f"tensor is not cubical: expected {n} rows")
            for row in layer:
                if len(row) != n:
                    raise ValueError(f"tensor is not cubical: expected {n} columns")
                flat.extend(v if type(v) is Fraction else Fraction(v) for v in row)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_flat", tuple(flat))

    @classmethod
    def from_flat(cls, n: int, values: Iterable[Fraction | int | str]) -> "Tensor3":
        """The tensor of dimension n whose row-major flattening is ``values``."""
        flat = tuple(v if type(v) is Fraction else Fraction(v) for v in values)
        if n < 1 or len(flat) != n**3:
            raise ValueError(f"a tensor of dimension {n} needs n^3 entries, got {len(flat)}")
        t = object.__new__(cls)
        object.__setattr__(t, "n", n)
        object.__setattr__(t, "_flat", flat)
        return t

    @property
    def entries(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        """Nested read-only view: ``entries[i][j][k]`` is the entry at
        (i+1, j+1, k+1) in 1-based notation."""
        n, flat = self.n, self._flat
        return tuple(
            tuple(flat[r : r + n] for r in range(start, start + n * n, n))
            for start in range(0, n**3, n * n)
        )

    def __getitem__(self, idx: tuple[int, int, int]) -> Fraction:
        if len(idx) != 3 or not all(0 <= i < self.n for i in idx):
            raise IndexError(f"tensor index {idx} out of range for dimension {self.n}")
        return self._flat[flatten_index(self.n, *idx)]

    def flatten(self) -> tuple[Fraction, ...]:
        """The stored row-major tuple; entry (i, j, k) sits at
        ``flatten_index(n, i, j, k)``."""
        return self._flat

    def __repr__(self) -> str:
        return f"Tensor3(n={self.n})"


@dataclass(frozen=True, slots=True)
class LatinSquare:
    """n x n array over {1..n} where every row and every column is a
    permutation; validated at construction."""

    n: int
    cells: tuple[tuple[int, ...], ...]

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

    def __lt__(self, other: "LatinSquare") -> bool:
        return self.cells < other.cells

    def __repr__(self) -> str:
        return f"LatinSquare({[list(r) for r in self.cells]})"


@lru_cache(maxsize=None)
def _line_table(n: int, d: int) -> tuple[tuple[Line, tuple[int, ...]], ...]:
    """The d n^(d-1) lines of dimension n and order d with their cells, axis
    d first down to axis 1, each axis lexicographic in its fixed indices;
    d has no default, so each (n, d) is one cache entry."""
    table = []
    for axis in range(d, 0, -1):
        step = n ** (d - axis)  # the flat distance between a line's cells
        for fixed in product(range(n), repeat=d - 1):
            start = flatten_index(n, *fixed[: axis - 1], 0, *fixed[axis - 1 :])
            cells = tuple(range(start, start + n * step, step))
            table.append((Line(axis, tuple(f + 1 for f in fixed)), cells))
    return tuple(table)


def lines(n: int) -> Iterator[tuple[Line, tuple[int, ...]]]:
    """All 3n^2 lines of order 3 in canonical order, each with the flat
    indices of its n cells: axis-3 lines (fix i, j), then axis-2 (fix i, k),
    then axis-1 (fix j, k), lexicographic within each block. This order
    matches the constraint-row order of the polytope's equality system. The
    pairs come from one table per n, so no ``Line`` is built twice."""
    return iter(_line_table(n, 3))


def _split(flat: Sequence[Fraction]) -> tuple[list[int], list[int]]:
    """The numerators and the denominators of flat entries."""
    return [v.numerator for v in flat], [v.denominator for v in flat]


@lru_cache(maxsize=None)
def _line_columns(n: int, d: int) -> tuple[itemgetter, ...]:
    """For k < n, a getter of the values at the k-th cell of every line, in
    line order, from a flat list; a tuple, as there are d n^(d-1) >= 2 lines."""
    return tuple(itemgetter(*column) for column in zip(*[cells for _, cells in _line_table(n, d)]))


def _first_violation(n: int, d: int, flat: Sequence[Fraction]) -> tuple[Optional[tuple], list[int]]:
    """The first line, as its (``Line``, cells) pair, of the row-major
    entries ``flat`` of dimension n and order d that holds a negative entry
    or does not sum to 1 (None when every line holds), and the entries'
    numerators.

    Each line is scaled by the lcm e of its own n denominators, so e stays
    bounded by n denominators however many distinct ones the entries hold;
    the line sums to 1 exactly when its integer numerators sum to e. All
    lines are scaled and summed together, one cell position at a time.
    """
    nums, dens = _split(flat)
    table, columns = _line_table(n, d), _line_columns(n, d)
    parts = [column(dens) for column in columns]
    scale = list(map(lcm, *parts))
    sums = [0] * len(table)
    for column, fs in zip(columns, parts):
        sums = list(map(add, sums, map(mul, column(nums), map(floordiv, scale, fs))))
    first = len(table) if sums == scale else list(map(ne, sums, scale)).index(True)
    if min(nums) < 0:
        negative = next(r for r, (_, cells) in enumerate(table) if min([nums[c] for c in cells]) < 0)
        first = min(first, negative)
    return (table[first] if first < len(table) else None), nums


def _line_scan(t: Tensor3) -> tuple[Optional[Line], list[int]]:
    """The first violating line of t (None when t is line-stochastic) and
    the flat indices of its nonzero entries, from one read of the entries;
    ``check_line_stochastic`` and ``polytope.is_vertex`` both use it."""
    violation, nums = _first_violation(t.n, 3, t.flatten())
    return (None if violation is None else violation[0]), [c for c, p in enumerate(nums) if p]


def check_line_stochastic(t: Tensor3) -> LineCheck:
    """Verdict plus the first violating line (negative entry or sum != 1),
    each line on the integer scale of its own denominators."""
    violation = _line_scan(t)[0]
    return LineCheck(violation is None, violation)


def is_line_stochastic(t: Tensor3) -> bool:
    return check_line_stochastic(t).ok


def latin_to_tensor(s: LatinSquare) -> Tensor3:
    """The (0,1) tensor with a 1 at (i, j, k) exactly when cell (i, j) of the
    square holds symbol k. Its entries are two shared Fractions."""
    n = s.n
    zero, one = Fraction(0), Fraction(1)
    return Tensor3.from_flat(
        n, [one if symbol == k + 1 else zero for row in s.cells for symbol in row for k in range(n)]
    )


def tensor_to_latin(t: Tensor3) -> LatinSquare:
    """Inverse of latin_to_tensor, and the test for a permutation tensor.

    A (0,1) tensor is line-stochastic exactly when it is the tensor of a
    Latin square: its axis-3 lines say that each cell (i, j) holds one
    symbol, and its axis-2 and axis-1 lines that each symbol appears once
    in every row and every column. Raises ValueError naming an entry that
    is not 0 or 1, else a cell without exactly one symbol, else a row or
    column of the square that repeats a symbol.
    """
    n = t.n
    cells = [[[] for _ in range(n)] for _ in range(n)]  # the symbols in cell (i, j)
    for (i, j, k), v in zip(product(range(n), repeat=3), t.flatten()):
        if v != 0 and v != 1:
            raise ValueError(f"entry at ({i + 1},{j + 1},{k + 1}) is not 0 or 1")
        if v:
            cells[i][j].append(k + 1)
    for i, j in product(range(n), repeat=2):
        if len(cells[i][j]) != 1:
            raise ValueError(f"cell ({i + 1},{j + 1}) holds {len(cells[i][j])} symbols, not 1")
    return LatinSquare([[cell[0] for cell in row] for row in cells])


def support(t: Tensor3) -> frozenset[tuple[int, int, int]]:
    """0-based index triples of the nonzero entries."""
    rng = range(t.n)
    return frozenset(idx for idx, v in zip(product(rng, repeat=3), t.flatten()) if v != 0)


def convex_combine(
    weights: Sequence[Fraction | int], tensors: Sequence[Tensor3]
) -> Tensor3:
    """Entrywise weighted sum; weights must be nonnegative and sum to 1.

    With the weights on one scale, w_g = a_g / d, and the values of entry p
    as v_gp = b_gp / f_gp, entry p is sum(a_g * b_gp * (e_p // f_gp)) /
    (d * e_p) with e_p the lcm of the f_gp: an integer sum and one Fraction
    per entry. Each source tensor's numerators and denominators are read
    once.
    """
    if len(weights) != len(tensors) or not tensors:
        raise ValueError("need one weight per tensor, at least one of each")
    d, ws = common_scale([w if type(w) is Fraction else Fraction(w) for w in weights])
    if min(ws) < 0:
        raise ValueError("weights must be nonnegative")
    if sum(ws) != d:
        raise ValueError("weights must sum to 1")
    n = tensors[0].n
    if any(t.n != n for t in tensors):
        raise ValueError("dimension mismatch among tensors")
    nums, dens = zip(*(_split(t.flatten()) for t in tensors))
    # entry by entry, as whole columns: e_p, then sum(a_g * b_gp * (e_p // f_gp))
    scale = list(map(lcm, *dens))
    total = [0] * n**3
    for a, bs, fs in zip(ws, nums, dens):
        total = list(map(add, total, map(mul, map(a.__mul__, bs), map(floordiv, scale, fs))))
    return Tensor3.from_flat(n, map(Fraction, total, map(d.__mul__, scale)))


def uniform_tensor(n: int) -> Tensor3:
    """All entries 1/n; the barycenter of the polytope."""
    if n < 1:
        raise ValueError("dimension must be positive")
    return Tensor3.from_flat(n, [Fraction(1, n)] * n**3)


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
    half = Fraction(1, 2)
    return Tensor3.from_flat(
        3, [half * _FRACTIONAL_VERTEX_LAYERS[k][i][j] for i, j, k in product(range(3), repeat=3)]
    )


def tensor_to_json(t: Tensor3) -> dict:
    return {
        "n": t.n,
        "entries": [
            [[format_rational(v) for v in row] for row in layer] for layer in t.entries
        ],
    }


def _read_json(obj, kind: str, field: str, depth: int, row: Callable, build: Callable):
    """The reader of tensors, Latin squares and doubly stochastic matrices:
    ``build`` applied to the array ``obj[field]``, nested ``depth`` deep,
    with each innermost array read by ``row``; the value's n must be the
    declared ``obj["n"]``. Every fault of the document is a ValueError."""
    try:
        n = json_int(obj["n"], "n")
        data = obj[field]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{kind} JSON needs fields 'n' and '{field}'") from exc
    try:
        value = build(_read_rows(data, depth - 1, row))
    except TypeError as exc:
        shape = " x ".join(["n"] * depth)
        raise ValueError(f"{kind} JSON '{field}' must be an {shape} array") from exc
    if value.n != n:
        size = f"{value.n}^3" if depth == 3 else f"{value.n}x{value.n}"
        raise ValueError(f"declared n={n} but {field} are {size}")
    return value


def _read_rows(array, depth: int, row: Callable) -> list:
    return row(array) if depth == 0 else [_read_rows(a, depth - 1, row) for a in array]


def _rational_row(row) -> list[Fraction]:
    return [parse_rational(str(v)) for v in row]


def tensor_from_json(obj: dict) -> Tensor3:
    return _read_json(obj, "tensor", "entries", 3, _rational_row, Tensor3)


def latin_to_json(s: LatinSquare) -> dict:
    return {"n": s.n, "cells": [list(row) for row in s.cells]}


def latin_from_json(obj: dict) -> LatinSquare:
    return _read_json(obj, "latin square", "cells", 2, _latin_row, LatinSquare)


def _latin_row(row) -> list[int]:
    return [json_int(v, "a latin square cell") for v in row]
