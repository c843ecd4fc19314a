"""Complete vertex enumeration for small dimensions, plus Latin square
enumeration and counting.

Two independent enumeration routes are implemented and cross-checked:

* a brute-force oracle that tries every candidate active set of the
  nonnegativity constraints (one exact linear solve per size-(n-1)^3 subset
  of coordinates forced to zero, driven by the elimination kernel), and
* the double description method, run in an affine parameterization of the
  solution set of the equality system, so the cone lives in dimension
  (n-1)^3 + 1 instead of n^3.

Identical output from the two routes is the correctness standard; no vertex
count is assumed from outside.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Optional, Sequence

from . import _kernels
from .polytope import build_lp_polytope
from .tensor import LatinSquare, Tensor3, tensor_to_json

__all__ = [
    "ResourceCapExceeded",
    "VertexSet",
    "enumerate_latin_squares",
    "count_latin_squares",
    "enumerate_vertices_bruteforce",
    "enumerate_vertices_dd",
    "LATIN_MAX_N",
    "BRUTE_MAX_N",
]

CAP_ENV = "STOCHPOLY_MAX_CELLS"

#: hard practical ceilings; above these the work explodes combinatorially
LATIN_MAX_N = 5
BRUTE_MAX_N = 3

#: default work caps (candidate active sets / intermediate double
#: description rays), overridable through STOCHPOLY_MAX_CELLS
DEFAULT_MAX_CELLS = 4_000_000


class ResourceCapExceeded(RuntimeError):
    """The requested enumeration exceeds the configured work cap."""


def _max_cells() -> int:
    raw = os.environ.get(CAP_ENV)
    if not raw:
        return DEFAULT_MAX_CELLS
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{CAP_ENV} must be an integer, got {raw!r}")


# ---------------------------------------------------------------------------
# Latin squares


def _complete_rows(n: int, col_used: list[int], rows_out: Optional[list]) -> int:
    """DFS over full squares, one row at a time, symbols tried ascending.

    col_used[j] is a bitmask of symbols already present in column j. Returns
    the number of completions; appends LatinSquare objects when rows_out is
    not None.
    """
    full = (1 << n) - 1
    acc: list[tuple[int, ...]] = []
    count = 0

    def next_row() -> None:
        nonlocal count
        if len(acc) == n:
            count += 1
            if rows_out is not None:
                rows_out.append(LatinSquare(list(acc)))
            return
        row = [0] * n

        def fill(j: int, row_used: int) -> None:
            if j == n:
                acc.append(tuple(row))
                next_row()
                acc.pop()
                return
            avail = full & ~(row_used | col_used[j])
            while avail:
                bit = avail & -avail
                avail ^= bit
                row[j] = bit.bit_length()  # symbol, 1-based
                col_used[j] |= bit
                fill(j + 1, row_used | bit)
                col_used[j] ^= bit

        fill(0, 0)

    next_row()
    return count


def enumerate_latin_squares(n: int) -> list[LatinSquare]:
    """All Latin squares of order n in lexicographic row order.

    Row-by-row backtracking; complete and duplicate-free by construction.
    Capped at order 5 (L(6) is already past 800 million).
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n > LATIN_MAX_N:
        raise ResourceCapExceeded(f"Latin square enumeration capped at n <= {LATIN_MAX_N}")
    out: list[LatinSquare] = []
    _complete_rows(n, [0] * n, out)
    return out


def count_latin_squares(n: int) -> int:
    """L(n) by the same backtracking, without materializing the squares."""
    if n < 1:
        raise ValueError("order must be positive")
    if n > LATIN_MAX_N:
        raise ResourceCapExceeded(f"Latin square counting capped at n <= {LATIN_MAX_N}")
    return _complete_rows(n, [0] * n, None)


# ---------------------------------------------------------------------------
# Vertex sets


@dataclass(frozen=True)
class VertexSet:
    """Canonically ordered, duplicate-free vertex list for one dimension."""

    n: int
    vertices: tuple[Tensor3, ...]

    @property
    def total(self) -> int:
        return len(self.vertices)

    @property
    def zero_one(self) -> int:
        return sum(1 for t in self.vertices if _is_zero_one(t))

    @property
    def fractional(self) -> int:
        return self.total - self.zero_one

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "total": self.total,
            "zero_one": self.zero_one,
            "fractional": self.fractional,
            "vertices": [tensor_to_json(t) for t in self.vertices],
        }


def _is_zero_one(t: Tensor3) -> bool:
    return all(v == 0 or v == 1 for layer in t.entries for row in layer for v in row)


def _vertex_set(n: int, points: set[tuple[Fraction, ...]]) -> VertexSet:
    tensors = []
    for flat in sorted(points):
        it = iter(flat)
        tensors.append(Tensor3([[[next(it) for _ in range(n)] for _ in range(n)] for _ in range(n)]))
    return VertexSet(n=n, vertices=tuple(tensors))


def enumerate_vertices_bruteforce(n: int, max_cells: int | None = None) -> VertexSet:
    """Vertex set via exhaustive candidate active sets.

    A feasible point is a vertex exactly when it is the unique solution of
    the equality system restricted to its support, so trying every
    size-rank(A) free-column subset finds every vertex. Candidate count is
    C(n^3, 3n^2-3n+1), about 2.2 million at n = 3.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    if n > BRUTE_MAX_N:
        raise ResourceCapExceeded(f"brute-force enumeration capped at n <= {BRUTE_MAX_N}")
    hp = build_lp_polytope(n)
    cap = max_cells if max_cells is not None else _max_cells()
    candidates = comb(hp.num_vars, hp.rank)
    if candidates > cap:
        raise ResourceCapExceeded(
            f"{candidates} candidate active sets exceed the cap of {cap} "
            f"(raise {CAP_ENV} to override)"
        )
    points: set[tuple[Fraction, ...]] = set()
    for den, nums in _kernels.basic_feasible_solutions(hp.rows, hp.rank):
        points.add(tuple(Fraction(v, den) for v in nums))
    return _vertex_set(n, points)


# ---------------------------------------------------------------------------
# Double description


def _null_basis(n: int) -> list[list[int]]:
    """Integer basis of the equality system's null space: one corner-cube
    tensor with alternating +/-1 entries per (i, j, k) in [0, n-1)^3. Every
    line of such a tensor contains either none or both of a +1/-1 pair, so
    all line sums vanish; leading-corner positions make the family
    independent, and there are (n-1)^3 = n^3 - rank(A) of them."""
    basis = []
    nv = n**3
    for i in range(n - 1):
        for j in range(n - 1):
            for k in range(n - 1):
                vec = [0] * nv
                for a in (0, 1):
                    for b in (0, 1):
                        for c in (0, 1):
                            idx = ((i + a) * n + (j + b)) * n + (k + c)
                            vec[idx] = 1 if (a + b + c) % 2 == 0 else -1
                basis.append(vec)
    return basis


def _homogeneous_rows(n: int) -> list[tuple[int, ...]]:
    """One halfspace row per tensor coordinate, over y = (s, t): the
    coordinate value is (s + n * (N t)_v) / (n s), so nonnegativity is the
    integer row (1, n*N_v) applied to y."""
    null = _null_basis(n)
    d = len(null)
    return [tuple([1] + [n * null[q][v] for q in range(d)]) for v in range(n**3)]


def _primitive(vec: Sequence[int]) -> tuple[int, ...]:
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


def _invert_rational(matrix: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    d = len(matrix)
    aug = [
        [Fraction(matrix[i][j]) for j in range(d)]
        + [Fraction(1 if i == j else 0) for j in range(d)]
        for i in range(d)
    ]
    for col in range(d):
        piv = next((r for r in range(col, d) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[d:] for row in aug]


def enumerate_vertices_dd(
    n: int,
    insertion_order: Optional[Sequence[int]] = None,
    max_cells: int | None = None,
) -> VertexSet:
    """Vertex set via the double description method.

    The equality system is eliminated first: solutions are parameterized as
    the barycenter plus the null-space basis, and the method runs on the
    homogenization cone in dimension (n-1)^3 + 1 with the n^3 nonnegativity
    halfspaces. Unless ``insertion_order`` pins the constraint order (the
    result is order-independent), remaining constraints are inserted
    greedily, fewest-cut-rays first. ``max_cells`` caps the intermediate ray
    count. n = 4 is accepted but can be very expensive; expect to need a
    generous cap.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    if n == 1:
        return _vertex_set(1, {(Fraction(1),)})
    cap = max_cells if max_cells is not None else _max_cells()
    rows = _homogeneous_rows(n)
    dim = (n - 1) ** 3 + 1

    # initial simplicial cone from the first maximal independent row subset
    init: list[int] = []
    chosen: list[list[int]] = []
    for idx, row in enumerate(rows):
        if _kernels.rank_int(chosen + [list(row)]) > len(chosen):
            init.append(idx)
            chosen.append(list(row))
            if len(chosen) == dim:
                break
    if len(chosen) != dim:
        raise AssertionError(f"initial cone has dimension {len(chosen)}, expected {dim}")
    inv = _invert_rational(chosen)
    rays: list[tuple[int, ...]] = []
    for j in range(dim):
        col = [inv[i][j] for i in range(dim)]
        scale = 1
        for f in col:
            scale = scale * f.denominator // gcd(scale, f.denominator)
        rays.append(_primitive([int(f * scale) for f in col]))

    # dot products with every halfspace, kept alongside each ray; the zero
    # pattern over processed halfspaces drives the adjacency test
    def dots(ray: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sum(a * b for a, b in zip(row, ray)) for row in rows)

    raydots: dict[tuple[int, ...], tuple[int, ...]] = {r: dots(r) for r in rays}

    processed: list[int] = list(init)
    if insertion_order is not None:
        order = [i for i in insertion_order if i not in set(init)]
        if sorted(order + init) != list(range(len(rows))):
            raise ValueError("insertion_order must cover all constraint indices")
        pending = order
    else:
        pending = None
    remaining = set(range(len(rows))) - set(init)

    while remaining:
        if pending is not None:
            cut = pending.pop(0)
            remaining.discard(cut)
        else:
            # greedy: insert the constraint cutting the fewest current rays
            def cut_count(c: int) -> int:
                return sum(1 for r in rays if raydots[r][c] < 0)

            cut = min(sorted(remaining), key=cut_count)
            remaining.discard(cut)

        pos = [r for r in rays if raydots[r][cut] > 0]
        neg = [r for r in rays if raydots[r][cut] < 0]
        zero = [r for r in rays if raydots[r][cut] == 0]
        if not neg:
            processed.append(cut)
            continue

        masks: dict[tuple[int, ...], int] = {}
        for r in rays:
            mask = 0
            rd = raydots[r]
            for bit, c in enumerate(processed):
                if rd[c] == 0:
                    mask |= 1 << bit
            masks[r] = mask

        min_common = dim - 2  # adjacent rays share a face of dimension dim-1
        new_rays: set[tuple[int, ...]] = set()
        for p in pos:
            mp = masks[p]
            dp = raydots[p][cut]
            for q in neg:
                common = mp & masks[q]
                if common.bit_count() < min_common:
                    continue
                # combinatorial adjacency: no third ray's zero set contains
                # the common zero set
                adjacent = True
                for other in rays:
                    if other is p or other is q:
                        continue
                    if masks[other] & common == common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                dq = raydots[q][cut]
                new_rays.add(_primitive([dp * b - dq * a for a, b in zip(p, q)]))

        rays = pos + zero + sorted(new_rays)
        if len(rays) > cap:
            raise ResourceCapExceeded(
                f"double description intermediate ray count {len(rays)} exceeds "
                f"the cap of {cap} (raise {CAP_ENV} to override)"
            )
        for r in new_rays:
            raydots[r] = dots(r)
        processed.append(cut)

    points: set[tuple[Fraction, ...]] = set()
    for r in rays:
        s = r[0]
        if s <= 0:
            raise AssertionError("unbounded direction found in a bounded polytope")
        rd = raydots[r]
        points.add(tuple(Fraction(rd[v], n * s) for v in range(n**3)))
    return _vertex_set(n, points)
