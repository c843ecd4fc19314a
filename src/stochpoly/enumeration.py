"""Complete vertex enumeration for small dimensions, plus Latin square
enumeration and counting.

Two independent enumeration routes are implemented and cross-checked:

* a brute-force oracle that tries every candidate active set of the
  nonnegativity constraints (one exact linear solve per size-(n-1)^3 subset
  of coordinates forced to zero, driven by the elimination kernel), and
* the double description method, run in an affine parameterization of the
  solution set of the equality system, so the cone lives in dimension
  (n-1)^3 + 1 instead of n^3; each ray is held as its integer slack vector
  over the n^3 nonnegativity halfspaces plus its zero set.

Identical output from the two routes is the correctness standard; no vertex
count is assumed from outside.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd
from typing import Optional, Sequence

from . import _kernels
from .polytope import build_lp_polytope
from .tensor import LatinSquare, Tensor3, lines, tensor_to_json

__all__ = [
    "ResourceCapExceeded",
    "VertexSet",
    "enumerate_latin_squares",
    "count_latin_squares",
    "enumerate_vertices_bruteforce",
    "enumerate_vertices_dd",
    "LATIN_MAX_N",
    "HULL_LATIN_MAX_N",
    "BRUTE_MAX_N",
    "BOUNDS_MAX_N",
]

CAP_ENV = "STOCHPOLY_MAX_CELLS"

#: hard practical ceilings; above these the work explodes combinatorially
LATIN_MAX_N = 5
#: hull membership against every Latin tensor: at n = 5 that is 161 280
#: generators and a dense 126 x 161 407 tableau
HULL_LATIN_MAX_N = 4
BRUTE_MAX_N = 3
#: ceiling for the bound chain, whose binomials have about n^3 digits:
#: verify_chain(64) takes about 0.05 s, verify_chain over 2..64 about
#: 0.75-0.95 s, and `bounds 2 --sweep 64 --format json` about 1.2-1.3 s with
#: its output (best of 3; 2-vCPU Intel Xeon VM, Python 3.11)
BOUNDS_MAX_N = 64

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


def _complete_rows(n: int, reduced: bool, rows_out: Optional[list]) -> int:
    """DFS over full squares, one row at a time, symbols tried ascending.

    With reduced, the first row and the first column are fixed to 1..n, so
    only reduced squares are reached. Returns the number of completions;
    appends LatinSquare objects when rows_out is not None.
    """
    full = (1 << n) - 1
    col_used = [0] * n  # col_used[j]: bitmask of the symbols in column j
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
            if reduced and (j == 0 or not acc):
                avail &= 1 << (len(acc) + j)  # cell (i, j) of the border holds i + j + 1
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
    _complete_rows(n, False, out)
    return out


def count_latin_squares(n: int) -> int:
    """L(n) = n! (n-1)! R(n), with R(n) the number of reduced squares (first
    row and first column 1..n), counted by the same backtracking.

    Permuting the columns and then the rows other than the first maps each
    reduced square to n! (n-1)! distinct squares, and every square arises
    once this way (McKay & Wanless 2005). At n = 5 the search reaches
    R(5) = 56 leaves instead of L(5) = 161 280.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n > LATIN_MAX_N:
        raise ResourceCapExceeded(f"Latin square counting capped at n <= {LATIN_MAX_N}")
    return factorial(n) * factorial(n - 1) * _complete_rows(n, True, None)


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
    return all(v == 0 or v == 1 for v in t.flatten())


def _vertex_set(n: int, points: set[tuple[Fraction, ...]]) -> VertexSet:
    return VertexSet(n=n, vertices=tuple(Tensor3.from_flat(n, flat) for flat in sorted(points)))


def enumerate_vertices_bruteforce(n: int) -> VertexSet:
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
    cap = _max_cells()
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


def _homogeneous_rows(n: int) -> list[tuple[int, ...]]:
    """One halfspace row per tensor coordinate, over y = (s, t): the
    coordinate value is (s + n * (N t)_v) / (n s), with N the far-corner
    null basis that ``build_lp_polytope`` proves (one column per leading
    cell, in flat order), so nonnegativity is the integer row (1, n*N_v)
    applied to y."""
    null = [vec for vec in build_lp_polytope(n).null_basis if vec]
    rows = [[1] + [0] * len(null) for _ in range(n**3)]
    for q, vec in enumerate(null, 1):
        for v, s in vec:
            rows[v][q] = n * s
    return [tuple(row) for row in rows]


def _ray(slack: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """A ray as its primitive integer slack vector, plus its zero set over
    all halfspaces as a bitmask."""
    g = gcd(*slack)
    slack = tuple(x // g for x in slack) if g > 1 else tuple(slack)
    return slack, sum(1 << v for v, x in enumerate(slack) if x == 0)


def enumerate_vertices_dd(n: int, insertion_order: Optional[Sequence[int]] = None) -> VertexSet:
    """Vertex set via the double description method.

    The equality system is eliminated first: solutions are parameterized as
    the barycenter plus the far-corner null basis that ``polytope`` proves
    and stores (``HPolytope.null_basis``), and the method runs on the
    homogenization cone in dimension (n-1)^3 + 1 with the n^3 nonnegativity
    halfspaces. Each ray is stored once, as its primitive integer slack
    vector over those halfspaces, with its zero set; a vertex is a ray's
    slack vector divided by the sum over one line, because every null-space
    direction has zero line sums. Unless ``insertion_order`` pins the
    constraint order (the result is order-independent), remaining
    constraints are inserted greedily, fewest-cut-rays first.
    ``STOCHPOLY_MAX_CELLS`` caps the intermediate ray count. n = 4 is
    accepted but can be very expensive; expect to need a generous cap.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    if n == 1:
        return _vertex_set(1, {(Fraction(1),)})
    cap = _max_cells()
    rows = _homogeneous_rows(n)
    dim = (n - 1) ** 3 + 1

    # initial simplicial cone from the first maximal independent row subset:
    # Gauss-Jordan on the transposed rows pivots on exactly those rows and
    # leaves d * I on their columns, with d = +-det of the chosen rows, and
    # d times the rays' slack vectors in its rows (the adjugate); ray k is
    # tight on every chosen row except init[k]
    slacks = [list(col) for col in zip(*rows)]
    init, d = _kernels.reduce(slacks)
    if len(init) != dim:
        raise AssertionError(f"initial cone has dimension {len(init)}, expected {dim}")
    rays = [_ray(s if d > 0 else [-x for x in s]) for s in slacks]
    processed = sum(1 << c for c in init)

    if insertion_order is not None:
        order = [i for i in insertion_order if i not in set(init)]
        if sorted(order + init) != list(range(len(rows))):
            raise ValueError("insertion_order must cover all constraint indices")
        pending = order
    else:
        pending = None
    remaining = set(range(len(rows))) - set(init)

    min_common = dim - 2  # adjacent rays share a face of dimension dim-1
    while remaining:
        if pending is not None:
            cut = pending.pop(0)
        else:
            # greedy: insert the constraint cutting the fewest current rays
            cut = min(sorted(remaining), key=lambda c: sum(1 for s, _ in rays if s[c] < 0))
        remaining.discard(cut)

        pos = [r for r in rays if r[0][cut] > 0]
        neg = [r for r in rays if r[0][cut] < 0]
        zero = [r for r in rays if r[0][cut] == 0]
        kept = len(pos) + len(zero)
        new_rays: set[tuple[tuple[int, ...], int]] = set()
        for p, mp in pos:
            dp = p[cut]
            for q, mq in neg:
                common = mp & mq & processed
                if common.bit_count() < min_common:
                    continue
                # combinatorial adjacency: no third ray's zero set contains
                # the common zero set
                if any(m & common == common for s, m in rays if s is not p and s is not q):
                    continue
                dq = q[cut]
                new_rays.add(_ray([dp * b - dq * a for a, b in zip(p, q)]))
                if kept + len(new_rays) > cap:
                    raise ResourceCapExceeded(
                        f"double description intermediate ray count {kept + len(new_rays)} "
                        f"exceeds the cap of {cap} (raise {CAP_ENV} to override)"
                    )
        rays = pos + zero + sorted(new_rays)
        processed |= 1 << cut

    points: set[tuple[Fraction, ...]] = set()
    _, line = next(lines(n))
    for s, _ in rays:
        line_sum = sum(s[c] for c in line)
        if line_sum <= 0:
            raise AssertionError("unbounded direction found in a bounded polytope")
        points.add(tuple(Fraction(x, line_sum) for x in s))
    return _vertex_set(n, points)
