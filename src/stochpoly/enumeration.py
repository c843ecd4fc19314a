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

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd
from typing import Optional, Sequence

from . import _kernels
from .polytope import HPolytope, build_lp_polytope
from .tensor import LatinSquare, Tensor3, tensor_to_json

__all__ = [
    "ResourceCapExceeded",
    "VertexSet",
    "enumerate_latin_squares",
    "count_latin_squares",
    "enumerate_vertices_bruteforce",
    "enumerate_vertices_dd",
    "LATIN_MAX_N",
    "HULL_LATIN_MAX_N",
    "VERTICES_MAX_N",
    "BOUNDS_MAX_N",
    "CHECK_VERTEX_MAX_N",
    "MEMBERSHIP_MAX_CELLS",
    "DECOMPOSE_MAX_N",
]

# Work limits. Each is compared with n, or with a cell count computed from
# the input's size, before any work starts; a refusal raises
# ResourceCapExceeded (exit 3 on the command line). Times are single runs on
# a 2-vCPU Intel Xeon VM, Python 3.11.

#: Latin square enumeration and counting: listing the 161 280 squares of
#: order 5 takes about 3 s; L(6) is past 800 million
LATIN_MAX_N = 5
#: hull membership against every Latin tensor: the uniform tensor of dimension 4
#: against 576 takes about 15 s; at n = 5 that is 161 280 generators and a
#: dense 126 x 161 407 tableau (an inherited value, not set from this cost)
HULL_LATIN_MAX_N = 4
#: both vertex enumerations: at n = 3 the brute-force oracle tries 2 220 075
#: candidate active sets in about 100 s and double description holds at most
#: 66 rays; at n = 4 double description never finished (a probe made 27 564
#: rays in 11 of 36 insertions, each insertion about 7x the one before)
VERTICES_MAX_N = 3
#: the bound chain, whose binomials have about n^3 digits: verify_chain(64)
#: takes about 0.05 s, verify_chain over 2..64 about 0.75-0.95 s, and
#: `bounds 2 --sweep 64 --format json` about 1.2-1.3 s with its output (best of 3)
BOUNDS_MAX_N = 64
#: check-vertex: the cyclic Latin tensor of dimension 16 takes 0.5-1.0 s
CHECK_VERTEX_MAX_N = 16
#: cells of the phase-1 tableau of a membership LP over a generator file,
#: (m + 1)(G + m + 1) for m = n^3 + 1 rows and G generators; near it a file
#: took 21 s at n = 3 (137 902 generators) and 101 s at n = 4 (60 540)
#: (an inherited value, not set from this cost)
MEMBERSHIP_MAX_CELLS = 4_000_000
#: Birkhoff decomposition: a random weighted sum of 4n permutation matrices
#: takes about 1 s at n = 64 (3 842 terms), growing as about n^4
DECOMPOSE_MAX_N = 64


class ResourceCapExceeded(RuntimeError):
    """The input is over a work limit; raised before any work starts."""


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
    if n > VERTICES_MAX_N:
        raise ResourceCapExceeded(f"brute-force enumeration capped at n <= {VERTICES_MAX_N}")
    hp = build_lp_polytope(n)
    points: set[tuple[Fraction, ...]] = set()
    for den, nums in _kernels.basic_feasible_solutions(hp.rows, hp.rank):
        points.add(tuple(Fraction(v, den) for v in nums))
    return _vertex_set(n, points)


# ---------------------------------------------------------------------------
# Double description


def _ray(slack: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """A ray as its primitive integer slack vector, plus its zero set over
    all halfspaces as a bitmask."""
    g = gcd(*slack)
    slack = tuple(x // g for x in slack) if g > 1 else tuple(slack)
    return slack, sum(1 << v for v, x in enumerate(slack) if x == 0)


def enumerate_vertices_dd(n: int) -> VertexSet:
    """Vertex set via the double description method.

    The equality system is eliminated first: solutions are parameterized as
    the barycenter plus the far-corner null basis that ``polytope`` proves
    and stores (``HPolytope.null_basis``), and the method runs on the
    homogenization cone in dimension (n-1)^3 + 1 with the n^3 nonnegativity
    halfspaces. Each ray is stored once, as its primitive integer slack
    vector over those halfspaces, with its zero set; a vertex is a ray's
    slack vector divided by the sum over one line, because every null-space
    direction has zero line sums. The remaining constraints are inserted
    greedily, fewest-cut-rays first; the result does not depend on the order.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    if n > VERTICES_MAX_N:
        raise ResourceCapExceeded(f"double description capped at n <= {VERTICES_MAX_N}")
    return _vertex_set(n, _double_description(build_lp_polytope(n)))


def _double_description(hp: HPolytope, insertion_order: Optional[Sequence[int]] = None):
    """The vertices, as a set of flat tuples, of the proved line system hp
    of any order, from its far-corner null basis N (a vector N_v per leading
    cell v) and its first line. Over y = (s, t), cell v has value
    (s + n * (N t)_v) / (n s), so its nonnegativity is the integer halfspace
    row (1, n*N_v). ``insertion_order`` pins the order of insertion."""
    null = [vec for vec in hp.null_basis if vec]
    rows = [[1] + [0] * len(null) for _ in hp.null_basis]
    for q, vec in enumerate(null, 1):
        for v, s in vec:
            rows[v][q] = hp.n * s
    dim = len(null) + 1

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

    remaining = set(range(len(rows))) - set(init)
    pending = None if insertion_order is None else [i for i in insertion_order if i not in init]
    if pending is not None and sorted(pending) != sorted(remaining):
        raise ValueError("insertion_order must cover all constraint indices")

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
        rays = pos + zero + sorted(new_rays)
        processed |= 1 << cut

    points: set[tuple[Fraction, ...]] = set()
    for s, _ in rays:
        line_sum = sum(s[c] for c in hp.lines[0])
        if line_sum <= 0:
            raise AssertionError("unbounded direction found in a bounded polytope")
        points.add(tuple(Fraction(x, line_sum) for x in s))
    return points
