"""H-representation of the line-stochastic tensor polytope and exact vertex
certification.

The polytope for dimension n lives in R^(n^3) (tensors flattened row-major)
and is cut out by 3n^2 equality constraints (one per line, each row summing
the n entries of that line to 1) together with nonnegativity. The equality
matrix has exact rank 3n^2 - 3n + 1, verified at construction. A feasible
point is a vertex exactly when the constraint columns indexed by its support
are linearly independent, which reduces vertex certification to an exact
rank computation.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from . import _kernels
from .tensor import Line, Tensor3, check_line_stochastic, lines, support

__all__ = [
    "HPolytope",
    "VertexCertificate",
    "build_lp_polytope",
    "rank_exact",
    "is_vertex",
    "polytope_dimension",
    "flatten_index",
]


def flatten_index(n: int, i: int, j: int, k: int) -> int:
    """Column index of entry (i, j, k), all 0-based: ((i*n) + j)*n + k."""
    return (i * n + j) * n + k


@dataclass(frozen=True)
class HPolytope:
    """Equality system A x = 1 (plus x >= 0) for dimension n.

    rows[r] is the 0/1 coefficient vector of the r-th line in the canonical
    line order of :func:`stochpoly.tensor.lines`.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]
    line_index: tuple[Line, ...]
    rank: int

    @property
    def num_vars(self) -> int:
        return self.n**3

    @property
    def num_rows(self) -> int:
        return len(self.rows)


@lru_cache(maxsize=None)
def build_lp_polytope(n: int) -> HPolytope:
    """Construct and sanity-check the equality system for dimension n."""
    if n < 1:
        raise ValueError("dimension must be positive")
    nv = n**3
    rows = []
    labels = []
    for line, cells in lines(n):
        row = [0] * nv
        for i, j, k in cells:
            row[flatten_index(n, i, j, k)] = 1
        rows.append(tuple(row))
        labels.append(line)
    # structural invariants: n ones per row, 3 ones per column
    if any(sum(r) != n for r in rows):
        raise AssertionError(f"a line does not have exactly {n} cells")
    col_deg = [0] * nv
    for r in rows:
        for c, v in enumerate(r):
            col_deg[c] += v
    if any(d != 3 for d in col_deg):
        raise AssertionError("a cell does not lie on exactly 3 lines")
    rank = _kernels.rank_int(rows)
    expected = 3 * n * n - 3 * n + 1
    if rank != expected:
        raise AssertionError(f"rank(A) = {rank}, expected {expected}")
    return HPolytope(n=n, rows=tuple(rows), line_index=tuple(labels), rank=rank)


def rank_exact(hp: HPolytope, columns: Sequence[int]) -> int:
    """Exact rank of the selected constraint columns (empty selection: 0)."""
    cols = list(columns)
    if not cols:
        return 0
    sub = [[row[c] for c in cols] for row in hp.rows]
    return _kernels.rank_int(sub)


@dataclass(frozen=True)
class VertexCertificate:
    point: Tensor3
    support_size: int
    rank: int
    verdict: str  # "vertex" | "not_vertex" | "infeasible"
    violated: Optional[Line] = None

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "support_size": self.support_size,
            "rank": self.rank,
        }
        if self.violated is not None:
            out["violated"] = self.violated.to_json()
        return out


def is_vertex(t: Tensor3) -> VertexCertificate:
    """Certify whether t is a vertex of the polytope of its dimension.

    Infeasible points report the first violated line; feasible points are
    vertices exactly when their support columns have full rank.
    """
    hp = build_lp_polytope(t.n)
    supp = sorted(flatten_index(t.n, i, j, k) for i, j, k in support(t))
    check = check_line_stochastic(t)
    if not check.ok:
        return VertexCertificate(
            point=t,
            support_size=len(supp),
            rank=rank_exact(hp, supp),
            verdict="infeasible",
            violated=check.violation,
        )
    rk = rank_exact(hp, supp)
    verdict = "vertex" if rk == len(supp) else "not_vertex"
    return VertexCertificate(point=t, support_size=len(supp), rank=rk, verdict=verdict)


def polytope_dimension(n: int) -> int:
    """Dimension of the polytope: n^3 minus the equality rank, which equals
    (n-1)^3; the identity is checked against the computed rank."""
    hp = build_lp_polytope(n)
    dim = n**3 - hp.rank
    if dim != (n - 1) ** 3:
        raise AssertionError(f"dimension {dim}, expected {(n - 1) ** 3}")
    return dim
