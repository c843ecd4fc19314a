"""H-representation of the line-stochastic tensor polytope and exact vertex
certification.

The polytope for dimension n lives in R^(n^3) (tensors flattened row-major)
and is cut out by 3n^2 equality constraints A x = 1 (one per line, each row
summing the n entries of that line to 1) together with nonnegativity. A
feasible point is a vertex exactly when the constraint columns indexed by its
support are linearly independent, which reduces vertex certification to an
exact rank computation.

The rank is computed in the basis of the boundary columns. A cell is
*boundary* when some index equals n - 1; there are 3n^2 - 3n + 1 of them,
and the other (n - 1)^3 cells are *leading*. For a leading cell v = (i, j, k)
the far-corner cube vector b_v has entry (-1)^(a+b+c) at
(a ? n-1 : i, b ? n-1 : j, c ? n-1 : k) for a, b, c in {0, 1}: +1 on v, zero
on every other leading cell, and seven entries +-1 on boundary cells.

``build_lp_polytope`` proves once per n, without elimination, that the
boundary columns are a basis of the column space of A:

(a) the boundary columns peel away completely (repeatedly take a line that
    holds exactly one remaining boundary cell and remove that cell), so
    they are independent and rank(A) >= 3n^2 - 3n + 1;
(b) A b_v = 0 for every leading v, checked on the rows;
(c) each b_v has a unit on its own leading cell and no other leading cell,
    so the (n - 1)^3 vectors b_v are independent and rank(A) <= n^3 -
    (n - 1)^3 = 3n^2 - 3n + 1.

By (b), a leading column is A_v = -sum_u b_v[u] A_u over boundary u, so in
the boundary basis the boundary columns of a support S are unit vectors.
With B the boundary cells and L the leading cells,

    rank(A_S) = |S & B| + rank(M),   M = b[B - S, S & L],

the +-1 matrix of the far-corner vectors of the leading cells of S on the
boundary cells outside S: one column per leading cell of S, at most seven
nonzeros each, and no column of A is eliminated.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Optional, Sequence

from . import _kernels
from .tensor import Line, Tensor3, _line_scan, flatten_index, lines

__all__ = [
    "HPolytope",
    "VertexCertificate",
    "build_lp_polytope",
    "rank_exact",
    "is_vertex",
    "polytope_dimension",
]

#: a null-space vector as its (cell, coefficient) pairs
SparseVector = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class HPolytope:
    """Equality system A x = 1 (plus x >= 0) for dimension n.

    rows[r] is the 0/1 coefficient vector of the r-th line in the canonical
    line order of :func:`stochpoly.tensor.lines`. null_basis[c] is the
    far-corner vector b_c of a leading cell c, its pair (c, 1) first, and
    empty for a boundary cell c (see the module docstring).
    """

    n: int
    rows: tuple[tuple[int, ...], ...]
    line_index: tuple[Line, ...]
    rank: int
    null_basis: tuple[SparseVector, ...]

    @property
    def num_vars(self) -> int:
        return self.n**3

    @property
    def num_rows(self) -> int:
        return len(self.rows)


def _boundary_basis(n: int, rows: Sequence[Sequence[int]]) -> tuple[int, tuple[SparseVector, ...]]:
    """Prove that the boundary columns of the line system ``rows`` of
    dimension n are a basis of its column space, by checks (a)-(c) of the
    module docstring, and return rank(A) = 3n^2 - 3n + 1 with the far-corner
    null basis indexed by cell. Raises AssertionError (not through
    ``assert``, so ``python -O`` keeps it) when a check fails."""
    nv = n**3
    line_cells = []
    cell_lines: list[list[int]] = [[] for _ in range(nv)]
    for r, row in enumerate(rows):
        cells = [c for c, x in enumerate(row) if x]
        if len(cells) != n or any(row[c] != 1 for c in cells):
            raise AssertionError(f"line {r} does not have exactly {n} cells")
        line_cells.append(cells)
        for c in cells:
            cell_lines[c].append(r)
    if any(len(ls) != 3 for ls in cell_lines):
        raise AssertionError("a cell does not lie on exactly 3 lines")

    top = n - 1
    boundary = [top in ijk for ijk in product(range(n), repeat=3)]
    rank = sum(boundary)
    if rank != 3 * n * n - 3 * n + 1:
        raise AssertionError(f"{rank} boundary cells, expected {3 * n * n - 3 * n + 1}")

    # (a) peel the boundary columns: a line holding exactly one remaining
    # boundary cell is a row where that column alone is nonzero
    remaining = list(boundary)
    left = [sum(remaining[c] for c in cells) for cells in line_cells]
    stack = [r for r, k in enumerate(left) if k == 1]
    peeled = 0
    while stack:
        r = stack.pop()
        if left[r] != 1:
            continue
        c = next(c for c in line_cells[r] if remaining[c])
        remaining[c] = False
        peeled += 1
        for q in cell_lines[c]:
            left[q] -= 1
            if left[q] == 1:
                stack.append(q)
    if peeled != rank:
        raise AssertionError(f"only {peeled} of the {rank} boundary columns peel away")

    corners = [(a, b, c, (-1) ** (a + b + c)) for a, b, c in product((0, 1), repeat=3)]
    basis: list[SparseVector] = [()] * nv
    for i, j, k in product(range(top), repeat=3):
        v = flatten_index(n, i, j, k)
        vec = tuple(
            (flatten_index(n, top if a else i, top if b else j, top if c else k), s)
            for a, b, c, s in corners
        )
        # (b) A b_v = 0, summed over the lines through the vector's cells
        sums: dict[int, int] = {}
        for u, s in vec:
            for r in cell_lines[u]:
                sums[r] = sums.get(r, 0) + s
        if any(sums.values()):
            raise AssertionError(f"far-corner vector of cell {v} is not in the null space")
        # (c) a unit on v and on no other leading cell
        if vec[0] != (v, 1) or any(not boundary[u] for u, _ in vec[1:]):
            raise AssertionError(f"far-corner vector of cell {v} is not triangular")
        basis[v] = vec
    return rank, tuple(basis)


@lru_cache(maxsize=None)
def build_lp_polytope(n: int) -> HPolytope:
    """Construct the equality system for dimension n and prove its rank and
    its boundary basis (module docstring)."""
    if n < 1:
        raise ValueError("dimension must be positive")
    nv = n**3
    rows = []
    labels = []
    for line, cells in lines(n):
        row = [0] * nv
        for c in cells:
            row[c] = 1
        rows.append(tuple(row))
        labels.append(line)
    rank, basis = _boundary_basis(n, rows)
    return HPolytope(n=n, rows=tuple(rows), line_index=tuple(labels), rank=rank, null_basis=basis)


def rank_exact(hp: HPolytope, columns: Sequence[int]) -> int:
    """Exact rank of the selected constraint columns (empty selection: 0).

    Computed as |S & boundary| + rank(M) with M the far-corner vectors of
    the selected leading cells on the boundary cells outside the selection
    (module docstring)."""
    sel = set(columns)
    basis = hp.null_basis
    leading = [v for v in sel if basis[v]]
    m_rows: dict[int, list[int]] = {}
    for j, v in enumerate(leading):
        for u, s in basis[v]:
            if u not in sel:
                row = m_rows.get(u)
                if row is None:
                    row = m_rows[u] = [0] * len(leading)
                row[j] = s
    return len(sel) - len(leading) + _kernels.rank_int(list(m_rows.values()))


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
    vertices exactly when their support columns have full rank. The line
    check and the support come from one read of the entries.
    """
    hp = build_lp_polytope(t.n)
    violation, supp = _line_scan(t)
    rk = rank_exact(hp, supp)
    if violation is not None:
        verdict = "infeasible"
    else:
        verdict = "vertex" if rk == len(supp) else "not_vertex"
    return VertexCertificate(point=t, support_size=len(supp), rank=rk, verdict=verdict, violated=violation)


def polytope_dimension(n: int) -> int:
    """Dimension of the polytope: n^3 minus the equality rank, which equals
    (n-1)^3; the identity is checked against the computed rank."""
    hp = build_lp_polytope(n)
    dim = n**3 - hp.rank
    if dim != (n - 1) ** 3:
        raise AssertionError(f"dimension {dim}, expected {(n - 1) ** 3}")
    return dim
