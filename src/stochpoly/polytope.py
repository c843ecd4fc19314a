"""H-representation of the line-stochastic tensor polytope and exact vertex
certification.

The polytope of order d and dimension n lives in R^(n^d) (tensors flattened
row-major) and is cut out by d n^(d-1) equality constraints A x = 1 (one per
line, each row summing the n entries of that line to 1) together with
nonnegativity. An ``HPolytope`` holds the lines of its order, which give
its size and rows; ``build_lp_polytope`` builds order 3, the doubly
stochastic matrices are order 2. A feasible point is a vertex exactly when
the constraint columns indexed by its support are linearly independent,
which reduces vertex certification to an exact rank computation.

The rank is computed in the basis of the boundary columns. A cell is
*boundary* when some index equals n - 1; there are n^d - (n - 1)^d of them,
and the other (n - 1)^d cells are *leading*. For a leading cell v the
far-corner cube vector b_v has entry (-1)^|a| at the cell that takes index
n - 1 on the axes in a and v's index on the others, for each of the 2^d
subsets a of the axes: +1 on v, zero on every other leading cell, and
2^d - 1 entries +-1 on boundary cells.

``_boundary_basis`` proves, without elimination, that the boundary columns
of a line system are a basis of the column space of A:

(a) the boundary columns peel away completely (repeatedly take a line that
    holds exactly one remaining boundary cell and remove that cell), so
    they are independent and rank(A) >= n^d - (n - 1)^d;
(b) A b_v = 0 for every leading v, checked on the lines;
(c) each b_v has a unit on its own leading cell and no other leading cell,
    so the (n - 1)^d vectors b_v are independent and rank(A) <= n^d -
    (n - 1)^d.

By (b), a leading column is A_v = -sum_u b_v[u] A_u over boundary u, so in
the boundary basis the boundary columns of a support S are unit vectors.
With B the boundary cells and L the leading cells,

    rank(A_S) = |S & B| + rank(M),   M = b[B - S, S & L],

the +-1 matrix of the far-corner vectors of the leading cells of S on the
boundary cells outside S: one column per leading cell of S, at most
2^d - 1 nonzeros each, and no column of A is eliminated.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count, product
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
    """Equality system A x = 1 (plus x >= 0) of dimension n, held as its
    ``lines``, each line's cells; ``rows`` builds the dense 0/1 matrix A on
    request. null_basis[c] is the far-corner vector b_c of a leading cell c,
    its pair (c, 1) first, and empty for a boundary cell c (see the module
    docstring). Only ``_boundary_basis`` builds one, proving ``rank``.
    """

    n: int
    lines: tuple[tuple[int, ...], ...]
    rank: int
    null_basis: tuple[SparseVector, ...]

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """A as 0/1 rows in line order, built anew on each access."""
        rows = [[0] * self.num_vars for _ in self.lines]
        for row, cells in zip(rows, self.lines):
            for c in cells:
                row[c] = 1
        return tuple(map(tuple, rows))

    @property
    def num_vars(self) -> int:
        return len(self.null_basis)

    @property
    def num_rows(self) -> int:
        return len(self.lines)


def _boundary_basis(n: int, line_cells: Sequence[Sequence[int]]) -> HPolytope:
    """Prove that the boundary columns of the line system of dimension n,
    given as each line's cells, are a basis of its column space, by checks
    (a)-(c) of the module docstring, and return the system with its rank
    n^d - (n - 1)^d and far-corner null basis by cell. The order d is the
    least with d n^(d-1) >= len(line_cells); with fewer lines, a cell lies
    on fewer than d. Raises AssertionError (not through ``assert``, so
    ``python -O`` keeps it) when a check fails."""
    d = next(d for d in count(1) if d * n ** (d - 1) >= len(line_cells))
    nv = n**d
    cell_lines: list[list[int]] = [[] for _ in range(nv)]
    for r, cells in enumerate(line_cells):
        if len(cells) != n or len(set(cells)) != n or min(cells) < 0 or max(cells) >= nv:
            raise AssertionError(f"line {r} does not have {n} distinct cells in range({nv})")
        for c in cells:
            cell_lines[c].append(r)
    if any(len(ls) != d for ls in cell_lines):
        raise AssertionError(f"a cell does not lie on exactly {d} lines")

    top = n - 1
    boundary = [top in index for index in product(range(n), repeat=d)]
    rank = sum(boundary)
    if rank != nv - top**d:
        raise AssertionError(f"{rank} boundary cells, expected {nv - top**d}")

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

    steps = [n**a for a in range(d)]  # the flat steps of the axes, last axis first
    basis: list[SparseVector] = [()] * nv
    for index in product(range(top), repeat=d):
        v = flatten_index(n, *index)
        # the 2^d corners: per axis, each corner so far is copied at index n - 1, sign flipped
        vec = [(v, 1)]
        for i, step in zip(reversed(index), steps):
            vec += [(u + (top - i) * step, -s) for u, s in vec]
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
        basis[v] = tuple(vec)
    return HPolytope(n=n, lines=tuple(map(tuple, line_cells)), rank=rank, null_basis=tuple(basis))


@lru_cache(maxsize=None)
def build_lp_polytope(n: int) -> HPolytope:
    """The line system of dimension n with its rank and boundary basis proved."""
    if n < 1:
        raise ValueError("dimension must be positive")
    return _boundary_basis(n, [cells for _, cells in lines(n)])


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
    dim = hp.num_vars - hp.rank
    if dim != (n - 1) ** 3:
        raise AssertionError(f"dimension {dim}, expected {(n - 1) ** 3}")
    return dim
