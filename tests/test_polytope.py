import dataclasses
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stochpoly
from stochpoly import _kernels, tensor
from stochpoly.enumeration import enumerate_latin_squares
from stochpoly.polytope import (
    HPolytope,
    _boundary_basis,
    build_lp_polytope,
    is_vertex,
    polytope_dimension,
    rank_exact,
)
from stochpoly.tensor import (
    Tensor3,
    convex_combine,
    flatten_index,
    latin_to_tensor,
    lines,
    support,
    uniform_tensor,
)


@pytest.mark.parametrize(
    "n, rows, cols, rank",
    [(1, 3, 1, 1), (2, 12, 8, 7), (3, 27, 27, 19), (4, 48, 64, 37)],
)
def test_build_shapes_and_rank(n, rows, cols, rank):
    hp = build_lp_polytope(n)
    assert hp.num_rows == rows
    assert hp.num_vars == cols
    assert hp.rank == rank


def test_row_and_column_degrees():
    hp = build_lp_polytope(3)
    rows = hp.rows
    assert all(sum(row) == 3 for row in rows)
    for c in range(hp.num_vars):
        assert sum(row[c] for row in rows) == 3


def reference_rows(n, d):
    """The dense system of order d from the definition: the axis-d lines
    (every other index fixed), then axis d - 1, down to axis 1 (at order 3:
    fix i, j, then i, k, then j, k), each the 0/1 indicator of the cells
    flatten_index gives it."""
    rows = []
    for axis in reversed(range(d)):
        for fixed in product(range(n), repeat=d - 1):
            row = [0] * n**d
            for t in range(n):
                index = list(fixed)
                index.insert(axis, t)
                row[flatten_index(n, *index)] = 1
            rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dense_rows_match_the_line_definition(n):
    assert build_lp_polytope(n).rows == reference_rows(n, 3)


@pytest.mark.parametrize("n", range(1, 7))
def test_order_2_polytope_takes_its_size_and_rows_from_its_lines(n):
    hp = _boundary_basis(n, order2_cells(n))
    assert (hp.num_vars, hp.num_rows) == (n * n, 2 * n)
    assert hp.rows == reference_rows(n, 2)


def test_polytope_keeps_no_dense_matrix():
    assert {f.name for f in dataclasses.fields(HPolytope)} == {"n", "lines", "rank", "null_basis"}


@pytest.mark.parametrize("n, dim", [(1, 0), (2, 1), (3, 8), (4, 27)])
def test_polytope_dimension(n, dim):
    assert polytope_dimension(n) == dim


def test_rank_exact_selections(half_vertex):
    hp2 = build_lp_polytope(2)
    assert rank_exact(hp2, []) == 0
    assert rank_exact(hp2, range(8)) == 7
    hp3 = build_lp_polytope(3)
    cols = sorted(flatten_index(3, i, j, k) for i, j, k in support(half_vertex))
    assert len(cols) == 17
    assert rank_exact(hp3, cols) == 17


def test_equality_system_satisfied_by_line_stochastic_points():
    rng = random.Random(5)
    squares = enumerate_latin_squares(3)
    rows = build_lp_polytope(3).rows
    for _ in range(10):
        picks = rng.sample(squares, 4)
        raw = [rng.randrange(1, 9) for _ in picks]
        total = sum(raw)
        t = convex_combine(
            [Fraction(r, total) for r in raw], [latin_to_tensor(s) for s in picks]
        )
        flat = t.flatten()
        for row in rows:
            assert sum(c * x for c, x in zip(row, flat)) == 1


def test_half_vertex_certificate(half_vertex):
    cert = is_vertex(half_vertex)
    assert cert.verdict == "vertex"
    assert cert.support_size == 17
    assert cert.rank == 17
    assert cert.violated is None
    assert cert.to_json() == {"verdict": "vertex", "support_size": 17, "rank": 17}


def test_uniform_is_not_a_vertex():
    cert = is_vertex(uniform_tensor(3))
    assert cert.verdict == "not_vertex"
    assert cert.support_size == 27
    assert cert.rank == 19


def test_permutation_tensors_are_vertices(latin3_tensors):
    for t in latin3_tensors:
        cert = is_vertex(t)
        assert cert.verdict == "vertex"
        assert cert.support_size == 9
        assert cert.rank == 9
    for s in enumerate_latin_squares(2):
        cert = is_vertex(latin_to_tensor(s))
        assert (cert.verdict, cert.support_size) == ("vertex", 4)


def test_infeasible_point_reports_line():
    zeros = Tensor3([[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    cert = is_vertex(zeros)
    assert cert.verdict == "infeasible"
    assert cert.violated is not None
    assert cert.to_json()["violated"] == {"axis": 3, "fixed": [1, 1]}


def test_build_rejects_nonpositive():
    with pytest.raises(ValueError):
        build_lp_polytope(0)


# --- the rank in the boundary basis against the dense reference -----------


def dense_rank(rows, columns):
    """Reference: Bareiss on the selected columns of all the rows."""
    return _kernels.rank_int([[row[c] for c in columns] for row in rows])


def cells(n, leading):
    """The leading cells (every index below n - 1) or the boundary cells."""
    return [
        flatten_index(n, *ijk)
        for ijk in product(range(n), repeat=3)
        if (n - 1 not in ijk) == leading
    ]


@st.composite
def supports(draw, n):
    size = draw(st.integers(0, n**3))
    return draw(st.permutations(range(n**3)))[:size]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rank_exact_matches_the_dense_rank(n):
    hp = build_lp_polytope(n)
    rows = hp.rows

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(supports(n))
    def check(columns):
        assert rank_exact(hp, columns) == dense_rank(rows, columns)

    check()


def latin_supports(n):
    return [
        [c for c, v in enumerate(latin_to_tensor(s).flatten()) if v]
        for s in enumerate_latin_squares(n)
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rank_exact_edge_supports(n, half_vertex):
    hp = build_lp_polytope(n)
    rows = hp.rows
    boundary, leading = cells(n, False), cells(n, True)
    cases = {
        "empty": ([], 0),
        "full": (range(n**3), hp.rank),
        "boundary": (boundary, hp.rank),
        "leading": (leading, None),
        "one leading": (leading[-1:], len(leading[-1:])),
    }
    if n in (3, 4):
        cases.update((f"latin {k}", (s, n * n)) for k, s in enumerate(latin_supports(n)))
    if n == 3:
        half = sorted(flatten_index(3, *ijk) for ijk in support(half_vertex))
        cases["half vertex"] = (half, 17)
    for name, (columns, expected) in cases.items():
        got = rank_exact(hp, columns)
        assert got == dense_rank(rows, list(columns)), name
        if expected is not None:
            assert got == expected, name


@pytest.mark.parametrize("n", [8, 9, 10])
def test_uniform_tensor_rank_at_larger_n(n):
    cert = is_vertex(uniform_tensor(n))
    assert (cert.verdict, cert.support_size, cert.rank) == ("not_vertex", n**3, 3 * n * n - 3 * n + 1)


def test_build_runs_no_elimination_and_rank_exact_only_leading_columns(monkeypatch):
    rank_int = _kernels.rank_int

    def refuse(*args):
        raise AssertionError("elimination called")

    monkeypatch.setattr(_kernels, "rank_int", refuse)
    monkeypatch.setattr(_kernels, "reduce", refuse)
    for n in range(1, 7):
        hp = build_lp_polytope.__wrapped__(n)
        assert hp.rank == 3 * n * n - 3 * n + 1
        assert sum(1 for vec in hp.null_basis if vec) == (n - 1) ** 3
    monkeypatch.undo()

    widths = []

    def recording(rows):
        widths.append(len(rows[0]) if rows else 0)
        return rank_int(rows)

    monkeypatch.setattr(_kernels, "rank_int", recording)
    hp = build_lp_polytope(3)
    leading = set(cells(3, True))
    for columns in [[], list(range(27)), sorted(leading)] + latin_supports(3):
        widths.clear()
        rank_exact(hp, columns)
        assert sum(widths) <= len(leading.intersection(columns))


# --- the build proof fails loudly -----------------------------------------


def line_cells(n):
    return [list(line) for _, line in lines(n)]


def order2_cells(n):
    """The order-2 line system of dimension n (the doubly stochastic
    matrices): its n rows, then its n columns."""
    return [list(line) for _, line in tensor._line_table(n, 2)]


def move_one(n):
    """Line 0 (cells 0..n-1) has its cell 0 moved to cell n*n, off the line."""
    system = line_cells(n)
    system[0][0] = n * n
    return system


def swap(system, moves):
    """Each (r1, r2, c0, c1) moves line r1's cell c0 to c1 and line r2's
    cell c1 to c0, so every line keeps n cells and every cell 3 lines."""
    for r1, r2, c0, c1 in moves:
        assert c1 not in system[r1] and c0 not in system[r2]
        system[r1][system[r1].index(c0)] = c1
        system[r2][system[r2].index(c1)] = c0
    return system


def dense(n, system):
    """The 0/1 rows of an order-3 system given as each line's cells, for a
    system the proof refuses (a proved one has ``HPolytope.rows``)."""
    rows = [[0] * n**3 for _ in system]
    for row, line in zip(rows, system):
        for c in line:
            row[c] = 1
    return rows


@pytest.mark.parametrize("n", range(1, 8))
def test_boundary_basis_proof_holds_on_the_line_system(n):
    system = line_cells(n)
    hp = _boundary_basis(n, system)
    assert hp.rank == 3 * n * n - 3 * n + 1
    assert [v for v, vec in enumerate(hp.null_basis) if vec] == cells(n, True)
    for vec in hp.null_basis:
        coefficient = dict(vec)
        assert all(sum(coefficient.get(c, 0) for c in line) == 0 for line in system)


def test_boundary_basis_proof_rejects_tampered_systems():
    with pytest.raises(AssertionError, match="exactly 3 lines"):
        _boundary_basis(3, move_one(3))
    # lines (i=1, k=1) and (i=1, k=2) trade cells (1,1,1) and (1,1,2): the
    # far-corner vector of (1,1,1) leaves the null space
    with pytest.raises(AssertionError, match="null space"):
        _boundary_basis(3, swap(line_cells(3), [(9, 10, 0, 1)]))
    # every far-corner vector stays in the null space, but the rank drops
    # to 6: only the peeling sees it
    system = swap(line_cells(2), [(2, 11, 4, 7), (8, 3, 0, 6), (4, 5, 2, 1), (2, 9, 7, 1)])
    assert _kernels.rank_int(dense(2, system)) == 6
    with pytest.raises(AssertionError, match="peel"):
        _boundary_basis(2, system)
    # order 2: a row's cell moved into the middle row, and two rows trading
    # cells (0,0) and (1,0), which leaves the far-corner vector of (0,0) with
    # a sum of 1 on the second row
    system = order2_cells(3)
    system[0][0] = 4
    with pytest.raises(AssertionError, match="exactly 2 lines"):
        _boundary_basis(3, system)
    with pytest.raises(AssertionError, match="null space"):
        _boundary_basis(3, swap(order2_cells(3), [(0, 1, 0, 3)]))


def test_boundary_basis_proof_holds_at_order_2():
    """The Birkhoff polytope B_n: rank 2n - 1, dimension (n - 1)^2, and a
    far-corner vector +1 at (i, j) and (n-1, n-1), -1 at (i, n-1) and
    (n-1, j) for each leading cell."""
    for n in range(1, 65):
        hp = _boundary_basis(n, order2_cells(n))
        assert (hp.rank, sum(1 for vec in hp.null_basis if vec)) == (2 * n - 1, (n - 1) ** 2)
    top = n - 1
    for i, j in product(range(top), repeat=2):
        corners = ((i, j, 1), (i, top, -1), (top, j, -1), (top, top, 1))
        assert hp.null_basis[flatten_index(n, i, j)] == tuple((flatten_index(n, a, b), s) for a, b, s in corners)


def test_rank_exact_at_order_2_finds_the_permutation_matrices():
    """A doubly stochastic matrix is a vertex of B_n exactly when it is a
    permutation matrix: on random sums of 1 to 3 permutation matrices,
    rank_exact over the order-2 system gives full rank exactly when the
    sum has one term, and agrees with the dense rank."""
    rng = random.Random(2)
    systems = {}
    for _ in range(200):
        n = rng.randrange(1, 7)
        if n not in systems:
            hp = _boundary_basis(n, order2_cells(n))
            systems[n] = hp, hp.rows
        hp, rows = systems[n]
        perms = {tuple(rng.sample(range(n), n)) for _ in range(rng.randrange(1, 4))}
        supp = sorted({flatten_index(n, i, p[i]) for p in perms for i in range(n)})
        rank = rank_exact(hp, supp)
        assert (rank == len(supp)) == (len(perms) == 1)
        assert rank == dense_rank(rows, supp)


@pytest.mark.parametrize("line", [[0, 0, 1], [0, 1, 27], [-1, 0, 1], [0, 1], [0, 1, 2, 3]])
def test_boundary_basis_proof_rejects_malformed_lines(line):
    system = line_cells(3)
    system[0] = line
    with pytest.raises(AssertionError, match="line 0 does not have 3 distinct cells"):
        _boundary_basis(3, system)


def test_boundary_basis_proof_survives_optimize_flag():
    # `python -O` strips assert statements; the build proof must still run
    script = textwrap.dedent(
        """
        import sys
        from stochpoly.polytope import _boundary_basis
        from stochpoly.tensor import _line_table
        if __debug__:
            sys.exit("not running under -O")
        for d, moved in ((3, 9), (2, 4)):
            cells = [list(line) for _, line in _line_table(3, d)]
            cells[0][0] = moved
            try:
                _boundary_basis(3, cells)
            except AssertionError:
                continue
            sys.exit(f"a tampered system of order {d} passed the proof")
        """
    )
    src = str(Path(stochpoly.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
