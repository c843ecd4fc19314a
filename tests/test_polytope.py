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
from stochpoly import _kernels
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


def reference_rows(n):
    """The dense system from the definition: axis-3 lines (fix i, j), then
    axis-2 (fix i, k), then axis-1 (fix j, k), each the 0/1 indicator of the
    cells flatten_index gives it."""
    rows = []
    for axis in (2, 1, 0):
        for fixed in product(range(n), repeat=2):
            row = [0] * n**3
            for t in range(n):
                ijk = list(fixed)
                ijk.insert(axis, t)
                row[flatten_index(n, *ijk)] = 1
            rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dense_rows_match_the_line_definition(n):
    assert build_lp_polytope(n).rows == reference_rows(n)


def test_polytope_keeps_no_dense_matrix():
    assert {f.name for f in dataclasses.fields(HPolytope)} == {"n", "rank", "null_basis"}


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
    """Reference: Bareiss on the selected columns of all 3n^2 rows."""
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
    """The 0/1 rows of a system given as each line's cells."""
    rows = [[0] * n**3 for _ in system]
    for row, line in zip(rows, system):
        for c in line:
            row[c] = 1
    return rows


@pytest.mark.parametrize("n", range(1, 8))
def test_boundary_basis_proof_holds_on_the_line_system(n):
    system = line_cells(n)
    rank, basis = _boundary_basis(n, system)
    assert rank == 3 * n * n - 3 * n + 1
    assert [v for v, vec in enumerate(basis) if vec] == cells(n, True)
    for vec in basis:
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
        from stochpoly.tensor import lines
        if __debug__:
            sys.exit("not running under -O")
        cells = [list(line) for _, line in lines(3)]
        cells[0][0] = 9
        try:
            _boundary_basis(3, cells)
        except AssertionError:
            sys.exit(0)
        sys.exit("a tampered system passed the proof")
        """
    )
    src = str(Path(stochpoly.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
