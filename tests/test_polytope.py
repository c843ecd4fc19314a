import random
from fractions import Fraction

import pytest

from stochpoly.enumeration import enumerate_latin_squares
from stochpoly.polytope import (
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
    assert all(sum(row) == 3 for row in hp.rows)
    for c in range(hp.num_vars):
        assert sum(row[c] for row in hp.rows) == 3


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
    hp = build_lp_polytope(3)
    for _ in range(10):
        picks = rng.sample(squares, 4)
        raw = [rng.randrange(1, 9) for _ in picks]
        total = sum(raw)
        t = convex_combine(
            [Fraction(r, total) for r in raw], [latin_to_tensor(s) for s in picks]
        )
        flat = t.flatten()
        for row in hp.rows:
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
