import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from stochpoly import _kernels
from stochpoly.polytope import build_lp_polytope


def test_rank_int_basics():
    assert _kernels.rank_int([]) == 0
    assert _kernels.rank_int([[1, 0], [0, 1]]) == 2
    assert _kernels.rank_int([[1, 2], [2, 4]]) == 1
    assert _kernels.rank_int([[0, 0], [0, 0]]) == 0
    assert _kernels.rank_int([[1, 2, 3]]) == 1
    assert _kernels.rank_int([[1], [2], [3]]) == 1


def test_rank_int_handles_big_values():
    big = 10**30
    assert _kernels.rank_int([[big, 0], [0, big]]) == 2
    assert _kernels.rank_int([[big, big], [big, big]]) == 1


def test_rank_int_agrees_with_float_rank_on_random_small():
    import numpy as np

    rng = random.Random(77)
    for _ in range(50):
        m = rng.randrange(1, 6)
        k = rng.randrange(1, 6)
        rows = [[rng.randrange(-3, 4) for _ in range(k)] for _ in range(m)]
        got = _kernels.rank_int(rows)
        expected = np.linalg.matrix_rank(np.array(rows, dtype=float))
        assert got == int(expected)


def _fraction_rref(rows, ncols):
    """Reduced row echelon form over Fractions, pivoting only in the first
    ``ncols`` columns: (pivot columns, nonzero rows in pivot order)."""
    mat = [[Fraction(v) for v in row] for row in rows]
    cols = []
    for c in range(ncols):
        k = len(cols)
        piv = next((i for i in range(k, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[k], mat[piv] = mat[piv], mat[k]
        mat[k] = [x / mat[k][c] for x in mat[k]]
        for i in range(len(mat)):
            if i != k and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[k])]
        cols.append(c)
    return cols, mat[: len(cols)]


def _signed_pivot_matrix(rng):
    """Rows of an upper triangular block with diagonal +-1, so that its
    Bareiss pivots are +-1 and often equal -prev, and below them rows of
    small integers (some combinations of the block's rows) with zeros
    forced into random pivot columns."""
    r, k = rng.randrange(2, 8), rng.randrange(2, 10)
    r = min(r, k)
    rows = []
    for i in range(r):
        row = [0] * i + [rng.choice((1, -1))] + [rng.randrange(-3, 4) for _ in range(k - i - 1)]
        rows.append(row)
    for _ in range(rng.randrange(1, 8)):
        if rng.random() < 0.3:
            a, b = rng.sample(rows[:r], 2)
            ca, cb = rng.randrange(-2, 3), rng.randrange(-2, 3)
            row = [ca * x + cb * y for x, y in zip(a, b)]
        else:
            row = [rng.randrange(-3, 4) for _ in range(k)]
        for c in rng.sample(range(r), rng.randrange(0, r + 1)):
            row[c] = 0
        rows.append(row)
    return rows


def test_rank_int_matches_the_fraction_rank():
    """rank_int against Fraction elimination on random small integer
    matrices, sparse ones, sparse +-1 matrices like the far-corner systems
    of ``polytope.rank_exact``, and matrices built to meet pivots equal to
    -prev with zeros below them."""
    rng = random.Random(2024)
    cases = []
    for _ in range(150):
        m, k = rng.randrange(1, 9), rng.randrange(1, 9)
        cases.append([[rng.randrange(-3, 4) for _ in range(k)] for _ in range(m)])
        cases.append([[rng.choice((0, 0, 0, 1, -1)) for _ in range(k)] for _ in range(m + 4)])
        # zeros below pivots that are not +-prev, which must still be scaled
        m, k = rng.randrange(4, 11), rng.randrange(4, 11)
        cases.append([[rng.choice((0, 0, rng.randrange(-9, 10))) for _ in range(k)] for _ in range(m)])
        cases.append(_signed_pivot_matrix(rng))
    for rows in cases:
        assert _kernels.rank_int(rows) == len(_fraction_rref(rows, len(rows[0]))[0])


def test_reduce_is_greedy_and_scales_the_rref():
    rng = random.Random(5150)
    for _ in range(300):
        nrows = rng.randrange(1, 7)
        width = rng.randrange(1, 8)
        rows = [
            [rng.randrange(-3, 4) if rng.random() < 0.7 else 0 for _ in range(width)]
            for _ in range(nrows)
        ]
        ncols = rng.choice([None, rng.randrange(0, width + 1)])
        reduced = width if ncols is None else ncols
        # greedy choice: a column is a pivot when it raises the rank
        greedy = []
        for c in range(reduced):
            if _kernels.rank_int([[row[j] for j in greedy + [c]] for row in rows]) > len(greedy):
                greedy.append(c)
        m = [list(row) for row in rows]
        cols, d = _kernels.reduce(m, ncols)
        assert cols == greedy
        ref_cols, ref_rows = _fraction_rref(rows, reduced)
        assert cols == ref_cols
        assert m[: len(cols)] == [[d * x for x in row] for row in ref_rows]
        assert not any(x for row in m[len(cols) :] for x in row[:reduced])


def _fraction_solve(a_rows, free_cols):
    """Reference solve with Fractions: unique nonnegative solution or None."""
    m = len(a_rows)
    r = len(free_cols)
    mat = [[Fraction(a_rows[i][c]) for c in free_cols] + [Fraction(1)] for i in range(m)]
    row = 0
    pivots = []
    for col in range(r):
        piv = next((i for i in range(row, m) if mat[i][col] != 0), None)
        if piv is None:
            return None  # not unique
        mat[row], mat[piv] = mat[piv], mat[row]
        pv = mat[row][col]
        mat[row] = [x / pv for x in mat[row]]
        for i in range(m):
            if i != row and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[row])]
        pivots.append(col)
        row += 1
    for i in range(row, m):
        if mat[i][r] != 0:
            return None
    xs = [mat[i][r] for i in range(r)]
    if any(x < 0 for x in xs):
        return None
    return xs


def test_solve_for_free_columns_matches_fraction_solve():
    rng = random.Random(31337)
    hp = build_lp_polytope(2)
    rows = [list(r) for r in hp.rows]
    for free in itertools.combinations(range(8), 7):
        got = _kernels.solve_for_free_columns(rows, free)
        expected = _fraction_solve(rows, free)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            den, nums = got
            assert [Fraction(v, den) for v in nums] == expected
    # random rectangular 0/1 systems
    for _ in range(60):
        m = rng.randrange(2, 7)
        nc = rng.randrange(2, 7)
        a = [[rng.randrange(0, 2) for _ in range(nc)] for _ in range(m)]
        r = rng.randrange(1, min(m, nc) + 1)
        free = sorted(rng.sample(range(nc), r))
        got = _kernels.solve_for_free_columns(a, free)
        expected = _fraction_solve(a, free)
        if expected is None:
            assert got is None
        else:
            den, nums = got
            assert [Fraction(v, den) for v in nums] == expected


def test_pure_bfs_on_n2_polytope():
    hp = build_lp_polytope(2)
    sols = _kernels.basic_feasible_solutions(hp.rows, hp.rank)
    assert len(sols) == 2
    for den, nums in sols:
        assert den == 1
        assert sorted(nums) == [0, 0, 0, 0, 1, 1, 1, 1]


def _canonical_point(nc, free, xs):
    """(den, numerators) of a point given by Fractions on its free columns:
    den is the lcm of the denominators, so gcd(den, *numerators) = 1."""
    den = lcm(*(x.denominator for x in xs))
    full = [0] * nc
    for c, x in zip(free, xs):
        full[c] = int(x * den)
    return den, tuple(full)


@pytest.mark.parametrize("limit", [0, 1, 1024])
def test_subset_limit_is_a_lexicographic_prefix(limit):
    # the oracle's resource cap stops after the first `limit` candidate
    # subsets; this column shuffle makes the very first subset solvable and
    # the second not, so an off-by-one in the prefix shows at limit 1
    hp = build_lp_polytope(3)
    perm = list(range(hp.num_vars))
    random.Random(2037).shuffle(perm)
    rows = [[row[c] for c in perm] for row in hp.rows]
    expected = set()
    subsets = itertools.combinations(range(hp.num_vars), hp.rank)
    for free in itertools.islice(subsets, limit):
        res = _kernels.solve_for_free_columns(rows, free)
        if res is not None:
            den, nums = res
            expected.add(_canonical_point(hp.num_vars, free, [Fraction(v, den) for v in nums]))
    got = _kernels.basic_feasible_solutions(rows, hp.rank, subset_limit=limit)
    assert got == sorted(expected)
    assert bool(got) == (limit > 0)


def test_bfs_on_random_systems_matches_fraction_solve():
    rng = random.Random(4242)
    checked = 0
    for _ in range(40):
        m = rng.randrange(2, 8)
        nc = rng.randrange(2, 8)
        a = [[rng.randrange(0, 2) for _ in range(nc)] for _ in range(m)]
        r = _kernels.rank_int(a)
        if r == 0:
            continue
        expected = set()
        for free in itertools.combinations(range(nc), r):
            xs = _fraction_solve(a, free)
            if xs is not None:
                expected.add(_canonical_point(nc, free, xs))
        assert _kernels.basic_feasible_solutions(a, r) == sorted(expected)
        checked += bool(expected)
    assert checked > 10


def test_pure_guard_falls_back_to_bigint(monkeypatch):
    # force the int64 guard to trip so every chunk reruns on Python ints
    hp = build_lp_polytope(2)
    reference = _kernels.basic_feasible_solutions(hp.rows, hp.rank)
    monkeypatch.setattr(_kernels, "_GUARD", 0)
    guarded = _kernels.basic_feasible_solutions(hp.rows, hp.rank)
    assert guarded == reference


def test_solutions_satisfy_system():
    hp = build_lp_polytope(2)
    for den, nums in _kernels.basic_feasible_solutions(hp.rows, hp.rank):
        x = [Fraction(v, den) for v in nums]
        assert all(v >= 0 for v in x)
        for row in hp.rows:
            assert sum(c * v for c, v in zip(row, x)) == 1
