import itertools
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import isqrt, lcm
from pathlib import Path

import numpy as np
import pytest

import stochpoly
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


def solve_for_free_columns(a_rows, free_cols):
    """Solve A[:, F] x = 1 exactly with Python integers, the integer
    reference for the oracle: (den, numerators over F) when the system has a
    unique nonnegative solution, None otherwise. den is the final
    elimination pivot; it may be negative, and then the numerators are
    nonpositive."""
    r = len(free_cols)
    m = [[int(row[c]) for c in free_cols] + [1] for row in a_rows]
    pivots, den = _kernels.reduce(m, r)
    if len(pivots) < r or any(row[r] for row in m[r:]):
        return None
    nums = tuple(row[r] for row in m[:r])
    if any((v > 0) != (den > 0) for v in nums if v != 0):
        return None
    return den, nums


def test_solve_for_free_columns_matches_fraction_solve():
    rng = random.Random(31337)
    hp = build_lp_polytope(2)
    rows = [list(r) for r in hp.rows]
    for free in itertools.combinations(range(8), 7):
        got = solve_for_free_columns(rows, free)
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
        got = solve_for_free_columns(a, free)
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


@pytest.mark.parametrize(
    "limit", [0, 1, _kernels._BATCH - 1, _kernels._BATCH, _kernels._BATCH + 1, 1000, 1024]
)
def test_subset_limit_is_a_lexicographic_prefix(limit):
    # the oracle's resource cap stops after the first `limit` candidate
    # subsets; this column shuffle makes the very first subset solvable and
    # the second not, so an off-by-one in the prefix shows at limit 1, and
    # the limits around _BATCH end just before, on and just after the end of
    # the first chunk
    hp = build_lp_polytope(3)
    perm = list(range(hp.num_vars))
    random.Random(2037).shuffle(perm)
    rows = [[row[c] for c in perm] for row in hp.rows]
    expected = set()
    subsets = itertools.combinations(range(hp.num_vars), hp.rank)
    for free in itertools.islice(subsets, limit):
        res = solve_for_free_columns(rows, free)
        if res is not None:
            den, nums = res
            expected.add(_canonical_point(hp.num_vars, free, [Fraction(v, den) for v in nums]))
    got = _kernels.basic_feasible_solutions(rows, hp.rank, subset_limit=limit)
    assert got == sorted(expected)
    assert bool(got) == (limit > 0)


def _dependent_system(rng):
    """A random 0/1 system with dependent rows: a duplicated row, the sum of
    two rows with disjoint supports (which makes A x = 1 inconsistent, as
    its right-hand side would be 2), or the union v + w - (v and w) of two
    rows together with their intersection (dependent, and consistent when
    the rest is)."""
    nc = rng.randrange(3, 8)
    a = [[rng.randrange(0, 2) for _ in range(nc)] for _ in range(rng.randrange(1, 5))]
    kind = rng.choice(("duplicate", "sum", "union"))
    if kind == "duplicate":
        a.append(list(rng.choice(a)))
    else:
        cols = list(range(nc))
        rng.shuffle(cols)
        k = rng.randrange(1, nc)
        v = [int(c in cols[:k]) for c in range(nc)]
        if kind == "sum":
            w = [int(c in cols[k:]) for c in range(nc)]
            a += [v, w, [x + y for x, y in zip(v, w)]]
        else:
            w = [int(c in cols[k // 2 :]) for c in range(nc)]
            a += [v, w, [x & y for x, y in zip(v, w)], [x | y for x, y in zip(v, w)]]
    rng.shuffle(a)
    return a


def test_bfs_on_random_systems_matches_fraction_solve():
    """The oracle against its definition, the union of the Fraction solves
    over all rank-subsets, on random 0/1 systems and on systems built with
    dependent rows, some of them inconsistent."""
    rng = random.Random(4242)
    systems = []
    for _ in range(40):
        m = rng.randrange(2, 8)
        nc = rng.randrange(2, 8)
        systems.append([[rng.randrange(0, 2) for _ in range(nc)] for _ in range(m)])
    systems += [_dependent_system(rng) for _ in range(120)]
    checked = dependent = inconsistent = 0
    for a in systems:
        r = _kernels.rank_int(a)
        nc = len(a[0])
        expected = set()
        for free in itertools.combinations(range(nc), r):
            xs = _fraction_solve(a, free)
            if xs is not None:
                expected.add(_canonical_point(nc, free, xs))
        assert _kernels.basic_feasible_solutions(a, r) == sorted(expected)
        checked += bool(expected)
        dependent += r < len(a)
        if len(_fraction_rref([row + [1] for row in a], nc + 1)[0]) > r:
            inconsistent += 1
            assert not expected
    assert checked > 10
    assert dependent >= 120
    assert inconsistent >= 10


def _identity(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def _refuse_batches(*args):
    raise AssertionError("_solve_batch ran on an input outside the proven range")


@pytest.mark.parametrize(
    "rows, rank",
    [
        ([[1, 0, 2], [0, 1, 1]], 2),
        ([[1, 0, -1], [0, 1, 1]], 2),
        (_identity(22), 22),
        (_identity(22), np.int64(22)),
    ],
    ids=["entry-2", "entry-minus-1", "rank-22", "numpy-rank-22"],
)
def test_bfs_refuses_inputs_outside_the_int64_range(monkeypatch, rows, rank):
    # the range check comes before any batch is eliminated
    monkeypatch.setattr(_kernels, "_solve_batch", _refuse_batches)
    with pytest.raises(ValueError):
        _kernels.basic_feasible_solutions(rows, rank)


@pytest.mark.parametrize("shift", [-1, 1], ids=["below", "above"])
@pytest.mark.parametrize("system", ["n3", "square-lines"])
def test_bfs_refuses_a_rank_that_is_not_the_rank_of_the_system(monkeypatch, system, shift):
    # a rank below rank(A) would find only degenerate vertices and one above
    # it none; the check comes before any batch is eliminated
    if system == "n3":
        hp = build_lp_polytope(3)
        rows, rank = hp.rows, hp.rank
    else:
        # the row and column sums of a 2 x 2 matrix: rows 0 + 1 = rows 2 + 3
        rows = [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]]
        rank = 3
    assert _kernels.rank_int(rows) == rank
    monkeypatch.setattr(_kernels, "_solve_batch", _refuse_batches)
    with pytest.raises(ValueError, match="rank"):
        _kernels.basic_feasible_solutions(rows, rank + shift)


def test_bfs_accepts_rank_21():
    assert _kernels.basic_feasible_solutions(_identity(21), 21) == [(1, (1,) * 21)]


def test_elimination_entries_stay_in_the_hadamard_bound():
    """Replay the oracle's elimination in Python ints for random 19-subsets
    F of column-permuted n = 3 systems: fraction-free Gauss-Jordan on the
    square system [A_{R,F} | 1] for the row basis R, on the live columns
    only. Every entry is a 0/1 minor of order at most 20, so at most
    floor(21^10.5 / 2^20), every value pk * x - f * y formed before the
    exact division stays below 2^63, and the replay's solutions are the
    ones _solve_batch returns."""
    entry_bound = isqrt(21**21 // 4**20)
    hp = build_lp_polytope(3)
    r = hp.rank
    rng = random.Random(1972)
    biggest = dropped = solved = 0
    for _ in range(10):
        perm = list(range(hp.num_vars))
        rng.shuffle(perm)
        rows = [[row[c] for c in perm] for row in hp.rows]
        basis, _ = _kernels.reduce([list(col) for col in zip(*rows)])
        assert len(basis) == r
        chunk = [tuple(sorted(rng.sample(range(hp.num_vars), r))) for _ in range(20)]
        replayed = []
        for free in chunk:
            m = [[rows[i][c] for c in free] + [1] for i in basis]
            prev = 1
            for col in range(r):
                # the pivot choice of _solve_batch: the first nonzero entry at
                # or below the diagonal, swapped up; a subset without one is
                # singular and leaves the batch
                piv = next((i for i in range(col, r) if m[i][col]), None)
                if piv is None:
                    dropped += 1
                    break
                m[col], m[piv] = m[piv], m[col]
                top, pk = m[col], m[col][col]
                # only the columns right of the pivot are rewritten
                for i, row in enumerate(m):
                    if i != col:
                        f = row[col]
                        pre = [pk * x - f * y for x, y in zip(row[col + 1 :], top[col + 1 :])]
                        assert all(abs(v) < 2**63 and v % prev == 0 for v in pre)
                        row[col + 1 :] = [v // prev for v in pre]
                prev = pk
                largest = max(abs(x) for row in m for x in row[col + 1 :])
                assert largest <= entry_bound
                biggest = max(biggest, largest)
            else:
                nums = tuple(row[r] for row in m)
                if all(v * prev >= 0 for v in nums):
                    replayed.append((free, prev, nums))
        a_basis = np.array([rows[i] for i in basis], dtype=np.int64)
        assert _kernels._solve_batch(a_basis, chunk, r) == replayed
        solved += len(replayed)
    assert biggest > 1 and dropped > 0 and solved > 0


def test_solutions_satisfy_system():
    hp = build_lp_polytope(2)
    rows = hp.rows
    for den, nums in _kernels.basic_feasible_solutions(rows, hp.rank):
        x = [Fraction(v, den) for v in nums]
        assert all(v >= 0 for v in x)
        for row in rows:
            assert sum(c * v for c, v in zip(row, x)) == 1


def test_bfs_range_check_survives_optimize_flag():
    # `python -O` strips assert statements; the range and rank checks must
    # still run
    script = textwrap.dedent(
        """
        import sys
        from stochpoly._kernels import basic_feasible_solutions
        if __debug__:
            sys.exit("not running under -O")
        try:
            basic_feasible_solutions([[1, 0, 2], [0, 1, 1]], 2)
        except ValueError:
            pass
        else:
            sys.exit("an entry of 2 passed the range check")
        try:
            basic_feasible_solutions([[1, 0, 1], [0, 1, 1]], 1)
        except ValueError:
            sys.exit(0)
        sys.exit("rank 1 passed for a system of rank 2")
        """
    )
    src = str(Path(stochpoly.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
