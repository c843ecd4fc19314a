"""Exact elimination kernels: integer rank, and the brute-force vertex oracle.

The brute-force vertex oracle solves one exact linear system per candidate
active set: C(n^3, 3n^2-3n+1) systems, about 2.2 million at n = 3. It runs
fraction-free Gauss-Jordan elimination vectorized over batches of subsets
with numpy int64 arithmetic. Intermediate entries of the elimination are
minors of a 0/1 system augmented with a 0/1 right-hand side, so they are
bounded far below 2^30 (the worst 20x20 0/1 determinant is under 10^8); the
guard below still checks the bound on every step and raises OverflowError
rather than silently wrapping, in which case the affected batch is redone
with unbounded Python integers.
"""
from __future__ import annotations

import itertools
from math import gcd
from typing import Sequence

import numpy as np

# entries above this make the next step's products unsafe for int64
_GUARD = 1 << 30

# candidate subsets eliminated together in one numpy batch
_BATCH = 8192


def rank_int(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer matrix over the rationals.

    Fraction-free (Bareiss) forward elimination on Python integers: pivots
    divide exactly, nothing overflows, no epsilons anywhere.
    """
    m = [list(map(int, row)) for row in rows]
    nrows = len(m)
    if nrows == 0 or not m[0]:
        return 0
    ncols = len(m[0])
    prev = 1
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pk = m[rank][col]
        for r in range(rank + 1, nrows):
            mr = m[r]
            f = mr[col]
            if f == 0 and pk == prev:
                continue
            top = m[rank]
            for c in range(col + 1, ncols):
                mr[c] = (pk * mr[c] - f * top[c]) // prev
            mr[col] = 0
        prev = pk
        rank += 1
        if rank == nrows:
            break
    return rank


def solve_for_free_columns(
    a_rows: Sequence[Sequence[int]], free_cols: Sequence[int]
) -> tuple[int, tuple[int, ...]] | None:
    """Solve A[:, F] x = 1 exactly with Python integers.

    Returns (den, numerators over F) when the system has a unique nonnegative
    solution, None otherwise. den is the final elimination pivot; it may be
    negative, in which case the numerators are nonpositive.
    """
    m = [[int(row[c]) for c in free_cols] + [1] for row in a_rows]
    nrows = len(m)
    r = len(free_cols)
    prev = 1
    for col in range(r):
        piv = None
        for i in range(col, nrows):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        pk = m[col][col]
        top = m[col]
        for i in range(nrows):
            if i == col:
                continue
            mi = m[i]
            f = mi[col]
            for c in range(col + 1, r + 1):
                mi[c] = (pk * mi[c] - f * top[c]) // prev
            mi[col] = 0
        prev = pk
    for i in range(r, nrows):
        if m[i][r] != 0:
            return None
    den = prev
    nums = tuple(m[i][r] for i in range(r))
    if any((v > 0) != (den > 0) for v in nums if v != 0):
        return None
    return den, nums


def basic_feasible_solutions(
    a_rows: Sequence[Sequence[int]],
    rank: int,
    subset_limit: int | None = None,
) -> list[tuple[int, tuple[int, ...]]]:
    """All basic feasible solutions of {A x = 1, x >= 0}, deduplicated.

    Tries the size-``rank`` free-column subsets in lexicographic order; a
    subset contributes when the restricted system has a unique nonnegative
    solution, all other coordinates being zero. ``subset_limit`` stops after
    that many candidate subsets (resource cap support).

    Returns a sorted list of (den, numerators) pairs: the solution vector is
    numerators/den with den > 0 and gcd(den, *numerators) = 1.
    """
    a = np.asarray(a_rows, dtype=np.int64)
    nc = a.shape[1]
    combos = itertools.combinations(range(nc), rank)
    if subset_limit is not None:
        combos = itertools.islice(combos, subset_limit)
    out: set[tuple[int, tuple[int, ...]]] = set()
    while chunk := list(itertools.islice(combos, _BATCH)):
        try:
            solved = _solve_batch(a, chunk, rank)
        except OverflowError:
            solved = []
            for free in chunk:
                res = solve_for_free_columns(a_rows, free)
                if res is not None:
                    solved.append((free, *res))
        for free, den, nums in solved:
            out.add(_canonical(nc, free, den, nums))
    return sorted(out)


def _canonical(
    nc: int, free_cols: Sequence[int], den: int, nums: Sequence[int]
) -> tuple[int, tuple[int, ...]]:
    """Normalize a basic solution to a full-length vector with positive
    denominator in lowest terms, so equal points compare equal."""
    g = abs(den)
    for v in nums:
        g = gcd(g, v)
    if den < 0:
        g = -g
    full = [0] * nc
    for idx, c in enumerate(free_cols):
        full[c] = nums[idx] // g
    return den // g, tuple(full)


def _solve_batch(
    a: np.ndarray, chunk: list, r: int
) -> list[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """(free_cols, den, numerators) for every subset in ``chunk`` whose
    restricted system has a unique nonnegative solution. Raises
    OverflowError if an elimination entry passes _GUARD."""
    m = a.shape[0]
    nb = len(chunk)
    fsel = np.array(chunk, dtype=np.int64)
    mat = np.empty((nb, m, r + 1), dtype=np.int64)
    mat[:, :, :r] = a[:, fsel].transpose(1, 0, 2)
    mat[:, :, r] = 1
    alive = np.ones(nb, dtype=bool)
    prev = np.ones(nb, dtype=np.int64)
    rows = np.arange(nb)
    for col in range(r):
        nz = mat[:, col:, col] != 0
        has = nz.any(axis=1)
        died = alive & ~has
        if died.any():
            mat[died] = 0
        alive &= has
        piv = col + np.argmax(nz, axis=1)
        piv[~alive] = col
        tmp = mat[rows, piv, :].copy()
        mat[rows, piv, :] = mat[rows, col, :]
        mat[rows, col, :] = tmp
        pk = mat[:, col, col].copy()
        pk[~alive] = 1
        top = mat[:, col, :].copy()
        mult = mat[:, :, col].copy()
        mat *= pk[:, None, None]
        mat -= mult[:, :, None] * top[:, None, :]
        mat //= prev[:, None, None]
        mat[:, col, :] = top
        prev = pk
        if np.abs(mat).max(initial=0) > _GUARD:
            raise OverflowError("elimination entries exceeded the int64 safety bound")
    if m > r:
        consistent = (mat[:, r:, r] == 0).all(axis=1)
    else:
        consistent = np.ones(nb, dtype=bool)
    den = prev
    nums = mat[:, :r, r]
    feasible = np.where(den[:, None] > 0, nums >= 0, nums <= 0).all(axis=1)
    good = alive & consistent & feasible
    return [
        (chunk[b], int(den[b]), tuple(int(v) for v in nums[b]))
        for b in np.nonzero(good)[0]
    ]
