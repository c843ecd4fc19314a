"""Exact elimination kernels: integer rank, the fraction-free pivot step,
and the brute-force vertex oracle.

``pivot`` (one fraction-free Gauss-Jordan step, Bareiss 1968 / Edmonds
1967) and ``reduce`` (a greedy pass over columns) run every exact solve:
``solve_for_free_columns``, the double description initial cone in
``enumeration`` and the integer simplex tableau in ``lp``.

The brute-force vertex oracle solves one exact linear system per candidate
active set: C(n^3, 3n^2-3n+1) systems, about 2.2 million at n = 3. It runs
fraction-free Gauss-Jordan elimination vectorized over batches of subsets
with numpy int64 arithmetic, which is exact on a 0/1 system of rank r <= 21.
Every entry of the elimination is a minor of order at most k = r + 1 of the
0/1 matrix [A_F | 1], and bordering a 0/1 matrix of order k to a +-1 matrix
of order k + 1 and applying Hadamard's inequality bounds such a minor by
M = (k+1)^((k+1)/2) / 2^k (Brenner & Cummings 1972). A step forms
pk * x - f * y from four such entries, at most 2 M^2 in absolute value, and
2 M^2 < 2^63 is 2 (r+2)^(r+2) < 2^63 4^(r+1): true for r <= 21, where M is
7.3 * 10^7 at r = 19 (n = 3). ``basic_feasible_solutions`` checks the 0/1
entries and this inequality once, before the first batch, and refuses any
other input.
"""
from __future__ import annotations

import itertools
import operator
from math import gcd
from typing import Sequence

import numpy as np

# candidate subsets eliminated together in one numpy batch
_BATCH = 8192


def rank_int(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer matrix over the rationals.

    Fraction-free (Bareiss) forward elimination on Python integers: pivots
    divide exactly, nothing overflows, no epsilons anywhere. A row with a 0
    in the pivot column is left as it is when the pivot is +-prev, where
    the update would at most flip its sign: every row then stays +- its
    Bareiss row, so later divisions stay exact and the zero pattern, hence
    the rank, is unchanged.
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
        unit = pk == prev or pk == -prev
        for r in range(rank + 1, nrows):
            mr = m[r]
            f = mr[col]
            if f == 0 and unit:
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


def pivot(m: list[list[int]], r: int, c: int, prev: int) -> int:
    """One fraction-free Gauss-Jordan step on m[r][c], in place: every other
    row becomes (pk * row - row[c] * m[r]) // prev, an exact division, where
    prev is the previous pivot (1 at first). Returns the pivot pk."""
    top = m[r]
    pk = top[c]
    for i, row in enumerate(m):
        if i != r:
            f = row[c]
            m[i] = [(pk * x - f * y) // prev for x, y in zip(row, top)]
    return pk


def reduce(m: list[list[int]], ncols: int | None = None) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan on the first ``ncols`` columns (default
    all), in order: each pivots on its first nonzero entry below the earlier
    pivot rows, swapped up to sit under them; a column with none is skipped.
    Returns the pivot columns and the last pivot d; pivot row k is m[k] and
    equals d times row k of the reduced row echelon form."""
    cols: list[int] = []
    prev = 1
    for c in range(len(m[0]) if ncols is None else ncols):
        k = len(cols)
        piv = next((i for i in range(k, len(m)) if m[i][c] != 0), None)
        if piv is not None:
            m[k], m[piv] = m[piv], m[k]
            prev = pivot(m, k, c, prev)
            cols.append(c)
    return cols, prev


def solve_for_free_columns(
    a_rows: Sequence[Sequence[int]], free_cols: Sequence[int]
) -> tuple[int, tuple[int, ...]] | None:
    """Solve A[:, F] x = 1 exactly with Python integers.

    Returns (den, numerators over F) when the system has a unique nonnegative
    solution, None otherwise. den is the final elimination pivot; it may be
    negative, in which case the numerators are nonpositive.
    """
    r = len(free_cols)
    m = [[int(row[c]) for c in free_cols] + [1] for row in a_rows]
    pivots, den = reduce(m, r)
    if len(pivots) < r or any(row[r] for row in m[r:]):
        return None
    nums = tuple(row[r] for row in m[:r])
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
    numerators/den with den > 0 and gcd(den, *numerators) = 1. Raises
    ValueError unless A is a 0/1 matrix and ``rank`` is at most 21, the
    range in which the int64 elimination is exact (module docstring).
    """
    a = np.asarray(a_rows, dtype=np.int64)
    if not ((a == 0) | (a == 1)).all():
        raise ValueError("the brute-force oracle takes only 0/1 systems")
    rank = operator.index(rank)  # a Python int, so the test below is exact
    if 2 * (rank + 2) ** (rank + 2) >= 2**63 * 4 ** (rank + 1):
        raise ValueError(f"rank {rank} is past the int64 range of the oracle (at most 21)")
    nc = a.shape[1]
    combos = itertools.combinations(range(nc), rank)
    if subset_limit is not None:
        combos = itertools.islice(combos, subset_limit)
    out: set[tuple[int, tuple[int, ...]]] = set()
    while chunk := list(itertools.islice(combos, _BATCH)):
        for free, den, nums in _solve_batch(a, chunk, rank):
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
    restricted system has a unique nonnegative solution."""
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
