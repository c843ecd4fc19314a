import random
from fractions import Fraction

import pytest

from stochpoly.birkhoff import (
    Decomposition,
    DoublyStochasticMatrix,
    NotDoublyStochastic,
    decompose,
    find_positive_matching,
    matrix_from_json,
    matrix_to_json,
)


def identity(n):
    return DoublyStochasticMatrix(
        [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    )


def random_doubly_stochastic(rng, n):
    """Random convex combination of random permutation matrices."""
    terms = rng.randrange(1, n + 3)
    perms = []
    for _ in range(terms):
        p = list(range(n))
        rng.shuffle(p)
        perms.append(p)
    raw = [rng.randrange(1, 10) for _ in perms]
    total = sum(raw)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for weight, perm in zip(raw, perms):
        for i, j in enumerate(perm):
            rows[i][j] += Fraction(weight, total)
    return DoublyStochasticMatrix(rows)


def test_validation():
    with pytest.raises(ValueError):
        DoublyStochasticMatrix([[1, 0], [1, 0]])  # column sums
    with pytest.raises(ValueError):
        DoublyStochasticMatrix([[Fraction(1, 2), Fraction(1, 4)], [Fraction(1, 2), Fraction(3, 4)]])
    with pytest.raises(ValueError):
        DoublyStochasticMatrix([[Fraction(3, 2), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(3, 2)]])
    with pytest.raises(ValueError) as exc:
        DoublyStochasticMatrix([[1, 0]])  # not square
    assert not isinstance(exc.value, NotDoublyStochastic)


P = 2**61 - 1  # a prime
H, E = Fraction(1, 2), Fraction(1, P)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[H, H + E], [H, H]], f"row 1 sums to {P + 1}/{P}, not 1"),
        ([[H, H], [H, H - E]], f"row 2 sums to {P - 1}/{P}, not 1"),
        ([[H + E, H - E], [H, H]], f"column 1 sums to {P + 1}/{P}, not 1"),
        ([[H - E, H + E], [H, H]], f"column 1 sums to {P - 1}/{P}, not 1"),
        ([[H, H], [-E, 1 + E]], "negative entry in row 2"),
        ([[1, 0], [1, 0]], "column 1 sums to 2, not 1"),
        ([[0, 1], [0, 1]], "column 1 sums to 0, not 1"),
    ],
)
def test_validation_messages(rows, message):
    with pytest.raises(NotDoublyStochastic, match=f"^{message}$"):
        DoublyStochasticMatrix(rows)


def test_validation_builds_no_fraction(fractions_built):
    rows = random_doubly_stochastic(random.Random(3), 6).rows
    assert fractions_built(DoublyStochasticMatrix, rows)[1] == 0


def test_identity_decomposes_to_single_term():
    result = decompose(identity(4))
    assert result.terms == ((Fraction(1), (0, 1, 2, 3)),)


def test_uniform_2x2():
    m = DoublyStochasticMatrix([[Fraction(1, 2)] * 2] * 2)
    result = decompose(m)
    assert len(result.terms) == 2
    assert {perm for _, perm in result.terms} == {(0, 1), (1, 0)}
    assert all(w == Fraction(1, 2) for w, _ in result.terms)
    # deterministic: the least-index matching comes first
    assert result.terms[0][1] == (0, 1)


def test_uniform_3x3():
    m = DoublyStochasticMatrix([[Fraction(1, 3)] * 3] * 3)
    result = decompose(m)
    assert len(result.terms) == 3 <= 3**2 - 2 * 3 + 2
    assert all(w == Fraction(1, 3) for w, _ in result.terms)
    covered = {(i, perm[i]) for _, perm in result.terms for i in range(3)}
    assert len(covered) == 9  # the three permutations partition the cells
    assert result.reconstruct() == [list(r) for r in m.rows]


def test_matching_determinism():
    assert find_positive_matching(identity(3).rows) == (0, 1, 2)
    half = [[Fraction(1, 2)] * 2] * 2
    assert find_positive_matching(half) == (0, 1)
    perm_matrix = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    assert find_positive_matching(perm_matrix) == (1, 2, 0)


def test_matching_failure_on_bad_input():
    with pytest.raises(ValueError):
        find_positive_matching([[1, 0], [1, 0]])


def test_random_decompositions_reconstruct_within_bound():
    rng = random.Random(1234)
    for _ in range(40):
        n = rng.randrange(2, 9)
        m = random_doubly_stochastic(rng, n)
        result = decompose(m)
        assert sum(w for w, _ in result.terms) == 1
        assert all(w > 0 for w, _ in result.terms)
        assert len(result.terms) <= n * n - 2 * n + 2
        assert result.reconstruct() == [list(r) for r in m.rows]


def test_decomposition_step_strictly_shrinks_support():
    rng = random.Random(9)
    m = random_doubly_stochastic(rng, 5)
    work = [list(r) for r in m.rows]
    positives = sum(1 for row in work for v in row if v > 0)
    remaining = Fraction(1)
    while remaining > 0:
        perm = find_positive_matching(work)
        w = min(work[i][perm[i]] for i in range(5))
        for i in range(5):
            work[i][perm[i]] -= w
        remaining -= w
        now = sum(1 for row in work for v in row if v > 0)
        assert now < positives
        positives = now


def reference_decompose(m):
    """The greedy loop in Fractions, as ``decompose`` ran it before it moved
    to one integer scale: the terms as (weight, permutation) pairs."""
    work = [list(row) for row in m.rows]
    terms = []
    remaining = Fraction(1)
    while remaining > 0:
        perm = find_positive_matching(work)
        weight = min(work[i][perm[i]] for i in range(m.n))
        for i in range(m.n):
            work[i][perm[i]] -= weight
        terms.append((weight, perm))
        remaining -= weight
    return tuple(terms)


def test_decompose_on_one_integer_scale_matches_the_fraction_loop(fractions_built):
    """Same terms in the same order as the Fraction loop, on matrices of
    mixed denominators for n = 2..8, and one Fraction built per term."""
    rng = random.Random(8)
    for _ in range(60):
        m = random_doubly_stochastic(rng, rng.randrange(2, 9))
        result, built = fractions_built(decompose, m)
        assert result.terms == reference_decompose(m)
        assert result.to_json() == Decomposition(m.n, reference_decompose(m)).to_json()
        assert built == len(result.terms)


def test_matrix_json_round_trip():
    m = DoublyStochasticMatrix([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]])
    obj = matrix_to_json(m)
    assert obj == {"n": 2, "rows": [["1/2", "1/2"], ["1/2", "1/2"]]}
    assert matrix_from_json(obj) == m


def test_matrix_json_rejects_bad_shape():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": []})
    for rows in (7, [1, 2]):
        with pytest.raises(ValueError, match="array"):
            matrix_from_json({"n": 2, "rows": rows})


def test_decomposition_json():
    result = decompose(identity(2))
    assert result.to_json() == [{"weight": "1", "perm": [0, 1]}]
