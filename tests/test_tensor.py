import copy
import pickle
import random
import re
from fractions import Fraction

import pytest

from stochpoly.enumeration import enumerate_latin_squares
from stochpoly.tensor import (
    LatinSquare,
    Line,
    Tensor3,
    check_line_stochastic,
    convex_combine,
    flatten_index,
    is_line_stochastic,
    latin_from_json,
    latin_to_json,
    latin_to_tensor,
    lines,
    support,
    tensor_from_json,
    tensor_to_json,
    tensor_to_latin,
    uniform_tensor,
)


def zero_tensor(n):
    return Tensor3([[[0] * n for _ in range(n)] for _ in range(n)])


def test_half_vertex_is_line_stochastic(half_vertex):
    assert is_line_stochastic(half_vertex)


def test_zero_tensor_reports_first_line():
    check = check_line_stochastic(zero_tensor(2))
    assert not check.ok
    assert check.violation == Line(axis=3, fixed=(1, 1))


def test_uniform_is_line_stochastic():
    assert is_line_stochastic(uniform_tensor(3))


def test_negative_entry_is_violation():
    t = Tensor3(
        [
            [[Fraction(3, 2), Fraction(-1, 2)], [0, 1]],
            [[Fraction(-1, 2), Fraction(3, 2)], [1, 0]],
        ]
    )
    check = check_line_stochastic(t)
    assert not check.ok
    assert check.violation is not None


def test_tensor_must_be_cubical():
    with pytest.raises(ValueError):
        Tensor3([[[1, 0], [0, 1]], [[0, 1]]])


def test_tensor_is_immutable_and_hashable(half_vertex):
    with pytest.raises(AttributeError):
        half_vertex.n = 5
    assert hash(half_vertex) == hash(Tensor3(half_vertex.entries))


def test_from_flat_round_trip(half_vertex, latin3_tensors):
    for t in [half_vertex, *latin3_tensors]:
        again = Tensor3.from_flat(t.n, t.flatten())
        assert again == t
        assert hash(again) == hash(t)
        assert again.entries == t.entries
    for values in ([0] * 26, [0] * 28, []):
        with pytest.raises(ValueError):
            Tensor3.from_flat(3, values)


_ROUND_TRIPS = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", _ROUND_TRIPS)
def test_tensor_and_latin_square_survive_pickle_and_copy(how, half_vertex):
    square = LatinSquare([[1, 2, 3, 4], [2, 1, 4, 3], [3, 4, 1, 2], [4, 3, 2, 1]])
    for value, view in ((half_vertex, "entries"), (uniform_tensor(3), "entries"), (square, "cells")):
        again = _ROUND_TRIPS[how](value)
        assert type(again) is type(value)
        assert again == value
        assert hash(again) == hash(value)
        assert getattr(again, view) == getattr(value, view)


def test_getitem_reads_the_flat_tuple(half_vertex):
    n = half_vertex.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                value = half_vertex[i, j, k]
                assert value == half_vertex.entries[i][j][k]
                assert value == half_vertex.flatten()[flatten_index(n, i, j, k)]
    with pytest.raises(IndexError):
        half_vertex[0, 3, 0]


def test_line_count():
    assert len(list(lines(3))) == 27
    assert len(list(lines(2))) == 12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lines_hold_the_flat_indices_of_their_cells(n):
    rng = range(n)
    per_index = [0] * n**3
    for line, cells in lines(n):
        cells = list(cells)
        assert len(set(cells)) == n
        a, b = (x - 1 for x in line.fixed)  # the fixed indices, 0-based
        expected = {
            3: [flatten_index(n, a, b, v) for v in rng],
            2: [flatten_index(n, a, v, b) for v in rng],
            1: [flatten_index(n, v, a, b) for v in rng],
        }[line.axis]
        assert cells == expected
        for c in cells:
            per_index[c] += 1
    assert per_index == [3] * n**3
    line, cells = next(lines(n))
    assert (line, list(cells)) == (Line(3, (1, 1)), list(range(n)))


def test_latin_square_validation():
    LatinSquare([[1, 2], [2, 1]])
    with pytest.raises(ValueError):
        LatinSquare([[1, 2], [1, 2]])  # bad column
    with pytest.raises(ValueError):
        LatinSquare([[1, 1], [2, 2]])  # bad row
    with pytest.raises(ValueError):
        LatinSquare([[0, 1], [1, 0]])  # values out of range


def test_latin_to_tensor_cyclic_example():
    s = LatinSquare([[1, 2, 3], [2, 3, 1], [3, 1, 2]])
    t = latin_to_tensor(s)
    # frontal layer k (third index) holds 1 where the square's cell is k+1
    layer1 = [[t.entries[i][j][0] for j in range(3)] for i in range(3)]
    assert layer1 == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    layer2 = [[t.entries[i][j][1] for j in range(3)] for i in range(3)]
    assert layer2 == [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    layer3 = [[t.entries[i][j][2] for j in range(3)] for i in range(3)]
    assert layer3 == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert is_line_stochastic(t)
    assert tensor_to_latin(t) == s


def test_latin_to_tensor_small_orders():
    t1 = latin_to_tensor(LatinSquare([[1]]))
    assert t1.entries == ((((Fraction(1),),),))
    t2 = latin_to_tensor(LatinSquare([[1, 2], [2, 1]]))
    ones = {(i, j, k) for (i, j, k) in support(t2)}
    assert ones == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}


def test_round_trip_all_order3_squares():
    squares = enumerate_latin_squares(3)
    assert len(squares) == 12
    for s in squares:
        t = latin_to_tensor(s)
        assert is_line_stochastic(t)
        assert tensor_to_latin(t) == s


def test_round_trip_order4():
    for s in enumerate_latin_squares(4):
        t = latin_to_tensor(s)
        assert is_line_stochastic(t)
        assert tensor_to_latin(t) == s


def test_tensor_to_latin_rejects_fractional(half_vertex):
    with pytest.raises(ValueError, match="is not 0 or 1"):
        tensor_to_latin(half_vertex)


def test_tensor_to_latin_rejects_zero_one_tensors_off_the_polytope(zero_one_not_latin):
    for bad, message in zero_one_not_latin:
        assert not is_line_stochastic(bad)
        with pytest.raises(ValueError, match=re.escape(message)):
            tensor_to_latin(bad)


def test_support(half_vertex):
    assert len(support(half_vertex)) == 17
    assert support(zero_tensor(2)) == frozenset()
    for s in enumerate_latin_squares(3)[:4]:
        assert len(support(latin_to_tensor(s))) == 9


def test_convex_combine_identity(half_vertex):
    assert convex_combine([1], [half_vertex]) == half_vertex


def test_convex_combine_uniform_from_all_squares(latin3_tensors):
    w = [Fraction(1, 12)] * 12
    assert convex_combine(w, latin3_tensors) == uniform_tensor(3)


def test_convex_combine_order2_average():
    ts = [latin_to_tensor(s) for s in enumerate_latin_squares(2)]
    avg = convex_combine([Fraction(1, 2), Fraction(1, 2)], ts)
    assert all(
        avg.entries[i][j][k] == Fraction(1, 2)
        for i in range(2)
        for j in range(2)
        for k in range(2)
    )


def test_convex_combine_preserves_line_stochasticity():
    rng = random.Random(99)
    squares = enumerate_latin_squares(4)
    for _ in range(20):
        picks = rng.sample(squares, 5)
        raw = [rng.randrange(0, 10) for _ in picks]
        while sum(raw) == 0:
            raw = [rng.randrange(0, 10) for _ in picks]
        total = sum(raw)
        weights = [Fraction(r, total) for r in raw]
        combined = convex_combine(weights, [latin_to_tensor(s) for s in picks])
        assert is_line_stochastic(combined)


def test_convex_combine_validation(half_vertex):
    with pytest.raises(ValueError):
        convex_combine([Fraction(1, 2)], [half_vertex])
    with pytest.raises(ValueError):
        convex_combine([Fraction(1, 2), Fraction(1, 2)], [half_vertex, uniform_tensor(2)])
    with pytest.raises(ValueError):
        convex_combine([Fraction(3, 2), Fraction(-1, 2)], [half_vertex, half_vertex])


def test_tensor_json_round_trip(half_vertex):
    obj = tensor_to_json(half_vertex)
    assert obj["n"] == 3
    # entry (3, 2, 3) is the doubled cell, value 1 after halving
    assert obj["entries"][2][1] == ["0", "0", "1"]
    assert tensor_from_json(obj) == half_vertex


def test_tensor_json_rejects_bad_shape():
    with pytest.raises(ValueError):
        tensor_from_json({"n": 2, "entries": [[["1"]]]})
    with pytest.raises(ValueError):
        tensor_from_json({"entries": []})
    for entries in (5, [5], [[1, 2], [3, 4]]):
        with pytest.raises(ValueError, match="array"):
            tensor_from_json({"n": 2, "entries": entries})


def test_latin_json_rejects_bad_shape():
    for cells in (5, [5], [[1, 2], [2]]):
        with pytest.raises(ValueError):
            latin_from_json({"n": 2, "cells": cells})


def test_latin_json_round_trip():
    s = LatinSquare([[1, 2], [2, 1]])
    obj = latin_to_json(s)
    assert obj == {"n": 2, "cells": [[1, 2], [2, 1]]}
    assert latin_from_json(obj) == s
