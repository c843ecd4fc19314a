import copy
import pickle
import random
import re
from fractions import Fraction
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochpoly import _kernels
from stochpoly.enumeration import enumerate_latin_squares
from stochpoly.polytope import VertexCertificate, build_lp_polytope, is_vertex
from stochpoly.tensor import (
    LatinSquare,
    Line,
    LineCheck,
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
    cases = [
        ([], []),
        ([1, 0], [half_vertex]),
        ([Fraction(1, 2)], [half_vertex]),
        ([Fraction(1, 2), Fraction(1, 2)], [half_vertex, uniform_tensor(2)]),
        ([Fraction(3, 2), Fraction(-1, 2)], [half_vertex, half_vertex]),
        (["1/3", 2 * Fraction(1, 3)], [half_vertex, uniform_tensor(3)]),
    ]
    for weights, tensors in cases:
        assert combine_or_message(weights, tensors) == reference_combine(weights, tensors)


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


# --- the Fraction definitions the integer-scale code must agree with --------


def reference_line_check(t):
    """Line-stochasticity by Fraction arithmetic: the first line with a
    negative entry or a sum other than 1."""
    flat = t.flatten()
    for line, cells in lines(t.n):
        values = [flat[c] for c in cells]
        if min(values) < 0 or sum(values) != 1:
            return LineCheck(False, line)
    return LineCheck(True, None)


def reference_combine(weights, tensors):
    """convex_combine by Fraction arithmetic: the flat tuple, or the
    ValueError's message."""
    if len(weights) != len(tensors) or not tensors:
        return "need one weight per tensor, at least one of each"
    ws = [Fraction(w) for w in weights]
    if any(w < 0 for w in ws):
        return "weights must be nonnegative"
    if sum(ws) != 1:
        return "weights must sum to 1"
    if any(t.n != tensors[0].n for t in tensors):
        return "dimension mismatch among tensors"
    return tuple(
        sum((w * v for w, v in zip(ws, values)), Fraction(0))
        for values in zip(*(t.flatten() for t in tensors))
    )


def reference_is_vertex(t):
    supp = [c for c, v in enumerate(t.flatten()) if v != 0]
    check = reference_line_check(t)
    rank = _kernels.rank_int([[row[c] for c in supp] for row in build_lp_polytope(t.n).rows])
    verdict = "infeasible" if not check.ok else "vertex" if rank == len(supp) else "not_vertex"
    return VertexCertificate(t, len(supp), rank, verdict, check.violation)


def combine_or_message(weights, tensors):
    try:
        return convex_combine(weights, tensors).flatten()
    except ValueError as exc:
        return str(exc)


@cache
def latin_tensors(n):
    return [latin_to_tensor(s) for s in enumerate_latin_squares(n)]


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
#: signed rationals over coprime denominators, zero included
rationals = st.builds(Fraction, st.integers(-30, 30), st.sampled_from((1, 6, 10) + PRIMES))
properties = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def random_tensors(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    return Tensor3.from_flat(n, draw(st.lists(rationals, min_size=n**3, max_size=n**3)))


@st.composite
def near_stochastic_tensors(draw):
    """A convex combination of Latin tensors, then up to three edits: a
    2x2x2 move of alternating sign (every line sum kept, entries may turn
    negative), an entry set to any rational, or a line set to zero."""
    n = draw(st.integers(1, 4))
    gens = latin_tensors(n)
    picks = draw(st.lists(st.integers(0, len(gens) - 1), min_size=1, max_size=3))
    raw = draw(st.lists(st.integers(1, 9), min_size=len(picks), max_size=len(picks)))
    flat = list(convex_combine([Fraction(r, sum(raw)) for r in raw], [gens[p] for p in picks]).flatten())
    all_lines = list(lines(n))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("move", "entry", "zero line")))
        if edit == "move" and n >= 2:
            pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
            i, j, k = draw(pair), draw(pair), draw(pair)
            delta = draw(rationals)
            for a, b, c in product((0, 1), repeat=3):
                flat[flatten_index(n, i[a], j[b], k[c])] += delta if (a + b + c) % 2 == 0 else -delta
        elif edit == "entry":
            flat[draw(st.integers(0, n**3 - 1))] = draw(rationals)
        else:
            for c in draw(st.sampled_from(all_lines))[1]:
                flat[c] = Fraction(0)
    return Tensor3.from_flat(n, flat)


@properties
@given(near_stochastic_tensors())
def test_line_check_and_vertex_certificate_match_the_fraction_definition(t):
    assert check_line_stochastic(t) == reference_line_check(t)
    assert is_vertex(t) == reference_is_vertex(t)


@st.composite
def combinations(draw):
    """Tensors of one order with weights that are a convex weight vector,
    or, one time in four, arbitrary rationals."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    entries = st.lists(rationals, min_size=n**3, max_size=n**3)
    tensors = [Tensor3.from_flat(n, draw(entries)) for _ in range(k)]
    if draw(st.integers(0, 3)) == 0:
        return draw(st.lists(rationals, min_size=k, max_size=k)), tensors
    raw = draw(st.lists(rationals.map(abs), min_size=k, max_size=k))
    if not any(raw):
        raw[0] = Fraction(1)
    return [r / sum(raw) for r in raw], tensors


@properties
@given(combinations())
def test_convex_combine_matches_the_fraction_definition(case):
    weights, tensors = case
    assert combine_or_message(weights, tensors) == reference_combine(weights, tensors)


@properties
@given(random_tensors(max_n=4), st.integers(0, 10**40))
def test_tensor_json_round_trip_property(t, scale):
    big = Tensor3.from_flat(t.n, [v * scale for v in t.flatten()])
    for u in (t, big):
        assert tensor_from_json(tensor_to_json(u)) == u


def test_certify_paths_build_no_intermediate_fractions(fractions_built, half_vertex, latin3_tensors):
    """The line check and is_vertex build no Fraction; convex_combine builds
    at most one per entry and one per weight; no Fraction is re-wrapped,
    and a Latin tensor shares one 0 and one 1."""
    perturbed = list(half_vertex.flatten())
    perturbed[5] += Fraction(1, 7)
    points = [half_vertex, uniform_tensor(3), uniform_tensor(5), Tensor3.from_flat(3, perturbed)]
    for t in points:
        assert fractions_built(check_line_stochastic, t) == (reference_line_check(t), 0)
        assert fractions_built(is_vertex, t) == (reference_is_vertex(t), 0)
        assert fractions_built(Tensor3.from_flat, t.n, t.flatten())[1] == 0
        assert fractions_built(Tensor3, t.entries)[1] == 0
        assert fractions_built(tensor_to_json, t)[1] == 0
    weights = [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]
    sources = [half_vertex, *latin3_tensors[:2]]
    combined, built = fractions_built(convex_combine, weights, sources)
    assert combined.flatten() == reference_combine(weights, sources)
    assert built <= 27
    combined, built = fractions_built(convex_combine, [1, 0, "0"], sources)
    assert combined == half_vertex
    assert built <= 27 + 3
    square = LatinSquare([[1, 2, 3, 4], [2, 1, 4, 3], [3, 4, 1, 2], [4, 3, 2, 1]])
    assert fractions_built(latin_to_tensor, square)[1] == 2


def _primes(count):
    found = []
    candidate = 2
    while len(found) < count:
        if all(candidate % p for p in found if p * p <= candidate):
            found.append(candidate)
        candidate += 1
    return found


def test_distinct_prime_denominators_keep_each_line_on_a_small_scale():
    """Order 6: one tensor whose 216 entries have distinct prime
    denominators (a whole-tensor lcm of about 2000 bits), and a
    line-stochastic one, the uniform tensor moved by 125 2x2x2 steps of
    1/(1000 p) for distinct primes p. The checks agree with the Fraction
    definitions on both and on their convex combination."""
    n, primes = 6, _primes(216 + 125)
    near = Tensor3.from_flat(n, [Fraction(p // 6, p) for p in primes[13:229]])
    assert len({v.denominator for v in near.flatten()}) == 216
    flat = [Fraction(1, 6)] * n**3
    for p, (i, j, k) in zip(primes[216:], product(range(n - 1), repeat=3)):
        for a, b, c in product((0, 1), repeat=3):
            sign = 1 if (a + b + c) % 2 == 0 else -1
            flat[flatten_index(n, i + a, j + b, k + c)] += Fraction(sign, 1000 * p)
    moved = Tensor3.from_flat(n, flat)
    assert check_line_stochastic(moved).ok
    weights = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
    combined = convex_combine(weights, [near, moved, uniform_tensor(n)])
    assert combined.flatten() == reference_combine(weights, [near, moved, uniform_tensor(n)])
    for t in (near, moved, combined):
        assert check_line_stochastic(t) == reference_line_check(t)
        assert is_vertex(t) == reference_is_vertex(t)
    assert is_vertex(moved).verdict == "not_vertex"
    assert is_vertex(near).violated == Line(3, (1, 1))
