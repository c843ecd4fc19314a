import itertools
from math import factorial

import pytest

from stochpoly import enumeration, tensor
from stochpoly.enumeration import (
    VERTICES_MAX_N,
    ResourceCapExceeded,
    count_latin_squares,
    enumerate_latin_squares,
    enumerate_vertices_bruteforce,
    enumerate_vertices_dd,
)
from stochpoly.polytope import _boundary_basis, build_lp_polytope, is_vertex
from stochpoly.tensor import Tensor3, latin_to_tensor, support


@pytest.mark.parametrize("n, expected", [(1, 1), (2, 2), (3, 12), (4, 576)])
def test_latin_enumeration_counts(n, expected):
    squares = enumerate_latin_squares(n)
    assert len(squares) == expected
    assert len(set(squares)) == expected  # duplicate-free
    assert count_latin_squares(n) == expected


def test_latin_count_order5():
    assert count_latin_squares(5) == 161280


def test_latin_cap():
    with pytest.raises(ResourceCapExceeded):
        enumerate_latin_squares(6)
    with pytest.raises(ResourceCapExceeded):
        count_latin_squares(6)
    with pytest.raises(ValueError):
        count_latin_squares(0)


def test_latin_enumeration_is_lexicographic():
    squares = enumerate_latin_squares(3)
    cells = [s.cells for s in squares]
    assert cells == sorted(cells)


def test_vertices_n1():
    for vs in (enumerate_vertices_dd(1), enumerate_vertices_bruteforce(1)):
        assert vs.total == 1
        assert vs.vertices[0] == Tensor3([[[1]]])
        assert vs.zero_one == 1


def test_vertices_n2_both_methods():
    expected = sorted(
        (latin_to_tensor(s) for s in enumerate_latin_squares(2)),
        key=lambda t: t.flatten(),
    )
    dd = enumerate_vertices_dd(2)
    brute = enumerate_vertices_bruteforce(2)
    assert list(dd.vertices) == expected
    assert list(brute.vertices) == expected
    assert dd.zero_one == 2 and dd.fractional == 0


def test_dd_insertion_order_does_not_matter(dd3):
    hp = build_lp_polytope(2)
    reference = enumeration._double_description(hp)
    assert reference == {t.flatten() for t in enumerate_vertices_dd(2).vertices}
    indices = list(range(8))
    for order in itertools.islice(itertools.permutations(indices), 0, 24, 5):
        assert enumeration._double_description(hp, list(order)) == reference
    assert enumeration._double_description(hp, indices[::-1]) == reference
    # n = 3 has fractional vertices; pinned orders must match the greedy one
    hp = build_lp_polytope(3)
    indices = list(range(27))
    for order in (indices, indices[::-1]):
        assert enumeration._double_description(hp, order) == {t.flatten() for t in dd3.vertices}


def test_dd_insertion_order_validation():
    with pytest.raises(ValueError):
        enumeration._double_description(build_lp_polytope(2), [0, 1])


def test_cross_method_agreement_n3(dd3, brute3):
    assert dd3.vertices == brute3.vertices
    assert dd3.total == 66  # cross-validated by the independent oracle above
    assert dd3.zero_one == 12
    assert dd3.fractional == 54


def test_vertex_set_members_pass_certification(dd3, latin3_tensors, half_vertex):
    verts = set(dd3.vertices)
    assert half_vertex in verts
    for t in latin3_tensors:
        assert t in verts
    for t in dd3.vertices:
        cert = is_vertex(t)
        assert cert.verdict == "vertex"
        assert 9 <= cert.support_size <= 19  # n^2 .. 3n^2-3n+1


def test_vertex_set_is_canonically_sorted(dd3):
    flats = [t.flatten() for t in dd3.vertices]
    assert flats == sorted(flats)


def test_vertex_set_json(dd3):
    obj = dd3.to_json()
    assert obj["total"] == 66
    assert obj["zero_one"] == 12
    assert obj["fractional"] == 54
    assert len(obj["vertices"]) == 66
    assert obj["vertices"][0]["n"] == 3


def test_brute_force_caps():
    with pytest.raises(ResourceCapExceeded, match=rf"n <= {VERTICES_MAX_N}"):
        enumerate_vertices_bruteforce(4)
    assert VERTICES_MAX_N == 3


def test_dd_cap(monkeypatch):
    def refuse(hp, *args):
        raise AssertionError(f"double description built its rows at n = {hp.n}")

    monkeypatch.setattr(enumeration, "_double_description", refuse)
    for n in (4, 5):
        with pytest.raises(ResourceCapExceeded, match=rf"n <= {VERTICES_MAX_N}"):
            enumerate_vertices_dd(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_dd_at_order_2_finds_the_permutation_matrices(n):
    """Birkhoff's theorem as a closed-form check: double description on the
    order-2 line system returns exactly the n! permutation matrices."""
    hp = _boundary_basis(n, [cells for _, cells in tensor._line_table(n, 2)])
    vertices = enumeration._double_description(hp)
    perms = {tuple(int(p[i] == j) for i in range(n) for j in range(n)) for p in itertools.permutations(range(n))}
    assert (len(vertices), vertices) == (factorial(n), perms)


def test_latin_count_sandwiched_by_vertex_count_and_upper_bound(dd3):
    from stochpoly.bounds import bound_lzz

    f0_2 = enumerate_vertices_dd(2).total
    assert count_latin_squares(2) <= f0_2 <= bound_lzz(2)  # 2 <= 2 <= 2
    assert count_latin_squares(3) <= dd3.total <= bound_lzz(3)  # 12 <= 66 <= 10395


def test_all_zero_one_vertices_are_latin_tensors(dd3):
    zero_one = [
        t
        for t in dd3.vertices
        if all(v in (0, 1) for layer in t.entries for row in layer for v in row)
    ]
    expected = {latin_to_tensor(s) for s in enumerate_latin_squares(3)}
    assert set(zero_one) == expected


def test_fractional_vertices_have_larger_support(dd3):
    # (0,1) vertices sit at the n^2 support floor; fractional ones above it
    for t in dd3.vertices:
        size = len(support(t))
        if all(v in (0, 1) for layer in t.entries for row in layer for v in row):
            assert size == 9
        else:
            assert size > 9
