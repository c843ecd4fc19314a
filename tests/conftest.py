import json
from fractions import Fraction

import pytest

from stochpoly.enumeration import (
    enumerate_latin_squares,
    enumerate_vertices_bruteforce,
    enumerate_vertices_dd,
)
from stochpoly.tensor import (
    LatinSquare,
    Tensor3,
    flatten_index,
    fractional_vertex_example,
    latin_to_tensor,
    tensor_to_json,
    uniform_tensor,
)


@pytest.fixture(scope="session")
def half_vertex():
    """The canonical fractional vertex of the n = 3 polytope."""
    return fractional_vertex_example()


@pytest.fixture(scope="session")
def latin3_tensors():
    """All 12 permutation tensors of dimension 3, generated, not typed in."""
    return [latin_to_tensor(s) for s in enumerate_latin_squares(3)]


@pytest.fixture(scope="session")
def zero_one_not_latin():
    """(0,1) tensors of order 3 that are not line-stochastic, each with the
    start of the error that names what is wrong."""
    cyclic = latin_to_tensor(LatinSquare([[1, 2, 3], [2, 3, 1], [3, 1, 2]]))
    two_symbols = list(cyclic.flatten())
    two_symbols[flatten_index(3, 0, 0, 1)] = 1  # cell (1,1) holds symbols 1 and 2
    column_repeat = [[1, 2, 3], [1, 2, 3], [2, 3, 1]]  # rows are permutations
    return [
        (Tensor3.from_flat(3, [0] * 27), "cell (1,1) holds 0 symbols"),
        (Tensor3.from_flat(3, two_symbols), "cell (1,1) holds 2 symbols"),
        (
            Tensor3([[[int(s == k + 1) for k in range(3)] for s in row] for row in column_repeat]),
            "column 1 is not a permutation",
        ),
    ]


@pytest.fixture(scope="session")
def dd3():
    return enumerate_vertices_dd(3)


@pytest.fixture(scope="session")
def brute3():
    # the expensive one: ~2.2 million candidate active sets
    return enumerate_vertices_bruteforce(3)


@pytest.fixture()
def asset_dir(tmp_path, half_vertex):
    """Directory with the JSON assets the CLI examples use, all generated
    from the library rather than hand-written."""
    files = {
        "half_vertex.json": tensor_to_json(half_vertex),
        "uniform3.json": tensor_to_json(uniform_tensor(3)),
        "zeros.json": {
            "n": 2,
            "entries": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
        },
    }
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    return tmp_path


@pytest.fixture()
def fractions_built():
    """``fractions_built(fn, *args)`` returns ``(fn(*args), k)``, where k is
    the number of ``Fraction`` objects built during the call, arithmetic
    results included (every one of them goes through ``Fraction.__new__``)."""
    original = Fraction.__dict__["__new__"]

    def run(fn, *args):
        built = 0

        def counting(cls, *a, **kw):
            nonlocal built
            built += 1
            return original.__func__(cls, *a, **kw)

        Fraction.__new__ = staticmethod(counting)
        try:
            result = fn(*args)
        finally:
            Fraction.__new__ = original
        return result, built

    return run
