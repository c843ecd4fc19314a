"""Property tests: the JSON readers answer any JSON value with a result or a
ValueError, never another exception (which the CLI would show as a
traceback instead of exit code 1); and the exact message of each fault
that the readers and the constructors behind them name."""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochpoly.birkhoff import NotDoublyStochastic, matrix_from_json
from stochpoly.numerics import json_int, parse_rational
from stochpoly.tensor import latin_from_json, tensor_from_json

# json.load also reads NaN and Infinity, so the floats include them
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=12)
    | st.from_regex(r"-?\d{1,40}(/\d{1,40})?", fullmatch=True)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)
small_ints = st.integers(min_value=-1, max_value=4)


def square(leaves, depth):
    """Nested lists of the given depth, mostly near-square, with JSON leaves."""
    shape = leaves
    for _ in range(depth):
        shape = st.lists(shape, min_size=0, max_size=4)
    return shape


def with_field(key, depth):
    near = square(scalars | small_ints, depth)
    return st.fixed_dictionaries({"n": small_ints | json_values, key: near | json_values}) | json_values


settings_ = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _value_or_value_error(fn, obj):
    try:
        fn(obj)
    except ValueError:
        pass


@settings_
@given(with_field("entries", 3))
def test_tensor_from_json_raises_only_value_error(obj):
    _value_or_value_error(tensor_from_json, obj)


@settings_
@given(with_field("rows", 2))
def test_matrix_from_json_raises_only_value_error(obj):
    _value_or_value_error(matrix_from_json, obj)


@settings_
@given(with_field("cells", 2))
def test_latin_from_json_raises_only_value_error(obj):
    _value_or_value_error(latin_from_json, obj)


@settings_
@given(json_values)
def test_parse_rational_raises_only_value_error(obj):
    _value_or_value_error(parse_rational, obj)


@pytest.mark.parametrize("n", [float("inf"), float("-inf"), float("nan"), 1e300, 2.9, True, "1", None])
def test_readers_reject_non_integral_n(n):
    for fn, key in ((tensor_from_json, "entries"), (matrix_from_json, "rows"), (latin_from_json, "cells")):
        with pytest.raises(ValueError):
            fn({"n": n, key: [[["1"]]] if key == "entries" else [["1"]]})


@pytest.mark.parametrize("cell", [1.7, 1.0, True, "1", "0_1", None])
def test_latin_reader_rejects_non_integral_cells(cell):
    assert latin_from_json({"n": 2, "cells": [[1, 2], [2, 1]]}).cells == ((1, 2), (2, 1))
    with pytest.raises(ValueError, match="must be an integer"):
        latin_from_json({"n": 2, "cells": [[cell, 2], [2, 1]]})


_READERS = {"tensor": tensor_from_json, "latin": latin_from_json, "matrix": matrix_from_json}


@pytest.mark.parametrize(
    "reader, obj, message",
    [
        # a missing field, or a document that is not an object
        ("tensor", {"entries": [[["1"]]]}, "tensor JSON needs fields 'n' and 'entries'"),
        ("tensor", [1], "tensor JSON needs fields 'n' and 'entries'"),
        ("latin", {"n": 1}, "latin square JSON needs fields 'n' and 'cells'"),
        ("matrix", {"n": 1}, "matrix JSON needs fields 'n' and 'rows'"),
        ("matrix", "rows", "matrix JSON needs fields 'n' and 'rows'"),
        # a value that is not an array of the reader's depth
        ("tensor", {"n": 2, "entries": 5}, "tensor JSON 'entries' must be an n x n x n array"),
        ("tensor", {"n": 2, "entries": [[1, 2], [3, 4]]}, "tensor JSON 'entries' must be an n x n x n array"),
        ("latin", {"n": 2, "cells": [5]}, "latin square JSON 'cells' must be an n x n array"),
        ("matrix", {"n": 2, "rows": 7}, "matrix JSON 'rows' must be an n x n array"),
        # a declared n the entries do not have
        ("tensor", {"n": 2, "entries": [[["1"]]]}, "declared n=2 but entries are 1^3"),
        ("latin", {"n": 3, "cells": [[1, 2], [2, 1]]}, "declared n=3 but cells are 2x2"),
        ("matrix", {"n": 3, "rows": [["1", "0"], ["0", "1"]]}, "declared n=3 but rows are 2x2"),
        # an entry the reader refuses, and an n that is not an integer
        ("tensor", {"n": 1, "entries": [[["x"]]]}, "not a rational: 'x'"),
        ("latin", {"n": 1, "cells": [[1.5]]}, "a latin square cell must be an integer, got 1.5"),
        ("matrix", {"n": 1, "rows": [["1/0"]]}, "not a rational: '1/0'"),
        ("matrix", {"n": 2.5, "rows": [["1"]]}, "n must be an integer, got 2.5"),
        # a shape the constructor refuses, with the constructor's message
        ("tensor", {"n": 0, "entries": []}, "empty tensor"),
        ("tensor", {"n": 2, "entries": [[["1", "0"], ["0", "1"]], [["0", "1"]]]}, "tensor is not cubical: expected 2 rows"),
        ("tensor", {"n": 2, "entries": [[["1", "0"], ["0"]], []]}, "tensor is not cubical: expected 2 columns"),
        ("latin", {"n": 0, "cells": []}, "empty square"),
        ("latin", {"n": 2, "cells": [[1, 2], [2]]}, "row 2 is not a permutation of 1..2"),
        ("latin", {"n": 2, "cells": [[1, 2], [1, 2]]}, "column 1 is not a permutation of 1..2"),
        ("matrix", {"n": 0, "rows": []}, "empty matrix"),
        ("matrix", {"n": 2, "rows": [["1", "0"], ["1"]]}, "matrix is not square"),
    ],
)
def test_reader_messages(reader, obj, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as exc:
        _READERS[reader](obj)
    assert not isinstance(exc.value, NotDoublyStochastic)


def test_matrix_reader_checks_the_lines_before_the_declared_n():
    # its row and negative-entry messages are pinned through decompose in test_cli
    for n in (2, 3):
        with pytest.raises(NotDoublyStochastic, match=r"^column 1 sums to 2, not 1$"):
            matrix_from_json({"n": n, "rows": [["1", "0"], ["1", "0"]]})


def test_json_int_takes_a_json_integer_only():
    assert json_int(3, "n") == 3
    assert json_int(-(10**50), "n") == -(10**50)
    for value, shown in (("0_1", "'0_1'"), ({"n": 1}, "{'n': 1}"), ([1] * 1000, "[1, 1, 1, 1, 1, 1, ...]")):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(shown)}$"):
            json_int(value, "n")
