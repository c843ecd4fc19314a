"""Property tests: the JSON readers answer any JSON value with a result or a
ValueError, never another exception (which the CLI would show as a
traceback instead of exit code 1)."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochpoly.birkhoff import matrix_from_json
from stochpoly.numerics import parse_rational
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


@pytest.mark.parametrize("n", [float("inf"), float("-inf"), float("nan"), 1e300, 2.9, True])
def test_readers_reject_non_integral_n(n):
    for fn, key in ((tensor_from_json, "entries"), (matrix_from_json, "rows"), (latin_from_json, "cells")):
        with pytest.raises(ValueError):
            fn({"n": n, key: [[["1"]]] if key == "entries" else [["1"]]})


@pytest.mark.parametrize("cell", [1.7, 1.0, True])
def test_latin_reader_rejects_non_integral_cells(cell):
    assert latin_from_json({"n": 2, "cells": [[1, 2], [2, 1]]}).cells == ((1, 2), (2, 1))
    with pytest.raises(ValueError, match="must be an integer"):
        latin_from_json({"n": 2, "cells": [[cell, 2], [2, 1]]})
