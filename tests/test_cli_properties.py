"""Property test: the CLI answers any argv with one of its exit codes 0..7,
never an exception (which a shell would show as a traceback).

File arguments hold JSON values from the reader properties, valid tensors
and matrices, deeply nested arrays or arbitrary text. The n = 3 brute-force
oracle (minutes) and the listing of the order-5 Latin squares (seconds) are
filtered out; every other drawn command is under its work limit or refused
before any work."""
import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from test_json_properties import json_values, with_field

from stochpoly.birkhoff import DoublyStochasticMatrix, matrix_to_json
from stochpoly.cli import main
from stochpoly.enumeration import enumerate_latin_squares
from stochpoly.tensor import latin_to_tensor, tensor_to_json, uniform_tensor

VALID = [tensor_to_json(uniform_tensor(n)) for n in (1, 2, 3)]
VALID += [tensor_to_json(latin_to_tensor(s)) for s in enumerate_latin_squares(3)[:2]]
VALID += [{"n": 2, "entries": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]}]
VALID += [matrix_to_json(DoublyStochasticMatrix([[Fraction(1, 2)] * 2] * 2))]
VALID += [{"n": 2, "rows": [["1", "0"], ["1", "0"]]}]

file_texts = st.one_of(
    json_values.map(json.dumps),
    with_field("entries", 3).map(json.dumps),
    with_field("rows", 2).map(json.dumps),
    st.sampled_from(VALID).map(json.dumps),
    st.lists(st.sampled_from(VALID), max_size=3).map(json.dumps),
    st.integers(0, 200_000).map(lambda depth: "[" * depth + "]" * depth),
    st.text(max_size=20),
)
FILE = object()  # stands for a file argument; its text comes from file_texts


def _words(*parts):
    """An argv strategy: the word lists drawn from parts, concatenated."""
    return st.tuples(*parts).map(lambda drawn: [word for part in drawn for word in part])


def _flags(*flags):
    """Up to two of the flag lists, repeats and conflicting ones included."""
    return st.lists(st.sampled_from(flags), max_size=2).map(lambda picked: [w for flag in picked for w in flag])


def _n(lo, hi):
    return st.integers(lo, hi).map(lambda n: [str(n)])


commands = st.one_of(
    _words(
        st.just(["bounds"]),
        _n(-2, 10),
        st.just([]) | _n(-1, 10).map(lambda m: ["--sweep", *m]),
        _flags(["--format", "json"], ["--format", "table"]),
    ),
    # the brute-force oracle at n = 3 tries 2.2 million candidate active sets
    _words(
        st.just(["vertices"]), _n(-2, 6), _flags(["--method", "dd"], ["--method", "brute"], ["--method", "both"])
    ).filter(lambda argv: not (argv[1] == "3" and ("brute" in argv or "both" in argv))),
    st.just(["check-vertex", FILE]),
    _words(st.just(["membership", FILE]), st.sampled_from([[], ["--generators", FILE], ["--generators", "latin"]])),
    # listing the 161 280 squares of order 5 takes seconds; its count does not
    _words(st.just(["latin"]), _n(-2, 6), _flags(["--list"], ["--count"])).filter(
        lambda argv: not (argv[1] == "5" and "--list" in argv)
    ),
    st.just(["decompose", FILE]),
    st.lists(st.text(max_size=6), max_size=3),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(commands, st.lists(file_texts, min_size=2, max_size=2))
def test_main_returns_an_exit_code(command, texts):
    with tempfile.TemporaryDirectory() as tmp:
        argv, files = [], iter(texts)
        for word in command:
            if word is FILE:
                word = os.path.join(tmp, f"arg{len(argv)}.json")
                with open(word, "w", encoding="utf-8") as fh:
                    fh.write(next(files))
            argv.append(word)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert isinstance(code, int) and 0 <= code <= 7, (argv, code)
