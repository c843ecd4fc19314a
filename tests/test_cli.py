import ast
import hashlib
import json
import pathlib
from fractions import Fraction

import pytest

import stochpoly
from stochpoly import cli, enumeration, lp
from stochpoly.birkhoff import DoublyStochasticMatrix, NotDoublyStochastic, matrix_to_json
from stochpoly.bounds import bound_cpz, bound_lower, bound_lzz, bound_zz_half, bound_zz_opt
from stochpoly.cli import main
from stochpoly.enumeration import (
    BOUNDS_MAX_N,
    CHECK_VERTEX_MAX_N,
    DECOMPOSE_MAX_N,
    HULL_LATIN_MAX_N,
    MEMBERSHIP_MAX_CELLS,
    VERTICES_MAX_N,
    ResourceCapExceeded,
    enumerate_latin_squares,
)
from stochpoly.numerics import parse_rational
from stochpoly.tensor import latin_to_tensor, tensor_from_json, tensor_to_json, uniform_tensor


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_table(capsys):
    code, out, _ = run(capsys, "bounds", "2")
    assert code == 0
    for value in ("21318", "162", "6435"):
        assert value in out
    assert "order:" in out


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lzz"] == "2"
    assert payload["zz_opt"] == "162"
    assert payload["checks"]["zz_opt_lt_zz_half"] is True


def test_bounds_degenerate_n1(capsys):
    code, out, _ = run(capsys, "bounds", "1")
    assert code == 0
    assert "n = 1" in out


def test_bounds_sweep(capsys):
    code, out, _ = run(capsys, "bounds", "3", "--sweep", "12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [r["n"] for r in payload] == list(range(2, 13))
    assert all(all(r["checks"].values()) for r in payload)


def _bound_values(n):
    return {
        "lower_latin": bound_lower(n),
        "cpz": bound_cpz(n),
        "lzz": bound_lzz(n),
        "zz_opt": bound_zz_opt(n),
        "zz_half": bound_zz_half(n),
    }


@pytest.mark.parametrize("n", [26, 50])
def test_bounds_past_int_str_digit_limit(capsys, n):
    # from n = 26 the bound values have more digits than str(int) allows
    expected = _bound_values(n)
    code, out, _ = run(capsys, "bounds", str(n), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    for name, value in expected.items():
        assert parse_rational(payload[name]) == value
    assert max(len(part) for name in expected for part in payload[name].split("/")) > 4300

    code, out, _ = run(capsys, "bounds", str(n))
    assert code == 0
    table = dict(line.split() for line in out.splitlines()[1:6])
    assert {name: parse_rational(text) for name, text in table.items()} == expected


def test_vertices_both_n2(capsys):
    code, out, _ = run(capsys, "vertices", "2", "--method", "both")
    assert code == 0
    payload = json.loads(out)
    assert (payload["total"], payload["zero_one"], payload["fractional"]) == (2, 2, 0)


def test_vertices_n1(capsys):
    code, out, _ = run(capsys, "vertices", "1")
    assert code == 0
    assert json.loads(out)["total"] == 1


def test_vertices_dd_n3(capsys):
    code, out, _ = run(capsys, "vertices", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 66
    assert payload["zero_one"] == 12


def test_vertices_cap(capsys, monkeypatch):
    """Every method refuses n = 4, 5 and 6 with exit 3 before the line
    system is built: empty stdout and no warning."""

    def refuse(n):
        raise AssertionError(f"the line system of dimension {n} was built")

    monkeypatch.setattr(enumeration, "build_lp_polytope", refuse)
    for n in (4, 5, 6):
        for method in ("dd", "brute", "both"):
            code, out, err = run(capsys, "vertices", str(n), "--method", method)
            assert (code, out) == (3, ""), (n, method)
            assert err.startswith("error: ") and f"n <= {VERTICES_MAX_N}" in err
            assert "cap" in err.lower() or "exceed" in err.lower()
            assert "warning" not in err


@pytest.mark.parametrize(
    "n, digest",
    [
        (1, "ddf101333aca9f5339e78277decb7ca433e276a0b48e3d66351e5967d4fada84"),
        (2, "07f99be68200d13fa5e13fa89bce4bb9304706acfd9c08280576008c2e20a3da"),
        (3, "a6f699c1b2f28af6edf8904b16d4012a82aec503ab2e2aae451c55ea1e7c83f9"),
    ],
)
def test_vertices_output_is_pinned(capsys, n, digest):
    code, out, _ = run(capsys, "vertices", str(n))
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


def test_vertices_deterministic_output(capsys):
    _, out1, _ = run(capsys, "vertices", "2")
    _, out2, _ = run(capsys, "vertices", "2")
    assert out1 == out2


def test_check_vertex_exit_codes(capsys, asset_dir):
    code, out, _ = run(capsys, "check-vertex", str(asset_dir / "half_vertex.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload == {"verdict": "vertex", "support_size": 17, "rank": 17}

    code, out, _ = run(capsys, "check-vertex", str(asset_dir / "uniform3.json"))
    assert code == 4
    assert json.loads(out)["verdict"] == "not_vertex"

    code, out, _ = run(capsys, "check-vertex", str(asset_dir / "zeros.json"))
    assert code == 5
    payload = json.loads(out)
    assert payload["verdict"] == "infeasible"
    assert payload["violated"] == {"axis": 3, "fixed": [1, 1]}


def test_check_vertex_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "check-vertex", str(bad))
    assert code == 1
    assert "error" in err


def test_membership_half_vertex(capsys, asset_dir):
    code, out, _ = run(capsys, "membership", str(asset_dir / "half_vertex.json"))
    assert code == 6
    payload = json.loads(out)
    assert payload["status"] == "infeasible"
    assert len(payload["certificate"]) == 28


def test_membership_uniform(capsys, asset_dir):
    code, out, _ = run(capsys, "membership", str(asset_dir / "uniform3.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "feasible"
    weights = [Fraction(w) for w in payload["witness"]]
    assert sum(weights) == 1


def test_membership_single_generator_file(capsys, tmp_path):
    perm = latin_to_tensor(enumerate_latin_squares(3)[0])
    target = tmp_path / "perm.json"
    target.write_text(json.dumps(tensor_to_json(perm)))
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([tensor_to_json(perm)]))
    code, out, _ = run(capsys, "membership", str(target), "--generators", str(gens))
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"] == ["1"]


def test_latin_count_and_list(capsys):
    code, out, _ = run(capsys, "latin", "3")
    assert code == 0
    assert out.strip() == "12"

    code, out, _ = run(capsys, "latin", "1", "--list")
    assert code == 0
    assert json.loads(out) == [{"n": 1, "cells": [[1]]}]

    code, out, _ = run(capsys, "latin", "5", "--count")
    assert code == 0
    assert out.strip() == "161280"


def test_latin_cap(capsys):
    code, _, err = run(capsys, "latin", "6")
    assert code == 3
    assert "cap" in err.lower()


def test_decompose(capsys, tmp_path):
    ident = tmp_path / "identity.json"
    ident.write_text(
        json.dumps(matrix_to_json(DoublyStochasticMatrix([[1, 0], [0, 1]])))
    )
    code, out, _ = run(capsys, "decompose", str(ident))
    assert code == 0
    payload = json.loads(out)
    assert payload["term_count"] == 1
    assert payload["term_bound"] == 2

    uniform2 = tmp_path / "uniform2.json"
    uniform2.write_text(
        json.dumps(
            matrix_to_json(DoublyStochasticMatrix([[Fraction(1, 2)] * 2] * 2))
        )
    )
    code, out, _ = run(capsys, "decompose", str(uniform2))
    assert code == 0
    assert json.loads(out)["term_count"] == 2


def test_decompose_random_reconstructs(capsys, tmp_path):
    import random

    from stochpoly.birkhoff import matrix_from_json

    rng = random.Random(11)
    n = 4
    perms = []
    for _ in range(5):
        p = list(range(n))
        rng.shuffle(p)
        perms.append(p)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for p in perms:
        for i, j in enumerate(p):
            rows[i][j] += Fraction(1, 5)
    m = DoublyStochasticMatrix(rows)
    path = tmp_path / "random.json"
    path.write_text(json.dumps(matrix_to_json(m)))
    code, out, _ = run(capsys, "decompose", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["term_count"] <= n * n - 2 * n + 2
    total = [[Fraction(0)] * n for _ in range(n)]
    for term in payload["terms"]:
        w = Fraction(term["weight"])
        for i, j in enumerate(term["perm"]):
            total[i][j] += w
    assert total == [list(r) for r in m.rows]


def test_decompose_rejects_non_doubly_stochastic(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "rows": [["1", "0"], ["1", "0"]]}))
    code, _, err = run(capsys, "decompose", str(bad))
    assert code == 7
    assert "sums to" in err


@pytest.mark.parametrize(
    "rows, code, message",
    [
        ([["1/2", "1/4"], ["1/2", "3/4"]], 7, "row 1 sums to 3/4, not 1"),
        ([["-1", "2"], ["2", "-1"]], 7, "negative entry in row 1"),
        # unreadable entries whose text reads like an exit-7 message
        ([["negative entry", "1"], ["1", "0"]], 1, "not a rational: 'negative entry'"),
        ([["sums to", "1"], ["1", "0"]], 1, "not a rational: 'sums to'"),
        # a row too short: refused on the shape before any line is summed
        ([["2", "-1"], ["1"]], 1, "matrix is not square"),
    ],
)
def test_decompose_exit_code_follows_the_error_not_its_text(capsys, tmp_path, rows, code, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "rows": rows}))
    assert run(capsys, "decompose", str(path)) == (code, "", f"error: {message}\n")


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "bounds")[0] == 1  # missing n
    assert run(capsys, "unknown-command")[0] == 1
    assert run(capsys, "vertices", "2", "--method", "quantum")[0] == 1
    for argv in (
        ("bounds", "0"),
        ("bounds", "x"),
        ("vertices", "0"),
        ("vertices", "-2", "--method", "brute"),
        ("latin", "0"),
        ("bounds", "3", "--sweep", "0"),
        ("bounds", "3", "--sweep", "-5", "--format", "json"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert "Traceback" not in err


def test_bounds_cap_is_checked_before_work(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError(f"verify_chain({n}) ran past the cap")

    monkeypatch.setattr(cli, "verify_chain", refuse)
    too_big = str(BOUNDS_MAX_N + 1)
    for argv in (("bounds", too_big), ("bounds", "2", "--sweep", too_big)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert f"n <= {BOUNDS_MAX_N}" in err
    assert BOUNDS_MAX_N >= 50


def test_membership_latin_cap_is_checked_before_work(capsys, monkeypatch, tmp_path):
    def refuse(n):
        raise AssertionError(f"enumerate_latin_squares({n}) ran past the cap")

    monkeypatch.setattr(cli, "enumerate_latin_squares", refuse)
    path = tmp_path / "uniform5.json"
    path.write_text(json.dumps(tensor_to_json(uniform_tensor(HULL_LATIN_MAX_N + 1))))
    code, out, err = run(capsys, "membership", str(path))
    assert (code, out) == (3, "")
    assert f"n <= {HULL_LATIN_MAX_N}" in err
    assert HULL_LATIN_MAX_N == 4


def test_membership_generator_file_cap_is_checked_before_work(capsys, monkeypatch, tmp_path):
    def refuse(problem):
        raise AssertionError("the membership LP ran past the cap")

    monkeypatch.setattr(lp, "solve_feasibility", refuse)
    perm = latin_to_tensor(enumerate_latin_squares(3)[0])
    target = tmp_path / "perm.json"
    target.write_text(json.dumps(tensor_to_json(perm)))
    gens = tmp_path / "gens.json"
    # entries that do not parse: the cap has to refuse before they are read
    gens.write_text(json.dumps([tensor_to_json(perm), "not a tensor", {"n": 2.5}]))
    # the phase-1 tableau: m = 3^3 + 1 LP rows plus the objective, by the
    # 3 generator columns, m artificials and the right-hand side
    m = 3**3 + 1
    cells = (m + 1) * (3 + m + 1)
    monkeypatch.setattr(cli, "MEMBERSHIP_MAX_CELLS", cells - 1)
    code, out, err = run(capsys, "membership", str(target), "--generators", str(gens))
    assert (code, out) == (3, "")
    assert f"{cells} cells exceeds the cap of {cells - 1}" in err
    monkeypatch.setattr(cli, "MEMBERSHIP_MAX_CELLS", cells)
    code, out, _ = run(capsys, "membership", str(target), "--generators", str(gens))
    assert (code, out) == (1, "")
    # n = 16 with one generator, which does not parse: 4 098 x 4 099 tableau
    # entries are over the limit
    monkeypatch.setattr(cli, "MEMBERSHIP_MAX_CELLS", MEMBERSHIP_MAX_CELLS)
    big = tmp_path / "uniform16.json"
    big.write_text(json.dumps(tensor_to_json(uniform_tensor(16))))
    gens.write_text(json.dumps(["not a tensor"]))
    code, out, err = run(capsys, "membership", str(big), "--generators", str(gens))
    assert (code, out) == (3, "")
    assert f"{4098 * 4099} cells exceeds the cap of {MEMBERSHIP_MAX_CELLS}" in err
    assert MEMBERSHIP_MAX_CELLS == 4_000_000


def test_check_vertex_cap_is_checked_before_work(capsys, monkeypatch, tmp_path, half_vertex):
    target = tmp_path / "half.json"
    target.write_text(json.dumps(tensor_to_json(half_vertex)))
    assert run(capsys, "check-vertex", str(target))[0] == 0

    def refuse(t):
        raise AssertionError(f"is_vertex ran at n = {t.n}")

    monkeypatch.setattr(cli, "is_vertex", refuse)
    big = tmp_path / "uniform16.json"
    big.write_text(json.dumps(tensor_to_json(uniform_tensor(CHECK_VERTEX_MAX_N))))
    with pytest.raises(AssertionError, match="is_vertex ran at n = 16"):
        run(capsys, "check-vertex", str(big))
    big = tmp_path / "uniform17.json"
    big.write_text(json.dumps(tensor_to_json(uniform_tensor(CHECK_VERTEX_MAX_N + 1))))
    code, out, err = run(capsys, "check-vertex", str(big))
    assert (code, out) == (3, "")
    assert f"n <= {CHECK_VERTEX_MAX_N}" in err
    assert CHECK_VERTEX_MAX_N == 16


def test_decompose_cap_is_checked_before_work(capsys, monkeypatch, tmp_path):
    def refuse(matrix):
        raise AssertionError(f"decompose ran at n = {matrix.n}")

    monkeypatch.setattr(cli, "decompose", refuse)
    path = tmp_path / "uniform.json"
    n = DECOMPOSE_MAX_N
    path.write_text(json.dumps({"n": n, "rows": [[f"1/{n}"] * n] * n}))
    with pytest.raises(AssertionError, match=f"decompose ran at n = {n}"):
        run(capsys, "decompose", str(path))
    n = DECOMPOSE_MAX_N + 1
    path.write_text(json.dumps({"n": n, "rows": [[f"1/{n}"] * n] * n}))
    code, out, err = run(capsys, "decompose", str(path))
    assert (code, out) == (3, "")
    assert f"n <= {DECOMPOSE_MAX_N}" in err
    assert DECOMPOSE_MAX_N == 64


def test_caps_refuse_before_any_entry_is_parsed(capsys, tmp_path, fractions_built):
    """A declared n or a top-level array over a command's cap exits 3 before
    any entry is read, so no Fraction is built, even where the entries would
    have been refused with another exit code."""
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps(["not a tensor"]))

    def cube(n, value):
        return [[[value] * n] * n] * n

    cases = [
        (["check-vertex"], {"n": CHECK_VERTEX_MAX_N + 1, "entries": cube(CHECK_VERTEX_MAX_N + 1, "0")}),
        (["check-vertex"], {"n": CHECK_VERTEX_MAX_N + 1, "entries": cube(1, "1")}),
        (["check-vertex"], {"n": 1, "entries": cube(1, "1") * (CHECK_VERTEX_MAX_N + 1)}),
        # all zero: its reader would refuse it with exit 7, row 1 sums to 0
        (["decompose"], {"n": DECOMPOSE_MAX_N + 1, "rows": [["0"] * (DECOMPOSE_MAX_N + 1)] * (DECOMPOSE_MAX_N + 1)}),
        (["decompose"], {"n": DECOMPOSE_MAX_N + 1, "rows": "not an array"}),
        (["membership"], {"n": HULL_LATIN_MAX_N + 1, "entries": cube(HULL_LATIN_MAX_N + 1, "x")}),
        (["membership", "--generators", str(gens)], {"n": 16, "entries": cube(16, "0")}),
    ]
    for argv, obj in cases:
        path = tmp_path / "big.json"
        path.write_text(json.dumps(obj))
        (code, out, _), built = fractions_built(run, capsys, argv[0], str(path), *argv[1:])
        assert (code, out, built) == (3, "", 0), argv


def test_no_module_reads_the_environment():
    """Every work limit is a module constant: no module of the package reads
    an environment variable."""
    names = {"environ", "environb", "getenv", "getenvb"}
    package = pathlib.Path(stochpoly.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                assert node.attr not in names, f"{path.name}:{node.lineno} reads os.{node.attr}"
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                read = names & {alias.name for alias in node.names}
                assert not read, f"{path.name}:{node.lineno} imports {read} from os"


def test_oversized_exponent_exits_1(capsys, tmp_path):
    tensor = tensor_to_json(uniform_tensor(2))
    tensor["entries"][0][0][0] = "1e10000000"
    cases = [
        ("check-vertex", tensor),
        ("membership", tensor),
        ("decompose", {"n": 2, "rows": [["1e10000000", "0"], ["0", "1"]]}),
    ]
    for command, obj in cases:
        path = tmp_path / "big.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (1, ""), command
        assert "exponent" in err


def test_malformed_json_shapes_exit_1(capsys, tmp_path):
    cases = [
        ("check-vertex", {"n": 2, "entries": 5}),
        ("check-vertex", {"n": 2, "entries": [[1, 2], [3, 4]]}),
        ("membership", {"n": 2, "entries": [5]}),
        ("decompose", {"n": 2, "rows": 7}),
        ("decompose", {"n": 2, "rows": [1, 2]}),
    ]
    for command, obj in cases:
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (1, ""), (command, obj)
        assert "must be an n x n" in err


def test_json_outputs_are_byte_identical(capsys, asset_dir):
    _, out1, _ = run(capsys, "membership", str(asset_dir / "uniform3.json"))
    _, out2, _ = run(capsys, "membership", str(asset_dir / "uniform3.json"))
    assert out1 == out2
    _, b1, _ = run(capsys, "bounds", "4", "--format", "json")
    _, b2, _ = run(capsys, "bounds", "4", "--format", "json")
    assert b1 == b2


def test_deeply_nested_json_exits_1(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    target = tmp_path / "uniform2.json"
    target.write_text(json.dumps(tensor_to_json(uniform_tensor(2))))
    for argv in (
        ("check-vertex", str(deep)),
        ("decompose", str(deep)),
        ("membership", str(target), "--generators", str(deep)),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert "recursion" in err and "Traceback" not in err


def _pinned_inputs():
    """The input files of ``test_command_line_is_pinned``, beside the ones of
    ``asset_dir``."""
    perm3 = tensor_to_json(latin_to_tensor(enumerate_latin_squares(3)[0]))
    return {
        "perm3.json": perm3,
        "perm3_list.json": [perm3],
        "uniform3_list.json": [tensor_to_json(uniform_tensor(3))],
        "uniform2.json": tensor_to_json(uniform_tensor(2)),
        "uniform5.json": tensor_to_json(uniform_tensor(5)),
        "uniform16.json": tensor_to_json(uniform_tensor(16)),
        "bad_shape.json": {"n": 2, "entries": 5},
        "declared17.json": {"n": 17, "entries": [[["1"]]]},
        "half2.json": {"n": 2, "rows": [["1/2", "1/2"], ["1/2", "1/2"]]},
        "short_row.json": {"n": 2, "rows": [["2", "-1"], ["1"]]},
        "declared65.json": {"n": 65, "rows": [["1"]]},
        "row_sums.json": {"n": 2, "rows": [["1", "0"], ["1", "0"]]},
    }


_E = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # sha256 of no output


@pytest.mark.parametrize(
    "argv, code, digest, err",
    [
        (("bounds", "1"), 0, "257cce1087ad9926b9f97a8ecd63482afd9f2f2437378ea07f3dd3a966e40b7f", ""),
        (("bounds", "1", "--format", "json"), 0, "f290bd815d7f2d369d51c386237ad617bbc3a0e3d90d4baee8fffd97aca53bae", ""),
        (("bounds", "2"), 0, "d8bdce67877d45faae193df5990a3fca25120c3c31066e59e5288b46577195c5", ""),
        (("bounds", "2", "--sweep", "4"), 0, "61566556c0cb205f4b1cf7989eeb66994a38e80631e6050bd130192c80079c7e", ""),
        (("bounds", "2", "--sweep", "4", "--format", "json"), 0, "78ee4da241c693f6076157879461efb8d37bb17d4ad1acca9f5fba5be3d8ff01", ""),
        (("bounds", "2", "--sweep", "1"), 1, _E, "error: --sweep MAX_N must be >= 2\n"),
        (("bounds", "0"), 1, _E, "error: n must be >= 1\n"),
        (("bounds", "65"), 3, _E, "error: bounds are capped at n <= 64\n"),
        (("vertices", "2", "--method", "both"), 0, "07f99be68200d13fa5e13fa89bce4bb9304706acfd9c08280576008c2e20a3da", ""),
        (("vertices", "4"), 3, _E, "error: double description capped at n <= 3\n"),
        (("check-vertex", "half_vertex.json"), 0, "ae981e1ea43aa9075e2998b52eff6c5b6cb48f0daf7cabbedb348059c1c3fbb5", ""),
        (("check-vertex", "bad_shape.json"), 1, _E, "error: tensor JSON 'entries' must be an n x n x n array\n"),
        (("check-vertex", "declared17.json"), 3, _E, "error: check-vertex is capped at n <= 16\n"),
        (("check-vertex", "uniform3.json"), 4, "54246d371bb4206c5696f02b30d6dddf45797c19aae616cf12c051ae2f06f009", ""),
        (("check-vertex", "zeros.json"), 5, "e1a90c00bdb60846609d738a007878273ed7d0b1afe3a553669cf0dedb887697", ""),
        (("membership", "uniform3.json"), 0, "98c0b77ade7ad89a6156f9de415a935a5941a570656cfe7084694699412fdfa5", ""),
        (("membership", "bad_shape.json"), 1, _E, "error: tensor JSON 'entries' must be an n x n x n array\n"),
        (("membership", "uniform5.json"), 3, _E, "error: built-in generators need n <= 4\n"),
        (("membership", "half_vertex.json"), 6, "12b7cc50d2cfdf3360869d322b7228fd36c2ba2368cbc71dc6fb1ba2b06bb7ec", ""),
        (("membership", "perm3.json", "--generators", "perm3_list.json"), 0, "441553e97904833e57654cd62de6323d55c4bc578e9d1964e0426aebd5882953", ""),
        (("membership", "uniform2.json", "--generators", "uniform3_list.json"), 1, _E, "error: generator dimension mismatch\n"),
        (
            ("membership", "uniform16.json", "--generators", "perm3_list.json"),
            3,
            _E,
            "error: a membership LP tableau of 16797702 cells exceeds the cap of 4000000\n",
        ),
        (("membership", "uniform3.json", "--generators", "perm3_list.json"), 6, "5bd3e496530c7fac1c30cbca3cf40ae111938631f258ebacf536c9b0b0cbe18f", ""),
        (("latin", "3"), 0, "a1fb50e6c86fae1679ef3351296fd6713411a08cf8dd1790a4fd05fae8688164", ""),
        (("latin", "3", "--list"), 0, "e1fc970cb3f61d76134eeaa8c1018f1076b86eb9443289a1322729ed6026d1a1", ""),
        (("latin", "6"), 3, _E, "error: Latin square counting capped at n <= 5\n"),
        (("decompose", "half2.json"), 0, "d6c7c9aad0028170325ed4b426b91808fac013beefd4629dd2780d1fca58bdec", ""),
        (("decompose", "short_row.json"), 1, _E, "error: matrix is not square\n"),
        (("decompose", "declared65.json"), 3, _E, "error: decompose is capped at n <= 64\n"),
        (("decompose", "row_sums.json"), 7, _E, "error: column 1 sums to 2, not 1\n"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v)[:8],
)
def test_command_line_is_pinned(capsys, asset_dir, argv, code, digest, err):
    """Every reachable exit code of every command, with the digest of its
    stdout and its exact stderr, on well-formed and singly-faulty inputs."""
    for name, payload in _pinned_inputs().items():
        (asset_dir / name).write_text(json.dumps(payload))
    argv = [str(asset_dir / a) if a.endswith(".json") else a for a in argv]
    got, out, got_err = run(capsys, *argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest(), got_err) == (code, digest, err)


@pytest.mark.parametrize(
    "exc, code",
    [(ValueError("x"), 1), (NotDoublyStochastic("x"), 7), (ResourceCapExceeded("x"), 3)],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
@pytest.mark.parametrize(
    "name, argv",
    [
        ("is_vertex", ("check-vertex", "uniform3.json")),
        ("in_permutation_hull", ("membership", "uniform3.json")),
        ("decompose", ("decompose", "identity2.json")),
    ],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_main_maps_each_exception_to_its_exit_code(capsys, monkeypatch, asset_dir, exc, code, name, argv):
    """An exception from any command's library call becomes its exit code and
    one error line in main, never a traceback."""

    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, name, fail)
    (asset_dir / "identity2.json").write_text(json.dumps({"n": 2, "rows": [["1", "0"], ["0", "1"]]}))
    assert run(capsys, argv[0], str(asset_dir / argv[1])) == (code, "", "error: x\n")


def test_generator_dimension_is_compared_before_parsing(capsys, tmp_path, fractions_built):
    """A generator whose declared n differs from the target's is refused
    before any of its entries is read: only the target's Fractions are built."""
    target = tmp_path / "uniform2.json"
    target.write_text(json.dumps(tensor_to_json(uniform_tensor(2))))
    gens = tmp_path / "uniform80.json"
    gens.write_text(json.dumps([{"n": 80, "entries": [[["1/80"] * 80] * 80] * 80}]))
    _, target_only = fractions_built(tensor_from_json, tensor_to_json(uniform_tensor(2)))
    result, built = fractions_built(run, capsys, "membership", str(target), "--generators", str(gens))
    assert result == (1, "", "error: generator dimension mismatch\n")
    assert built == target_only


def test_help_lists_every_exit_code(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    listed = [int(line.split()[0]) for line in out.splitlines() if line.startswith("    ") and line.split()[0].isdigit()]
    assert listed == list(range(8))
    limits = out[out.index("Work limits") :].splitlines()
    assert len(limits) > 1 and max(map(len, limits)) <= 80  # the limits stay wrapped
