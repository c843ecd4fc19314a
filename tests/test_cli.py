import json
from fractions import Fraction

import pytest

from stochpoly import cli, lp
from stochpoly.birkhoff import DoublyStochasticMatrix, matrix_to_json
from stochpoly.bounds import bound_cpz, bound_lower, bound_lzz, bound_zz_half, bound_zz_opt
from stochpoly.cli import main
from stochpoly.enumeration import BOUNDS_MAX_N, HULL_LATIN_MAX_N, enumerate_latin_squares
from stochpoly.numerics import parse_rational
from stochpoly.tensor import latin_to_tensor, tensor_to_json, uniform_tensor


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


def test_vertices_cap(capsys):
    code, _, err = run(capsys, "vertices", "4", "--method", "brute")
    assert code == 3
    assert "cap" in err.lower() or "exceed" in err.lower()


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
    monkeypatch.setenv("STOCHPOLY_MAX_CELLS", str(cells - 1))
    code, out, err = run(capsys, "membership", str(target), "--generators", str(gens))
    assert (code, out) == (3, "")
    assert f"{cells} cells exceeds the cap of {cells - 1}" in err
    monkeypatch.setenv("STOCHPOLY_MAX_CELLS", str(cells))
    code, out, _ = run(capsys, "membership", str(target), "--generators", str(gens))
    assert (code, out) == (1, "")
    # n = 16 with one generator: 4 098 x 4 099 tableau entries pass the default cap
    monkeypatch.delenv("STOCHPOLY_MAX_CELLS")
    big = tmp_path / "uniform16.json"
    big.write_text(json.dumps(tensor_to_json(uniform_tensor(16))))
    gens.write_text(json.dumps([tensor_to_json(uniform_tensor(16))]))
    code, out, err = run(capsys, "membership", str(big), "--generators", str(gens))
    assert (code, out) == (3, "")
    assert f"{4098 * 4099} cells exceeds the cap of 4000000" in err


def test_check_vertex_cap_is_checked_before_work(capsys, monkeypatch, tmp_path, half_vertex):
    target = tmp_path / "half.json"
    target.write_text(json.dumps(tensor_to_json(half_vertex)))
    cells = 3 * 3**2 * 3**3  # one equality row per line, one column per entry
    monkeypatch.setenv("STOCHPOLY_MAX_CELLS", str(cells))
    assert run(capsys, "check-vertex", str(target))[0] == 0

    def refuse(t):
        raise AssertionError("is_vertex ran past the cap")

    monkeypatch.setattr(cli, "is_vertex", refuse)
    monkeypatch.setenv("STOCHPOLY_MAX_CELLS", str(cells - 1))
    code, out, err = run(capsys, "check-vertex", str(target))
    assert (code, out) == (3, "")
    assert f"{cells} cells exceeds the cap of {cells - 1}" in err
    # under the default cap n = 16 passes (3 145 728 cells) and n = 17 does not
    monkeypatch.delenv("STOCHPOLY_MAX_CELLS")
    big = tmp_path / "uniform16.json"
    big.write_text(json.dumps(tensor_to_json(uniform_tensor(16))))
    with pytest.raises(AssertionError, match="past the cap"):
        run(capsys, "check-vertex", str(big))
    big = tmp_path / "uniform17.json"
    big.write_text(json.dumps(tensor_to_json(uniform_tensor(17))))
    code, out, err = run(capsys, "check-vertex", str(big))
    assert (code, out) == (3, "")
    assert f"{3 * 17**5} cells exceeds the cap of 4000000" in err


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


@pytest.mark.parametrize("cap", ["abc", "1e3"])
def test_malformed_cap_exits_1(capsys, monkeypatch, tmp_path, cap):
    target = tmp_path / "uniform2.json"
    target.write_text(json.dumps(tensor_to_json(uniform_tensor(2))))
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([tensor_to_json(uniform_tensor(2))]))
    monkeypatch.setenv("STOCHPOLY_MAX_CELLS", cap)
    for argv in (
        ("vertices", "2"),
        ("check-vertex", str(target)),
        ("membership", str(target), "--generators", str(gens)),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert f"STOCHPOLY_MAX_CELLS must be an integer, got {cap!r}" in err
