import json
from decimal import Decimal
from fractions import Fraction

import pytest

from stochpoly.birkhoff import DoublyStochasticMatrix, matrix_to_json
from stochpoly.bounds import bound_cpz, bound_lower, bound_lzz, bound_zz_half, bound_zz_opt
from stochpoly.cli import main
from stochpoly.enumeration import enumerate_latin_squares
from stochpoly.tensor import latin_to_tensor, tensor_to_json


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


def _exact(text):
    """Parse 'p' or 'p/q' without the int/str digit limit."""
    num, _, den = text.partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


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
        assert _exact(payload[name]) == value
    assert max(len(part) for name in expected for part in payload[name].split("/")) > 4300

    code, out, _ = run(capsys, "bounds", str(n))
    assert code == 0
    table = dict(line.split() for line in out.splitlines()[1:6])
    assert {name: _exact(text) for name, text in table.items()} == expected


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


def test_json_outputs_are_byte_identical(capsys, asset_dir):
    _, out1, _ = run(capsys, "membership", str(asset_dir / "uniform3.json"))
    _, out2, _ = run(capsys, "membership", str(asset_dir / "uniform3.json"))
    assert out1 == out2
    _, b1, _ = run(capsys, "bounds", "4", "--format", "json")
    _, b2, _ = run(capsys, "bounds", "4", "--format", "json")
    assert b1 == b2
