"""Command-line front end.

Subcommands: bounds, vertices, check-vertex, membership, latin, decompose.
All machine output is JSON with a fixed key order, so identical inputs give
byte-identical bytes on stdout.

Exit codes:
    0  success / claim verified / feasible
    1  usage error or unreadable input
    2  an asserted inequality or cross-method comparison failed
    3  enumeration cap exceeded
    4  check-vertex: point is feasible but not a vertex
    5  check-vertex: point is infeasible
    6  membership: point is outside the hull (with Farkas certificate)
    7  decompose: input is not doubly stochastic
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .birkhoff import NotDoublyStochastic, decompose, matrix_from_json
from .bounds import verify_chain
from .enumeration import (
    BOUNDS_MAX_N,
    CAP_ENV,
    HULL_LATIN_MAX_N,
    ResourceCapExceeded,
    _max_cells,
    count_latin_squares,
    enumerate_latin_squares,
    enumerate_vertices_bruteforce,
    enumerate_vertices_dd,
)
from .lp import in_permutation_hull
from .numerics import format_int, format_rational
from .polytope import is_vertex
from .tensor import latin_to_json, latin_to_tensor, tensor_from_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CLAIM_FAILED = 2
EXIT_CAP = 3
EXIT_NOT_VERTEX = 4
EXIT_INFEASIBLE_POINT = 5
EXIT_NOT_IN_HULL = 6
EXIT_NOT_DOUBLY_STOCHASTIC = 7


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _fail(message: str, code: int) -> int:
    sys.stderr.write(f"error: {message}\n")
    return code


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested deeper than the parser recurses
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _check_cap(cells: int, what: str) -> None:
    """Refuse work over more than STOCHPOLY_MAX_CELLS cells before it starts;
    a malformed cap raises ValueError."""
    cap = _max_cells()
    if cells > cap:
        raise ResourceCapExceeded(
            f"{what} of {cells} cells exceeds the cap of {cap} (raise {CAP_ENV} to override)"
        )


def _bounds_table(report) -> str:
    rows = [
        ("lower_latin", format_rational(Fraction(report.lower_latin))),
        ("cpz", format_rational(report.cpz)),
        ("lzz", format_int(report.lzz)),
        ("zz_opt", format_int(report.zz_opt)),
        ("zz_half", format_int(report.zz_half)),
    ]
    width = max(len(v) for _, v in rows)
    lines = [f"n = {report.n}"]
    lines += [f"  {name:<12} {value:>{width}}" for name, value in rows]
    order = " ".join(
        part
        for name, rel in zip(report.ordering, report.relations + ("",))
        for part in ((name, rel) if rel else (name,))
    )
    lines.append(f"  order: {order}")
    lines.append(f"  checks: {'all hold' if report.all_hold else 'VIOLATED'}")
    return "\n".join(lines)


def cmd_bounds(args) -> int:
    if args.sweep is not None and args.sweep < 2:
        return _fail("--sweep MAX_N must be >= 2", EXIT_USAGE)
    top = args.n if args.sweep is None else args.sweep
    if top > BOUNDS_MAX_N:
        return _fail(f"bounds are capped at n <= {BOUNDS_MAX_N}", EXIT_CAP)
    if args.sweep is not None:
        reports = [verify_chain(n) for n in range(2, args.sweep + 1)]
    elif args.n >= 2:
        reports = [verify_chain(args.n)]
    else:
        # n = 1 is degenerate: every bound evaluates to a positive number,
        # but the strict chain needs n >= 2
        from .bounds import bound_cpz, bound_lower, bound_lzz, bound_zz_half, bound_zz_opt

        values = {
            "n": 1,
            "lower_latin": format_rational(bound_lower(1)),
            "cpz": format_rational(bound_cpz(1)),
            "lzz": format_int(bound_lzz(1)),
            "zz_opt": format_int(bound_zz_opt(1)),
            "zz_half": format_int(bound_zz_half(1)),
        }
        if args.format == "json":
            _emit(values)
        else:
            print("n = 1")
            for key in ("lower_latin", "cpz", "lzz", "zz_opt", "zz_half"):
                print(f"  {key:<12} {values[key]}")
        return EXIT_OK

    if args.format == "json":
        payload = [r.to_json() for r in reports]
        _emit(payload if args.sweep is not None else payload[0])
    else:
        for r in reports:
            print(_bounds_table(r))
    if not all(r.all_hold for r in reports):
        return _fail("an asserted bound inequality failed", EXIT_CLAIM_FAILED)
    return EXIT_OK


def cmd_vertices(args) -> int:
    if args.n >= 4 and args.method in ("dd", "both"):
        sys.stderr.write(
            "warning: double description at n >= 4 can take hours and a lot "
            "of memory; the intermediate-ray cap (STOCHPOLY_MAX_CELLS) still applies\n"
        )
    try:
        if args.method == "dd":
            vs = enumerate_vertices_dd(args.n)
        elif args.method == "brute":
            vs = enumerate_vertices_bruteforce(args.n)
        else:
            vs = enumerate_vertices_dd(args.n)
            brute = enumerate_vertices_bruteforce(args.n)
            if vs.vertices != brute.vertices:
                _emit(
                    {
                        "error": "method disagreement",
                        "dd_total": vs.total,
                        "brute_total": brute.total,
                    }
                )
                return EXIT_CLAIM_FAILED
    except ResourceCapExceeded as exc:
        return _fail(str(exc), EXIT_CAP)
    except ValueError as exc:  # a malformed STOCHPOLY_MAX_CELLS
        return _fail(str(exc), EXIT_USAGE)
    _emit(vs.to_json())
    return EXIT_OK


def cmd_check_vertex(args) -> int:
    try:
        tensor = tensor_from_json(_load_json(args.tensor_file))
        # no system is built; 3n^2 x n^3 bounds rank_exact's M, at most (3n^2 - 3n + 1) x (n - 1)^3
        _check_cap(3 * tensor.n**2 * tensor.n**3, "an equality system")
    except ResourceCapExceeded as exc:
        return _fail(str(exc), EXIT_CAP)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    cert = is_vertex(tensor)
    _emit(cert.to_json())
    if cert.verdict == "vertex":
        return EXIT_OK
    if cert.verdict == "not_vertex":
        return EXIT_NOT_VERTEX
    return EXIT_INFEASIBLE_POINT


def cmd_membership(args) -> int:
    try:
        tensor = tensor_from_json(_load_json(args.tensor_file))
        if args.generators == "latin":
            if tensor.n > HULL_LATIN_MAX_N:
                return _fail(f"built-in generators need n <= {HULL_LATIN_MAX_N}", EXIT_CAP)
            generators = [latin_to_tensor(s) for s in enumerate_latin_squares(tensor.n)]
        else:
            raw = _load_json(args.generators)
            if not isinstance(raw, list):
                raise ValueError("generator file must be a JSON array of tensors")
            # the phase-1 tableau: the LP's m rows (one per tensor entry, one
            # for the weight sum) and the objective, by one column per
            # generator, one artificial per row and the right-hand side
            m = tensor.n**3 + 1
            _check_cap((m + 1) * (len(raw) + m + 1), "a membership LP tableau")
            generators = [tensor_from_json(obj) for obj in raw]
        result = in_permutation_hull(tensor, generators)
    except ResourceCapExceeded as exc:
        return _fail(str(exc), EXIT_CAP)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    _emit(result.to_json())
    return EXIT_OK if result.feasible else EXIT_NOT_IN_HULL


def cmd_latin(args) -> int:
    try:
        if args.list:
            squares = enumerate_latin_squares(args.n)
            _emit([latin_to_json(s) for s in squares])
        else:
            print(count_latin_squares(args.n))
    except ResourceCapExceeded as exc:
        return _fail(str(exc), EXIT_CAP)
    return EXIT_OK


def cmd_decompose(args) -> int:
    try:
        matrix = matrix_from_json(_load_json(args.matrix_file))
    except NotDoublyStochastic as exc:
        return _fail(str(exc), EXIT_NOT_DOUBLY_STOCHASTIC)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    result = decompose(matrix)
    bound = matrix.n**2 - 2 * matrix.n + 2
    _emit(
        {
            "n": matrix.n,
            "terms": result.to_json(),
            "term_count": len(result.terms),
            "term_bound": bound,
        }
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stochpoly",
        description=__doc__.splitlines()[0],
        epilog="STOCHPOLY_MAX_CELLS caps enumeration work (candidate active sets / "
        "intermediate rays), the cells of check-vertex's equality system and of the "
        "simplex tableau of a membership LP over a generator file; default 4000000.",
    )
    parser.add_argument("--version", action="version", version=f"stochpoly {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="evaluate and compare the vertex-count bounds")
    p.add_argument("n", type=int)
    p.add_argument("--sweep", type=int, metavar="MAX_N", help="verify the chain for all n in 2..MAX_N")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("vertices", help="enumerate all vertices of the polytope")
    p.add_argument("n", type=int)
    p.add_argument("--method", choices=("dd", "brute", "both"), default="dd")
    p.set_defaults(func=cmd_vertices)

    p = sub.add_parser("check-vertex", help="certify whether a tensor is a vertex")
    p.add_argument("tensor_file")
    p.set_defaults(func=cmd_check_vertex)

    p = sub.add_parser("membership", help="decide membership in the permutation-tensor hull")
    p.add_argument("tensor_file")
    p.add_argument(
        "--generators",
        default="latin",
        help="'latin' for all permutation tensors of the matching order, or a JSON file with an array of tensors",
    )
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("latin", help="count or list Latin squares")
    p.add_argument("n", type=int)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--count", action="store_true", default=True)
    group.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_latin)

    p = sub.add_parser("decompose", help="Birkhoff-decompose a doubly stochastic matrix")
    p.add_argument("matrix_file")
    p.set_defaults(func=cmd_decompose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "n", 1) < 1:  # the n of bounds, vertices and latin
        return _fail("n must be >= 1", EXIT_USAGE)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
