"""Command-line front end.

Subcommands: bounds, vertices, check-vertex, membership, latin, decompose.
All machine output is JSON with a fixed key order, so identical inputs give
byte-identical bytes on stdout.

Exit codes:
    0  success / claim verified / feasible
    1  usage error or unreadable input
    2  an asserted inequality or cross-method comparison failed
    3  a work limit refused the input before any work
    4  check-vertex: point is feasible but not a vertex
    5  check-vertex: point is infeasible
    6  membership: point is outside the hull (with Farkas certificate)
    7  decompose: input is not doubly stochastic

Each command returns the code of its verdict. main is the one place where
an exception becomes an exit code: ResourceCapExceeded gives 3,
NotDoublyStochastic gives 7 and any other ValueError gives 1, each with one
"error:" line on stderr and no traceback.
"""
from __future__ import annotations

import argparse
import json
import sys
import textwrap

from . import __version__
from .birkhoff import NotDoublyStochastic, decompose, matrix_from_json
from .bounds import bound_cpz, bound_lower, bound_lzz, bound_zz_half, bound_zz_opt, verify_chain
from .enumeration import (
    BOUNDS_MAX_N,
    CHECK_VERTEX_MAX_N,
    DECOMPOSE_MAX_N,
    HULL_LATIN_MAX_N,
    LATIN_MAX_N,
    MEMBERSHIP_MAX_CELLS,
    VERTICES_MAX_N,
    ResourceCapExceeded,
    count_latin_squares,
    enumerate_latin_squares,
    enumerate_vertices_bruteforce,
    enumerate_vertices_dd,
)
from .lp import in_permutation_hull
from .numerics import format_rational
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
_VERDICT_EXIT = {"vertex": EXIT_OK, "not_vertex": EXIT_NOT_VERTEX, "infeasible": EXIT_INFEASIBLE_POINT}


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


# the five bounds of the table, in its order, each with its function of n
_BOUNDS = {
    "lower_latin": bound_lower,
    "cpz": bound_cpz,
    "lzz": bound_lzz,
    "zz_opt": bound_zz_opt,
    "zz_half": bound_zz_half,
}


def _bounds_table(n: int, texts: dict, report=None) -> str:
    """The table of the bounds at n, ``texts`` holding each bound of
    ``_BOUNDS`` written out; a report of the chain adds its observed order
    and the verdict of its checks."""
    width = max(map(len, texts.values()))
    lines = [f"n = {n}"] + [f"  {name:<12} {text:>{width}}" for name, text in texts.items()]
    if report is not None:
        order = "".join(f"{name} {rel} " for name, rel in zip(report.ordering, report.relations))
        lines.append(f"  order: {order}{report.ordering[-1]}")
        lines.append(f"  checks: {'all hold' if report.all_hold else 'VIOLATED'}")
    return "\n".join(lines)


def cmd_bounds(args) -> int:
    if args.sweep is not None and args.sweep < 2:
        raise ValueError("--sweep MAX_N must be >= 2")
    top = args.n if args.sweep is None else args.sweep
    if top > BOUNDS_MAX_N:
        raise ResourceCapExceeded(f"bounds are capped at n <= {BOUNDS_MAX_N}")
    if top == 1:
        # n = 1 is degenerate: every bound evaluates to a positive number,
        # but the strict chain needs n >= 2
        texts = {name: format_rational(bound(1)) for name, bound in _BOUNDS.items()}
        if args.format == "json":
            _emit({"n": 1, **texts})
        else:
            print(_bounds_table(1, texts))
        return EXIT_OK
    reports = [verify_chain(n) for n in (range(2, top + 1) if args.sweep is not None else (top,))]
    if args.format == "json":
        payload = [r.to_json() for r in reports]
        _emit(payload if args.sweep is not None else payload[0])
    else:
        for r in reports:
            print(_bounds_table(r.n, {name: format_rational(getattr(r, name)) for name in _BOUNDS}, r))
    if not all(r.all_hold for r in reports):
        return _fail("an asserted bound inequality failed", EXIT_CLAIM_FAILED)
    return EXIT_OK


def cmd_vertices(args) -> int:
    vs = enumerate_vertices_bruteforce(args.n) if args.method == "brute" else enumerate_vertices_dd(args.n)
    if args.method == "both":
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
    _emit(vs.to_json())
    return EXIT_OK


def _read(path: str, field: str, reader, cap: int, refusal: str, size=lambda n: n):
    """Load the JSON document at ``path``, refuse it with ``refusal`` (formatted
    with ``size`` and ``cap``) when ``size(n)`` is over ``cap``, n the larger
    of its integer ``n`` and the length of its array ``field``, and only then
    hand it to ``reader``, which refuses what is malformed."""
    obj = _load_json(path)
    n, data = (obj.get("n"), obj.get(field)) if isinstance(obj, dict) else (0, 0)
    work = size(max(n if type(n) is int else 0, len(data) if isinstance(data, list) else 0))
    if work > cap:
        raise ResourceCapExceeded(refusal.format(size=work, cap=cap))
    return reader(obj)


def cmd_check_vertex(args) -> int:
    refusal = "check-vertex is capped at n <= {cap}"
    cert = is_vertex(_read(args.tensor_file, "entries", tensor_from_json, CHECK_VERTEX_MAX_N, refusal))
    _emit(cert.to_json())
    return _VERDICT_EXIT[cert.verdict]


def cmd_membership(args) -> int:
    if args.generators == "latin":
        refusal = "built-in generators need n <= {cap}"
        tensor = _read(args.tensor_file, "entries", tensor_from_json, HULL_LATIN_MAX_N, refusal)
        generators = [latin_to_tensor(s) for s in enumerate_latin_squares(tensor.n)]
    else:
        raw = _load_json(args.generators)
        if not isinstance(raw, list):
            raise ValueError("generator file must be a JSON array of tensors")
        # the phase-1 tableau: the LP's m = n^3 + 1 rows (one per tensor
        # entry, one for the weight sum) and the objective, by one column
        # per generator, one artificial per row and the right-hand side
        refusal = "a membership LP tableau of {size} cells exceeds the cap of {cap}"
        tensor = _read(
            args.tensor_file, "entries", tensor_from_json, MEMBERSHIP_MAX_CELLS, refusal,
            lambda n: (n**3 + 2) * (len(raw) + n**3 + 2),
        )
        generators = []
        for obj in raw:
            # a declared dimension is compared before any entry is parsed
            if isinstance(obj, dict) and type(obj.get("n")) is int and obj["n"] != tensor.n:
                raise ValueError("generator dimension mismatch")
            generators.append(tensor_from_json(obj))
    result = in_permutation_hull(tensor, generators)
    _emit(result.to_json())
    return EXIT_OK if result.feasible else EXIT_NOT_IN_HULL


def cmd_latin(args) -> int:
    if args.list:
        _emit([latin_to_json(s) for s in enumerate_latin_squares(args.n)])
    else:
        print(count_latin_squares(args.n))
    return EXIT_OK


def cmd_decompose(args) -> int:
    refusal = "decompose is capped at n <= {cap}"
    matrix = _read(args.matrix_file, "rows", matrix_from_json, DECOMPOSE_MAX_N, refusal)
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
    parser = argparse.ArgumentParser(
        prog="stochpoly",
        description=__doc__,
        epilog=textwrap.fill(
            f"Work limits, each checked before any work (exit 3): vertices n <= {VERTICES_MAX_N}, "
            f"check-vertex n <= {CHECK_VERTEX_MAX_N}, membership n <= {HULL_LATIN_MAX_N} with the "
            f"built-in generators and at most {MEMBERSHIP_MAX_CELLS} simplex tableau cells with a "
            f"generator file, latin n <= {LATIN_MAX_N}, decompose n <= {DECOMPOSE_MAX_N}, "
            f"bounds n <= {BOUNDS_MAX_N}."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
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
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "n", 1) < 1:  # the n of bounds, vertices and latin
            raise ValueError("n must be >= 1")
        return args.func(args)
    except SystemExit as exc:  # argparse: 0 for --help and --version, 2 for a usage error (our 1)
        return EXIT_USAGE if exc.code == 2 else int(exc.code or 0)
    except ResourceCapExceeded as exc:  # raised by every work limit before its work
        return _fail(str(exc), EXIT_CAP)
    except NotDoublyStochastic as exc:
        return _fail(str(exc), EXIT_NOT_DOUBLY_STOCHASTIC)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
