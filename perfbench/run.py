#!/usr/bin/env python3
"""stochpoly benchmark: one closed-loop client driving a seeded workload
through the library, every answer checked exactly.

    python3 perfbench/run.py --workload oracle-n3 --seed 1 --seconds 55 --trace 0

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.
Exits 1 if any answer failed its check. Workloads and metrics are described
in perfbench/README.md.
"""
from __future__ import annotations

import argparse
import importlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracing import CHECK, LAYERS, REQUEST, Tracer
from workloads import WORKLOADS, Refs, warm_up

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: set-up is repeated and the median of all rounds reported. One round takes
#: a few tenths of a second, so a slowdown of the machine lasting a few
#: seconds moves every round next to it; rounds before and after the timed
#: loop keep one such slowdown from setting the median.
SETUP_ROUNDS_BEFORE = 6
SETUP_ROUNDS_AFTER = 5
#: percentiles latency_tail_ms falls back to, highest first
TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MODULES = ("_kernels", "polytope", "lp", "enumeration", "bounds", "birkhoff", "tensor")


def use_checkout_sources() -> bool:
    """Put this checkout's src first on the import path; False if absent."""
    if not (SRC / "stochpoly" / "__init__.py").is_file():
        print(f"error: no stochpoly sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    # Bound values pass Python's default 4300-digit int/str limit from n = 26
    # on, where the library's to_json raises; a server answering bounds
    # requests for every n up to 50 has to lift the limit.
    sys.set_int_max_str_digits(0)
    return True


def import_library() -> SimpleNamespace:
    """Import the package afresh from this checkout's src directory."""
    for name in [m for m in sys.modules if m == "stochpoly" or m.startswith("stochpoly.")]:
        del sys.modules[name]
    pkg = importlib.import_module("stochpoly")
    if Path(pkg.__file__).resolve().parent != SRC / "stochpoly":
        raise ImportError(f"stochpoly imported from {pkg.__file__}, not from {SRC}")
    mods = {m.lstrip("_"): importlib.import_module(f"stochpoly.{m}") for m in MODULES}
    return SimpleNamespace(pkg=pkg, **mods)


def set_up(rounds: int, tracer: Tracer | None = None) -> tuple[Refs, list[float]]:
    """Import plus reference construction and warm-up, ``rounds`` times;
    only the last round's modules are used (and traced)."""
    times = []
    for k in range(rounds):
        t0 = perf_counter()
        mods = import_library()
        if tracer is not None and k == rounds - 1:
            tracer.install(mods)
        refs = Refs(mods)
        warm_up(refs)
        times.append(perf_counter() - t0)
    return refs, times


@dataclass
class LoopResult:
    attempted: int = 0
    latencies: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.errors)


def run_loop(workload, seconds=math.inf, tracer=None, tamper=None, indices=None) -> LoopResult:
    """Closed loop: request, then check, then the next request. Stops at the
    first round boundary after ``seconds``, or after ``indices`` if given."""
    res = LoopResult()
    deadline = perf_counter() + seconds
    for i in itertools.count() if indices is None else indices:
        if i % workload.round_size == 0 and perf_counter() >= deadline:
            break
        spec = workload.spec(i)
        res.attempted += 1
        if tracer is not None:
            tracer.request_id = i
            span = tracer.open(REQUEST)
        t0 = perf_counter()
        try:
            answer = workload.request(spec)
        except Exception as exc:  # a failing request is counted, the loop goes on
            res.errors.append(f"request {i} raised {exc!r}")
            continue
        finally:
            t1 = perf_counter()
            if tracer is not None:
                tracer.close(span)
        res.latencies.append(t1 - t0)
        if tamper is not None:
            answer = tamper(spec, answer)
        if tracer is not None:
            span = tracer.open(CHECK)
        try:
            workload.check(spec, answer)
        except Exception as exc:  # includes answers too malformed to parse
            res.errors.append(f"request {i} failed its check: {exc!r}")
        finally:
            if tracer is not None:
                tracer.close(span)
    return res


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def tail_percentile(preferred: float, samples: int) -> float:
    """The workload's tail percentile, or the highest one in TAIL_GRID with
    at least 10 samples beyond it if the run has too few for it."""
    if samples * (100 - preferred) / 100 >= 10:
        return preferred
    return next((p for p in TAIL_GRID if samples * (100 - p) / 100 >= 10), TAIL_GRID[-1])


def end_to_end(loop: LoopResult, setup_times: list[float], preferred_tail: float) -> dict:
    lat = sorted(loop.latencies)
    pct = tail_percentile(preferred_tail, len(lat))
    tail = lat[max(math.ceil(pct / 100 * len(lat)) - 1, 0)] if lat else 0.0
    print(f"tail: p{pct:g} of {len(lat)} latencies, {len(lat) - math.ceil(pct / 100 * len(lat))} beyond it")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "throughput_rps": (ratio(len(lat), sum(lat)), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000 if lat else 0.0, "ms"),
        "latency_tail_ms": (tail * 1000, "ms"),
        "success_frac": (1 - ratio(loop.failed, loop.attempted), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(tracer: Tracer, plain: LoopResult, traced: LoopResult, refs: Refs) -> dict:
    s, counts = tracer.summary(), tracer.counts
    busy, calls = s["busy"], s["calls"]
    cache = refs.mods.polytope.build_lp_polytope.cache_info()
    subsets = counts["kernels.bfs.subsets"]
    out = {
        "kernels.bfs.calls": (calls["kernels.bfs"], "count"),
        "kernels.bfs.busy_s": (busy["kernels.bfs"], "s"),
        "kernels.bfs.subsets": (subsets, "count"),
        "kernels.bfs.solutions": (counts["kernels.bfs.solutions"], "count"),
        "kernels.bfs.yield": (ratio(counts["kernels.bfs.solutions"], subsets), "ratio"),
        "kernels.subsets_per_s": (ratio(subsets, busy["kernels.bfs"]), "1/s"),
        "kernels.rank_int.busy_s": (busy["kernels.rank_int"], "s"),
        "polytope.is_vertex.busy_s": (busy["polytope.is_vertex"], "s"),
        "polytope.build.hit_ratio": (ratio(cache.hits, cache.hits + cache.misses), "ratio"),
        "lp.solve_feasibility.calls": (calls["lp.solve_feasibility"], "count"),
        "lp.solve_feasibility.busy_s": (busy["lp.solve_feasibility"], "s"),
        "lp.membership_problem.busy_s": (busy["lp.membership_problem"], "s"),
        "lp.verify.busy_s": (busy["lp.verify"], "s"),
        "lp.matrix_cells": (counts["lp.matrix_cells"], "count"),
        "lp.feasible_frac": (ratio(counts["lp.feasible"], calls["lp.solve_feasibility"]), "ratio"),
        "bounds.verify_chain.self_s": (s["self"]["bounds.verify_chain"], "s"),
        "enumeration.latin_count.busy_s": (busy["enumeration.latin_count"], "s"),
        "enumeration.dd.busy_s": (busy["enumeration.dd"], "s"),
        "birkhoff.decompose.busy_s": (busy["birkhoff.decompose"], "s"),
        "birkhoff.terms": (counts["birkhoff.terms"], "count"),
        "tensor.json.busy_s": (busy["tensor.json"], "s"),
        "tensor.convex_combine.busy_s": (busy["tensor.convex_combine"], "s"),
    }
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (s["layer_self"][layer], "s")
    plain_rps = ratio(len(plain.latencies), sum(plain.latencies))
    traced_rps = ratio(len(traced.latencies), sum(traced.latencies))
    out.update(
        {
            "bench.requests": (len(traced.latencies), "count"),
            "bench.layer_share": (ratio(s["in_layers_s"], s["request_s"]), "ratio"),
            "bench.remainder_s": (s["request_s"] - s["in_layers_s"], "s"),
            "bench.check_s": (s["check_s"], "s"),
            "bench.trace_overhead": (1 - ratio(traced_rps, plain_rps), "ratio"),
            "bench.failed_frac": (ratio(plain.failed + traced.failed, plain.attempted + traced.attempted), "ratio"),
        }
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_checkout_sources():
        return 2
    import numpy  # a dependency, imported once, outside the set-up timing

    tracer = Tracer() if args.trace else None
    refs, setup_times = set_up(SETUP_ROUNDS_BEFORE, tracer)
    workload = WORKLOADS[args.workload](refs, args.seed)
    env = {
        "lane": refs.mods.pkg.kernel_backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("env " + json.dumps(env))
    print(f"inputs: sha256 of the first specs {workload.digest()}")

    if tracer is None:
        loops = [run_loop(workload, args.seconds)]
        setup_times += set_up(SETUP_ROUNDS_AFTER)[1]
        metrics = end_to_end(loops[0], setup_times, workload.tail_pct)
    else:
        # untraced then traced halves, both from request 0, for the overhead
        tracer.uninstall()
        loops = [run_loop(workload, args.seconds / 2)]
        tracer.install(refs.mods)
        loops.append(run_loop(workload, args.seconds / 2, tracer))
        tracer.uninstall()
        metrics = per_layer(tracer, loops[0], loops[1], refs)

    errors = [e for loop in loops for e in loop.errors]
    for message in errors[:5]:
        print(message, file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(loop.attempted for loop in loops),
        "failed": len(errors),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
