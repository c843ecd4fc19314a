#!/usr/bin/env python3
"""Summarise saved benchmark outputs (the stdout of perfbench/run.py).

    python3 perfbench/compare.py runs/*.out
        per workload and metric: median, quartiles and their spread as a
        share of the median, flagged when it exceeds a third of the bound
    python3 perfbench/compare.py --base parent/*.out -- change/*.out
        also each change median against the parent's, judged by the bound

Refuses to mix outputs from different kernel lanes, Python or numpy
versions, or core counts: a missing compiled extension falls back to the
pure lane silently and would otherwise read as a large regression.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("lane", "python", "numpy", "nproc")


def load(paths: list[str]) -> tuple[dict, set]:
    """{(workload, metric): [values]} and the set of environments seen."""
    values, envs = defaultdict(list), set()
    for path in paths:
        lines = Path(path).read_text().splitlines()
        env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
        result = json.loads(lines[-1])
        if not result["correct"]:
            raise SystemExit(f"{path}: run reported failed answers")
        envs.add(tuple(env[k] for k in ENV_KEYS))
        for name, metric in result["metrics"].items():
            values[(env["workload"], name)].append(metric["value"])
    return values, envs


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", default=[])
    parser.add_argument("runs", nargs="+")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    new, envs = load(args.runs)
    base, base_envs = load(args.base) if args.base else ({}, set())
    if len(envs | base_envs) > 1:
        print(f"refusing to compare results from different environments {ENV_KEYS}: "
              f"{sorted(envs | base_envs)}", file=sys.stderr)
        return 2

    worst = 0
    for (workload, name), xs in sorted(new.items()):
        q1, med, q3 = quartiles(xs)
        spread = (q3 - q1) / med if med else 0.0
        line = f"{workload:<12} {name:<32} n={len(xs):<3} median={med:<14.6g} q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:.3f}"
        bound = bounds.get(name, {}).get("bound")
        if bound is not None and name != "setup_s" and spread > bound / 3:
            line += f"  SPREAD > bound/3 ({bound / 3:.3f})"
            worst = max(worst, 1)
        if (workload, name) in base and bound is not None:
            base_med = statistics.median(base[(workload, name)])
            change = (med - base_med) / base_med if base_med else 0.0
            worse = change if bounds[name]["better"] == "lower" else -change
            line += f"  base={base_med:.6g} change={change:+.3f}"
            if worse > bound:
                line += "  WORSE THAN BOUND"
                worst = max(worst, 1)
        print(line)
    return worst


if __name__ == "__main__":
    sys.exit(main())
