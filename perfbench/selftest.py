#!/usr/bin/env python3
"""Self-test of the benchmark: runs each workload at a tiny size, then again
with every answer corrupted (a flipped verdict or a tampered certificate),
and checks that the clean answers all pass and the corrupted ones are all
counted as failed.

    python3 perfbench/selftest.py       # exits 0 when the checks hold
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction

import run
from workloads import WORKLOADS, Refs, warm_up


def tamper_oracle(spec, answer):
    # a point off the polytope: every line sums to 0, not 1
    return answer + [(1, (0,) * 27)]


def tamper_hull(spec, answer):
    obj = json.loads(answer)
    key = "witness" if obj["status"] == "feasible" else "certificate"
    obj[key][-1] = str(Fraction(obj[key][-1]) + 1000)
    return json.dumps(obj)


def tamper_mix(spec, answer):
    kind = spec["kind"]
    if kind == "latin":
        return str(int(answer) + 1)
    obj = json.loads(answer)
    if kind == "bounds":
        obj["lower_latin"] = str(Fraction(obj["lower_latin"]) + 1)
    elif kind == "vertices":
        obj["vertices"] = obj["vertices"][1:]
    elif kind == "decompose":
        obj["terms"][0]["weight"] = str(Fraction(obj["terms"][0]["weight"]) / 2)
    elif kind == "membership":
        obj["status"] = "infeasible" if obj["status"] == "feasible" else "feasible"
    else:
        obj["verdict"] = "not_vertex" if obj["verdict"] == "vertex" else "vertex"
    return json.dumps(obj)


TAMPER = {"oracle-n3": tamper_oracle, "hull-lp": tamper_hull, "certify-mix": tamper_mix}


def tiny_indices(workload) -> list[int]:
    """Two requests, or for the mix the first request of each kind in round 0
    (keeping the mix's order-5 Latin recounts out)."""
    if workload.name != "certify-mix":
        return [0, 1]
    first = {}
    for i in range(workload.round_size):
        spec = workload.spec(i)
        if spec["kind"] in ("bounds", "latin") and spec["n"] == 5:
            continue
        first.setdefault((spec["kind"], spec.get("form")), i)
    return sorted(first.values())


def main() -> int:
    if not run.use_checkout_sources():
        return 2
    refs = Refs(run.import_library())
    warm_up(refs)
    problems = []
    for name, cls in WORKLOADS.items():
        workload = cls(refs, seed=7)
        indices = tiny_indices(workload)
        clean = run.run_loop(workload, indices=indices)
        bad = run.run_loop(workload, tamper=TAMPER[name], indices=indices)
        success = run.end_to_end(bad, [0.0], workload.tail_pct)["success_frac"][0]
        print(f"{name}: {clean.attempted} clean requests, {clean.failed} failed; "
              f"{bad.attempted} corrupted, {bad.failed} failed, success_frac {success:g}")
        if clean.failed or clean.attempted != len(indices):
            problems.append(f"{name}: clean answers failed: {clean.errors[:3]}")
        if bad.failed != bad.attempted or success != 0:
            problems.append(f"{name}: a corrupted answer passed its check")
    for p in problems:
        print(p, file=sys.stderr)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
