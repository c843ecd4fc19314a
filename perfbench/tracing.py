"""Spans around the benchmark's calls into each library module.

The tracer replaces public functions and methods by module (or class)
attribute with wrappers that record a span per call: name, start, end, the
enclosing span and the request it belongs to. Calls the library makes between
its own modules through those attributes are traced as well, so a layer's
self time is its spans' duration minus the part covered by child spans.
Spans stay in memory; the summary is computed when the run ends.
"""
from __future__ import annotations

import functools
from collections import Counter, defaultdict
from math import comb
from time import perf_counter


def _count_bfs(counts, args, kwargs, result):
    rows, rank = args[0], args[1]
    limit = kwargs.get("subset_limit", args[2] if len(args) > 2 else None)
    total = comb(len(rows[0]), rank)
    counts["kernels.bfs.subsets"] += total if limit is None else min(limit, total)
    counts["kernels.bfs.solutions"] += len(result)


def _count_lp(counts, args, kwargs, result):
    problem = args[0]
    counts["lp.matrix_cells"] += problem.num_rows * problem.num_cols
    counts["lp.feasible"] += result.feasible


def _count_terms(counts, args, kwargs, result):
    counts["birkhoff.terms"] += len(result.terms)


#: (module, attribute path, span name, counter); the span name's first part
#: is the layer
TARGETS = [
    ("kernels", "basic_feasible_solutions", "kernels.bfs", _count_bfs),
    ("kernels", "rank_int", "kernels.rank_int", None),
    ("polytope", "build_lp_polytope", "polytope.build", None),
    ("polytope", "is_vertex", "polytope.is_vertex", None),
    ("polytope", "VertexCertificate.to_json", "polytope.to_json", None),
    ("lp", "in_permutation_hull", "lp.in_permutation_hull", None),
    ("lp", "membership_problem", "lp.membership_problem", None),
    ("lp", "solve_feasibility", "lp.solve_feasibility", _count_lp),
    ("lp", "verify_witness", "lp.verify", None),
    ("lp", "verify_farkas", "lp.verify", None),
    ("lp", "FeasibilityResult.to_json", "lp.to_json", None),
    ("enumeration", "enumerate_vertices_dd", "enumeration.dd", None),
    ("enumeration", "count_latin_squares", "enumeration.latin_count", None),
    ("enumeration", "enumerate_latin_squares", "enumeration.latin_list", None),
    ("enumeration", "VertexSet.to_json", "enumeration.to_json", None),
    ("bounds", "verify_chain", "bounds.verify_chain", None),
    ("bounds", "BoundReport.to_json", "bounds.to_json", None),
    ("birkhoff", "decompose", "birkhoff.decompose", _count_terms),
    ("birkhoff", "matrix_from_json", "birkhoff.json", None),
    ("birkhoff", "Decomposition.to_json", "birkhoff.to_json", None),
    ("tensor", "tensor_to_json", "tensor.json", None),
    ("tensor", "tensor_from_json", "tensor.json", None),
    ("tensor", "convex_combine", "tensor.convex_combine", None),
    ("tensor", "latin_to_tensor", "tensor.latin_to_tensor", None),
]
LAYERS = ("kernels", "polytope", "lp", "enumeration", "bounds", "birkhoff", "tensor")
REQUEST, CHECK = "bench.request", "bench.check"


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, request id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.request_id = None

    def install(self, mods) -> None:
        for module, path, name, counter in TARGETS:
            owner = getattr(mods, module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.request_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, span: int) -> None:
        self.spans[span][2] = perf_counter()
        self._stack.pop()

    def summary(self) -> dict:
        """Per-name calls, busy (inclusive) and self seconds; per-layer self
        seconds; request time, the part of it inside layer spans, check time."""
        calls, busy, child = Counter(), defaultdict(float), defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent is not None:
                child[parent] += end - start
        selfs = defaultdict(float)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        in_layers = 0.0
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            own = end - start - child[idx]
            selfs[name] += own
            layer = name.split(".")[0]
            if layer in layer_self:
                layer_self[layer] += own
                if parent is not None and self.spans[parent][0] == REQUEST:
                    in_layers += end - start
        return {
            "calls": calls,
            "busy": busy,
            "self": selfs,
            "layer_self": layer_self,
            "request_s": busy[REQUEST],
            "in_layers_s": in_layers,
            "check_s": busy[CHECK],
        }
