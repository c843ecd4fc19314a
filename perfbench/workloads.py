"""Workloads of the stochpoly benchmark: seeded request streams, the requests
themselves, and the exact checks of their answers.

A request goes through the library's public functions the way the command
line's subcommands call them: the client side builds the input and encodes it
as JSON, the server side decodes it, computes, and encodes the answer. Request
``i`` of a workload is a pure function of (workload, seed, i), so two commits
run byte-identical request streams.

Checks never call the library. They recompute what they need from reference
data with their own exact arithmetic, so a defect in the code under test
cannot vouch for itself.
"""
from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import comb, factorial, gcd

#: candidate active sets per oracle-n3 request (a fixed-length prefix of the
#: lexicographic subset order of the column-permuted n = 3 system)
ORACLE_PREFIX = 1024
#: Latin tensors per hull-lp membership LP, sampled from the 576 of order 4
HULL_SAMPLE = 24
#: specs hashed into the printed input digest
DIGEST_SPECS = 256


class CheckFailed(Exception):
    """An answer disagreed with its known or re-derived result."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# independent exact helpers (the library is never asked to check itself)


def line_cells(n: int) -> list[list[int]]:
    """Flat indices of the 3n^2 lines of an n x n x n tensor."""
    r = range(n)
    idx = lambda i, j, k: (i * n + j) * n + k  # noqa: E731
    out = [[idx(i, j, k) for k in r] for i in r for j in r]
    out += [[idx(i, j, k) for j in r] for i in r for k in r]
    out += [[idx(i, j, k) for i in r] for j in r for k in r]
    return out


def int_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals by fraction-free elimination on Python ints."""
    m = [list(r) for r in rows]
    rank, prev = 0, 1
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pk, top = m[rank][col], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col]
            m[r] = [(pk * a - f * b) // prev for a, b in zip(m[r], top)]
        prev, rank = pk, rank + 1
    return rank


def reduced_latin_count(n: int) -> int:
    """Latin squares of order n with first row and column 1..n, by plain
    backtracking; L(n) = n! (n-1)! times this."""
    grid = [[0] * n for _ in range(n)]
    for j in range(n):
        grid[0][j] = j + 1
    for i in range(n):
        grid[i][0] = i + 1

    def fill(cell: int) -> int:
        if cell == n * n:
            return 1
        i, j = divmod(cell, n)
        if i == 0 or j == 0:
            return fill(cell + 1)
        total = 0
        for s in range(1, n + 1):
            if all(grid[i][c] != s for c in range(j)) and all(grid[r][j] != s for r in range(i)):
                grid[i][j] = s
                total += fill(cell + 1)
        grid[i][j] = 0
        return total

    return fill(0)


#: L(1..5), derived independently of the library's enumerator
LATIN_COUNTS = {n: factorial(n) * factorial(n - 1) * reduced_latin_count(n) for n in range(1, 6)}


def lex_rank(combo: list[int], n: int) -> int:
    """Position of a sorted k-subset of range(n) in itertools.combinations order."""
    k, rank, prev = len(combo), 0, -1
    for i, v in enumerate(combo):
        for u in range(prev + 1, v):
            rank += comb(n - u - 1, k - i - 1)
        prev = v
    return rank


def lexmin_superset(subset: set[int], n: int, k: int) -> list[int]:
    """The lexicographically first k-subset of range(n) containing ``subset``."""
    extra = [c for c in range(n) if c not in subset][: k - len(subset)]
    return sorted(subset.union(extra))


def canonical(flat: list[Fraction]) -> tuple[int, tuple[int, ...]]:
    """(den, numerators) with den > 0 and gcd 1, as the oracle returns points."""
    den = 1
    for v in flat:
        den = den * v.denominator // gcd(den, v.denominator)
    nums = [int(v * den) for v in flat]
    g = den
    for v in nums:
        g = gcd(g, v)
    return den // g, tuple(v // g for v in nums)


def random_weights(rng: random.Random, k: int) -> list[str]:
    raw = [rng.randint(1, 9) for _ in range(k)]
    total = sum(raw)
    return [str(Fraction(a, total)) for a in raw]


def isotope_cells(n: int, rng: random.Random) -> list[list[int]]:
    """A random isotope of the cyclic Latin square of order n."""
    a, b, c = (rng.sample(range(n), n) for _ in range(3))
    return [[c[(a[i] + b[j]) % n] + 1 for j in range(n)] for i in range(n)]


def latin_flat(cells) -> tuple[int, ...]:
    """The (0,1) tensor of a Latin square, flattened, by its definition."""
    n = len(cells)
    return tuple(
        1 if cells[i][j] == k + 1 else 0 for i in range(n) for j in range(n) for k in range(n)
    )


def combine_flat(weights: list[Fraction], flats: list[tuple]) -> list[Fraction]:
    return [sum((w * f[p] for w, f in zip(weights, flats)), Fraction(0)) for p in range(len(flats[0]))]


def check_membership(
    answer: dict, target: list[Fraction], gens: list[tuple[int, ...]], must_be_feasible: bool
) -> None:
    """Re-verify a membership answer's witness or Farkas certificate."""
    status = answer.get("status")
    require(status in ("feasible", "infeasible"), f"bad status {status!r}")
    require(status == "feasible" or not must_be_feasible, "point inside the hull reported infeasible")
    if status == "feasible":
        w = [Fraction(v) for v in answer["witness"]]
        require(len(w) == len(gens), "witness length")
        require(all(v >= 0 for v in w) and sum(w) == 1, "witness is not a convex weight vector")
        require(combine_flat(w, gens) == target, "witness does not reproduce the point")
    else:
        y = [Fraction(v) for v in answer["certificate"]]
        require(len(y) == len(target) + 1, "certificate length")
        for g in gens:
            require(sum(yp for yp, gp in zip(y, g) if gp) + y[-1] >= 0, "Farkas: y^T M >= 0 fails")
        require(sum(yp * tp for yp, tp in zip(y, target)) + y[-1] < 0, "Farkas: y^T rhs < 0 fails")


# ---------------------------------------------------------------------------
# reference data built from the library in set-up


class Refs:
    """Everything the workloads share, built from the library once per set-up."""

    def __init__(self, mods):
        self.mods = mods
        for n in range(2, 6):
            mods.polytope.build_lp_polytope(n)
        enum, tensor = mods.enumeration, mods.tensor
        self.dd3 = enum.enumerate_vertices_dd(3).vertices
        squares3 = enum.enumerate_latin_squares(3)
        squares4 = enum.enumerate_latin_squares(4)
        self.latin3 = [tensor.latin_to_tensor(s) for s in squares3]
        self.latin4 = [tensor.latin_to_tensor(s) for s in squares4]
        self.latin3_flat = [latin_flat(s.cells) for s in squares3]
        self.latin4_flat = [latin_flat(s.cells) for s in squares4]
        self.dd3_json = [tensor.tensor_to_json(t) for t in self.dd3]

        dd_flat = [list(t.flatten()) for t in self.dd3]
        zero_one = {tuple(f) for f in dd_flat if all(v in (0, 1) for v in f)}
        if (len(self.dd3), len(zero_one)) != (66, LATIN_COUNTS[3]) or zero_one != set(self.latin3_flat):
            raise RuntimeError("n = 3 reference vertices disagree with the Latin squares of order 3")
        if len(self.latin4) != LATIN_COUNTS[4]:
            raise RuntimeError("wrong number of Latin squares of order 4")
        self.fractional3 = [i for i, f in enumerate(dd_flat) if tuple(f) not in zero_one]
        self.dd3_flat = dd_flat
        self.dd3_index = {canonical(f): v for v, f in enumerate(dd_flat)}
        self.dd3_support = [frozenset(c for c, v in enumerate(f) if v) for f in dd_flat]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A closed-loop request stream. Requests are grouped into rounds of
    ``round_size``; a run only stops between rounds, so every run serves the
    same mix."""

    name = ""
    round_size = 1
    #: latency_tail_ms percentile, fixed so that commits compare the same
    #: one: a 55 s run of the current code leaves at least 10 samples beyond
    #: it even when the machine runs at half speed
    tail_pct = 90.0

    def __init__(self, refs: Refs, seed: int):
        self.refs = refs
        self.seed = seed

    def rng(self, *key) -> random.Random:
        return random.Random(":".join(map(str, (self.name, self.seed) + key)))

    def spec(self, i: int) -> dict:
        raise NotImplementedError

    def request(self, spec: dict):
        raise NotImplementedError

    def check(self, spec: dict, answer) -> None:
        raise NotImplementedError

    def digest(self) -> str:
        h = hashlib.sha256()
        for i in range(DIGEST_SPECS):
            h.update(json.dumps(self.spec(i), sort_keys=True).encode())
        return h.hexdigest()[:16]


class OracleN3(Workload):
    """Brute-force vertex oracle on the column-permuted n = 3 system."""

    name = "oracle-n3"
    LINES = line_cells(3)

    def __init__(self, refs, seed):
        super().__init__(refs, seed)
        self._independent: dict[frozenset, bool] = {}

    def spec(self, i):
        perm = list(range(27))
        self.rng(i).shuffle(perm)
        return {"perm": perm}

    def request(self, spec):
        m = self.refs.mods
        hp = m.polytope.build_lp_polytope(3)
        rows = [[row[c] for c in spec["perm"]] for row in hp.rows]
        return m.kernels.basic_feasible_solutions(rows, hp.rank, subset_limit=ORACLE_PREFIX)

    def _full_rank(self, cols: frozenset) -> bool:
        """Do these 19 original columns of the line system have rank 19?"""
        if cols not in self._independent:
            order = sorted(cols)
            rows = [[1 if c in line else 0 for c in order] for line in map(set, self.LINES)]
            self._independent[cols] = int_rank(rows) == len(order)
        return self._independent[cols]

    def check(self, spec, answer):
        perm, refs = spec["perm"], self.refs
        inv = [0] * 27
        for c, o in enumerate(perm):
            inv[o] = c
        found = set()
        for den, nums in answer:
            require(den > 0 and len(nums) == 27 and min(nums) >= 0, "solution is not a nonnegative point")
            orig = [0] * 27
            for c, v in enumerate(nums):
                orig[perm[c]] = v
            require(all(sum(orig[p] for p in line) == den for line in self.LINES), "A x != 1")
            v = refs.dd3_index.get((den, tuple(orig)))
            require(v is not None, "solution is not a vertex of the reference set")
            found.add(v)
        require(len(found) == len(answer), "duplicate solutions")
        # A vertex is reachable only if the first 19-subset containing its
        # support lies in the prefix; it must be found if that subset alone
        # already determines it.
        rank = 3 * 9 - 9 + 1
        for v, supp in enumerate(refs.dd3_support):
            first = lexmin_superset({inv[s] for s in supp}, 27, rank)
            if lex_rank(first, 27) >= ORACLE_PREFIX:
                require(v not in found, "vertex reported from outside the subset prefix")
            elif self._full_rank(frozenset(perm[c] for c in first)):
                require(v in found, "vertex missing from the prefix's solutions")


class HullLP(Workload):
    """n = 4 hull membership LPs against a per-request sample of Latin tensors."""

    name = "hull-lp"

    def spec(self, i):
        rng = self.rng(i)
        sample = sorted(rng.sample(range(len(self.refs.latin4)), HULL_SAMPLE))
        inside = i % 2 == 0
        pool = sample if inside else sorted(set(range(len(self.refs.latin4))) - set(sample))
        picks = rng.sample(pool, rng.randint(2, 4))
        return {"sample": sample, "inside": inside, "picks": picks, "weights": random_weights(rng, len(picks))}

    def request(self, spec):
        m, latin4 = self.refs.mods, self.refs.latin4
        target = m.tensor.convex_combine(
            [Fraction(w) for w in spec["weights"]], [latin4[p] for p in spec["picks"]]
        )
        payload = json.dumps(m.tensor.tensor_to_json(target))
        point = m.tensor.tensor_from_json(json.loads(payload))
        result = m.lp.in_permutation_hull(point, [latin4[g] for g in spec["sample"]])
        return json.dumps(result.to_json())

    def check(self, spec, answer):
        flats = self.refs.latin4_flat
        target = combine_flat([Fraction(w) for w in spec["weights"]], [flats[p] for p in spec["picks"]])
        check_membership(json.loads(answer), target, [flats[g] for g in spec["sample"]], spec["inside"])


class CertifyMix(Workload):
    """Short requests, one kind per command-line subcommand, in rounds of a
    fixed composition shuffled by the seed. Vertex certificates at n = 3, the
    cheapest certification, are the bulk of the traffic; there are enough of
    them that the median falls among them, not on the steep cost ramp of
    the other kinds."""

    name = "certify-mix"
    tail_pct = 95.0
    #: (kind, n, form) templates of one round
    ROUND = (
        [("bounds", n, None) for n in range(2, 51)]
        + [("latin", n, None) for n in range(1, 6)]
        + [("vertices", n, None) for n in range(1, 4)]
        + [("decompose", n, None) for n in range(2, 9)] * 2
        + [("check-vertex", 3, f) for f in ("vertex", "comb", "perturbed")] * 24
        + [("check-vertex", n, f) for n in (4, 5) for f in ("vertex", "comb", "perturbed")]
        + [("check-vertex", n, f) for n in (4, 5) for f in ("vertex", "comb")]
        + [("membership", 3, f) for f in ("fractional", "comb")] * 4
    )
    round_size = len(ROUND)

    def __init__(self, refs, seed):
        super().__init__(refs, seed)
        self._round = (None, [])

    def spec(self, i):
        r, pos = divmod(i, self.round_size)
        if self._round[0] != r:
            rng = self.rng("round", r)
            order = list(self.ROUND)
            rng.shuffle(order)
            self._round = (r, [self._instantiate(rng, *t) for t in order])
        return self._round[1][pos]

    def _instantiate(self, rng, kind, n, form):
        spec = {"kind": kind, "n": n}
        if kind == "decompose":
            k = rng.randint(1, 2 * n)
            spec.update(perms=[rng.sample(range(n), n) for _ in range(k)], weights=random_weights(rng, k))
        elif kind == "membership":
            if form == "fractional":
                spec.update(form=form, vertex=rng.choice(self.refs.fractional3))
            else:
                picks = rng.sample(range(len(self.refs.latin3)), rng.randint(1, 4))
                spec.update(form=form, picks=picks, weights=random_weights(rng, len(picks)))
        elif kind == "check-vertex":
            if n == 3:
                sources = rng.sample(range(len(self.refs.dd3)), 3 if form == "comb" else 1)
            else:
                sources = [isotope_cells(n, rng)]
                while form == "comb" and len(sources) < 2:
                    cells = isotope_cells(n, rng)
                    if cells != sources[0]:
                        sources.append(cells)
            spec.update(form=form, sources=sources, weights=random_weights(rng, len(sources)))
            if form == "perturbed":
                spec.update(at=rng.randrange(n**3), delta=str(Fraction(1, rng.randint(2, 9))))
        return spec

    # client side: build the input the way a caller of the command line would

    def _vertex_input(self, spec):
        t = self.refs.mods.tensor
        if spec["n"] == 3:
            sources = [self.refs.dd3[s] for s in spec["sources"]]
        else:
            sources = [t.latin_to_tensor(t.LatinSquare(cells)) for cells in spec["sources"]]
        point = t.convex_combine([Fraction(w) for w in spec["weights"]], sources)
        if spec["form"] == "perturbed":
            flat = list(point.flatten())
            flat[spec["at"]] += Fraction(spec["delta"])
            n = spec["n"]
            point = t.Tensor3([[flat[(i * n + j) * n : (i * n + j + 1) * n] for j in range(n)] for i in range(n)])
        return point

    def request(self, spec):
        m, kind, n = self.refs.mods, spec["kind"], spec["n"]
        if kind == "bounds":
            return json.dumps(m.bounds.verify_chain(n).to_json())
        if kind == "latin":
            return str(m.enumeration.count_latin_squares(n))
        if kind == "vertices":
            return json.dumps(m.enumeration.enumerate_vertices_dd(n).to_json())
        if kind == "decompose":
            payload = json.dumps({"n": n, "rows": [[str(v) for v in row] for row in self._matrix(spec)]})
            matrix = m.birkhoff.matrix_from_json(json.loads(payload))
            result = m.birkhoff.decompose(matrix)
            return json.dumps(
                {"n": n, "terms": result.to_json(), "term_count": len(result.terms), "term_bound": n * n - 2 * n + 2}
            )
        if kind == "membership":
            if spec["form"] == "fractional":
                point = self.refs.dd3[spec["vertex"]]
            else:
                point = m.tensor.convex_combine(
                    [Fraction(w) for w in spec["weights"]], [self.refs.latin3[p] for p in spec["picks"]]
                )
            payload = json.dumps(m.tensor.tensor_to_json(point))
            result = m.lp.in_permutation_hull(m.tensor.tensor_from_json(json.loads(payload)), self.refs.latin3)
            return json.dumps(result.to_json())
        payload = json.dumps(m.tensor.tensor_to_json(self._vertex_input(spec)))
        return json.dumps(m.polytope.is_vertex(m.tensor.tensor_from_json(json.loads(payload))).to_json())

    @staticmethod
    def _matrix(spec):
        n = spec["n"]
        rows = [[Fraction(0)] * n for _ in range(n)]
        for w, perm in zip(spec["weights"], spec["perms"]):
            for i, j in enumerate(perm):
                rows[i][j] += Fraction(w)
        return rows

    def _point_flat(self, spec) -> list[Fraction]:
        """The check-vertex input, recomputed without the library."""
        n, w = spec["n"], [Fraction(v) for v in spec["weights"]]
        if n == 3:
            flats = [self.refs.dd3_flat[s] for s in spec["sources"]]
        else:
            flats = [latin_flat(cells) for cells in spec["sources"]]
        flat = combine_flat(w, flats)
        if spec["form"] == "perturbed":
            flat[spec["at"]] += Fraction(spec["delta"])
        return flat

    def check(self, spec, answer):
        kind, n = spec["kind"], spec["n"]
        if kind == "latin":
            require(int(answer) == LATIN_COUNTS[n], f"L({n}) = {answer}")
            return
        obj = json.loads(answer)
        if kind == "bounds":
            lower = LATIN_COUNTS.get(n, Fraction(factorial(n) ** (2 * n), n ** (n * n)))
            require(obj["n"] == n and all(obj["checks"].values()), f"bound chain fails at n = {n}")
            require(Fraction(obj["lower_latin"]) == lower, f"wrong lower bound at n = {n}")
            require(sorted(obj["ordering"]) == ["cpz", "lower_latin", "lzz", "zz_half", "zz_opt"], "ordering")
        elif kind == "vertices":
            require(obj["zero_one"] == LATIN_COUNTS[n], f"zero-one vertices at n = {n}")
            require(obj["total"] == obj["zero_one"] + obj["fractional"] == len(obj["vertices"]), "vertex counts")
            if n < 3:
                require(obj["fractional"] == 0, f"fractional vertices at n = {n}")
            else:
                require(obj["vertices"] == self.refs.dd3_json, "n = 3 vertex list changed")
        elif kind == "decompose":
            terms = obj["terms"]
            require(obj["term_count"] == len(terms) <= n * n - 2 * n + 2, "too many terms")
            rows = [[Fraction(0)] * n for _ in range(n)]
            for term in terms:
                w, perm = Fraction(term["weight"]), term["perm"]
                require(w > 0 and sorted(perm) == list(range(n)), "bad term")
                for i, j in enumerate(perm):
                    rows[i][j] += w
            require(rows == self._matrix(spec), "terms do not reconstruct the matrix")
        elif kind == "membership":
            if spec["form"] == "fractional":
                target = self.refs.dd3_flat[spec["vertex"]]
                require(obj.get("status") == "infeasible", "fractional vertex reported inside the hull")
            else:
                target = combine_flat(
                    [Fraction(w) for w in spec["weights"]], [self.refs.latin3_flat[p] for p in spec["picks"]]
                )
            check_membership(obj, target, self.refs.latin3_flat, spec["form"] == "comb")
        else:
            flat = self._point_flat(spec)
            expected = {"vertex": "vertex", "comb": "not_vertex", "perturbed": "infeasible"}[spec["form"]]
            require(obj["verdict"] == expected, f"verdict {obj['verdict']!r}, expected {expected!r}")
            support = sum(1 for v in flat if v)
            require(obj["support_size"] == support, "support size")
            if expected != "infeasible":
                require((obj["rank"] == support) == (expected == "vertex"), "rank contradicts the verdict")
            require(("violated" in obj) == (expected == "infeasible"), "violated line")


WORKLOADS = {w.name: w for w in (OracleN3, CertifyMix, HullLP)}


def warm_up(refs: Refs) -> None:
    """One tiny request of every kind, so that no layer's first call lands in
    a timed loop."""
    hp = refs.mods.polytope.build_lp_polytope(2)
    refs.mods.kernels.basic_feasible_solutions(hp.rows, hp.rank)
    mix, hull = CertifyMix(refs, 0), HullLP(refs, 0)
    specs = [
        (mix, {"kind": "bounds", "n": 2}),
        (mix, {"kind": "latin", "n": 2}),
        (mix, {"kind": "vertices", "n": 2}),
        (mix, {"kind": "decompose", "n": 2, "perms": [[1, 0]], "weights": ["1"]}),
        (mix, {"kind": "check-vertex", "n": 3, "form": "vertex", "sources": [0], "weights": ["1"]}),
        (mix, {"kind": "membership", "n": 3, "form": "comb", "picks": [0], "weights": ["1"]}),
        (hull, {"sample": [0, 1, 2, 3], "inside": True, "picks": [0, 1], "weights": ["1/2", "1/2"]}),
    ]
    for workload, spec in specs:
        workload.check(spec, workload.request(spec))
