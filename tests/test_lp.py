import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stochpoly
from stochpoly import lp
from stochpoly.enumeration import enumerate_latin_squares
from stochpoly.lp import (
    LPProblem,
    in_permutation_hull,
    solve_feasibility,
    verify_farkas,
    verify_witness,
)
from stochpoly.tensor import (
    LatinSquare,
    convex_combine,
    latin_to_tensor,
    uniform_tensor,
)


def test_trivial_feasible():
    p = LPProblem.build([[1]], [1])
    res = solve_feasibility(p)
    assert res.feasible
    assert res.witness == (Fraction(1),)


def test_trivial_infeasible_certificate_convention():
    p = LPProblem.build([[1]], [-1])
    res = solve_feasibility(p)
    assert not res.feasible
    (y,) = res.certificate
    # yT M >= 0 forces y >= 0 here, and yT rhs = -y < 0 forces y > 0
    assert y > 0
    assert verify_farkas(p, res.certificate)
    # mirrored sign case
    p2 = LPProblem.build([[-1]], [1])
    res2 = solve_feasibility(p2)
    assert not res2.feasible
    (y2,) = res2.certificate
    assert y2 < 0
    assert verify_farkas(p2, res2.certificate)


def test_zero_row_system():
    # 0*x = 1 is infeasible with certificate y = (positive)
    p = LPProblem.build([[0, 0]], [1])
    res = solve_feasibility(p)
    assert not res.feasible
    assert verify_farkas(p, res.certificate)


def test_uniform_tensor_membership(latin3_tensors):
    res = in_permutation_hull(uniform_tensor(3), latin3_tensors)
    assert res.feasible
    assert sum(res.witness) == 1
    # any valid witness is acceptable; verify by substitution
    target = convex_combine(list(res.witness), latin3_tensors)
    assert target == uniform_tensor(3)


def test_half_vertex_not_in_hull(half_vertex, latin3_tensors):
    res = in_permutation_hull(half_vertex, latin3_tensors)
    assert not res.feasible
    assert len(res.certificate) == 28


def test_single_generator_self_membership(latin3_tensors):
    res = in_permutation_hull(latin3_tensors[0], [latin3_tensors[0]])
    assert res.feasible
    assert res.witness == (Fraction(1),)


def test_generator_validation(half_vertex, latin3_tensors, zero_one_not_latin):
    with pytest.raises(ValueError):
        in_permutation_hull(half_vertex, [])
    with pytest.raises(ValueError):
        in_permutation_hull(half_vertex, [uniform_tensor(3)])  # not (0,1)
    with pytest.raises(ValueError):
        in_permutation_hull(half_vertex, [latin_to_tensor(LatinSquare([[1, 2], [2, 1]]))])
    for bad, message in zero_one_not_latin:  # (0,1) but not line-stochastic
        with pytest.raises(ValueError, match=rf"permutation tensors: {re.escape(message)}"):
            in_permutation_hull(half_vertex, [*latin3_tensors, bad])


def test_bland_terminates_on_degenerate_duplicated_rows():
    base = [[1, 2, 0, 1], [0, 1, 1, 0]]
    rhs = [3, 1]
    rows = base * 3
    b = rhs * 3
    res = solve_feasibility(LPProblem.build(rows, b))
    assert res.feasible
    assert verify_witness(LPProblem.build(rows, b), res.witness)
    # and an infeasible degenerate one
    rows_bad = [[1, 1], [1, 1], [1, 1], [-1, -1]]
    b_bad = [1, 1, 1, 1]
    res_bad = solve_feasibility(LPProblem.build(rows_bad, b_bad))
    assert not res_bad.feasible
    assert verify_farkas(LPProblem.build(rows_bad, b_bad), res_bad.certificate)


# --- closed-form oracle for at most three generators -----------------------


def _hull_oracle(target, generators):
    """Membership decided by hand: eliminate the convexity constraint and
    solve the at-most-2-unknown system in closed form."""
    g = len(generators)
    flat_t = target.flatten()
    flats = [x.flatten() for x in generators]
    if g == 1:
        return flat_t == flats[0]
    if g == 2:
        # t = (1-x) A + x B, 0 <= x <= 1
        x = None
        for a, b, t in zip(flats[0], flats[1], flat_t):
            if a != b:
                x = Fraction(t - a, b - a)
                break
        if x is None:
            return flat_t == flats[0]
        if not (0 <= x <= 1):
            return False
        return all(a + x * (b - a) == t for a, b, t in zip(flats[0], flats[1], flat_t))
    # g == 3: t - C = a (A - C) + b (B - C), a, b >= 0, a + b <= 1
    rows = [
        (fa - fc, fb - fc, ft - fc)
        for fa, fb, fc, ft in zip(flats[0], flats[1], flats[2], flat_t)
    ]
    # echelonize the two columns
    pivot1 = next((r for r in rows if r[0] != 0), None)
    if pivot1 is not None:
        rows = [
            (0, v - (u / pivot1[0]) * pivot1[1], w - (u / pivot1[0]) * pivot1[2])
            if r != pivot1
            else r
            for r in rows
            for u, v, w in [r]
        ]
    pivot2 = next((r for r in rows if r[0] == 0 and r[1] != 0), None)
    for u, v, w in rows:
        if u == 0 and v == 0 and w != 0:
            return False  # inconsistent
    if pivot1 is not None and pivot2 is not None:
        b = pivot2[2] / pivot2[1]
        a = (pivot1[2] - pivot1[1] * b) / pivot1[0]
        if not all(u * a + v * b == w for u, v, w in rows):
            return False
        return a >= 0 and b >= 0 and a + b <= 1
    if pivot1 is None and pivot2 is None:
        return flat_t == flats[2]
    # rank 1: one-parameter family of solutions, intersect with the simplex
    if pivot1 is not None:
        # a = (w - v b)/u along the pivot row; parameter is b
        u, v, w = pivot1
        lo, hi = Fraction(0), Fraction(1)

        def a_of(bv):
            return (w - v * bv) / u

        # a(b) >= 0 and a(b) + b <= 1 and 0 <= b <= 1 define an interval
        candidates = [lo, hi]
        if v != 0:
            candidates.append(w / v)  # a = 0
        denom = u - v
        if denom != 0:
            candidates.append((w - u) / denom)  # a + b = 1
        for bv in sorted(set(candidates)):
            if 0 <= bv <= 1:
                av = a_of(bv)
                if av >= 0 and av + bv <= 1:
                    if all(x * av + y * bv == z for x, y, z in rows):
                        return True
        return False
    # pivot1 None, pivot2 not None: a is free, b pinned
    u, v, w = pivot2
    b = w / v
    if not (0 <= b <= 1):
        return False
    if not all(x * 0 + y * b == z for x, y, z in rows):
        return False
    return True


def test_membership_agrees_with_closed_form_oracle(latin3_tensors, half_vertex):
    rng = random.Random(2718)
    squares2 = [latin_to_tensor(s) for s in enumerate_latin_squares(2)]
    pools = [squares2, latin3_tensors]
    cases = []
    for pool in pools:
        for size in (1, 2, 3):
            if size > len(pool):
                continue
            for _ in range(8):
                gens = rng.sample(pool, size)
                # feasible target: random convex combination
                raw = [rng.randrange(0, 5) for _ in gens]
                if sum(raw) == 0:
                    raw[0] = 1
                weights = [Fraction(r, sum(raw)) for r in raw]
                cases.append((convex_combine(weights, gens), gens))
                # likely-infeasible target: another vertex of the pool
                cases.append((rng.choice(pool), gens))
    cases.append((half_vertex, rng.sample(latin3_tensors, 3)))
    cases.append((uniform_tensor(3), rng.sample(latin3_tensors, 3)))
    # three cyclic shifts average to the uniform tensor: a feasible size-3 case
    cyc = [
        latin_to_tensor(
            LatinSquare([[((i + j + c) % 3) + 1 for j in range(3)] for i in range(3)])
        )
        for c in range(3)
    ]
    cases.append((uniform_tensor(3), cyc))

    for target, gens in cases:
        got = in_permutation_hull(target, gens)
        expected = _hull_oracle(target, gens)
        assert got.feasible == expected, (target, [g.flatten() for g in gens])
        if got.feasible:
            assert convex_combine(list(got.witness), gens) == target


def _random_problem(rng):
    m = rng.randrange(1, 5)
    k = rng.randrange(1, 7)
    mat = [
        [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(k)]
        for _ in range(m)
    ]
    if rng.random() < 0.5:
        x0 = [Fraction(rng.randrange(0, 4), rng.randrange(1, 3)) for _ in range(k)]
        rhs = [sum(row[j] * x0[j] for j in range(k)) for row in mat]
    else:
        rhs = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 3)) for _ in range(m)]
    return LPProblem.build(mat, rhs)


def _fraction_tableau(p):
    """Reference phase-1 simplex on a Fraction tableau with Bland's rule:
    (witness, certificate), one of them None."""
    m, n = p.num_rows, p.num_cols
    tab = [
        [-v if b < 0 else v for v in row] + [Fraction(int(j == i)) for j in range(m)] + [abs(b)]
        for i, (row, b) in enumerate(zip(p.matrix, p.rhs))
    ]
    obj = [-sum(col) for col in zip(*tab)]
    obj[n : n + m] = [Fraction(0)] * m
    basis = list(range(n, n + m))
    while (enter := next((j for j in range(n + m) if obj[j] < 0), None)) is not None:
        rows = [i for i in range(m) if tab[i][enter] > 0]
        leave = min(rows, key=lambda i: (tab[i][-1] / tab[i][enter], basis[i]))
        tab[leave] = [v / tab[leave][enter] for v in tab[leave]]
        for i in range(m):
            if i != leave:
                tab[i] = [v - tab[i][enter] * w for v, w in zip(tab[i], tab[leave])]
        obj = [v - obj[enter] * w for v, w in zip(obj, tab[leave])]
        basis[leave] = enter
    if all(tab[i][-1] == 0 for i in range(m) if basis[i] >= n):
        x = [Fraction(0)] * n
        for i in range(m):
            if basis[i] < n:
                x[basis[i]] = tab[i][-1]
        return tuple(x), None
    return None, tuple((obj[n + i] - 1) * (-1 if b < 0 else 1) for i, b in enumerate(p.rhs))


def test_random_systems_produce_valid_certificates():
    rng = random.Random(424242)
    feasible = infeasible = 0
    for _ in range(100):
        p = _random_problem(rng)
        res = solve_feasibility(p)
        # the integer tableau takes the Fraction tableau's pivots
        assert (res.witness, res.certificate) == _fraction_tableau(p)
        if res.feasible:
            feasible += 1
            assert verify_witness(p, res.witness)
        else:
            infeasible += 1
            assert verify_farkas(p, res.certificate)
        # positive column and rhs scalings change no pivot: the same
        # certificate, and the witness scaled to match (x'_j = t x_j / s_j)
        s = [Fraction(rng.randrange(1, 9), rng.randrange(1, 9)) for _ in range(p.num_cols)]
        t = Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
        scaled = LPProblem.build(
            [[v * sj for v, sj in zip(row, s)] for row in p.matrix], [t * b for b in p.rhs]
        )
        res_scaled = solve_feasibility(scaled)
        assert res_scaled.certificate == res.certificate
        if res.feasible:
            assert res_scaled.witness == tuple(t * x / sj for x, sj in zip(res.witness, s))
        else:
            assert res_scaled.witness is None
    assert feasible and infeasible  # both branches exercised


def test_failed_witness_check_is_an_error(monkeypatch):
    monkeypatch.setattr(lp, "verify_witness", lambda problem, witness: False)
    with pytest.raises(AssertionError, match="witness"):
        solve_feasibility(LPProblem.build([[1]], [1]))


def test_failed_farkas_check_is_an_error(monkeypatch):
    monkeypatch.setattr(lp, "verify_farkas", lambda problem, certificate: False)
    with pytest.raises(AssertionError, match="Farkas"):
        solve_feasibility(LPProblem.build([[1]], [-1]))


def test_witness_check_survives_optimize_flag():
    # `python -O` strips assert statements; the witness check must still run
    script = textwrap.dedent(
        """
        import sys
        from stochpoly import lp
        if __debug__:
            sys.exit("not running under -O")
        lp.verify_witness = lambda problem, witness: False
        try:
            lp.solve_feasibility(lp.LPProblem.build([[1]], [1]))
        except AssertionError:
            sys.exit(0)
        sys.exit("unverified witness was returned")
        """
    )
    src = str(Path(stochpoly.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


# --- the Fraction definitions of the two re-checks ------------------------


def reference_witness(problem, witness):
    if len(witness) != problem.num_cols:
        return False
    if any(v < 0 for v in witness):
        return False
    for row, b in zip(problem.matrix, problem.rhs):
        if sum(c * x for c, x in zip(row, witness)) != b:
            return False
    return True


def reference_farkas(problem, y):
    if len(y) != problem.num_rows:
        return False
    for j in range(problem.num_cols):
        if sum(y[i] * problem.matrix[i][j] for i in range(problem.num_rows)) < 0:
            return False
    return sum(y[i] * problem.rhs[i] for i in range(problem.num_rows)) < 0


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
rationals = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 6) + PRIMES))


@st.composite
def systems_and_vectors(draw):
    """A system, feasible by construction half of the time, and vectors to
    check against it: the solver's witness or certificate, the point the
    system was built from, tampered copies of both and random vectors."""
    m, k = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    matrix = [draw(st.lists(rationals, min_size=k, max_size=k)) for _ in range(m)]
    point = draw(st.lists(rationals.map(abs), min_size=k, max_size=k))
    if draw(st.booleans()):
        rhs = [sum((c * x for c, x in zip(row, point)), Fraction(0)) for row in matrix]
    else:
        rhs = draw(st.lists(rationals, min_size=m, max_size=m))
    problem = LPProblem.build(matrix, rhs)
    result = solve_feasibility(problem)
    vectors = [point, result.witness if result.feasible else result.certificate]
    for v in list(vectors):
        if v:
            tampered = list(v)
            tampered[draw(st.integers(0, len(v) - 1))] += draw(rationals)
            vectors += [tampered, [-x for x in v], list(v)[1:]]
    for size in (k, m):
        vectors.append(draw(st.lists(rationals, min_size=size, max_size=size)))
    return problem, vectors


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(systems_and_vectors())
def test_lp_checks_match_the_fraction_definitions(case):
    problem, vectors = case
    for v in vectors:
        assert verify_witness(problem, v) == reference_witness(problem, v)
        assert verify_farkas(problem, v) == reference_farkas(problem, v)


def test_lp_checks_build_no_fraction(fractions_built, half_vertex, latin3_tensors):
    for target in (half_vertex, uniform_tensor(3)):
        problem = lp.membership_problem(target, latin3_tensors)
        assert fractions_built(LPProblem.build, problem.matrix, problem.rhs)[1] == 0
        res = solve_feasibility(problem)
        if res.feasible:
            assert fractions_built(verify_witness, problem, res.witness) == (True, 0)
        else:
            assert fractions_built(verify_farkas, problem, res.certificate) == (True, 0)
