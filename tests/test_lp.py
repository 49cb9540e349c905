import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations, product
from pathlib import Path

import pytest

import simplex_reference
import steinitz.blockip
import steinitz.lp
from steinitz.blockip import decompose_bundle, proximity_report, solve_four_block
from steinitz.generate import GenerationError, gen_four_block
from steinitz.linalg import Matrix, null_space, primitive_integer_vector, rank, solve_linear
from steinitz.lp import (BoxLP, InfeasibleStart, LPResult, NonPointedCone, RayCheckFailed,
                         SimplexCheckFailed, _bareiss_step, _Simplex, enum_integer_points,
                         extreme_rays, find_feasible, lp_solve, purify_to_vertex)


def _bounds(n, lo=F(0), hi=F(1)):
    return (lo,) * n, (hi,) * n


def enumerate_box_vertices(lp: BoxLP):
    """Oracle: every vertex of {Mx=b, l<=x<=u} by fixing coordinate subsets
    to bounds and solving for the rest."""
    n = lp.M.cols
    out = set()
    for fixed in product(*[range(3)] * n):  # 0 free, 1 lower, 2 upper
        free = [j for j in range(n) if fixed[j] == 0]
        x = [None] * n
        ok = True
        for j in range(n):
            if fixed[j] == 1:
                x[j] = lp.lower[j]
            elif fixed[j] == 2:
                x[j] = lp.upper[j]
            if fixed[j] != 0 and x[j] is None:
                ok = False
        if not ok:
            continue
        rhs = list(lp.b)
        for j in range(n):
            if fixed[j] != 0:
                for i in range(lp.M.rows):
                    rhs[i] -= lp.M.at(i, j) * x[j]
        sub = lp.M.column_submatrix(free) if free else Matrix.zeros(lp.M.rows, 0)
        if free:
            if rank(sub) != len(free):
                continue  # not uniquely determined; any vertex here shows up
                # again with more coordinates fixed
            sol = solve_linear(sub, tuple(rhs))
            if sol is None:
                continue
            for j, v in zip(free, sol):
                x[j] = v
        elif any(r != 0 for r in rhs):
            continue
        pt = tuple(x)
        if lp.is_feasible_point(pt):
            out.add(pt)
    return out


def test_purify_fixed_point_unchanged():
    lp = BoxLP(Matrix.identity(2), (F(1), F(2)), *_bounds(2, F(0), F(5)))
    assert purify_to_vertex(lp, (F(1), F(2))) == (1, 2)


def test_purify_segment_endpoint():
    lp = BoxLP(Matrix.from_rows([[1, 1]]), (F(1),), *_bounds(2))
    v = purify_to_vertex(lp, (F(1, 2), F(1, 2)))
    assert v in {(F(1), F(0)), (F(0), F(1))}


def test_purify_infeasible_start_rejected():
    lp = BoxLP(Matrix.from_rows([[1, 1]]), (F(1),), *_bounds(2))
    with pytest.raises(InfeasibleStart):
        purify_to_vertex(lp, (F(1), F(1)))


def test_purify_seeded_vertices_against_enumeration():
    rng = random.Random(13)
    for _ in range(25):
        M = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(4)] for _ in range(2)])
        lp = BoxLP(M, (F(0), F(0)), *_bounds(4))
        x0 = (F(0),) * 4  # 0 always feasible for b = 0
        # nudge to an interior feasible point when possible
        start = find_feasible(BoxLP(M, (F(0), F(0)),
                                    (F(0),) * 4, (F(1),) * 4,
                                    tuple(F(1) for _ in range(4))))
        if start is None:
            start = x0
        v = purify_to_vertex(lp, start)
        vertices = enumerate_box_vertices(lp)
        assert v in vertices
        # no kernel direction supported on strictly interior coordinates
        interior = [j for j in range(4) if 0 < v[j] < 1]
        if interior:
            assert null_space(M.column_submatrix(interior)) == []


def test_lp_solve_examples():
    lp = BoxLP(Matrix.zeros(0, 1), (), (F(0),), (F(1),), (F(1),))
    res = lp_solve(lp)
    assert res.status == "optimal" and res.x == (1,) and res.value == 1

    lp = BoxLP(Matrix.zeros(0, 1), (), (F(0),), (None,), (F(1),))
    assert lp_solve(lp).status == "unbounded"

    lp = BoxLP(Matrix.from_rows([[0]]), (F(1),), (None,), (None,), (F(1),))
    assert lp_solve(lp).status == "infeasible"


def test_lp_solve_weak_duality_and_vertex_fixpoint():
    """The simplex point and the phase-1 point are already vertices when no
    variable is free: with a redundant row, with a variable bounded above
    only, and with lower bounds 0 and no upper bounds, as the conic and
    convex decompositions of blockip build them."""
    rng = random.Random(29)
    optimal = unbounded = 0
    for k in range(100):
        n = rng.randint(2, 4)
        rows = [[rng.randint(-2, 2) for _ in range(n)]]
        if k % 3 == 0:
            rows.append([2 * a for a in rows[0]])
        M = Matrix.from_rows(rows)
        x_feas = tuple(F(rng.randint(0, 2)) for _ in range(n))
        b = M.mul_vec(x_feas)
        c = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        if k < 60:
            lower = (None if k % 2 else F(0),) + (F(0),) * (n - 1)
            upper = (F(3),) * n
        else:
            lower, upper = (F(0),) * n, (None,) * n
        lp = BoxLP(M, b, lower, upper, c)
        start = find_feasible(lp)
        assert lp.is_feasible_point(start)
        assert purify_to_vertex(lp, start) == start
        res = lp_solve(lp)
        if res.status == "unbounded":
            assert k >= 60 or (lower[0] is None and c[0] < 0)
            unbounded += 1
            continue
        assert res.status == "optimal"
        optimal += 1
        feas_val = sum(ci * xi for ci, xi in zip(c, x_feas))
        assert res.value >= feas_val
        assert purify_to_vertex(lp, res.x) == res.x
    assert optimal >= 75 and unbounded >= 15


def _pricing_lps():
    """Seeded BoxLPs with every bound kind, degenerate ones (b = 0, repeated
    columns) and ones with redundant rows."""
    rng = random.Random(41)
    bounds = ((F(0), F(2)), (F(-1), None), (None, F(1)), (None, None), (F(0), None))
    for k in range(120):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        if k % 4 == 1:
            rows.append([a - b for a, b in zip(rows[0], rows[-1])])
        if k % 4 == 2:
            rows = [row[:-1] + row[:1] for row in rows]
        M = Matrix.from_rows(rows)
        pick = [rng.choice(bounds) for _ in range(n)]
        x = tuple(F(rng.randint(0, 1)) if lo == 0 or hi == 1 else F(rng.randint(-1, 1))
                  for lo, hi in pick)
        b = (F(0),) * M.rows if k % 4 == 3 else M.mul_vec(x)
        if k % 5 == 0:
            b = tuple(v + 1 for v in b)
        c = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        yield BoxLP(M, b, tuple(lo for lo, _ in pick), tuple(hi for _, hi in pick), c)


def _rational_lps():
    """Seeded BoxLPs with fractional rows, bounds and objectives, so that the
    rows and the variables of the integer tableau are scaled."""
    rng = random.Random(43)

    def frac(k):
        return F(rng.randint(-k, k), rng.choice((1, 2, 3, 4, 6)))

    for k in range(150):
        n = rng.randint(2, 6)
        rows = [[frac(3) if rng.random() < 0.7 else F(0) for _ in range(n)]
                for _ in range(rng.randint(0, 4))]
        M = Matrix.from_rows(rows) if rows else Matrix.zeros(0, n)
        lower, upper, x = [], [], []
        for _ in range(n):
            lo, kind = frac(2), rng.randrange(5)
            hi = lo + abs(frac(3))
            lower.append(None if kind in (2, 3) else lo)
            upper.append(None if kind in (1, 3) else lo if kind == 4 else hi)
            x.append(lo if kind != 3 else frac(2))
        b = M.mul_vec(tuple(x))
        if k % 4 == 0:
            b = tuple(v + frac(1) for v in b)
        yield BoxLP(M, b, tuple(lower), tuple(upper), tuple(frac(3) for _ in range(n)))


def _rebuilt(rows, rhs, L, LO, HI, c=None):
    """The BoxLP that an integer LP replaces, up to the one common factor
    that scaled its rows to integers."""
    M = Matrix.from_rows(rows) if rows else Matrix.zeros(0, len(LO))
    return BoxLP(M, tuple(F(b) for b in rhs),
                 tuple(None if v is None else F(v, L) for v in LO),
                 tuple(None if v is None else F(v, L) for v in HI),
                 None if c is None else tuple(F(v) for v in c))


def _integer_run(args):
    """The integer entry on args, its answer in the form that find_feasible
    (no objective) or lp_solve gives."""
    status, point = steinitz.lp.integer_simplex(*args)
    x = None if point is None else tuple(F(a, point[0]) for a in point[1])
    if len(args) < 6 or args[5] is None:
        return x
    value = None if x is None else sum((ci * xi for ci, xi in zip(args[5], x)), F(0))
    return LPResult(status, x, value)


def _captured_lps(monkeypatch):
    """The integer LPs that proximity_report, solve_four_block and
    decompose_bundle hand to the simplex on small seeded instances, as
    (the BoxLP they replace, "lp_solve" or "find_feasible", a run of the
    integer entry on them)."""
    instances = []
    for seed, shape in enumerate(((1, 1, 1, 1, 2), (1, 1, 1, 1, 3), (1, 1, 1, 2, 2),
                                  (1, 1, 1, 1, 4)) * 10, start=1201):
        try:
            instances.append(gen_four_block(*shape, 1, seed)[0])
        except GenerationError:
            continue
    bundles = []
    for seed, shape in enumerate(((1, 1, 1, 2, 2), (1, 1, 1, 1, 3), (1, 2, 1, 3, 2)) * 5,
                                 start=2011):
        try:
            bundles.append(gen_four_block(*shape, 1, seed, zero_a0=True, scale=24))
        except GenerationError:
            continue
    captured = []

    def capture(*args, solve=steinitz.lp.integer_simplex):
        captured.append(args)
        return solve(*args)

    monkeypatch.setattr(steinitz.blockip, "integer_simplex", capture)
    for inst in instances:
        rep = proximity_report(inst)
        if rep.lp_status == "optimal":
            solve_four_block(inst, 1)
    for inst, pt in bundles:
        decompose_bundle(inst, pt)
    monkeypatch.undo()
    return [(_rebuilt(*args), "find_feasible" if len(args) < 6 or args[5] is None
             else "lp_solve", lambda args=args: _integer_run(args)) for args in captured]


def test_integer_simplex_matches_fraction_reference(monkeypatch):
    """The integer tableau makes the pivots of the Fraction tableau it
    replaced, in the same order, and returns the same results; every
    division of its Bareiss steps is exact."""
    cases = [(lp, name, lambda lp=lp, name=name: getattr(steinitz.lp, name)(lp))
             for lps in (_pricing_lps(), _rational_lps())
             for lp in lps for name in ("lp_solve", "find_feasible")]
    captured = _captured_lps(monkeypatch)
    cases += captured
    pivots, divisions = [], 0

    def logged(self, p, e):
        pivots.append((p, e))
        return pivot(self, p, e)

    def checked(T, t, p, delta):
        nonlocal divisions
        for i, (row, ti) in enumerate(zip(T, t)):
            if i != p:
                for a, b in zip(row, T[p]):
                    assert divmod(t[p] * a - ti * b, delta)[1] == 0
                    divisions += 1
        return _bareiss_step(T, t, p, delta)

    pivot = _Simplex._pivot
    monkeypatch.setattr(_Simplex, "_pivot", logged)
    monkeypatch.setattr(steinitz.lp, "_bareiss_step", checked)
    statuses = set()
    for lp, name, run in cases:
        expected = []
        want = getattr(simplex_reference, name)(lp, expected)
        pivots.clear()
        assert run() == want
        assert pivots == expected
        if name == "lp_solve":
            statuses.add(want.status)
    assert statuses == {"optimal", "unbounded", "infeasible"}
    assert len(captured) >= 210 and len(cases) >= 750 and divisions >= 25_000, \
        (len(captured), len(cases), divisions)


def _scaled_rows_cases():
    """400 seeded rational LPs (m = 2..5 rows, n = 4..9 variables), each as
    (BoxLP, row factors): a random positive integer K_i per row."""
    rng = random.Random(47)

    def frac(k):
        return F(rng.randint(-k, k), rng.choice((1, 2, 3, 4, 5, 6)))

    for k in range(400):
        m, n = rng.randint(2, 5), rng.randint(4, 9)
        M = Matrix.from_rows([[frac(4) if rng.random() < 0.75 else F(0) for _ in range(n)]
                              for _ in range(m)])
        lower, upper, x = [], [], []
        for _ in range(n):
            # kind 0, 2: lower bound only; 1: both; 3: upper only; 4: free
            lo, kind = frac(2), rng.randrange(5)
            lower.append(None if kind >= 3 else lo)
            upper.append(lo + abs(frac(3)) if kind in (1, 3) else None)
            x.append(lo if kind < 3 else frac(2))
        b = M.mul_vec(tuple(x))
        if k % 5 == 0:
            b = tuple(v + frac(1) for v in b)
        lp = BoxLP(M, b, tuple(lower), tuple(upper), tuple(frac(3) for _ in range(n)))
        yield lp, [rng.randint(1, 30) for _ in range(m)]


def _times(factors, rows, rhs):
    """Row i of [rows | rhs] times factors[i]."""
    return ([[f * a for a in row] for row, f in zip(rows, factors)],
            [f * b for b, f in zip(rhs, factors)])


def test_integer_entry_ignores_one_common_row_factor(monkeypatch):
    """The rows of [M | b] scaled to integers and then by one more random
    factor K make the pivots and the point of the Fraction tableau on the
    rational rows, for phase 1 alone and with the objective.  A factor of
    its own per row instead changes the phase-1 pivots of many of them (113
    of the 400), which is why a caller scales its rows by one common
    factor."""
    pivots = []

    def logged(self, p, e):
        pivots.append((p, e))
        return pivot(self, p, e)

    pivot = _Simplex._pivot
    monkeypatch.setattr(_Simplex, "_pivot", logged)
    statuses, per_row_differ = set(), 0
    for lp, factors in _scaled_rows_cases():
        rows, rhs = lp.integer_rows
        L = math.lcm(*(v.denominator for v in (*lp.lower, *lp.upper) if v is not None))
        LO = [None if v is None else int(v * L) for v in lp.lower]
        HI = [None if v is None else int(v * L) for v in lp.upper]
        C = math.lcm(*(v.denominator for v in lp.objective))
        c = [int(v * C) for v in lp.objective]
        for objective in (None, c):
            expected = []
            if objective is None:
                x = simplex_reference.find_feasible(lp, expected)
                want = ("infeasible" if x is None else "optimal", x)
                phase1 = list(expected)
            else:
                res = simplex_reference.lp_solve(lp, expected)
                want = (res.status, res.x)
                statuses.add(res.status)
            pivots.clear()
            status, point = steinitz.lp.integer_simplex(
                *_times([factors[0]] * len(rows), rows, rhs), L, LO, HI, objective)
            x = None if point is None else tuple(F(a, point[0]) for a in point[1])
            assert ((status, x), pivots) == (want, expected)
        pivots.clear()
        steinitz.lp.integer_simplex(*_times(factors, rows, rhs), L, LO, HI)
        per_row_differ += pivots != phase1
    assert statuses == {"optimal", "unbounded", "infeasible"}
    assert per_row_differ >= 100, per_row_differ


def _malformed_integer_lps():
    """The ValueError message of the integer entry on each malformed input:
    a short rhs, a short row, a short upper bound list, a short objective,
    lo > hi and L = 0."""
    good = ([[1, 1]], [1], 1, [0, 0], [1, 1], [1, 0])
    out = []
    for k, bad in ((1, []), (0, [[1]]), (4, [1]), (5, [1]), (4, [1, -1]), (2, 0)):
        args = list(good)
        args[k] = bad
        try:
            steinitz.lp.integer_simplex(*args)
        except ValueError as exc:
            out.append(str(exc))
    return out


_MALFORMED_MESSAGES = (["integer LP dimensions do not match"] * 4
                       + ["lower bound exceeds upper bound"]
                       + ["the bound denominator must be positive"])


def test_integer_entry_rejects_malformed_input():
    assert _malformed_integer_lps() == _MALFORMED_MESSAGES


def test_integer_entry_rejects_malformed_input_under_python_O():
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from test_lp import _malformed_integer_lps\n"
            "print('\\n'.join(_malformed_integer_lps()))\n")
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(here.parent / "src"), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", code, str(here)], env=env,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert out.splitlines() == _MALFORMED_MESSAGES


def _always_unbounded(self, c):
    return "unbounded"


def _negated_primitive(v):
    return tuple(-a for a in primitive_integer_vector(v))


def _lp_check_failures():
    """The message of each named check of the simplex and the double
    description, failed by a fault patched into steinitz.lp."""
    lp = BoxLP(Matrix.from_rows([[1, 1]]), (F(1),), *_bounds(2))
    out = []
    for target, name, fault, run in (
            (steinitz.lp._Simplex, "_iterate", _always_unbounded, lambda: find_feasible(lp)),
            (steinitz.lp, "primitive_integer_vector", _negated_primitive,
             lambda: extreme_rays(Matrix.identity(2)))):
        saved = getattr(target, name)
        setattr(target, name, fault)
        try:
            run()
        except (SimplexCheckFailed, RayCheckFailed) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
        finally:
            setattr(target, name, saved)
    return out


_LP_CHECK_MESSAGES = ["SimplexCheckFailed: phase-1 objective cannot be unbounded",
                      "RayCheckFailed: double description produced an infeasible ray"]


def test_lp_checks_are_named():
    assert _lp_check_failures() == _LP_CHECK_MESSAGES


def test_lp_checks_survive_python_O():
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from test_lp import _lp_check_failures\n"
            "print('\\n'.join(_lp_check_failures()))\n")
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(here.parent / "src"), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", code, str(here)], env=env,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert out.splitlines() == _LP_CHECK_MESSAGES


def test_simplex_point_is_checked_in_integers(monkeypatch):
    """lp_solve and find_feasible check the basic solution as integers X
    over den before building Fractions: a point off M x = b, one above an
    upper bound and one below a lower bound (both on M x = b) are refused,
    and on an unpatched LP the checked point is the feasible vertex."""
    lp = BoxLP(Matrix.from_rows([[1, -1]]), (F(0),), (F(0), F(1, 3)), (F(1), F(5, 2)),
               (F(1), F(1)))
    assert lp_solve(lp).x == (F(1), F(1)) and lp.is_feasible_point(find_feasible(lp))
    real = _Simplex.solution
    faults = (lambda den, X: (den, [X[0] + 1] + X[1:]),
              lambda den, X: (den, [2 * den, 2 * den]),
              lambda den, X: (4 * den, [den, den]))
    for fault in faults:
        monkeypatch.setattr(_Simplex, "solution", lambda sx, fault=fault: fault(*real(sx)))
        for run in (find_feasible, lp_solve):
            with pytest.raises(SimplexCheckFailed, match="^simplex point is not feasible$"):
                run(lp)


def test_extreme_rays_orthant():
    assert extreme_rays(Matrix.identity(2)) == [(0, 1), (1, 0)]


def test_extreme_rays_hand_cone():
    rays = extreme_rays(Matrix.from_rows([[1, 0], [0, 1], [1, -1]]))
    assert rays == [(1, 0), (1, 1)]


def test_extreme_rays_rejects_non_pointed():
    with pytest.raises(NonPointedCone):
        extreme_rays(Matrix.from_rows([[1, 0]]))
    # no rows at all, and fewer rows than columns
    for ineqs in (Matrix.zeros(0, 2), Matrix.from_rows([[1, 0, 0], [0, 1, 0]])):
        with pytest.raises(NonPointedCone):
            extreme_rays(ineqs)


def _rays_by_pair_enumeration(ineqs: Matrix):
    """Oracle: candidate rays from (d-1)-subsets of tight rows."""
    d = ineqs.cols
    rows = [ineqs.row(i) for i in range(ineqs.rows)]
    found = {}
    for sub in combinations(range(len(rows)), d - 1):
        M = Matrix.from_rows([rows[i] for i in sub]) if sub else Matrix.zeros(0, d)
        kern = null_space(M)
        if len(kern) != 1:
            continue
        for sign in (1, -1):
            cand = tuple(sign * x for x in kern[0])
            if all(sum(r[k] * cand[k] for k in range(d)) >= 0 for r in rows):
                # drop candidates in the span of fewer tight constraints only
                # when they are not extreme: extremality check via tight rank
                tight = [i for i in range(len(rows))
                         if sum(rows[i][k] * cand[k] for k in range(d)) == 0]
                Mt = Matrix.from_rows([rows[i] for i in tight]) if tight else Matrix.zeros(0, d)
                if rank(Mt) == d - 1:
                    found[primitive_integer_vector(cand)] = None
    return sorted(found)


def _seeded_cones():
    """Pointed cones {x : M x >= 0} for the seeded cross-checks: ten with
    5 rows in dimension 3, then 24 with up to d + 5 rows in dimensions 3
    and 4, where the double description takes more steps and the tight sets
    carried from step to step decide more adjacencies."""
    rng = random.Random(17)
    for d, count, most in ((3, 10, 5), (3, 12, 8), (4, 12, 9)):
        checked = 0
        while checked < count:
            rows = [[rng.randint(-2, 2) for _ in range(d)]
                    for _ in range(most if count == 10 else rng.randint(d + 2, most))]
            M = Matrix.from_rows(rows)
            if null_space(M):
                continue
            yield M
            checked += 1


def test_extreme_rays_seeded_cross_check():
    for M in _seeded_cones():
        rays = extreme_rays(M)
        assert rays == _rays_by_pair_enumeration(M)
        # membership LP: each ray satisfies every inequality
        for r in rays:
            assert all(sum(M.at(i, k) * r[k] for k in range(M.cols)) >= 0
                       for i in range(M.rows))


def test_extreme_rays_ignore_positive_row_scaling():
    """The double description scales each row to integers; a row times a
    positive rational cuts out the same half-space, so on the cones of
    test_extreme_rays_seeded_cross_check, rows scaled by positive factors
    with mixed denominators give the same sorted rays."""
    rng = random.Random(18)
    for M in _seeded_cones():
        factors = [F(rng.randint(1, 12), rng.choice((1, 2, 3, 5, 7, 12))) for _ in range(M.rows)]
        scaled = Matrix.from_rows([[f * a for a in M.row(i)] for i, f in enumerate(factors)])
        assert len({f.denominator for f in factors}) > 1
        assert extreme_rays(scaled) == extreme_rays(M)


def test_enum_integer_points_examples():
    pts = list(enum_integer_points((F(0), F(0)), (F(1), F(1))))
    assert pts == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(enum_integer_points((F(0),), (F(2),), ell1_cap=1)) == [(0,), (1,)]
    pts = list(enum_integer_points((0, 0, 0), (3, 3, 3),
                                   predicate=lambda z: sum(z) == 3))
    assert len(pts) == 10  # compositions of 3 into 3 parts: C(5,2)


def test_enum_integer_points_uniqueness_vs_nested_loops():
    pts = list(enum_integer_points((-1, -1), (2, 1)))
    naive = [(a, b) for a in range(-1, 3) for b in range(-1, 2)]
    assert pts == naive
    assert len(set(pts)) == len(pts)
