import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from steinitz.linalg import ZERO, Matrix, _pivot, null_space, rank, solve_linear
from steinitz.lp import (BoxLP, InfeasibleStart, NonPointedCone, _Canonical, _Simplex,
                         enum_integer_points, extreme_rays, find_feasible, lp_solve,
                         purify_to_vertex)


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


def _reference_iterate(self, c):
    """The simplex loop as it was when every nonbasic column was priced from
    scratch on each iteration, kept as the oracle of the incremental
    reduced costs."""
    nb_all = self.nstruct + self.nrows if len(c) > self.nstruct else self.nstruct
    while True:
        basic = set(self.basis)
        cb = [c[v] if v < len(c) else ZERO for v in self.basis]
        entering = None
        direction = 0
        for j in range(nb_all):
            if j in basic or (j >= len(c)):
                continue
            zj = c[j] - sum((cb[i] * self.T[i][j] for i in range(self.nrows)), ZERO)
            if j in self.at_upper:
                if zj < 0:
                    entering, direction = j, -1
                    break
            else:
                if zj > 0:
                    entering, direction = j, 1
                    break
        if entering is None:
            return "optimal"
        col = [self.T[i][entering] for i in range(self.nrows)]
        candidates = []
        if self.ub[entering] is not None:
            candidates.append((self.ub[entering], entering, "flip", -1))
        for i in range(self.nrows):
            rate = -direction * col[i]
            if rate < 0:
                candidates.append((self.xb[i] / (-rate), self.basis[i], "drop-lower", i))
            elif rate > 0:
                ubi = self.ub[self.basis[i]]
                if ubi is not None:
                    candidates.append(((ubi - self.xb[i]) / rate, self.basis[i], "drop-upper", i))
        if not candidates:
            return "unbounded"
        step = min(cand[0] for cand in candidates)
        _, _, kind, row = min(c4 for c4 in candidates if c4[0] == step)
        for i in range(self.nrows):
            self.xb[i] -= direction * step * col[i]
        if kind == "flip":
            if direction == 1:
                self.at_upper.add(entering)
            else:
                self.at_upper.discard(entering)
            continue
        leaving = self.basis[row]
        enter_val = (self.ub[entering] if entering in self.at_upper else ZERO) + direction * step
        self.at_upper.discard(entering)
        if kind == "drop-upper":
            self.at_upper.add(leaving)
        self.basis[row] = entering
        self.xb[row] = enter_val
        _pivot(self.T, row, entering)


def _simplex_run(lp):
    """Both phases by hand: the statuses and the final basis, bounds and values."""
    canon = _Canonical(lp)
    sx = _Simplex(canon.cols, canon.b, canon.ub)
    feasible = sx.solve_phase1()
    status = sx._iterate(list(canon.c)) if feasible else None
    return feasible, status, list(sx.basis), sorted(sx.at_upper), list(sx.xb)


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


def test_incremental_pricing_matches_from_scratch_pricing(monkeypatch):
    runs = []
    for lp in _pricing_lps():
        runs.append((_simplex_run(lp), find_feasible(lp), lp_solve(lp)))
    monkeypatch.setattr(_Simplex, "_iterate", _reference_iterate)
    statuses = set()
    for lp, (run, feasible, solved) in zip(_pricing_lps(), runs):
        assert run == _simplex_run(lp)
        assert feasible == find_feasible(lp) and solved == lp_solve(lp)
        statuses.add(solved.status)
    assert statuses == {"optimal", "unbounded", "infeasible"}


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
                from steinitz.linalg import primitive_integer_vector
                # drop candidates in the span of fewer tight constraints only
                # when they are not extreme: extremality check via tight rank
                tight = [i for i in range(len(rows))
                         if sum(rows[i][k] * cand[k] for k in range(d)) == 0]
                Mt = Matrix.from_rows([rows[i] for i in tight]) if tight else Matrix.zeros(0, d)
                if rank(Mt) == d - 1:
                    found[primitive_integer_vector(cand)] = None
    return sorted(found)


def test_extreme_rays_seeded_cross_check():
    rng = random.Random(17)
    checked = 0
    while checked < 10:
        rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(5)]
        M = Matrix.from_rows(rows)
        if null_space(M):
            continue
        rays = extreme_rays(M)
        assert rays == _rays_by_pair_enumeration(M)
        # membership LP: each ray satisfies every inequality
        for r in rays:
            assert all(sum(M.at(i, k) * r[k] for k in range(3)) >= 0
                       for i in range(M.rows))
        checked += 1


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
