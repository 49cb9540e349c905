import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from steinitz.linalg import Matrix, null_space, rank, solve_linear
from steinitz.lp import (BoxLP, InfeasibleStart, NonPointedCone, enum_integer_points,
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
    """The simplex point is already a vertex when no variable is free, also
    with a redundant row and with a variable bounded above only."""
    rng = random.Random(29)
    optimal = 0
    for k in range(60):
        n = rng.randint(2, 4)
        rows = [[rng.randint(-2, 2) for _ in range(n)]]
        if k % 3 == 0:
            rows.append([2 * a for a in rows[0]])
        M = Matrix.from_rows(rows)
        x_feas = tuple(F(rng.randint(0, 2)) for _ in range(n))
        b = M.mul_vec(x_feas)
        c = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        lower = (None if k % 2 else F(0),) + (F(0),) * (n - 1)
        lp = BoxLP(M, b, lower, (F(3),) * n, c)
        res = lp_solve(lp)
        if res.status == "unbounded":
            assert lower[0] is None and c[0] < 0
            continue
        assert res.status == "optimal"
        optimal += 1
        feas_val = sum(ci * xi for ci, xi in zip(c, x_feas))
        assert res.value >= feas_val
        assert purify_to_vertex(lp, res.x) == res.x
    assert optimal >= 50


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
