"""Differential tests of the row-pruned integer-point enumeration.

The ``_reference_*`` functions are the full-box loops that ``brute_ilp``,
``graver_enumerate``, the nearest-optimum search of ``proximity_report``
and ``minimal_kernel_below`` ran before they passed their equality system
to ``enum_integer_points``: plain enumeration of the box, then a check of
``H z`` over Fraction.  They are kept here unchanged as the oracle; on
every seeded instance the library must return the same values, tie-breaks
included.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from steinitz import blockip
from steinitz.blockip import (FourBlockInstance, conformal_leq, graver_enumerate,
                              minimal_kernel_below, proximity_report, solve_four_block)
from steinitz.generate import GenerationError, gen_four_block
from steinitz.linalg import ZERO, Matrix, linf_norm, rat, vsub
from steinitz.lp import enum_integer_points
from steinitz.oracles import brute_ilp
from steinitz.verify import run_suites


def _reference_upper(inst, box_cap):
    upper = []
    for u in list(inst.ux) + list(inst.uy):
        if u is None:
            if box_cap is None:
                raise ValueError("unbounded search box: provide box_cap")
            upper.append(F(box_cap))
        else:
            upper.append(min(rat(u), F(box_cap)) if box_cap is not None else rat(u))
    return tuple(upper)


def _reference_brute_ilp(inst, box_cap=None):
    H = inst.H_matrix()
    upper = _reference_upper(inst, box_cap)
    b = tuple(inst.b)
    c = tuple(inst.cx) + tuple(inst.cy)
    best = None
    best_val = None
    for z in enum_integer_points((ZERO,) * len(upper), upper):
        if H.mul_vec(z) != b:
            continue
        val = sum((ci * zi for ci, zi in zip(c, z)), ZERO)
        if best_val is None or val > best_val:
            best, best_val = z, val
    if best is None:
        return None
    return best, best_val


def _reference_nearest_optimum(inst, lp_vertex, box_cap=None):
    """(nearest optimal point, its l_inf distance) by two passes: the
    optimum value first, then the first optimum of least distance."""
    opt = _reference_brute_ilp(inst, box_cap)
    if opt is None:
        return None
    H = inst.H_matrix()
    upper = _reference_upper(inst, box_cap)
    c = tuple(inst.cx) + tuple(inst.cy)
    b = tuple(inst.b)
    nearest = None
    best_dist = None
    for z in enum_integer_points((ZERO,) * len(upper), upper):
        if H.mul_vec(z) != b:
            continue
        if sum((ci * zi for ci, zi in zip(c, z)), ZERO) != opt[1]:
            continue
        dist = linf_norm(vsub(lp_vertex, z))
        if best_dist is None or dist < best_dist:
            best_dist, nearest = dist, z
    return nearest, best_dist


def _reference_graver(inst, box):
    H = inst.H_matrix()
    dim = inst.x_dim + inst.y_dim
    zero = (ZERO,) * H.rows
    kernel = [z for z in enum_integer_points((-box,) * dim, (box,) * dim,
                                             predicate=lambda z: any(z))
              if H.mul_vec(z) == zero]
    return [g for g in kernel if not any(h != g and conformal_leq(h, g) for h in kernel)]


def _reference_minimal_kernel_below(Ai, w, cap):
    upper = tuple(math.floor(rat(x)) for x in w)
    for z in enum_integer_points((0,) * len(w), upper, ell1_cap=cap):
        if any(z) and all(x == 0 for x in Ai.mul_vec(z)):
            return z
    return None


def _instances(shape, delta, seeds):
    out = []
    for seed in seeds:
        try:
            out.append(gen_four_block(*shape, delta, seed)[0])
        except GenerationError:
            continue
    return out


# ---------------------------------------------------------------------------
# the enumerator itself


def test_enumerator_matches_filtered_box_on_random_systems():
    rng = random.Random(7)
    nonempty = 0
    for _ in range(400):
        n = rng.randint(0, 4)
        lower = [rng.randint(-2, 1) for _ in range(n)]
        upper = [lo + rng.randint(-1, 3) for lo in lower]
        if rng.random() < 0.3:
            lower = [F(2 * lo - 1, 2) for lo in lower]
            upper = [F(3 * hi + 1, 3) for hi in upper]
        rows = [tuple(rng.choice((0, 0, 1, -1, 2, -2)) for _ in range(n))
                for _ in range(rng.randint(0, 3))]
        point = [rng.randint(-2, 3) for _ in range(n)]
        rhs = tuple(sum(a * v for a, v in zip(row, point)) + rng.choice((0, 0, 1))
                    for row in rows)
        cap = rng.choice((None, None, 0, 1, 2, 4))
        pred = rng.choice((None, any, lambda z: sum(z) % 2 == 0))
        want = [z for z in enum_integer_points(lower, upper, cap, pred)
                if all(sum(a * v for a, v in zip(row, z)) == r for row, r in zip(rows, rhs))]
        got = list(enum_integer_points(lower, upper, cap, pred, system=(rows, rhs)))
        assert got == want
        nonempty += bool(want)
    assert nonempty > 50


def test_enumerator_zero_rows_and_empty_box():
    box = ((0, 0), (2, 2))
    assert list(enum_integer_points(*box, system=([(0, 0)], (1,)))) == []
    assert list(enum_integer_points(*box, system=([(0, 0)], (0,)))) == \
        list(enum_integer_points(*box))
    assert list(enum_integer_points((0, 3), (2, 2), system=([(1, 1)], (3,)))) == []
    assert list(enum_integer_points((), (), system=([()], (0,)))) == [()]
    assert list(enum_integer_points((), (), system=([()], (1,)))) == []
    assert list(enum_integer_points((0, 0), (3, 3), system=([(1, -1)], (0,)))) == \
        [(0, 0), (1, 1), (2, 2), (3, 3)]


def test_enumerator_system_shape_checked():
    with pytest.raises(ValueError):
        list(enum_integer_points((0, 0), (1, 1), system=([(1, 1, 1)], (0,))))
    with pytest.raises(ValueError):
        list(enum_integer_points((0, 0), (1, 1), system=([(1, 1)], (0, 0))))


# ---------------------------------------------------------------------------
# brute_ilp and the proximity report


def test_brute_ilp_matches_reference():
    insts = _instances((1, 1, 1, 1, 2), 1, range(3000, 3012)) + \
        _instances((1, 1, 1, 2, 2), 2, range(3100, 3106))
    assert len(insts) >= 12
    for inst in insts:
        assert brute_ilp(inst) == _reference_brute_ilp(inst)
        # a zero objective makes every feasible point tie
        flat = replace(inst, cx=(ZERO,) * inst.t0, cy=(ZERO,) * len(inst.cy))
        assert brute_ilp(flat) == _reference_brute_ilp(flat)
        for cap in (0, 1, 2):
            assert brute_ilp(inst, box_cap=cap) == _reference_brute_ilp(inst, cap)


def test_brute_ilp_open_bounds_with_box_cap():
    for inst in _instances((1, 1, 1, 1, 2), 1, range(3200, 3210)):
        opened = replace(inst, uy=(None,) + tuple(inst.uy[1:]), ux=(None,))
        for cap in (1, 2, 4):
            assert brute_ilp(opened, box_cap=cap) == _reference_brute_ilp(opened, cap)
        with pytest.raises(ValueError):
            brute_ilp(opened)


def test_brute_ilp_infeasible_empty_and_zero_rows():
    inst = _instances((1, 1, 1, 1, 2), 1, range(3300, 3301))[0]
    # no point of the box reaches this rhs
    far = replace(inst, b=tuple(v + 40 for v in inst.b))
    assert brute_ilp(far) is None and _reference_brute_ilp(far) is None
    # a negative bound empties the box
    empty = replace(inst, ux=(F(-1),))
    assert brute_ilp(empty) is None and _reference_brute_ilp(empty) is None
    # diagonal rows that are all zero: feasible only with a zero rhs there
    zero_rows = FourBlockInstance.make(
        Matrix.from_rows([[1]]), [Matrix.zeros(1, 1)] * 2, [Matrix.zeros(1, 1)] * 2,
        [Matrix.from_rows([[-1]]), Matrix.from_rows([[1]])], (1, 0, 0),
        (F(1),), (F(2), F(-1)), (F(3),), (F(3), F(3)))
    assert brute_ilp(zero_rows) == _reference_brute_ilp(zero_rows) == ((3, 3, 1), F(8))
    for rhs in ((1, 1, 0), (1, 0, -2)):
        bad = replace(zero_rows, b=rhs)
        assert brute_ilp(bad) is None and _reference_brute_ilp(bad) is None


def test_proximity_nearest_optimum_matches_reference():
    checked = 0
    for inst in _instances((1, 1, 1, 1, 2), 1, range(3400, 3420)):
        for variant in (inst, replace(inst, cx=(ZERO,), cy=(ZERO,) * len(inst.cy)),
                        replace(inst, cy=(F(1),) * len(inst.cy))):
            rep = proximity_report(variant)
            if rep.lp_status != "optimal":
                continue
            ref = _reference_nearest_optimum(variant, rep.lp_vertex)
            if ref is None:
                assert not rep.ip_feasible
                continue
            assert (rep.nearest_optimal_ip, rep.distance_inf) == ref
            checked += 1
    assert checked >= 30


def test_proximity_tie_at_least_distance_keeps_first():
    # 2x + y11 + y21 = 3, y_i1 = y_i2, max x: the LP vertex is x = 3/2, and
    # both optima with x = 1 lie at distance 1 from it
    zero = Matrix.zeros(1, 1)
    inst = FourBlockInstance.make(
        Matrix.from_rows([[2]]), [zero, zero], [Matrix.from_rows([[1, -1]])] * 2,
        [Matrix.from_rows([[1, 0]])] * 2, (3, 0, 0), (F(1),), (ZERO,) * 4,
        (F(3),), (F(3),) * 4)
    rep = proximity_report(inst)
    assert rep.lp_vertex == (F(3, 2), 0, 0, 0, 0)
    assert (rep.nearest_optimal_ip, rep.distance_inf) == \
        _reference_nearest_optimum(inst, rep.lp_vertex) == ((1, 0, 0, 1, 1), 1)


def test_proximity_box_cap_matches_reference():
    checked = 0
    for inst in _instances((1, 1, 1, 1, 2), 1, range(3500, 3510)):
        opened = replace(inst, uy=(None,) * len(inst.uy))
        for cap in (1, 3):
            rep = proximity_report(opened, box_cap=cap)
            if rep.lp_status != "optimal":
                continue
            ref = _reference_nearest_optimum(opened, rep.lp_vertex, cap)
            assert rep.ip_feasible == (ref is not None)
            if ref is not None:
                assert (rep.nearest_optimal_ip, rep.distance_inf) == ref
                checked += 1
    assert checked >= 5


def test_negative_box_cap_rejected():
    inst = _instances((1, 1, 1, 1, 2), 1, range(3600, 3601))[0]
    with pytest.raises(ValueError, match="box_cap"):
        brute_ilp(inst, box_cap=-1)
    with pytest.raises(ValueError, match="box_cap"):
        proximity_report(inst, box_cap=-2)


# ---------------------------------------------------------------------------
# Graver bases and small kernel vectors


@pytest.mark.parametrize("shape,delta,box", [((1, 1, 1, 1, 2), 1, 3),
                                             ((1, 1, 1, 1, 2), 2, 2),
                                             ((1, 1, 1, 2, 1), 2, 3),
                                             ((2, 1, 1, 1, 2), 1, 2)])
def test_graver_matches_reference(shape, delta, box):
    insts = _instances(shape, delta, range(3700, 3705))
    assert insts
    for inst in insts:
        assert graver_enumerate(inst, box) == _reference_graver(inst, box)


def test_minimal_kernel_below_matches_reference():
    rng = random.Random(11)
    found = 0
    for _ in range(150):
        s, t = rng.randint(1, 2), rng.randint(2, 4)
        Ai = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(t)] for _ in range(s)])
        w = tuple(F(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(t))
        cap = rng.randint(0, 6)
        z = minimal_kernel_below(Ai, w, cap)
        assert z == _reference_minimal_kernel_below(Ai, w, cap)
        found += z is not None
    assert found > 20
    with pytest.raises(ValueError, match="integer matrix"):
        minimal_kernel_below(Matrix.from_rows([[F(1, 2), -1]]), (F(2), F(2)), 3)


# ---------------------------------------------------------------------------
# the solver's LP-implied bounds


def _bounded_open_instance(seed):
    """Blocks A_i with positive entries, so y_i >= 0 and A_i y_i = b_i - B_i x
    bound every y coordinate although uy is all None."""
    rng = random.Random(seed)
    draw = lambda r, c, lo, hi: Matrix.from_rows(  # noqa: E731
        [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)])
    n, t = 2, 2
    A0, B = draw(1, 1, -1, 1), [draw(1, 1, -1, 1) for _ in range(n)]
    A, C = [draw(1, t, 1, 2) for _ in range(n)], [draw(1, t, -2, 2) for _ in range(n)]
    cx = (F(rng.randint(-3, 3)),)
    cy = tuple(F(rng.randint(-3, 3)) for _ in range(n * t))
    uy = tuple(None if rng.random() < 0.75 else F(2) for _ in range(n * t))
    shell = FourBlockInstance.make(A0, B, A, C, (0,) * (1 + n), cx, cy, (F(2),), uy)
    z0 = tuple(rng.randint(0, 2) for _ in range(1 + n * t))
    return replace(shell, b=shell.H_matrix().mul_vec(z0))


def test_solve_implied_upper_matches_reference(monkeypatch):
    probes = []
    real = blockip._implied_upper

    def counted(*args):
        probes.append(args[-1])     # the probed coordinate j
        return real(*args)

    monkeypatch.setattr(blockip, "_implied_upper", counted)
    for seed in range(3800, 3806):
        inst = _bounded_open_instance(seed)
        # block i: y_ij <= A_i y_i = b_i - B_i x <= b_i + 2, as |B_i| <= 1 and x <= 2
        cap = int(max(inst.b[1:])) + 2
        # the zero objective makes every feasible point an optimum
        for variant in (inst, replace(inst, cx=(ZERO,), cy=(ZERO,) * len(inst.cy))):
            ref = _reference_brute_ilp(variant, cap)
            sol = solve_four_block(variant, 4)  # covers all of 0 <= x <= ux = 2
            if ref is None:
                assert sol is None
            else:
                assert sol == (ref[0][:1], ref[0][1:], ref[1])
    assert probes


# ---------------------------------------------------------------------------
# golden report lines of the lattice suites


GOLDEN_LATTICE_SEED_1 = [
    "ok graver[0] box=4 size=2",
    "ok graver[1] box=4 size=2",
    "ok graver[2] box=4 size=2",
    "ok graver[3] box=4 size=2",
    "ok solve[0] value=-15 radius_xi=5031",
    "ok solve[1] value=2 radius_xi=5031",
    "ok solve[2] value=3 radius_xi=5031",
    "ok solve[3] value=-1 radius_xi=1407150",
    "ok proximity[0] dist=0 xi=1407150",
    "ok proximity[1] dist=0 xi=5031",
    "ok proximity[2] dist=0 xi=5031",
    "ok proximity[3] dist=0 xi=5031",
]


def test_lattice_suites_golden():
    lines, ok = run_suites(["graver", "solve", "proximity"], seed=1)
    assert ok and lines == GOLDEN_LATTICE_SEED_1
