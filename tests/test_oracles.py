import math
from fractions import Fraction as F
from itertools import combinations

import pytest

from steinitz.linalg import ZERO, Matrix
from steinitz.norms import L1_NORM, LINF_NORM, norm_eval
from steinitz.rearrange import VectorSequence
from steinitz.blockip import FourBlockInstance
from steinitz.generate import gen_zero_sum_family
from steinitz.oracles import (BudgetExceeded, brute_colorful_optimum, brute_ilp,
                              brute_rearrange_optimum, brute_single_sum)


def test_brute_rearrange_two_elements():
    seq = VectorSequence(((F(1),), (F(-1),)), 1, LINF_NORM)
    assert brute_rearrange_optimum(seq) == 1


def test_brute_rearrange_axis_vectors():
    vs = ((F(1), F(0)), (F(0), F(1)), (F(-1), F(0)), (F(0), F(-1)))
    seq = VectorSequence(vs, 2, LINF_NORM)
    assert brute_rearrange_optimum(seq) == 1


def test_brute_rearrange_budget():
    seq = VectorSequence(tuple(((F(0),)) for _ in range(9)), 1, LINF_NORM)
    seq = VectorSequence(tuple((F(0),) for _ in range(9)), 1, LINF_NORM)
    with pytest.raises(BudgetExceeded):
        brute_rearrange_optimum(seq, budget=1000)


def test_brute_colorful_bound():
    fam = gen_zero_sum_family(1, 2, 2, LINF_NORM, 5)
    opt = brute_colorful_optimum(fam)
    assert opt <= min(2 * 1, 40)


def test_brute_colorful_budget():
    fam = gen_zero_sum_family(1, 3, 4, LINF_NORM, 6)
    with pytest.raises(BudgetExceeded):
        brute_colorful_optimum(fam, budget=100)


def test_brute_single_sum_edges():
    fam = gen_zero_sum_family(2, 2, 3, LINF_NORM, 7)
    assert brute_single_sum(fam, 0) == 0
    assert brute_single_sum(fam, 3) == 0


def test_brute_single_sum_budget():
    fam = gen_zero_sum_family(1, 5, 8, LINF_NORM, 8)
    with pytest.raises(BudgetExceeded):
        brute_single_sum(fam, 4, budget=100)


def _reference_single_sum(fam, k):
    """The Fraction fold that brute_single_sum replaced, kept unchanged."""
    n, m = fam.colors, fam.length
    partial = {(ZERO,) * fam.dim: None}
    for j in range(n):
        sums = set()
        for sel in combinations(range(m), k):
            s = [ZERO] * fam.dim
            for i in sel:
                v = fam.vectors[j][i]
                for r in range(fam.dim):
                    s[r] += v[r]
            sums.add(tuple(s))
        nxt = set()
        for p in partial:
            for s in sums:
                nxt.add(tuple(a + b for a, b in zip(p, s)))
        partial = nxt
    return min(norm_eval(fam.norm, p) for p in partial)


def test_integer_single_sum_matches_fraction_reference():
    # the families of acceptance criterion 5
    sizes = [(2, 8), (3, 6), (4, 5), (5, 4)]
    scales = set()
    for i in range(40):
        n, m = sizes[i % 4]
        fam = gen_zero_sum_family(1 + i % 4, n, m, (LINF_NORM, L1_NORM)[i % 2], 50_000 + i)
        scales.add(math.lcm(*(x.denominator for color in fam.vectors for v in color
                              for x in v)))
        for k in range(m + 1):
            got = brute_single_sum(fam, k)
            assert got == _reference_single_sum(fam, k), (i, k)
            assert isinstance(got, F)
    assert max(scales) > 1


@pytest.mark.parametrize("k", [-1, 6, 9])
def test_brute_single_sum_k_out_of_range(k):
    fam = gen_zero_sum_family(2, 3, 5, LINF_NORM, 4)
    with pytest.raises(ValueError, match="k out of range"):
        brute_single_sum(fam, k)


def _knapsack_instance():
    # single linking row 2x + y1 + 3y2 = 7 with small boxes; the diagonal
    # rows are zero so the search is a plain knapsack
    return FourBlockInstance.make(
        Matrix.from_rows([[2]]),
        [Matrix.zeros(1, 1), Matrix.zeros(1, 1)],
        [Matrix.zeros(1, 1), Matrix.zeros(1, 1)],
        [Matrix.from_rows([[1]]), Matrix.from_rows([[3]])],
        (7, 0, 0), (3,), (1, 2), (F(2),), (F(3), F(2)))


def test_brute_ilp_knapsack_hand_check():
    inst = _knapsack_instance()
    res = brute_ilp(inst)
    assert res is not None
    z, value = res
    # hand enumeration: 2x + y1 + 3y2 = 7, x <= 2, y1 <= 3, y2 <= 2,
    # maximize 3x + y1 + 2y2: best is x=2, y1=3, y2=0 -> 9
    assert value == 9 and z == (2, 3, 0)


def test_brute_ilp_zero_objective():
    inst = _knapsack_instance()
    inst2 = FourBlockInstance.make(
        inst.A0, list(inst.B), list(inst.A), list(inst.C), inst.b,
        (0,), (0, 0), inst.ux, inst.uy)
    res = brute_ilp(inst2)
    assert res is not None and res[1] == 0


def test_brute_ilp_infeasible():
    inst = _knapsack_instance()
    bad = FourBlockInstance.make(
        inst.A0, list(inst.B), list(inst.A), list(inst.C), (100, 0, 0),
        inst.cx, inst.cy, inst.ux, inst.uy)
    assert brute_ilp(bad) is None


def test_brute_ilp_unbounded_box_rejected():
    inst = _knapsack_instance()
    open_inst = FourBlockInstance.make(
        inst.A0, list(inst.B), list(inst.A), list(inst.C), inst.b,
        inst.cx, inst.cy, (None,), inst.uy)
    with pytest.raises(ValueError):
        brute_ilp(open_inst)
    # with x freed up to the cap, x=3 y1=1 y2=0 wins: 2*3+1 = 7, value 10
    assert brute_ilp(open_inst, box_cap=4)[1] == 10
