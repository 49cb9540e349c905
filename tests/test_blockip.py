import dataclasses
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest

from steinitz.linalg import (Matrix, ceil_sqrt, det, lcm_abs_dets, linf_norm, l1_norm,
                             rank_of_vectors, solve_linear, vscale)
from steinitz.lp import BoxLP, enum_integer_points, find_feasible, lp_solve
from steinitz import blockip, linalg
from steinitz.blockip import (FeasibleBasis, FourBlockInstance, KernelPoint, PropertyViolation,
                              block_bases, cone_rays_K, decompose_bundle, decompose_u, decompose_x,
                              feasible_bases, graver_enumerate, kernel_bound,
                              lift_point, lift_three_block, minimal_kernel_below,
                              omega1, proximity_report, reduce_kernel_point,
                              reduce_kernel_point_signed, solve_four_block,
                              split_max_kernel, conformal_leq)
from steinitz.generate import GenerationError, gen_four_block

import fourblock_reference
from steinitz.oracles import brute_ilp
from steinitz.verify import PIPELINE_SHAPES, SUITES, run_suites


def inst_1row(a0, c_entries, n=1):
    """Instance whose only constraints of interest are the s0 row
    [a0 | c...]; the diagonal blocks contribute zero rows."""
    t = len(c_entries) // n
    return FourBlockInstance.make(
        Matrix.from_rows([[a0]]),
        [Matrix.zeros(1, 1)] * n,
        [Matrix.zeros(1, t)] * n,
        [Matrix.from_rows([c_entries[i * t:(i + 1) * t]]) for i in range(n)],
        (0,) * (1 + n), (0,), (0,) * (n * t), (None,), (None,) * (n * t))


def gen_pipeline(shape, delta, seed, **kw):
    sub = 0
    while True:
        try:
            return gen_four_block(*shape, delta, seed + sub, zero_a0=True, **kw)
        except GenerationError:
            sub += 1


# ---------------------------------------------------------------------------
# lifting


def test_lift_identity_when_a0_zero():
    inst, _ = gen_pipeline((1, 1, 1, 1, 2), 1, 40)
    assert lift_three_block(inst) is inst


def test_lift_kernel_bijection():
    inst, pt = gen_four_block(1, 1, 1, 1, 2, 1, 8, zero_a0=False)
    lifted = lift_three_block(inst)
    lx, ly = lift_point(inst, pt.x, pt.y)
    assert all(v == 0 for v in lifted.H_matrix().mul_vec(tuple(lx) + tuple(ly)))
    # and a non-kernel point stays non-kernel
    bad_y = tuple(v + 1 for v in pt.y)
    bx, by = lift_point(inst, pt.x, bad_y)
    orig_ok = all(v == 0 for v in inst.H_matrix().mul_vec(tuple(pt.x) + bad_y))
    lift_ok = all(v == 0 for v in lifted.H_matrix().mul_vec(tuple(bx) + tuple(by)))
    assert orig_ok == lift_ok


def test_lift_shape():
    inst, _ = gen_four_block(2, 1, 2, 1, 2, 1, 12, zero_a0=False)
    lifted = lift_three_block(inst)
    assert lifted.t0 == inst.t0 and lifted.s0 == inst.s0
    assert lifted.s == inst.s + inst.t0 and lifted.t == inst.t + inst.t0
    assert lifted.A0.is_zero()
    # the coupling rows x - xcopy = 0 sit in block 1
    top = lifted.A[0]
    assert all(top.at(r, r) == -1 for r in range(inst.t0))
    assert all(lifted.B[0].at(r, r) == 1 for r in range(inst.t0))


# ---------------------------------------------------------------------------
# kernel split and u decomposition


def test_split_zero_point():
    inst, _ = gen_pipeline((1, 1, 1, 1, 2), 1, 1)
    pt = KernelPoint((F(0),), (F(0),) * inst.y_dim)
    u, v = split_max_kernel(inst, pt)
    assert all(x == 0 for x in u) and all(x == 0 for x in v)


def test_split_trivial_kernel_block():
    # A^i = [1] has a trivial kernel, so u = 0 and v = y
    A0 = Matrix.zeros(1, 1)
    B = [Matrix.from_rows([[-1]])]
    A = [Matrix.from_rows([[1]])]
    C = [Matrix.zeros(1, 1)]
    inst = FourBlockInstance.make(A0, B, A, C, (0, 0), (0,), (0,), (None,), (None,))
    pt = KernelPoint((F(2),), (F(2),))  # -x + y = 0
    u, v = split_max_kernel(inst, pt)
    assert u == (0,) and v == (2,)


def test_split_extracts_kernel_mass():
    # A^i = [1, -1]: kernel direction (1, 1) below y is fully absorbed
    A0 = Matrix.zeros(1, 1)
    B = [Matrix.from_rows([[0]])]
    A = [Matrix.from_rows([[1, -1]])]
    C = [Matrix.zeros(1, 2)]
    inst = FourBlockInstance.make(A0, B, A, C, (0, 0), (0,), (0, 0), (None,), (None, None))
    pt = KernelPoint((F(0),), (F(3), F(3)))
    u, v = split_max_kernel(inst, pt)
    assert u == (3, 3) and v == (0, 0)
    # residual admits no nonzero kernel point below it
    lp = BoxLP(A[0], (F(0),), (F(0), F(0)), v, (F(1), F(1)))
    assert lp_solve(lp).value == 0


def test_minimal_kernel_below_examples():
    assert minimal_kernel_below(Matrix.from_rows([[1, -1]]), (F(0), F(0)), 3) is None
    assert minimal_kernel_below(Matrix.from_rows([[1, -1]]), (F(2), F(2)), 3) == (1, 1)


def test_minimal_kernel_below_seeded_1x3():
    rng = random.Random(2)
    Ai = Matrix.from_rows([[1, -1, 1]])
    w = (F(3), F(2), F(2))
    cap = 5
    z = minimal_kernel_below(Ai, w, cap)
    assert z is not None
    assert any(z) and all(0 <= z[i] <= w[i] for i in range(3))
    assert sum(abs(v) for v in z) <= cap
    assert all(x == 0 for x in Ai.mul_vec(z))
    # full enumeration double-check: z is the lex-first qualifying point
    allpts = [p for p in enum_integer_points((0, 0, 0), w, ell1_cap=cap)
              if any(p) and all(x == 0 for x in Ai.mul_vec(p))]
    assert z == allpts[0]


def test_decompose_u_zero():
    inst, _ = gen_pipeline((1, 1, 1, 1, 2), 1, 3)
    u0, seq = decompose_u(inst, (F(0),) * inst.y_dim)
    assert seq == () and all(x == 0 for x in u0)


def test_decompose_u_at_cap_no_extraction():
    # t = 2, s = 1, delta = 1: cap = 2 * 3 = 6 and ||u||_1 = 6 stays put
    A0 = Matrix.zeros(1, 1)
    B = [Matrix.from_rows([[0]])]
    A = [Matrix.from_rows([[1, -1]])]
    C = [Matrix.from_rows([[1, 0]])]
    inst = FourBlockInstance.make(A0, B, A, C, (0, 0), (0,), (0, 0), (None,), (None, None))
    assert kernel_bound(inst) == 6
    u0, seq = decompose_u(inst, (F(3), F(3)))
    assert seq == () and u0 == (3, 3)


def test_decompose_u_seeded_properties():
    inst, pt = gen_pipeline((2, 1, 1, 1, 3), 1, 77, scale=60)
    u, v = split_max_kernel(inst, pt)
    u0, seq = decompose_u(inst, u)
    K = kernel_bound(inst)
    alpha0 = len(seq)
    assert alpha0 >= F(linf_norm(u), K) - 1
    for piece in seq:
        assert l1_norm(piece) <= K
        assert all(x == int(x) and x >= 0 for x in piece)
        for i in range(inst.n):
            assert all(x == 0 for x in inst.A[i].mul_vec(inst.y_block(piece, i)))
    assert l1_norm(u0) <= inst.n * K and linf_norm(u0) <= K
    if alpha0 >= 1:
        images = [inst.apply_C(p) for p in seq]
        q = tuple(sum(col) for col in zip(*images))
        prefix = [F(0)] * inst.s0
        for k, im in enumerate(images, start=1):
            for r in range(inst.s0):
                prefix[r] += im[r]
            dev = max(abs(prefix[r] - F(k, alpha0) * q[r]) for r in range(inst.s0))
            assert dev <= inst.s0 * 2 * inst.delta * K


# ---------------------------------------------------------------------------
# feasible bases, cone rays, x decomposition


def test_feasible_bases_identity():
    Ai = Matrix.identity(2)
    Bi = Matrix.from_rows([[-1], [-1]])
    out = feasible_bases(Ai, Bi, (F(1),))
    assert len(out) == 1 and out[0].cols == (0, 1)


def test_feasible_bases_zero_matrix_empty():
    assert feasible_bases(Matrix.zeros(2, 2), Matrix.zeros(2, 1), (F(1),)) == []


def test_feasible_bases_both_qualify():
    Ai = Matrix.from_rows([[1, 2]])
    Bi = Matrix.from_rows([[-2]])
    out = feasible_bases(Ai, Bi, (F(1),))
    assert [fb.cols for fb in out] == [(0,), (1,)]


def _ref_feasible_bases(Ai, Bi, x_hat):
    """Reference: a determinant test, then a separate solve for the vertex
    and one per column of Bi for the vertex map -D^{-1} Bi, per subset; a
    basis holds |det D| times the vertex map, which is integer."""
    rhs = Bi.mul_vec(x_hat)
    out = []
    for cols in combinations(range(Ai.cols), Ai.rows):
        D = Ai.column_submatrix(cols)
        if det(D) == 0:
            continue
        if all(-x >= 0 for x in solve_linear(D, rhs)):
            sols = [solve_linear(D, Bi.col(c)) for c in range(Bi.cols)]
            d = int(det(D))
            rows = tuple(tuple(-abs(d) * sol[r] for sol in sols) for r in range(Ai.rows))
            assert all(a.denominator == 1 for row in rows for a in row)
            out.append(FeasibleBasis(cols, d, tuple(tuple(map(int, row)) for row in rows)))
    return out


def test_feasible_bases_matches_det_solve_reference():
    singular = nonempty = zero_row = 0
    for seed in range(40):
        rng = random.Random(seed)
        s = rng.randint(1, 3)
        t, t0 = rng.randint(s, s + 3), rng.randint(1, 3)
        rows = [[rng.randint(-2, 2) for _ in range(t)] for _ in range(s)]
        if seed % 5 == 0:
            rows[rng.randrange(s)] = [0] * t
            zero_row += 1
        elif seed % 3 == 0 and t > s:
            for r in rows:
                r[-1] = r[0]  # a repeated column makes some subsets singular
        Ai = Matrix.from_rows(rows)
        Bi = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(t0)] for _ in range(s)])
        x_hat = tuple(F(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(t0))
        ref = _ref_feasible_bases(Ai, Bi, x_hat)
        assert feasible_bases(Ai, Bi, x_hat) == ref
        singular += any(det(Ai.column_submatrix(c)) == 0 for c in combinations(range(t), s))
        nonempty += bool(ref)
    assert singular >= 10 and nonempty >= 10 and zero_row == 8


def test_cone_rays_t0_1():
    inst, pt = gen_pipeline((1, 1, 1, 1, 2), 1, 21)
    tables = [block_bases(inst.A[i], inst.B[i]) for i in range(inst.n)]
    rays, w2, gamma = cone_rays_K(inst, pt.x, tables)
    if rays:
        assert rays == ((gamma,),)
        assert w2 == gamma


def test_cone_rays_zero_cone():
    # x >= 0 and -x >= 0 force K = {0}
    A0 = Matrix.zeros(1, 1)
    B = [Matrix.from_rows([[1]])]
    A = [Matrix.from_rows([[1]])]
    C = [Matrix.zeros(1, 1)]
    inst = FourBlockInstance.make(A0, B, A, C, (0, 0), (0,), (0,), (None,), (None,))
    rays, w2, gamma = cone_rays_K(inst, (F(0),))
    assert rays == () and w2 == 0


def test_cone_rays_seeded_t0_2_membership():
    inst, pt = gen_pipeline((1, 1, 2, 2, 2), 1, 33)
    rays, w2, gamma = cone_rays_K(inst, pt.x)
    if any(v != 0 for v in pt.x):
        assert rays
        M = Matrix.from_rows([[r[c] for r in rays] for c in range(2)])
        lp = BoxLP(M, tuple(pt.x), (F(0),) * len(rays), (None,) * len(rays))
        assert find_feasible(lp) is not None


def test_decompose_x_zero():
    assert decompose_x((F(0), F(0)), ((1, 0), (0, 1))) == ((), ())


def test_decompose_x_single_ray():
    lams, hs = decompose_x((F(3),), ((1,),))
    assert lams == (3,) and hs == ((1,),)


def test_decompose_x_seeded_reconstruction():
    inst, pt = gen_pipeline((1, 1, 2, 2, 2), 1, 34)
    rays, w2, gamma = cone_rays_K(inst, pt.x)
    lams, hs = decompose_x(pt.x, rays)
    assert len(lams) <= 2
    recon = [F(0), F(0)]
    for lam, h in zip(lams, hs):
        for c in range(2):
            recon[c] += lam * h[c]
    assert tuple(recon) == tuple(pt.x)
    for h in hs:
        assert linf_norm(h) <= w2


# ---------------------------------------------------------------------------
# full bundles and constants


def test_bundle_seeded_shapes():
    shapes = [(1, 1, 1, 1, 2), (1, 1, 1, 2, 2), (2, 1, 2, 2, 3), (1, 2, 1, 2, 2)]
    for k, shape in enumerate(shapes):
        inst, pt = gen_pipeline(shape, 1 + k % 2, 900 + k, scale=20)
        bundle, consts = decompose_bundle(inst, pt)
        assert consts.psi == 1 + bundle.alpha0 + sum(bundle.alphas)


def test_bundle_eliminates_each_block_basis_once(monkeypatch):
    """decompose_bundle eliminates each s-subset of each diagonal block's
    columns once, however many rays x splits over.  The only other
    elimination is compute_constants's rank of the nonzero C-image totals
    (through ``linalg._integer_echelon``), which runs when dim V > 0."""
    calls = []
    real = blockip._bareiss_echelon
    for module in (blockip, linalg):
        monkeypatch.setattr(module, "_bareiss_echelon",
                            lambda rows, *a: calls.append(rows) or real(rows, *a))
    with_rays = 0
    for k, shape in enumerate(PIPELINE_SHAPES):
        for seed in range(3):
            inst, pt = gen_pipeline(shape, 1 + seed % 2, 960 + 10 * k + seed, scale=24)
            calls.clear()
            bundle, consts = decompose_bundle(inst, pt)
            assert len(calls) == inst.n * math.comb(inst.t, inst.s) + (consts.dim_v > 0)
            with_rays += bool(bundle.lambdas)
    assert with_rays >= len(PIPELINE_SHAPES)


def test_constants_unit_example():
    inst, _ = gen_pipeline((1, 1, 1, 1, 2), 1, 50)
    assert kernel_bound(inst) == 3
    assert omega1(inst) == 1


def test_constants_empty_bundle():
    inst, _ = gen_pipeline((1, 1, 1, 1, 2), 1, 51)
    pt = KernelPoint((F(0),), (F(0),) * inst.y_dim)
    bundle, consts = decompose_bundle(inst, pt)
    assert consts.psi == 1 and consts.dim_v == 0


def test_constants_match_independent_reevaluation():
    inst, pt = gen_pipeline((2, 1, 1, 1, 3), 1, 52, scale=40)
    bundle, consts = decompose_bundle(inst, pt)
    s, t, s0, t0, delta = inst.s, inst.t, inst.s0, inst.t0, inst.delta
    K = t * (2 * s * delta + 1) ** s
    assert consts.kernel_bound == K
    assert consts.omega1 == t0 * delta ** s * ceil_sqrt(s ** (s + 1))
    assert consts.gamma == bundle.gamma
    terms = [linf_norm(bundle.r)]
    for ell, a in enumerate(bundle.alphas):
        if a:
            terms.append(linf_norm(bundle.p[ell]) / a)
    if bundle.alpha0:
        terms.append(linf_norm(bundle.q) / bundle.alpha0)
    assert consts.omega3 == max(terms)
    w4 = F(s0 * 2 * delta * K) + \
        F(t0 * 40 * s0 ** 5 * delta ** (s + 2) * s ** s * t0) * consts.omega2
    assert consts.omega4 == w4
    dv = rank_of_vectors([v for v in (bundle.r, bundle.q, *bundle.p)
                          if any(x != 0 for x in v)])
    assert consts.dim_v == dv
    root = ceil_sqrt(s0)
    w5 = 36 * (root * (consts.omega3 * (dv + 1) + w4 + F(1, 2))) ** dv \
        * (root * (w4 + F(1, 2))) ** (s0 - dv)
    assert consts.omega5 == w5
    assert consts.xi == (w5 + t0 * (t - s + 2) + 1) * max(consts.omega2, 1) \
        * max(consts.omega1, 1) * K
    assert consts.psi == 1 + bundle.alpha0 + sum(bundle.alphas)


def test_zero_sum_identity_of_bundle():
    inst, pt = gen_pipeline((2, 1, 1, 1, 2), 1, 53, scale=30)
    bundle, _ = decompose_bundle(inst, pt)
    total = [F(0)] * inst.s0
    for v in (*bundle.p, bundle.q, bundle.r):
        for r in range(inst.s0):
            total[r] += v[r]
    assert all(x == 0 for x in total)
    # and the C image of y itself vanishes (y in ker C by the kernel equations)
    assert all(x == 0 for x in inst.apply_C(pt.y))


# ---------------------------------------------------------------------------
# the reduction


def test_reduce_zero_point():
    inst, _ = gen_pipeline((1, 1, 1, 1, 2), 1, 60)
    pt = KernelPoint((F(0),), (F(0),) * inst.y_dim)
    out = reduce_kernel_point(inst, pt)
    assert out.vector is None and out.diagnostics["psi"] == 1


def test_reduce_doubled_integer_kernel_vector():
    # pt = 2 g for an integer kernel vector g: reduction must find a piece
    found_any = False
    for seed in range(30):
        inst, _ = gen_pipeline((1, 1, 1, 1, 2), 1, 800 + seed)
        basis = graver_enumerate(inst, 3)
        pos = [g for g in basis if all(v >= 0 for v in g)]
        if not pos:
            continue
        g = pos[0]
        pt = KernelPoint(tuple(F(2 * v) for v in g[:1]),
                         tuple(F(2 * v) for v in g[1:]))
        out = reduce_kernel_point(inst, pt)
        if out.vector is not None:
            xv, yv = out.vector
            z = tuple(xv) + tuple(yv)
            assert any(z)
            assert all(0 <= a <= b for a, b in zip(z, tuple(pt.x) + tuple(pt.y)))
            # oracle: independent enumeration below pt finds a witness
            upper = tuple(int(v) for v in tuple(pt.x) + tuple(pt.y))
            H = inst.H_matrix()
            wit = [p for p in enum_integer_points((0,) * len(upper), upper)
                   if any(p) and all(x == 0 for x in H.mul_vec(p))]
            assert wit
            found_any = True
            break
    assert found_any


def test_reduce_above_xi_guarantee():
    inst, pt = gen_pipeline((1, 1, 1, 1, 2), 1, 61)
    z = tuple(pt.x) + tuple(pt.y)
    assert linf_norm(z) > 0
    _, consts = decompose_bundle(inst, pt)
    c = math.ceil(consts.xi / linf_norm(z)) + 1
    big = KernelPoint(vscale(pt.x, c), vscale(pt.y, c))
    out = reduce_kernel_point(inst, big)
    assert linf_norm(tuple(big.x) + tuple(big.y)) > out.constants.xi
    assert out.vector is not None


def test_reduce_signed_wrapper_negative_orthant():
    # mixed-sign kernel point with A0 != 0, via the caller-facing wrapper
    inst, pt = gen_four_block(1, 1, 1, 1, 2, 1, 62, zero_a0=False)
    z = tuple(pt.x) + tuple(pt.y)
    if all(v == 0 for v in z):
        pytest.skip("degenerate draw")
    flipped = tuple(-v for v in z)
    # -z is a kernel point in the opposite orthant
    scale = 9
    found, outcome = reduce_kernel_point_signed(
        inst, tuple(scale * v for v in flipped[:1]),
        tuple(scale * v for v in flipped[1:]))
    if found is not None:
        fx, fy = found
        fz = tuple(fx) + tuple(fy)
        assert all(x == 0 for x in inst.H_matrix().mul_vec(fz))
        assert all(conformal_leq([a], [scale * b]) for a, b in zip(fz, flipped))


# ---------------------------------------------------------------------------
# Graver, solver, proximity


def test_graver_hand_cases():
    # H row [1, -1] via the linking row; diagonal rows are zero
    inst = inst_1row(1, [-1])
    assert graver_enumerate(inst, 3) == [(-1, -1), (1, 1)]
    inst = inst_1row(1, [1])
    assert graver_enumerate(inst, 3) == [(-1, 1), (1, -1)]


def test_graver_box_restriction_minimality():
    for seed in range(5):
        inst, _ = gen_pipeline((1, 1, 1, 1, 2), 1, 700 + seed)
        basis = graver_enumerate(inst, 4)
        H = inst.H_matrix()
        dim = inst.x_dim + inst.y_dim
        kernel = [z for z in enum_integer_points((-4,) * dim, (4,) * dim,
                                                 predicate=lambda z: any(z))
                  if all(v == 0 for v in H.mul_vec(z))]
        for g in basis:
            assert not any(h != g and conformal_leq(h, g) for h in kernel)


def test_graver_matches_the_quadratic_filter():
    """The same lists, in enumeration order, as the filter that tests every
    kernel point against every other, on seeded instances of several
    shapes, deltas and boxes."""
    cases = 0
    for shape in ((1, 1, 1, 2, 2), (1, 1, 1, 3, 2), (1, 1, 2, 2, 2), (2, 1, 1, 2, 2)):
        for delta in (1, 2):
            for seed in range(3):
                try:
                    inst, _ = gen_four_block(*shape, delta, 500 + seed)
                except GenerationError:
                    continue
                for box in (1, 2):
                    assert graver_enumerate(inst, box) == \
                        fourblock_reference.graver_enumerate(inst, box)
                    cases += 1
    assert cases >= 30, cases


def test_graver_filter_is_linear_in_the_kernel(monkeypatch):
    # n = 3, box 3: K = 30,376 kernel points and 38 Graver elements, 3.6 s
    # with every kernel point tested against every other; the best of two
    # runs is timed
    inst, _ = gen_four_block(1, 1, 1, 3, 3, delta=1, seed=11)
    seconds = []
    for _ in range(2):
        start = time.perf_counter()
        basis = graver_enumerate(inst, 3)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 1.0, seconds
    tests = []
    leq = blockip.conformal_leq
    monkeypatch.setattr(blockip, "conformal_leq", lambda h, g: tests.append(1) or leq(h, g))
    assert graver_enumerate(inst, 3) == basis and len(basis) == 38
    assert len(tests) <= 30_376 * 38, len(tests)


def test_graver_growth_with_n():
    rng_sizes = []
    for n in (1, 2, 3):
        A0 = Matrix.zeros(1, 1)
        B = [Matrix.from_rows([[1]])] * n
        A = [Matrix.from_rows([[-1, 1]])] * n
        C = [Matrix.from_rows([[1, -1]])] * n
        inst = FourBlockInstance.make(
            A0, B, A, C, (0,) * (1 + n), (0,), (0, 0) * n, (None,), (None, None) * n)
        basis = graver_enumerate(inst, 2)
        assert basis
        rng_sizes.append(max(linf_norm(g) for g in basis))
    assert rng_sizes[0] <= rng_sizes[1] <= rng_sizes[2]
    assert rng_sizes[2] <= 5031  # the xi scale of these tiny shapes


def test_solve_infeasible_lp():
    inst = FourBlockInstance.make(
        Matrix.from_rows([[1]]), [Matrix.from_rows([[0]])],
        [Matrix.from_rows([[1]])], [Matrix.from_rows([[0]])],
        (5, 0), (1,), (1,), (F(1),), (F(1),))
    assert solve_four_block(inst, 2) is None


def test_solve_matches_brute_force():
    checked = 0
    seed = 0
    while checked < 8 and seed < 60:
        seed += 1
        try:
            inst, _ = gen_four_block(1, 1, 1, 1, 2, 1, 1200 + seed)
        except GenerationError:
            continue
        opt = brute_ilp(inst)
        if opt is None:
            continue
        rep = proximity_report(inst)
        sol = solve_four_block(inst, math.ceil(rep.xi))
        assert sol is not None and sol[2] == opt[1]
        checked += 1
    assert checked == 8


def test_solve_integral_vertex_radius_zero():
    found = False
    for seed in range(40):
        try:
            inst, _ = gen_four_block(1, 1, 1, 1, 2, 1, 1300 + seed)
        except GenerationError:
            continue
        res = lp_solve(BoxLP(inst.H_matrix(), tuple(inst.b),
                             (F(0),) * 3, tuple(inst.ux) + tuple(inst.uy),
                             tuple(inst.cx) + tuple(inst.cy)))
        if res.status != "optimal" or not all(v.denominator == 1 for v in res.x):
            continue
        sol = solve_four_block(inst, 0)
        opt = brute_ilp(inst)
        assert sol is not None and sol[2] == opt[1] and sol[2] == res.value
        found = True
        break
    assert found


def test_proximity_integral_vertex_distance_zero():
    found = False
    for seed in range(40):
        try:
            inst, _ = gen_four_block(1, 1, 1, 1, 2, 1, 1400 + seed)
        except GenerationError:
            continue
        rep = proximity_report(inst)
        if rep.ip_feasible and rep.distance_inf == 0:
            assert rep.distance_inf <= rep.xi
            found = True
            break
    assert found


def test_proximity_infeasible_ip_report():
    # 2 y = 1: LP feasible at y = 1/2 but no integer point
    inst = FourBlockInstance.make(
        Matrix.from_rows([[0]]), [Matrix.from_rows([[0]])],
        [Matrix.from_rows([[2]])], [Matrix.from_rows([[0]])],
        (0, 1), (0,), (1,), (F(1),), (F(1),))
    rep = proximity_report(inst)
    assert rep.lp_status == "optimal" and not rep.ip_feasible


def test_property_violation_names():
    with pytest.raises(PropertyViolation) as err:
        raise PropertyViolation("u-prefix-tube", "demo")
    assert err.value.name == "u-prefix-tube"


def test_decompose_v_zero_branch_keeps_whole_part():
    # seed frozen so some ray multiplier sits in (0, t-s+1): no extraction,
    # the remainder is the whole per-ray part
    inst, pt = gen_four_block(1, 1, 1, 2, 2, 1, 2011, zero_a0=True, scale=6)
    bundle, _ = decompose_bundle(inst, pt)
    span = inst.t - inst.s + 1
    hit = False
    for ell, (lam, a) in enumerate(zip(bundle.lambdas, bundle.alphas)):
        if a == 0 and 0 < lam < span:
            assert bundle.v_seq[ell] == ()
            hit = True
    assert hit
    # the per-ray remainders and pieces still reassemble v exactly
    acc = [F(0)] * inst.y_dim
    for ell in range(len(bundle.lambdas)):
        for r, x in enumerate(bundle.v0[ell]):
            acc[r] += x
        for piece in bundle.v_seq[ell]:
            for r, x in enumerate(piece):
                acc[r] += x
    assert tuple(acc) == bundle.v_hat


def test_generator_retry_budget_error():
    # delta = 0 cannot give full-row-rank diagonal blocks, so the retry
    # budget must run out with a clear error
    import pytest as _pytest
    with _pytest.raises(GenerationError):
        gen_four_block(1, 1, 1, 1, 2, 0, 5, require_full_rank=True, max_retries=5)


def test_proximity_unbounded_lp_reported_distinctly():
    # open upper bound on a profitable variable that the constraints
    # leave free: 0*y = 0 rows, positive objective, no cap
    inst = FourBlockInstance.make(
        Matrix.from_rows([[0]]), [Matrix.from_rows([[0]])],
        [Matrix.from_rows([[0]])], [Matrix.from_rows([[0]])],
        (0, 0), (1,), (1,), (None,), (None,))
    rep = proximity_report(inst)
    assert rep.lp_status == "unbounded" and not rep.ip_feasible
    import pytest as _pytest
    from steinitz.blockip import UnboundedRelaxation
    with _pytest.raises(UnboundedRelaxation):
        solve_four_block(inst, 1)


def _reduce_workload_instances(seed):
    """The instances of the benchmark's reduce workload at seed: two rounds
    of lifted (1,1,1,1,n) instances and of PIPELINE_SHAPES draws, an empty
    draw redrawn under a shifted seed."""
    def draw(shape, base, **kw):
        for sub in range(50):
            try:
                return gen_four_block(*shape, 1, base + 131 * sub, **kw)[0]
            except GenerationError:
                continue
        raise RuntimeError(shape, base)

    for base in (seed * 10_000, seed * 10_000 + 1000):
        for j, n in enumerate((2, 3) * 4):
            yield draw((1, 1, 1, 1, n), base + j, zero_a0=True, scale=8)
        for r in range(14):
            for i, shape in enumerate(PIPELINE_SHAPES):
                yield draw(shape, base + 100 + r * len(PIPELINE_SHAPES) + i, zero_a0=True,
                           scale=24)


def test_gamma_from_block_bases_matches_lcm_abs_dets(monkeypatch):
    checked = []
    gamma = blockip._gamma

    def compared(inst, tables):
        got = gamma(inst, tables)
        if got != lcm_abs_dets(inst.A, inst.s, entry_bound=inst.delta):
            raise AssertionError("gamma differs from lcm_abs_dets")
        checked.append(got)
        return got

    monkeypatch.setattr(blockip, "_gamma", compared)
    lines, ok = run_suites(list(SUITES), 1)
    assert ok, [line for line in lines if not line.startswith("ok")]
    assert len(checked) >= 18 and max(checked) > 1, checked
    for inst in _reduce_workload_instances(1):
        compared(inst, [block_bases(inst.A[i], inst.B[i]) for i in range(inst.n)])
    assert len(checked) >= 18 + 2 * (8 + 14 * len(PIPELINE_SHAPES))


def _kernel_split_instance():
    # A^i = [1, -1] below y = (3, 3): the block kernel LP gives u = (3, 3)
    inst = FourBlockInstance.make(Matrix.zeros(1, 1), [Matrix.from_rows([[0]])],
                                  [Matrix.from_rows([[1, -1]])], [Matrix.zeros(1, 2)],
                                  (0, 0), (0,), (0, 0), (None,), (None, None))
    return inst, KernelPoint((F(0),), (F(3), F(3)))


def _no_optimum(rows, rhs, L, LO, HI, c=None):
    return "infeasible", None


def _above_bounds(rows, rhs, L, LO, HI, c=None):
    # every coordinate one above its upper bound HI_j / L
    return "optimal", (L, [u + L for u in HI])


# integer_simplex replacements that fail each check of split_max_kernel
_SPLIT_FAULTS = (("block-kernel-lp", _no_optimum), ("kernel-split-nonneg", _above_bounds))


def test_kernel_split_checks_are_named(monkeypatch):
    inst, pt = _kernel_split_instance()
    for name, fault in _SPLIT_FAULTS:
        monkeypatch.setattr(blockip, "integer_simplex", fault)
        with pytest.raises(PropertyViolation, match=name) as err:
            split_max_kernel(inst, pt)
        assert err.value.name == name


def test_kernel_split_checks_survive_python_O():
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from test_blockip import _SPLIT_FAULTS, _kernel_split_instance\n"
            "from steinitz import blockip\n"
            "inst, pt = _kernel_split_instance()\n"
            "for name, fault in _SPLIT_FAULTS:\n"
            "    blockip.integer_simplex = fault\n"
            "    try:\n"
            "        blockip.split_max_kernel(inst, pt)\n"
            "    except blockip.PropertyViolation as exc:\n"
            "        print(exc.name)\n")
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(here.parent / "src"), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", code, str(here)], env=env,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert out == "block-kernel-lp\nkernel-split-nonneg\n"


def test_gamma_hadamard_check_is_named():
    # delta understated: det [[2, 0], [0, 2]] = 4 > 1^4 * 2^2 is caught
    inst = gen_four_block(1, 2, 1, 2, 1, 1, 3, zero_a0=True, scale=24)[0]
    big = blockip.FeasibleBasis((0, 1), 5, ((0,), (0,)))
    with pytest.raises(PropertyViolation, match="hadamard-bound"):
        blockip._gamma(inst, [[big]])


def _psi_instance():
    # psi = 4 values spanning a plane (dim V = 2), so the psi order is the
    # run core's; alpha0 = 1, so it is the only order blockip asks for, and
    # unpatched, no offsets collide
    return gen_four_block(2, 1, 2, 2, 4, 1, 3, zero_a0=True, scale=24)


def _psi_count_fault(real):
    def faulty(inst, bundle):
        consts = real(inst, bundle)
        return dataclasses.replace(consts, psi=consts.psi + 1)
    return "compute_constants", faulty


def _psi_r_early_fault(real):
    # an order that emits r, the last run's one copy, twice ahead of the rest
    return "_order_runs", lambda runs, dim: [(len(runs) - 1, 0, 1)] * 2 + real(runs, dim)


# faults, each given the function it replaces, failing the two psi checks of
# reduce_kernel_point
_PSI_FAULTS = (("psi-count", "compute_constants", _psi_count_fault),
               ("psi-r-last", "_order_runs", _psi_r_early_fault))


def test_psi_checks_are_named(monkeypatch):
    inst, pt = _psi_instance()
    out = reduce_kernel_point(inst, pt)
    assert out.diagnostics["dim_v"] == 2 and out.bundle.alpha0 == 1
    assert out.diagnostics["collision"] is None
    for name, target, fault in _PSI_FAULTS:
        with monkeypatch.context() as patch:
            patch.setattr(blockip, *fault(getattr(blockip, target)))
            with pytest.raises(PropertyViolation, match=name) as err:
                reduce_kernel_point(inst, pt)
            assert err.value.name == name


def test_psi_checks_survive_python_O():
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from test_blockip import _PSI_FAULTS, _psi_instance\n"
            "from steinitz import blockip\n"
            "inst, pt = _psi_instance()\n"
            "for name, target, fault in _PSI_FAULTS:\n"
            "    real = getattr(blockip, target)\n"
            "    setattr(blockip, *fault(real))\n"
            "    try:\n"
            "        blockip.reduce_kernel_point(inst, pt)\n"
            "    except blockip.PropertyViolation as exc:\n"
            "        print(exc.name)\n"
            "    finally:\n"
            "        setattr(blockip, target, real)\n")
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(here.parent / "src"), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", code, str(here)], env=env,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert out == "psi-count\npsi-r-last\n"
