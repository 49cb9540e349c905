"""The integer form of a 4-block instance against the Fraction reference.

Every block product of the decomposition runs on ``FourBlockInstance.
integer_form`` over one common denominator of the point, and the block
bases come from a fraction-free elimination.  The ``_reference_*``
functions below are the ``Matrix.mul_vec`` code and the Fraction
elimination (``_echelon`` of ``tests/echelon_reference.py``) they
replaced; on seeded instances (zero A0, lifted, and column-flipped by
``_sign_normalized``) and rational points both must agree.  A work gate
counts the calls that must not come back.
"""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest

import steinitz
from echelon_reference import _echelon
from steinitz import blockip, linalg
from steinitz.blockip import (FeasibleBasis, FourBlockInstance, KernelPoint, _feasible,
                              _require_pipeline_ready, _sign_normalized, _vertex_at, block_bases, decompose_bundle, flip_for_kernel_work, lift_point,
                              lift_three_block, proximity_report, reduce_kernel_point,
                              reduce_kernel_point_signed, solve_four_block)
from steinitz.generate import GenerationError, gen_four_block
from steinitz.linalg import ONE, ZERO, Matrix, null_space, scale_to_integers
from steinitz.lp import BoxLP, extreme_rays
from steinitz.verify import PIPELINE_SHAPES


def _reference_H(inst):
    top = [list(inst.A0.row(r)) for r in range(inst.s0)]
    for i in range(inst.n):
        for r in range(inst.s0):
            top[r].extend(inst.C[i].row(r))
    rows = top
    for i in range(inst.n):
        for r in range(inst.s):
            row = list(inst.B[i].row(r))
            row.extend([ZERO] * (inst.t * i))
            row.extend(inst.A[i].row(r))
            row.extend([ZERO] * (inst.t * (inst.n - 1 - i)))
            rows.append(row)
    return Matrix.from_rows(rows)


def _reference_apply_C(inst, y):
    acc = [ZERO] * inst.s0
    for i in range(inst.n):
        part = inst.C[i].mul_vec(inst.y_block(y, i))
        for r in range(inst.s0):
            acc[r] += part[r]
    return tuple(acc)


def _reference_check(inst, pt):
    """KernelPoint.check's verdict: None, or the message it raises."""
    if len(pt.x) != inst.x_dim or len(pt.y) != inst.y_dim:
        return "kernel point dimension mismatch"
    if any(v < 0 for v in pt.x) or any(v < 0 for v in pt.y):
        return "kernel point must be nonnegative"
    if any(v != 0 for v in _reference_H(inst).mul_vec(tuple(pt.x) + tuple(pt.y))):
        return "point is not in the kernel of H"
    return None


def _verdict(inst, pt):
    try:
        pt.check(inst)
    except ValueError as exc:
        return str(exc)
    return None


def _reference_block_bases(Ai, Bi):
    """One Fraction elimination of [D | Bi] per s-subset: the triples
    (cols, det D, vertex map -D^{-1} Bi over Fraction)."""
    s = Ai.rows
    out = []
    for cols in combinations(range(Ai.cols), s):
        rows = [[Ai.at(r, c) for c in cols] + list(Bi.row(r)) for r in range(s)]
        pivots, det_d = _echelon(rows)
        if pivots == list(range(s)):
            out.append((cols, int(det_d), tuple(tuple(-x for x in row[s:]) for row in rows)))
    return out


def _reference_image(vmap, x):
    return tuple(sum((a * v for a, v in zip(row, x)), ZERO) for row in vmap)


def _reference_vertex(cols, vmap, x, t):
    y = [ZERO] * t
    for c, v in zip(cols, _reference_image(vmap, x)):
        y[c] = v
    return tuple(y)


def _draw(shape, seed, zero_a0):
    """A seeded instance with its planted point; A0 is nonzero unless
    zero_a0."""
    for sub in range(50):
        try:
            inst, pt = gen_four_block(*shape, 1 + seed % 2, seed * 100 + sub, zero_a0=zero_a0,
                                      scale=12)
        except GenerationError:
            continue
        if zero_a0 or not inst.A0.is_zero():
            return inst, pt
    raise GenerationError(f"no instance for {shape} at seed {seed}")


def _cases():
    """(kind, instance, rational kernel point) on 48 seeded instances."""
    shapes = ((1, 1, 1, 1, 2), (1, 1, 1, 2, 2), (2, 1, 1, 2, 3), (1, 2, 1, 3, 2),
              (1, 1, 2, 2, 2), (2, 2, 1, 3, 2))
    out = []
    for k in range(16):
        shape = shapes[k % len(shapes)]
        rng = random.Random(700 + k)
        inst, pt = _draw(shape, 700 + k, zero_a0=True)
        scale = F(rng.randint(1, 9), rng.randint(2, 7))
        out.append(("zero-A0", inst, KernelPoint(tuple(scale * v for v in pt.x),
                                                 tuple(scale * v for v in pt.y))))
        full, fpt = _draw(shape, 800 + k, zero_a0=False)
        lifted = lift_three_block(full)
        lx, ly = lift_point(full, tuple(scale * v for v in fpt.x),
                            tuple(scale * v for v in fpt.y))
        out.append(("lifted", lifted, KernelPoint(lx, ly)))
        # a kernel vector with a negative entry, a rational combination of a
        # kernel basis, so some column is flipped
        kernel = null_space(full.H_matrix())
        z = [ZERO]
        while not any(v < 0 for v in z):
            z = [ZERO] * (full.x_dim + full.y_dim)
            for g in kernel:
                coef = F(rng.randint(-6, 6), rng.randint(1, 5))
                z = [a + coef * b for a, b in zip(z, g)]
        flips, work, wpt = _sign_normalized(full, tuple(z[:full.t0]), tuple(z[full.t0:]))
        assert any(flips)
        out.append(("flipped", work, wpt))
    return out


CASES = _cases()


def test_cases_cover_every_kind():
    kinds = [kind for kind, _, _ in CASES]
    assert len(CASES) >= 40 and {kinds.count(k) for k in set(kinds)} == {16}
    assert sum(any(v.denominator != 1 for v in pt.x + pt.y) for _, _, pt in CASES) >= 30


def test_integer_form_matches_the_blocks():
    for _, inst, _ in CASES:
        H = _reference_H(inst)
        assert inst.H_matrix() == H
        rows, b = inst.integer_system()
        assert rows == tuple(tuple(int(a) for a in H.row(r)) for r in range(H.rows))
        assert b == tuple(int(v) for v in inst.b)
        assert all(type(a) is int for row in rows for a in row)


def test_kernel_check_verdicts_match_reference():
    rejected = 0
    for _, inst, pt in CASES:
        assert _verdict(inst, pt) is None and _reference_check(inst, pt) is None
        # moving one coordinate off the kernel, by a third, must be caught
        for j in range(inst.y_dim):
            y = list(pt.y)
            y[j] += F(1, 3)
            bad = KernelPoint(pt.x, tuple(y))
            want = _reference_check(inst, bad)
            assert _verdict(inst, bad) == want
            rejected += want == "point is not in the kernel of H"
        short = KernelPoint(pt.x, pt.y[:-1])
        assert _verdict(inst, short) == _reference_check(inst, short)
    assert rejected >= 40


def test_apply_C_matches_reference():
    for _, inst, pt in CASES:
        rng = random.Random(inst.y_dim)
        for y in (pt.y, tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in pt.y),
                  (0,) * inst.y_dim):
            got = inst.apply_C(y)
            assert got == _reference_apply_C(inst, y)
            assert all(type(v) is F for v in got)
        with pytest.raises(ValueError):
            inst.apply_C(pt.y[:-1])


def test_block_bases_match_echelon_reference():
    singular = 0
    for _, inst, _ in CASES:
        for i in range(inst.n):
            got = block_bases(inst.A[i], inst.B[i])
            ref = _reference_block_bases(inst.A[i], inst.B[i])
            assert [(fb.cols, fb.det) for fb in got] == [(cols, d) for cols, d, _ in ref]
            # the integer rows are |det D| times the vertex map, in int
            for fb, (_, d, vmap) in zip(got, ref):
                assert fb.rows == tuple(tuple(abs(d) * v for v in row) for row in vmap)
                assert all(type(a) is int for row in fb.rows for a in row)
            singular += len(ref) < len(list(combinations(range(inst.t), inst.s)))
    assert singular >= 20


def test_feasibility_and_vertices_match_reference():
    feasible = 0
    for _, inst, pt in CASES:
        rng = random.Random(inst.t0 * 31 + inst.n)
        points = [pt.x, tuple(F(rng.randint(-4, 9), rng.randint(1, 5)) for _ in pt.x)]
        for i in range(inst.n):
            table = block_bases(inst.A[i], inst.B[i])
            ref = _reference_block_bases(inst.A[i], inst.B[i])
            for x in points:
                got = _feasible(table, x)
                assert got == [fb for fb, (_, _, vmap) in zip(table, ref)
                               if all(v >= 0 for v in _reference_image(vmap, x))]
                feasible += len(got)
                L, (X,) = scale_to_integers([x])
                for fb, (cols, _, vmap) in zip(table, ref):
                    vertex = tuple(F(a, L * abs(fb.det)) for a in _vertex_at(fb, X, inst.t))
                    assert vertex == _reference_vertex(cols, vmap, x, inst.t)
    assert feasible >= 100


def test_feasible_basis_keeps_positional_construction():
    fb = FeasibleBasis((0, 1), -4, ((2,), (-3,)))
    assert (fb.cols, fb.det, fb.rows) == ((0, 1), -4, ((2,), (-3,)))
    assert fb == FeasibleBasis((0, 1), -4, ((2,), (-3,)))
    assert fb != FeasibleBasis((0, 1), -4, ((2,), (3,)))


# ---------------------------------------------------------------------------
# work gate


def _count_calls(monkeypatch, owner, name, counts):
    """Count the calls of owner.name, rebinding every steinitz module's
    reference to the original so that imported names are caught too."""
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    for module in (linalg, steinitz.lp, blockip, steinitz.rearrange, steinitz.colorful):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)


def test_decomposition_makes_no_fraction_products_or_rank_eliminations(monkeypatch):
    counts = dict.fromkeys(("mul_vec", "rank"), 0)
    _count_calls(monkeypatch, Matrix, "mul_vec", counts)
    _count_calls(monkeypatch, linalg, "rank", counts)
    decomposed = 0
    for k, shape in enumerate(PIPELINE_SHAPES):
        for seed in range(3):
            inst, pt = _draw(shape, 900 + 10 * k + seed, zero_a0=True)
            counts.update(dict.fromkeys(counts, 0))
            decompose_bundle(inst, pt)
            assert counts == dict.fromkeys(counts, 0), (shape, counts)
            reduce_kernel_point(inst, pt)
            assert counts == dict.fromkeys(counts, 0), (shape, counts)
            tables = [block_bases(inst.A[i], inst.B[i]) for i in range(inst.n)]
            rows = [list(Matrix.identity(inst.t0).row(r)) for r in range(inst.t0)]
            rows.extend(row for table in tables for fb in table for row in fb.rows)
            extreme_rays(Matrix.from_rows(rows))
            assert counts == dict.fromkeys(counts, 0), (shape, counts)
            decomposed += 1
    # the counters see calls: the Fraction reference makes them
    _reference_apply_C(inst, pt.y)
    linalg.rank(inst.A[0])
    assert counts["rank"] == 1 and counts["mul_vec"] >= 1
    assert decomposed == 3 * len(PIPELINE_SHAPES)


def _count_constructions(monkeypatch, cls, counts):
    """Count the instances of cls built, through its __init__."""
    real = cls.__init__

    def counted(self, *args, **kwargs):
        counts[cls.__name__] += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)


def test_decomposition_and_solver_build_no_fraction_lps(monkeypatch):
    """decompose_bundle and reduce_kernel_point hand their LPs and the cone
    to the integer cores, so they build no BoxLP and no Matrix; the solver
    and the proximity report take H from the integer form, not from
    H_matrix().  The counters see a BoxLP and a Matrix built directly."""
    counts = dict.fromkeys(("BoxLP", "Matrix", "H_matrix"), 0)
    _count_constructions(monkeypatch, BoxLP, counts)
    _count_constructions(monkeypatch, Matrix, counts)
    _count_calls(monkeypatch, FourBlockInstance, "H_matrix", counts)
    solved = 0
    for k, shape in enumerate(PIPELINE_SHAPES):
        for seed in range(3):
            inst, pt = _draw(shape, 900 + 10 * k + seed, zero_a0=True)
            counts.update(dict.fromkeys(counts, 0))
            decompose_bundle(inst, pt)
            reduce_kernel_point(inst, pt)
            assert counts == dict.fromkeys(counts, 0), (shape, counts)
            if inst.y_dim <= 6:
                report = proximity_report(inst)
                solved += solve_four_block(inst, 1) is not None
                assert report.lp_status == "optimal"
                assert counts["H_matrix"] == counts["BoxLP"] == 0, (shape, counts)
    assert solved >= 6
    BoxLP(Matrix.identity(1), (ONE,), (ZERO,), (ONE,))
    assert counts["BoxLP"] == 1 and counts["Matrix"] == 1
    inst.H_matrix()
    assert counts["H_matrix"] == 1


def test_instances_are_drawn_lifted_flipped_and_solved_without_matrix_or_rank(monkeypatch):
    """gen_four_block checks the rank of the int rows it draws,
    lift_three_block and flip_for_kernel_work build int rows, and the signed
    reduction, the solver and the proximity report run on them: none of
    them builds a Matrix or calls rank.  The counters see the Matrix views
    and the public rank."""
    counts = dict.fromkeys(("Matrix", "rank"), 0)
    _count_constructions(monkeypatch, Matrix, counts)
    _count_calls(monkeypatch, linalg, "rank", counts)
    rng = random.Random(41)
    with_a0 = solved = 0
    for k, shape in enumerate(PIPELINE_SHAPES):
        for seed in range(3):
            try:
                inst, pt = gen_four_block(*shape, 1 + seed % 2, 960 + 10 * k + seed, scale=24)
            except GenerationError:
                continue
            lifted = lift_three_block(inst)
            flip_for_kernel_work(lifted, [rng.random() < 0.5
                                          for _ in range(lifted.x_dim + lifted.y_dim)])
            # the negated point: every column of the lifted instance is flipped
            reduce_kernel_point_signed(inst, tuple(-v for v in pt.x), tuple(-v for v in pt.y))
            if inst.y_dim <= 6:
                proximity_report(inst)
                solved += solve_four_block(inst, 1) is not None
            with_a0 += not inst.a0_is_zero
            assert counts == dict.fromkeys(counts, 0), (shape, counts)
    assert with_a0 >= 6 and solved >= 4, (with_a0, solved)
    linalg.rank(inst.A[0])
    assert counts == {"Matrix": inst.n, "rank": 1}


# ---------------------------------------------------------------------------
# pipeline readiness


def _instance(A, t0=1, s0=1, zero_a0=True):
    """An instance with the given diagonal blocks (lists of rows) and
    zero B, C and b; A0 is zero unless zero_a0 is False."""
    n, s, t = len(A), len(A[0]), len(A[0][0])
    A0 = Matrix.zeros(s0, t0) if zero_a0 else Matrix.from_rows([[1] * t0] * s0)
    return FourBlockInstance.make(A0, [Matrix.zeros(s, t0)] * n, [Matrix.from_rows(a) for a in A],
                                  [Matrix.zeros(s0, t)] * n, (0,) * (s0 + n * s), (0,) * t0,
                                  (0,) * (n * t), (None,) * t0, (None,) * (n * t))


def test_pipeline_readiness_reports_the_first_rank_deficient_block():
    full, repeated, zero = [[1, 0, 1], [0, 1, 1]], [[1, 2, 3], [2, 4, 6]], [[0, 0, 0], [1, 1, 0]]
    tables = _require_pipeline_ready(_instance([full, full]))
    assert [len(table) for table in tables] == [3, 3]
    for blocks, first in (([full, repeated, zero], 1), ([zero, full], 0),
                          ([full, full, full, repeated], 3)):
        with pytest.raises(ValueError, match=f"^diagonal block {first} is not of full row rank$"):
            _require_pipeline_ready(_instance(blocks))
    # t < s is reported first, and a nonzero A0 before that
    with pytest.raises(ValueError, match="^pipeline requires t >= s in the diagonal blocks$"):
        _require_pipeline_ready(_instance([[[1], [0]], [[0], [0]]]))
    with pytest.raises(ValueError, match="requires a lifted instance"):
        _require_pipeline_ready(_instance([[[1], [0]], [[0], [0]]], zero_a0=False))
