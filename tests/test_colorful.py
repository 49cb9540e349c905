import contextlib
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import steinitz.cli as cli
import steinitz.colorful as colorful
from steinitz.checks import PropertyViolation
from steinitz.colorful import (ColoredFamily, _row_sums, balance_rows,
                               colorful_affine, colorful_rearrange, conic_caratheodory_anchor,
                               round_to_binary, row_sums, single_partial_sum)
from steinitz.norms import L1_NORM, LINF_NORM, BlockMax, norm_eval, norm_from_name
from steinitz.rearrange import (VectorSequence, ZeroSumRequired, _run_encode, max_prefix_norm,
                                prefix_sums, rearrangement_order)
from steinitz.generate import (gen_adversarial_scalar_family, gen_unit_family,
                               gen_zero_sum_family)
from steinitz.oracles import brute_single_sum

import balance_reference
import colorful_reference


def test_caratheodory_two_scalars():
    idx, lam = conic_caratheodory_anchor([(F(1),), (F(-1),)], 0)
    assert idx == (0, 1) and lam == (F(1, 2), F(1, 2))


def test_caratheodory_zero_anchor():
    idx, lam = conic_caratheodory_anchor([(F(0), F(0)), (F(1), F(0)), (F(-1), F(0))], 0)
    assert idx == (0,) and lam == (1,)


def test_caratheodory_axis_vectors_against_subsets():
    rows = [(F(1), F(0)), (F(0), F(1)), (F(-1), F(0)), (F(0), F(-1))]
    idx, lam = conic_caratheodory_anchor(rows, 0)
    assert 0 in idx and len(idx) <= 3
    total = [F(0), F(0)]
    for i, l in zip(idx, lam):
        assert l >= 0
        for r in range(2):
            total[r] += l * rows[i][r]
    assert total == [0, 0] and sum(lam) == 1
    # oracle: some subset of size <= 3 containing the anchor admits such
    # coefficients (exhaustive over subsets, exact kernel check)
    from itertools import combinations
    from steinitz.linalg import Matrix
    from steinitz.lp import BoxLP, find_feasible
    works = False
    for size in (2, 3):
        for sub in combinations(range(4), size):
            if 0 not in sub:
                continue
            M = Matrix.from_rows(
                [[rows[i][r] for i in sub] for r in range(2)] + [[1] * size])
            if find_feasible(BoxLP(M, (F(0), F(0), F(1)),
                                   (F(0),) * size, (None,) * size)) is not None:
                works = True
    assert works


def test_balance_single_color_trivial():
    fam = gen_zero_sum_family(2, 1, 5, LINF_NORM, 3)
    bal = balance_rows(fam)
    assert bal.orders == (tuple(range(5)),)
    assert len(bal.history) == 1  # zero improvement iterations


def test_balance_below_threshold_returns_identity():
    fam = gen_zero_sum_family(1, 5, 4, LINF_NORM, 9)
    bal = balance_rows(fam)
    assert all(o == tuple(range(4)) for o in bal.orders)
    assert len(bal.history) == 1


def test_balance_adversarial_d1():
    fam = gen_adversarial_scalar_family(100, 4, 5)
    rows0 = [sum(fam.vectors[j][i][0] for j in range(100)) for i in range(4)]
    assert max(abs(r) for r in rows0) > 40  # identities are bad
    bal = balance_rows(fam)
    assert bal.row_bound <= 40  # (d+1)^2 (4d(d+1)+2) at d = 1
    for prev, cur in zip(bal.history, bal.history[1:]):
        assert cur < prev  # strict lexicographic decrease


def test_colorful_single_color_reduces_to_classical():
    fam = gen_zero_sum_family(2, 1, 6, LINF_NORM, 21)
    cert = colorful_rearrange(fam)
    assert cert.certified_bound == 2
    assert cert.achieved_max <= 2


def test_colorful_figure_shape():
    fam = gen_zero_sum_family(2, 4, 4, LINF_NORM, 42)
    cert = colorful_rearrange(fam)
    assert cert.certified_bound == min(8, 40 * 32)
    assert cert.achieved_max <= 8


def test_colorful_d1_large_n_forces_balanced():
    fam = gen_adversarial_scalar_family(100, 4, 7)
    cert = colorful_rearrange(fam)
    assert cert.certified_bound == 40  # min{100, 40 d^5} at d = 1
    assert cert.achieved_max <= 40
    assert cert.phase1_row_bound is not None and cert.phase1_row_bound <= 40


def test_colorful_permutations_preserve_multisets():
    fam = gen_zero_sum_family(2, 5, 7, L1_NORM, 90)
    cert = colorful_rearrange(fam)
    for perm in cert.permutations:
        assert sorted(perm) == list(range(7))


def test_colorful_rejects_non_zero_sum():
    fam = gen_unit_family(2, 2, 3, LINF_NORM, 17)
    assert any(x != 0 for x in fam.total())
    with pytest.raises(ZeroSumRequired):
        colorful_rearrange(fam)


def test_affine_zero_sum_final_deviation_vanishes():
    fam = gen_zero_sum_family(2, 3, 5, LINF_NORM, 51)
    cert = colorful_affine(fam)
    assert cert.drift == (0, 0)
    prefix = [F(0)] * 2
    for k in range(5):
        for j in range(3):
            v = fam.vectors[j][cert.permutations[j][k]]
            for i in range(2):
                prefix[i] += v[i]
    assert prefix == [0, 0]


def test_affine_constant_vector_zero_deviation():
    e = (F(1), F(0))
    fam = ColoredFamily(2, 2, 3, ((e, e, e), (e, e, e)), LINF_NORM)
    cert = colorful_affine(fam)
    assert cert.achieved_max == 0


def test_affine_seeded_bound():
    fam = gen_unit_family(2, 3, 5, LINF_NORM, 33)
    cert = colorful_affine(fam)
    assert cert.achieved_max <= 2 * min(6, 40 * 32) == 12


def test_round_to_binary_examples():
    assert round_to_binary((F(1), F(1), F(0)), 2) == (1, 1, 0)
    assert round_to_binary((F(1, 2), F(1, 2)), 1) == (1, 0)
    z = round_to_binary((F(3, 5), F(1, 2), F(1, 2), F(2, 5)), 2)
    assert z == (1, 1, 0, 0)
    dist = abs(F(3, 5) - 1) + abs(F(1, 2) - 1) + F(1, 2) + F(2, 5)
    assert dist == F(9, 5) <= 2


def test_round_to_binary_random_distance():
    rng = random.Random(8)
    for _ in range(200):
        m = rng.randint(1, 8)
        k = rng.randint(0, m)
        ys = sorted(F(rng.randint(0, 12), 12) for _ in range(m - 1)) if m > 1 else []
        # adjust the last entry to make the sum exactly k, if possible
        rest = k - sum(ys)
        if not 0 <= rest <= 1:
            continue
        y = tuple(ys + [rest])
        z = round_to_binary(y, k)
        assert sum(z) == k
        assert sum(abs(a - b) for a, b in zip(y, z)) <= F(m, 2)
    # the symmetric worst case is tight
    assert round_to_binary((F(1, 2), F(1, 2)), 1) == (1, 0)
    assert abs(F(1, 2) - 1) + F(1, 2) == F(2, 2)


def test_round_to_binary_rejects_bad_sum():
    with pytest.raises(ValueError):
        round_to_binary((F(1, 2), F(1, 4)), 1)


def test_single_partial_sum_edges():
    fam = gen_zero_sum_family(2, 2, 4, LINF_NORM, 61)
    sel0 = single_partial_sum(fam, 0)
    assert all(I == () for I in sel0.index_sets) and sel0.achieved == 0
    selm = single_partial_sum(fam, 4)
    assert all(I == (0, 1, 2, 3) for I in selm.index_sets) and selm.achieved == 0


def test_single_partial_sum_seeded_with_oracle():
    fam = gen_zero_sum_family(2, 2, 3, LINF_NORM, 73)
    sel = single_partial_sum(fam, 1)
    assert sel.achieved <= 2
    assert brute_single_sum(fam, 1) <= sel.achieved


def test_single_partial_sum_fractional_bound():
    for seed in range(6):
        d = 1 + seed % 3
        fam = gen_zero_sum_family(d, 3, 5, LINF_NORM, 400 + seed)
        for k in range(6):
            sel = single_partial_sum(fam, k)
            assert all(len(I) == k for I in sel.index_sets)
            assert sel.achieved <= d


# ---------------------------------------------------------------------------
# joint prefix sums and row sums against the earlier loops, kept as reference


def _ref_row_sums(fam, orders, rows):
    out = []
    for i in rows:
        acc = [F(0)] * fam.dim
        for j in range(fam.colors):
            v = fam.vectors[j][orders[j][i]]
            for r in range(fam.dim):
                acc[r] += v[r]
        out.append(tuple(acc))
    return out


def _ref_colorful_prefix_max(fam, perms, drift=None):
    prefix = [F(0)] * fam.dim
    best = F(0)
    for k in range(fam.length):
        for j in range(fam.colors):
            v = fam.vectors[j][perms[j][k]]
            for i in range(fam.dim):
                prefix[i] += v[i]
        if drift is None:
            val = norm_eval(fam.norm, tuple(prefix))
        else:
            val = norm_eval(fam.norm, tuple(p - (k + 1) * d for p, d in zip(prefix, drift)))
        if val > best:
            best = val
    return best


# (d, n, m, norm, seed): n = 1, m <= d, and both norms are covered
PREFIX_SHAPES = [(2, 1, 6, "linf", 1), (3, 1, 5, "l1", 2), (3, 2, 2, "linf", 3),
                 (4, 3, 4, "l1", 4), (2, 4, 5, "linf", 5), (1, 5, 6, "l1", 6),
                 (2, 3, 1, "l1", 7)]


@pytest.mark.parametrize("d,n,m,norm,seed", PREFIX_SHAPES)
def test_colorful_prefix_max_matches_reference(d, n, m, norm, seed):
    """The certificates take a joint prefix maximum as max_prefix_norm over
    the row sums; on the integer family L*v it is L times the Fraction one."""
    fam = gen_unit_family(d, n, m, norm_from_name(norm), seed)
    scale, vectors = fam.integer_form
    ints = ColoredFamily(d, n, m, vectors, fam.norm)
    rng = random.Random(seed)
    drifts = [None, tuple(x / m for x in fam.total()),
              tuple(F(rng.randint(-8, 8), 8) for _ in range(d))]
    for _ in range(4):
        perms = tuple(tuple(rng.sample(range(m), m)) for _ in range(n))
        rows = VectorSequence(tuple(row_sums(fam, perms, range(m))), d, fam.norm)
        int_rows = VectorSequence(tuple(row_sums(ints, perms, range(m))), d, fam.norm)
        for drift in drifts:
            expected = _ref_colorful_prefix_max(fam, perms, drift)
            assert max_prefix_norm(rows, range(m), drift) == expected
            assert colorful_reference._colorful_prefix_max(fam, perms, drift) == expected
            if drift is None:
                assert max_prefix_norm(int_rows, range(m)) == scale * expected


@pytest.mark.parametrize("d,n,m,norm,seed", PREFIX_SHAPES)
def test_colorful_certificates_match_reference(d, n, m, norm, seed):
    fam = gen_zero_sum_family(d, n, m, norm_from_name(norm), seed)
    cert = colorful_rearrange(fam)
    assert cert.achieved_max == _ref_colorful_prefix_max(fam, cert.permutations)
    unit = gen_unit_family(d, n, m, norm_from_name(norm), seed)
    aff = colorful_affine(unit)
    assert aff.achieved_max == _ref_colorful_prefix_max(unit, aff.permutations, aff.drift)


def test_balanced_route_matches_reference():
    fam = gen_adversarial_scalar_family(100, 4, 7)
    bal = balance_rows(fam)
    rows = _ref_row_sums(fam, bal.orders, range(fam.length))
    assert bal.row_bound == max(norm_eval(fam.norm, r) for r in rows)
    cert = colorful_rearrange(fam)
    assert cert.route == "balanced_40d5"
    assert cert.achieved_max == _ref_colorful_prefix_max(fam, cert.permutations)


@pytest.mark.parametrize("d,n,m,norm,seed", PREFIX_SHAPES)
def test_row_sums_and_prefix_sums_match_reference(d, n, m, norm, seed):
    from steinitz.colorful import row_sums
    from steinitz.rearrange import prefix_sums
    fam = gen_unit_family(d, n, m, norm_from_name(norm), seed)
    rng = random.Random(seed)
    orders = tuple(tuple(rng.sample(range(m), m)) for _ in range(n))
    rows = rng.sample(range(m), rng.randint(0, m))
    assert row_sums(fam, orders, rows) == _ref_row_sums(fam, orders, rows)
    sums = row_sums(fam, orders, range(m))
    order = rng.sample(range(m), m)
    drift = tuple(F(rng.randint(-8, 8), 8) for _ in range(d))
    acc = [F(0)] * d
    plain = []
    for idx in order:
        acc = [a + x for a, x in zip(acc, sums[idx])]
        plain.append(tuple(acc))
    assert list(prefix_sums(sums, order, d)) == plain
    assert list(prefix_sums(sums, order, d, drift)) == [
        tuple(a - k * dr for a, dr in zip(p, drift)) for k, p in enumerate(plain, start=1)]


# ---------------------------------------------------------------------------
# the integer core against the pre-change Fraction certificates


def _entry(rng, d, q):
    """A coordinate of a unit-ball vector with denominator q, as int when
    q = 1, so families mix int and Fraction entries."""
    a = rng.randint(-(q // d), q // d)
    return a if q == 1 else F(a, q)


def _pooled_family(d, n, m, norm, seed, denoms, pool_size, zero_sum=True):
    """n*m vectors drawn from a pool of pool_size vectors, half of them
    copied into new but equal tuples; zero-sum families pair every drawn
    vector with its negation."""
    rng = random.Random(seed)
    pool = [tuple(_entry(rng, d, rng.choice(denoms)) for _ in range(d))
            for _ in range(pool_size)]
    count = n * m // 2 if zero_sum else n * m
    drawn = [rng.choice(pool) for _ in range(count)]
    drawn = [v if rng.random() < 0.5 else tuple(list(v)) for v in drawn]
    if zero_sum:
        drawn += [tuple(-x for x in v) for v in drawn] + [(0,) * d] * (n * m % 2)
    rng.shuffle(drawn)
    return ColoredFamily(d, n, m, tuple(tuple(drawn[j * m:(j + 1) * m]) for j in range(n)),
                         norm_from_name(norm))


def _shifted(fam):
    """fam halved and moved by 1/4: still in the unit ball, not zero-sum."""
    return ColoredFamily(fam.dim, fam.colors, fam.length,
                         tuple(tuple(tuple(x / 2 + F(1, 4) for x in v) for v in color)
                               for color in fam.vectors), fam.norm)


COPRIME = (10007, 10009, 10037, 10039)

# (d, n, m, norm, seed, denominators, pool size): many repeated vectors,
# mixed int/Fraction entries, coprime large denominators, n = 1 and m <= d
POOLED = [(2, 3, 5, "linf", 1, (16,), 50), (3, 2, 4, "l1", 2, (1, 3, 7), 3),
          (2, 4, 6, "l1", 3, COPRIME, 6), (2, 3, 7, "linf", 4, COPRIME, 40),
          (1, 1, 7, "linf", 5, (1, 2), 2), (3, 1, 6, "l1", 6, (1, 5), 3),
          (3, 3, 2, "linf", 7, (5, 1), 4), (4, 2, 4, "l1", 8, (11, 13), 2),
          (2, 6, 20, "linf", 9, (1,), 2), (1, 9, 12, "l1", 10, (1, 3), 3),
          (1, 48, 3, "linf", 11, (1, 4), 3)]


def _families(zero_sum):
    for shape in POOLED:
        yield _pooled_family(*shape, zero_sum=zero_sum)
    for d, n, m, norm, seed in PREFIX_SHAPES:
        yield (gen_zero_sum_family if zero_sum else gen_unit_family)(
            d, n, m, norm_from_name(norm), seed)
    # d = 1, n > 40: the balanced route is taken
    for n, m, seed in ((100, 4, 7), (60, 3, 11), (64, 3, 5)):
        fam = gen_adversarial_scalar_family(n, m, seed)
        yield fam if zero_sum else _shifted(fam)


def _assert_same_certificate(cert, ref):
    assert cert == ref
    assert type(cert.certified_bound) is F and type(cert.achieved_max) is F
    assert type(cert.phase1_row_bound) is type(ref.phase1_row_bound)
    assert type(cert.tight_bound_met) is type(ref.tight_bound_met)
    if ref.drift is None:
        assert cert.drift is None
    else:
        assert all(type(x) is F for x in cert.drift)


def test_colorful_rearrange_equals_fraction_reference():
    routes = set()
    for fam in _families(zero_sum=True):
        cert = colorful_rearrange(fam)
        _assert_same_certificate(cert, colorful_reference.colorful_rearrange(fam))
        routes.add(cert.route)
    assert routes == {"trivial_nd", "balanced_40d5"}


def test_colorful_affine_equals_fraction_reference():
    routes = set()
    for zero_sum in (True, False):
        for fam in _families(zero_sum):
            cert = colorful_affine(fam)
            _assert_same_certificate(cert, colorful_reference.colorful_affine(fam))
            routes.add(cert.route)
    assert routes == {"trivial_nd", "balanced_40d5"}


def test_colorful_affine_runs_one_prefix_pass_per_route(monkeypatch):
    """The affine achieved_max is read off the core certificate: one prefix
    pass (the run core of max_prefix_norm) per route evaluated, the balanced
    route only for n > 40 d^4."""
    import steinitz.colorful
    calls = []
    real = steinitz.colorful._max_prefix_runs

    def counted(runs, dim, norm, drift=None):
        calls.append(drift)
        return real(runs, dim, norm, drift)

    monkeypatch.setattr(steinitz.colorful, "_max_prefix_runs", counted)
    for zero_sum in (True, False):
        for fam in _families(zero_sum):
            calls.clear()
            cert = colorful_affine(fam)
            routes = 2 if fam.colors * fam.dim > 40 * fam.dim ** 5 else 1
            assert calls == [None] * routes
            assert cert.route == "trivial_nd" or routes == 2


def test_scaled_shares_one_tuple_per_distinct_vector():
    fam = _pooled_family(2, 4, 6, "l1", 3, COPRIME, 3)
    scale, vectors = fam.integer_form
    assert fam.integer_form is fam.integer_form
    flat = [v for color in fam.vectors for v in color]
    ints = [w for color in vectors for w in color]
    assert len({id(w) for w in ints}) == len(set(flat))
    assert all(all(type(x) is int for x in w) for w in ints)
    assert all(tuple(F(x, scale) for x in w) == v for v, w in zip(flat, ints))
    denominators = {F(x).denominator for v in flat for x in v}
    assert all(scale % q == 0 for q in denominators) and scale > max(COPRIME)


def test_one_scaling_per_family(monkeypatch):
    """A family is scaled to integers once, into its cached integer_form,
    however many entries read it: single_partial_sum over every k, and
    colorful_rearrange together with the balance it runs."""
    calls = []
    real = colorful.scale_to_integers

    def counted(vectors):
        calls.append(1)
        return real(vectors)

    monkeypatch.setattr(colorful, "scale_to_integers", counted)
    fam = gen_zero_sum_family(2, 3, 5, LINF_NORM, 4)
    for k in range(fam.length + 1):
        single_partial_sum(fam, k)
    assert len(calls) == 1
    calls.clear()
    fam = gen_adversarial_scalar_family(100, 4, 7)
    assert colorful_rearrange(fam).phase1_history is not None    # the balance ran
    assert len(calls) == 1


def _separate_copies(fam):
    """fam with every vector a new tuple: equal vectors are separate objects."""
    return ColoredFamily(fam.dim, fam.colors, fam.length,
                         tuple(tuple(tuple(list(v)) for v in color) for color in fam.vectors),
                         fam.norm)


def test_merged_runs_of_equal_vectors_match_the_reference():
    """Equal vectors held as separate objects share one tuple of the integer
    form, so the certificates' runs merge where such vectors are adjacent;
    the certificates stay those of the Fraction reference."""
    families = [gen_adversarial_scalar_family(n, m, seed)
                for n, m, seed in ((48, 4, 3), (60, 3, 11), (64, 3, 5), (100, 4, 7))]
    families.append(_pooled_family(2, 6, 20, "linf", 9, (4,), 2))   # two values, repeated
    for fam in map(_separate_copies, families):
        _, vectors = fam.integer_form
        by_object = sum(len(_run_encode(color)) for color in fam.vectors)
        assert sum(len(_run_encode(color)) for color in vectors) < by_object
        _assert_same_certificate(colorful_rearrange(fam), colorful_reference.colorful_rearrange(fam))
        for aff in (fam, _shifted(fam)):
            _assert_same_certificate(colorful_affine(aff), colorful_reference.colorful_affine(aff))


def test_unit_ball_error_comes_before_zero_sum_error():
    big = (F(3, 2), F(0))
    fam = ColoredFamily(2, 2, 2, ((big, (F(1, 3), F(0))), ((0, 0), (F(1, 7), 1))), LINF_NORM)
    assert any(x != 0 for x in fam.total())
    for run in (colorful_rearrange, colorful_affine, colorful_reference.colorful_rearrange,
                colorful_reference.colorful_affine):
        with pytest.raises(ValueError) as err:
            run(fam)
        assert type(err.value) is ValueError
        assert str(err.value) == "family has a vector outside the unit ball"
    fam = _pooled_family(2, 3, 5, "linf", 1, (16,), 50, zero_sum=False)
    for run in (colorful_rearrange, colorful_reference.colorful_rearrange):
        with pytest.raises(ZeroSumRequired, match="^union of the family is not zero-sum$"):
            run(fam)


# ---------------------------------------------------------------------------
# the shared loops keep int input int, Fraction input Fraction


def test_shared_loops_keep_the_input_type():
    frac = ((F(1, 2), F(-3, 4)), (F(-1, 2), F(3, 4)), (F(1, 3), F(0)))
    ints = ((6, -9), (-6, 9), (4, 0))
    specs = (L1_NORM, LINF_NORM, BlockMax(L1_NORM, 1), BlockMax(LINF_NORM, 2))
    for vectors, kind in ((frac, F), (ints, int)):
        for spec in specs:
            assert all(type(norm_eval(spec, v)) is kind for v in vectors)
            assert type(norm_eval(spec, ())) is F and norm_eval(spec, ()) == 0
        sums = list(prefix_sums(vectors, (2, 0, 1), 2))
        assert all(type(x) is kind for p in sums for x in p)
        seq = VectorSequence(vectors, 2, L1_NORM)
        assert type(max_prefix_norm(seq, (2, 0, 1))) is kind
        fam = ColoredFamily(2, 3, 1, tuple((v,) for v in vectors), L1_NORM)
        assert all(type(x) is kind for row in row_sums(fam, ((0,),) * 3, [0]) for x in row)
    # the integer results are 12 times the Fraction ones, orders are equal
    assert list(prefix_sums(ints, (2, 0, 1), 2)) == [
        tuple(12 * x for x in p) for p in prefix_sums(frac, (2, 0, 1), 2)]
    values = [F(1, 3), F(-1, 2), F(0), F(1, 6), F(-1, 3), F(1, 3)]
    assert rearrangement_order([(int(12 * x),) for x in values], 1) == \
        rearrangement_order([(x,) for x in values], 1)
    # empty input
    assert rearrangement_order([], 1) == ()
    assert list(prefix_sums((), (), 2)) == []
    empty = max_prefix_norm(VectorSequence((), 2, LINF_NORM), ())
    assert type(empty) is F and empty == 0
    no_colors = ColoredFamily(2, 0, 3, (), LINF_NORM)
    assert row_sums(no_colors, (), range(3)) == [(F(0), F(0))] * 3
    assert all(type(x) is F for row in row_sums(no_colors, (), range(3)) for x in row)
    assert row_sums(ColoredFamily(2, 2, 0, ((), ()), L1_NORM), ((), ()), []) == []


# ---------------------------------------------------------------------------
# the named checks of the Caratheodory anchor, row balancing and the colorful
# prefix bound: one patched fault each


def _no_kernel(M):
    """No kernel at all: the support is never pruned."""
    return []


def _all_ones_kernel(M):
    """A direction that is not in the kernel of M."""
    return [(F(1),) * M.cols]


def _no_rotation(vectors, dim):
    """An empty color order, so balance_rows rotates nothing."""
    return ()


def _stale_inspections(vectors, dim, orders, rows):
    """_row_sums that answers every inspection of all rows with the rows of
    the identity orders, the first inspection's; touched rows are summed as
    they are."""
    if isinstance(rows, range):
        orders = [rows] * len(vectors)
    return _row_sums(vectors, dim, orders, rows)


def _cap_lifted(d, limit, mx):
    """The chain bound with d/(d+1) read as 1, which lifts the bound of a
    touched row above the row's old norm."""
    return limit + (d + 1) * mx


_SIGNS = [(F(1),), (F(1),), (F(-1),), (F(-1),)]
_WIDE = gen_adversarial_scalar_family(100, 4, 5)
_SMALL = gen_zero_sum_family(2, 3, 5, LINF_NORM, 4)

# (name, patches of steinitz.colorful as (attribute, faulty value), call)
COLORFUL_FAULTS = (
    ("caratheodory-support", (("null_space", _no_kernel),),
     lambda: conic_caratheodory_anchor(_SIGNS, 0)),
    ("caratheodory-coefficients", (("null_space", _all_ones_kernel),),
     lambda: conic_caratheodory_anchor(_SIGNS, 0)),
    ("balance-potential", (("_row_sums", _stale_inspections),), lambda: balance_rows(_WIDE)),
    # more selected rows than colors: no window holds a color
    ("balance-window", (("conic_caratheodory_anchor", lambda rows, anchor: ((anchor,) * 101, ())),),
     lambda: balance_rows(_WIDE)),
    ("balance-stacked-norm", (("BlockMax", lambda inner, block_dim: L1_NORM),),
     lambda: balance_rows(_WIDE)),
    ("balance-chain-bound", (("rearrangement_order", _no_rotation),), lambda: balance_rows(_WIDE)),
    # the chain bound implies strict progress above the threshold, so the
    # fault lifts the bound as well as stopping the rotation
    ("balance-strict-progress", (("rearrangement_order", _no_rotation),
                                 ("_chain_cap", _cap_lifted)),
     lambda: balance_rows(_WIDE)),
    ("colorful-prefix-bound", (("_max_prefix_runs", lambda runs, dim, norm: 10 ** 9),),
     lambda: colorful_rearrange(_SMALL)),
)


@contextlib.contextmanager
def _patched_colorful(patches):
    old = [(attr, getattr(colorful, attr)) for attr, _ in patches]
    for attr, value in patches:
        setattr(colorful, attr, value)
    try:
        yield
    finally:
        for attr, value in old:
            setattr(colorful, attr, value)


def run_colorful_faults():
    """The name of the PropertyViolation that each fault raises."""
    names = []
    for _, patches, call in COLORFUL_FAULTS:
        with _patched_colorful(patches):
            try:
                call()
            except PropertyViolation as exc:
                names.append(exc.name)
    return names


def test_colorful_checks_are_named():
    for name, patches, call in COLORFUL_FAULTS:
        call()  # unpatched, every check holds
        with _patched_colorful(patches):
            with pytest.raises(PropertyViolation, match=f"^property {name} violated: ") as err:
                call()
        assert err.value.name == name


def test_colorful_named_check_exits_with_one(tmp_path, capsys):
    path = str(tmp_path / "fam.txt")
    assert cli.main(["gen", "family", "--d", "2", "--n", "3", "--m", "5", "--seed", "4",
                     "--output", path]) == 0
    name, patches, _ = COLORFUL_FAULTS[-1]
    with _patched_colorful(patches):
        assert cli.main(["colorful", "--input", path]) == 1
    assert f"property violation [{name}]: property {name} violated: " in capsys.readouterr().err


def test_colorful_checks_survive_python_O():
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from test_colorful import run_colorful_faults\n"
            "print(*run_colorful_faults(), sep='\\n')\n")
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(here.parent / "src"), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", code, str(here)], env=env,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert out.splitlines() == [name for name, *_ in COLORFUL_FAULTS]


# ---------------------------------------------------------------------------
# integer row balancing against the Fraction original, and one balance per
# balanced certificate

# (n, m) of the certify benchmark's adversarial families, drawn at seed
# base + 100 + i for base = seed * 10000
CERTIFY_COLORFUL_SPECS = ((64, 3), (80, 3), (48, 4), (56, 3))


def _balance_families():
    for seed in (1, 2, 7):
        for i, (n, m) in enumerate(CERTIFY_COLORFUL_SPECS):
            yield gen_adversarial_scalar_family(n, m, seed * 10_000 + 100 + i)
    # the verify colorful-balanced suite's families at seeds 1 and 10001
    for seed in (1, 10_001):
        for idx in range(2):
            yield gen_adversarial_scalar_family(50 if idx % 2 == 0 else 100, 3 + idx % 4,
                                                seed * 1000 + idx)
    # rows of norm exactly at the threshold 40 (d = 1), and one above it
    for ones in (40, 41):
        yield ColoredFamily(1, 80, 2, tuple(((F(1),), (F(-1),)) if j < ones else ((F(0),), (F(0),))
                                            for j in range(80)), LINF_NORM)


def _recentred_families(monkeypatch):
    """The recentred families that colorful_affine balances, for families
    with n > 40 (d = 1), as (family, balance): caught by wrapping the
    integer balance, which gets the recentred integers and their scale 2nmL,
    and spelled out as the Fraction family that they hold."""
    caught = []
    real = colorful._balance_rows

    def catching(d, m, norm, vectors, scale):
        bal = real(d, m, norm, vectors, scale)
        fam = ColoredFamily(d, len(vectors), m, tuple(tuple(tuple(F(x, scale) for x in v)
                                                            for v in color) for color in vectors),
                            norm)
        caught.append((fam, bal))
        return bal

    monkeypatch.setattr(colorful, "_balance_rows", catching)
    for n, m, seed in ((48, 3, 1), (60, 4, 2), (100, 3, 3)):
        colorful_affine(gen_unit_family(1, n, m, LINF_NORM, seed))
        colorful_affine(_shifted(gen_adversarial_scalar_family(n, m, seed)))
    monkeypatch.undo()
    assert len(caught) == 6 and all(fam.colors > 40 for fam, _ in caught)
    return caught


def _balance_types(bal):
    return [type(bal.row_bound)] + [tuple(map(type, h)) for h in bal.history]


def _assert_same_balance(bal, ref):
    assert bal == ref
    assert _balance_types(bal) == _balance_types(ref) == [F] + [(F, int)] * len(ref.history)


def test_integer_balance_equals_fraction_reference(monkeypatch):
    # the public balance on its families, and the integer balance of
    # colorful_affine on the recentred integers over 2nmL
    families = [(fam, balance_rows(fam)) for fam in _balance_families()]
    families += _recentred_families(monkeypatch)
    iterations = 0
    for fam, bal in families:
        ref = balance_reference.balance_rows(fam)
        _assert_same_balance(bal, ref)
        iterations += len(ref.history) - 1
    assert iterations > len(families)  # the loop ran, more than once per family


def test_balanced_certificate_carries_its_balance():
    for fam in _balance_families():
        cert, bal = colorful_rearrange(fam), balance_rows(fam)
        assert cert.phase1_history == bal.history
        assert cert.phase1_row_bound == bal.row_bound
    # off the balanced route there is no balance to carry
    cert = colorful_rearrange(gen_zero_sum_family(2, 3, 5, LINF_NORM, 4))
    assert cert.phase1_history is None and cert.phase1_row_bound is None


def test_balanced_verify_suite_balances_once_per_line(monkeypatch):
    from steinitz.verify import run_suites
    calls = []
    real = colorful._balance_rows

    def counting(*args):
        calls.append(args)
        return real(*args)

    # every name bound to the integer balance in the package
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "steinitz"]:
        for attr, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, attr, counting)
    for seed in (1, 10_001):
        calls.clear()
        lines, ok = run_suites(["colorful-balanced"], seed, count=3)
        assert ok and len(lines) == 3
        assert len(calls) == 3
