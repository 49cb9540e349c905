import random
from fractions import Fraction as F

import pytest

from steinitz.colorful import (ColoredFamily, _colorful_prefix_max, balance_rows,
                               colorful_affine, colorful_rearrange,
                               conic_caratheodory_anchor, round_to_binary,
                               single_partial_sum)
from steinitz.norms import L1_NORM, LINF_NORM, norm_eval, norm_from_name
from steinitz.rearrange import ZeroSumRequired
from steinitz.generate import (gen_adversarial_scalar_family, gen_unit_family,
                               gen_zero_sum_family)
from steinitz.oracles import brute_single_sum


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
    fam = gen_unit_family(d, n, m, norm_from_name(norm), seed)
    rng = random.Random(seed)
    drifts = [None, tuple(x / m for x in fam.total()),
              tuple(F(rng.randint(-8, 8), 8) for _ in range(d))]
    for _ in range(4):
        perms = tuple(tuple(rng.sample(range(m), m)) for _ in range(n))
        for drift in drifts:
            assert _colorful_prefix_max(fam, perms, drift) == \
                _ref_colorful_prefix_max(fam, perms, drift)


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
