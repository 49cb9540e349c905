"""Differential tests of the integer vertex purification.

``_reference_purify`` is the elimination and the walk over Fraction that
``purify_to_vertex`` replaced, kept here as the oracle: on every seeded
instance both must return the same vertex or raise the same error.  Given
a ``trail`` list, it appends x after every move, so a test can see which
walks it covers.
"""

import math
import random
from fractions import Fraction as F

import pytest

import steinitz.colorful
import steinitz.rearrange
from steinitz.generate import gen_zero_sum_family, gen_zero_sum_sequence
from steinitz.linalg import Matrix, rank, rat
from steinitz.lp import BoxLP, InfeasibleStart, NonPointedCone, purify_to_vertex
from steinitz.norms import L1_NORM, LINF_NORM

ZERO, ONE = F(0), F(1)


def _reference_feasible(lp: BoxLP, x) -> bool:
    if len(x) != lp.M.cols:
        return False
    if lp.M.mul_vec(x) != tuple(lp.b):
        return False
    for xi, lo, hi in zip(x, lp.lower, lp.upper):
        if lo is not None and xi < lo:
            return False
        if hi is not None and xi > hi:
            return False
    return True


def _reference_purify(lp: BoxLP, x0, trail=None):
    if not _reference_feasible(lp, tuple(x0)):
        raise InfeasibleStart("starting point is not feasible")
    M = lp.M
    nrows = M.rows
    x = [rat(v) for v in x0]

    def is_tight(j):
        return (lp.lower[j] is not None and x[j] == lp.lower[j]) or \
               (lp.upper[j] is not None and x[j] == lp.upper[j])

    basis = []

    def reduce_column(c):
        v = list(M.col(c)) if nrows else []
        tag = {c: ONE}
        for bc, red, btag, p in basis:
            f = v[p] / red[p] if red[p] else ZERO
            if f:
                for i in range(nrows):
                    if red[i]:
                        v[i] -= f * red[i]
                for k, coef in btag.items():
                    tag[k] = tag.get(k, ZERO) - f * coef
        return v, tag

    def insert(c) -> bool:
        v, tag = reduce_column(c)
        pivot = next((i for i in range(nrows) if v[i] != 0), None)
        if pivot is None:
            return False
        basis.append([c, v, tag, pivot])
        return True

    def kernel_direction(c):
        v, tag = reduce_column(c)
        if any(vi != 0 for vi in v):
            return None, tag
        return {k: coef for k, coef in tag.items() if coef != 0}, tag

    pending = [j for j in range(M.cols) if not is_tight(j)]
    idx = 0
    while idx < len(pending):
        c = pending[idx]
        idx += 1
        if is_tight(c):
            continue
        g, _ = kernel_direction(c)
        if g is None:
            insert(c)
            continue

        def max_step(sign):
            best = None
            for j, gj in g.items():
                gj = sign * gj
                if gj > 0:
                    if lp.upper[j] is not None:
                        t = (lp.upper[j] - x[j]) / gj
                        best = t if best is None or t < best else best
                elif gj < 0:
                    if lp.lower[j] is not None:
                        t = (x[j] - lp.lower[j]) / (-gj)
                        best = t if best is None or t < best else best
            return best

        step = max_step(1)
        sign = 1
        if step is None:
            step = max_step(-1)
            sign = -1
        if step is None:
            raise NonPointedCone("feasible region contains a line through x")
        for j, gj in g.items():
            x[j] += sign * step * gj
        if trail is not None:
            trail.append(tuple(x))
        tightened = [j for j in g if is_tight(j)]
        if not tightened:
            raise AssertionError("maximal move failed to tighten a bound")
        removed_basic = [e for e in basis if e[0] in tightened]
        if removed_basic:
            keep = [e[0] for e in basis if e[0] not in tightened]
            if c not in tightened:
                keep.append(c)
            basis.clear()
            for col in keep:
                if not insert(col):
                    raise AssertionError("basis rebuild lost independence")
    return tuple(x)


def _outcome(fn, lp, x):
    try:
        return fn(lp, x)
    except (InfeasibleStart, NonPointedCone) as exc:
        return type(exc).__name__


def _random_lp(rng, big_denominators):
    """A seeded BoxLP and a feasible point of it; M may have zero or
    repeated rows, and either bound of a coordinate may be absent."""
    r, n = rng.randint(0, 4), rng.randint(1, 7)
    dens = (1, 2, 3, 7, 10**9 + 7, 2**61 - 1) if big_denominators else (1,)

    def entry():
        return ZERO if rng.random() < 0.3 else F(rng.randint(-5, 5), rng.choice(dens))

    rows = [[entry() for _ in range(n)] for _ in range(r)]
    if r and rng.random() < 0.2:
        rows[rng.randrange(r)] = [ZERO] * n
    if r > 1 and rng.random() < 0.3:
        rows[-1] = [F(3, 2) * a for a in rows[0]]
    M = Matrix.from_rows(rows) if r else Matrix.zeros(0, n)
    lower = tuple(rng.choice([ZERO, F(-1), None, F(rng.randint(-3, 0), 5)]) for _ in range(n))
    upper = tuple(None if rng.random() < 0.25 else F(rng.randint(1, 4), rng.choice([1, 3]))
                  for _ in range(n))
    x = []
    for lo, hi in zip(lower, upper):
        v = (F(-2) if lo is None else lo) + F(rng.randint(0, 9), rng.choice((1, 4, 10**6 + 3)))
        x.append(v if hi is None else min(v, hi))
    return BoxLP(M, M.mul_vec(tuple(x)), lower, upper), tuple(x)


@pytest.mark.parametrize("big_denominators", [False, True])
def test_integer_purify_matches_fraction_reference(big_denominators):
    rng = random.Random(2022 + big_denominators)
    seen = {"vertex": 0, "moved": 0, "NonPointedCone": 0, "rank_deficient": 0}
    for _ in range(600):
        lp, x = _random_lp(rng, big_denominators)
        want = _outcome(_reference_purify, lp, x)
        got = _outcome(purify_to_vertex, lp, x)
        assert got == want, (lp, x)
        if isinstance(want, str):
            seen[want] += 1
            continue
        seen["vertex"] += 1
        seen["moved"] += want != x
        seen["rank_deficient"] += rank(lp.M) < lp.M.rows
        # a vertex is a fixed point of both
        assert purify_to_vertex(lp, want) == want == _reference_purify(lp, want)
    assert min(seen.values()) >= 10, seen


def test_integer_purify_infeasible_start_matches_reference():
    rng = random.Random(7)
    rejected = 0
    for _ in range(200):
        lp, x = _random_lp(rng, True)
        j = rng.randrange(len(x))
        bad = x[:j] + (x[j] + F(1, 10**6 + 3),) + x[j + 1:]
        want = _outcome(_reference_purify, lp, bad)
        assert _outcome(purify_to_vertex, lp, bad) == want
        rejected += want == "InfeasibleStart"
    assert rejected >= 100


def test_integer_feasibility_check_agrees_with_fraction_product():
    rng = random.Random(11)
    verdicts = set()
    for _ in range(400):
        lp, x = _random_lp(rng, rng.random() < 0.5)
        assert lp.is_feasible_point(x) and _reference_feasible(lp, x)
        j = rng.randrange(len(x))
        for delta in (F(1), F(-1, 3), F(1, 2**61 - 1)):
            bad = x[:j] + (x[j] + delta,) + x[j + 1:]
            want = _reference_feasible(lp, bad)
            assert lp.is_feasible_point(bad) == want
            verdicts.add(want)
        assert not lp.is_feasible_point(x[:-1])
    assert verdicts == {True, False}


def test_integer_rows_scale_each_row_to_integers():
    M = Matrix.from_rows([[F(1, 2), F(2, 3)], [ZERO, ZERO], [F(-3, 4), F(5)]])
    lp = BoxLP(M, (F(1, 5), ZERO, F(7, 2)), (ZERO, ZERO), (None, None))
    rows, rhs = lp.integer_rows
    assert rows == [(15, 20), (0, 0), (-3, 20)]
    assert rhs == [6, 0, 14]


# ---------------------------------------------------------------------------
# the integer walk: x, the bounds and the steps over one common denominator


def _common_denominator(lp, x):
    """D of the integer walk at x: with the content divided out, X, LO, HI
    and D have no common factor, so D is the lcm of the denominators."""
    bounds = [v for v in lp.lower + lp.upper if v is not None]
    return math.lcm(*(rat(v).denominator for v in (*x, *bounds)))


def _walk(lp, x0):
    """(vertex, steps) of the reference walk; each step is (den, h): x moved
    by num/den in units of 1/D, so D became den*D/h after dividing by the
    content h.  The integer walk's g is primitive, so den is the lcm of the
    denominators of D*x after the move."""
    trail = [tuple(rat(v) for v in x0)]
    vertex = _reference_purify(lp, x0, trail)
    steps = []
    for before, after in zip(trail, trail[1:]):
        D = _common_denominator(lp, before)
        den = math.lcm(*(rat(D * v).denominator for v in after))
        steps.append((den, den * D // _common_denominator(lp, after)))
    return vertex, steps


def _lp_through(rows, x, lower, upper):
    M = Matrix.from_rows(rows)
    return BoxLP(M, M.mul_vec(tuple(x)), tuple(lower), tuple(upper))


BOUND_DENOMINATORS = (10**9 + 7, 2**61 - 1, 998_244_353, 3**19)
START_DENOMINATORS = (2**31, 5**13, 10**6 + 3, 11**9)


def test_bounds_with_large_denominators_and_coprime_starts():
    rng = random.Random(31)
    walks = den_steps = reduced = 0
    for _ in range(150):
        n, r = rng.randint(2, 7), rng.randint(1, 3)
        rows = [[F(rng.randint(-4, 4), rng.choice((1, 2, 5))) for _ in range(n)]
                for _ in range(r)]
        lower, upper, x = [], [], []
        for _ in range(n):
            lo = F(rng.randint(-3 * 10**9, 0), rng.choice(BOUND_DENOMINATORS))
            hi = lo + F(1, 4) + F(rng.randint(0, 5 * 10**9), rng.choice(BOUND_DENOMINATORS))
            q = rng.choice(START_DENOMINATORS)
            # strictly between lo and lo + 1/4, over q
            x.append(F(math.floor(lo * q) + rng.randint(1, q // 4 - 1), q))
            lower.append(lo)
            upper.append(hi)
        lp = _lp_through(rows, x, lower, upper)
        assert all(math.gcd(rat(v).denominator, b) == 1
                   for v in x for b in BOUND_DENOMINATORS)
        vertex, steps = _walk(lp, x)
        assert purify_to_vertex(lp, x) == vertex
        walks += len(steps) >= 2
        den_steps += sum(den != 1 for den, _ in steps)
        reduced += sum(h != 1 for _, h in steps)
    assert walks >= 80 and den_steps >= 150 and reduced >= 80, (walks, den_steps, reduced)


def test_one_sided_bounds_force_the_minus_direction():
    rng = random.Random(32)
    minus = plus = 0
    for _ in range(300):
        n = rng.randint(2, 6)
        # a row with a positive and a negative entry has a nonnegative kernel
        # direction; with no upper bound, + has no blocking bound along it
        rows = [[F(rng.randint(0, 3)) * rng.choice((1, -1)) if j > 1 else F((1, -2)[j])
                 for j in range(n)] for _ in range(rng.randint(1, 2))]
        lower = [F(rng.randint(-4, 0), rng.choice((1, 3, 10**9 + 7))) for _ in range(n)]
        x = [lo + F(rng.randint(1, 20), rng.choice((1, 7, 2**31))) for lo in lower]
        lp = _lp_through(rows, x, lower, [None] * n)
        trail = [tuple(x)]
        got = _outcome(purify_to_vertex, lp, x)
        assert got == _outcome(lambda lp, x: _reference_purify(lp, x, trail), lp, x)
        for before, after in zip(trail, trail[1:]):
            # no coordinate can rise along -g when g >= 0 blocks nothing on +
            rose = any(b < a for b, a in zip(before, after))
            plus += rose
            minus += not rose
    assert minus >= 50 and plus >= 50, (minus, plus)


def test_mirrored_bounds_take_the_minus_direction():
    # x1 = 2 x0: along g = (1, 2) nothing bounds +, the lower bounds stop -
    lp = BoxLP(Matrix.from_rows([[F(2), F(-1)]]), (F(0),), (F(1, 3), F(-5, 7)), (None, None))
    x = (F(3, 2), F(3))
    assert purify_to_vertex(lp, x) == _reference_purify(lp, x) == (F(1, 3), F(2, 3))


def test_several_steps_with_growing_denominator():
    rng = random.Random(33)
    long_walks = 0
    for _ in range(200):
        n = rng.randint(4, 9)
        rows = [[F(rng.randint(-6, 6), rng.choice((1, 3, 4))) for _ in range(n)]
                for _ in range(2)]
        lower = [F(rng.randint(-2, 0), rng.choice((1, 5))) for _ in range(n)]
        upper = [lo + F(rng.randint(1, 9), rng.choice((2, 7, 11))) for lo in lower]
        x = [lo + (hi - lo) * F(rng.randint(1, 12), 13) for lo, hi in zip(lower, upper)]
        lp = _lp_through(rows, x, lower, upper)
        vertex, steps = _walk(lp, x)
        assert purify_to_vertex(lp, x) == vertex
        dens = [den for den, _ in steps if den != 1]
        long_walks += len(dens) >= 3 and any(h != 1 for _, h in steps)
    assert long_walks >= 80, long_walks


def _checked_purify(calls):
    def purify(lp, x0):
        got = purify_to_vertex(lp, x0)
        assert got == _reference_purify(lp, x0)
        calls.append(len(x0))
        return got
    return purify


def test_rearrangement_chain_lps_match_reference(monkeypatch):
    calls = []
    monkeypatch.setattr(steinitz.rearrange, "purify_to_vertex", _checked_purify(calls))
    for seed, (d, m, norm, denom) in enumerate(((2, 12, LINF_NORM, 16), (3, 10, L1_NORM, 1024),
                                                (4, 9, LINF_NORM, 7), (2, 14, L1_NORM, 3))):
        seq = gen_zero_sum_sequence(d, m, norm, 700 + seed, denom)
        steinitz.rearrange.rearrangement_order(seq.vectors, d)
    assert len(calls) == (12 - 2) + (10 - 3) + (9 - 4) + (14 - 2)


def test_selection_polytope_lps_match_reference(monkeypatch):
    calls = []
    monkeypatch.setattr(steinitz.colorful, "purify_to_vertex", _checked_purify(calls))
    for seed, (d, n, m) in enumerate(((2, 3, 5), (3, 4, 4), (1, 5, 6))):
        fam = gen_zero_sum_family(d, n, m, (LINF_NORM, L1_NORM)[seed % 2], 800 + seed)
        for k in range(m + 1):
            steinitz.colorful.single_partial_sum(fam, k)
    assert len(calls) == 6 + 5 + 7


def _start_lp():
    M = Matrix.from_rows([[F(1), F(1), F(1)], [F(1, 2), F(-1), F(0)]])
    return BoxLP(M, (F(1), F(0)), (F(0), F(0), F(0)), (F(1), F(1), F(1, 2)))


@pytest.mark.parametrize("x,feasible", [
    ((F(-2, 3), F(-1, 3), F(2)), False),             # out of bounds, rows hold
    ((F(4, 9), F(2, 9), F(1, 3)), True),
    ((F(2, 3), F(1, 3), F(0)), True),                # x2 on its lower bound
    ((F(1, 3), F(1, 6), F(1, 2)), True),             # x2 on its upper bound
    ((F(2, 5), F(1, 5), F(2, 5)), True),
    ((F(1, 2), F(1, 4), F(1, 4)), True),
    ((F(1, 3), F(1, 3), F(1, 3)), False),            # off the second row
    ((F(1, 10**9 + 7), F(1, 2 * (10**9 + 7)), F(1) - F(3, 2 * (10**9 + 7))), False),  # x2 > 1/2
    ((F(1, 2), F(1, 4)), False),                     # too short
    ((F(2, 3), F(1, 3)), False),                     # too short, a feasible prefix
    ((F(1, 2), F(1, 4), F(1, 4), F(0)), False),      # too long
])
def test_start_check_matches_reference(x, feasible):
    lp = _start_lp()
    want = _outcome(_reference_purify, lp, x)
    assert (want != "InfeasibleStart") == feasible == lp.is_feasible_point(x)
    if feasible:
        assert purify_to_vertex(lp, x) == want
    else:
        with pytest.raises(InfeasibleStart, match="^starting point is not feasible$"):
            purify_to_vertex(lp, x)


def test_float_start_is_accepted():
    lp = _start_lp()
    x = (0.5, 0.25, 0.25)
    got = purify_to_vertex(lp, x)
    assert got == _reference_purify(lp, x) == purify_to_vertex(lp, tuple(map(F, x)))
    assert all(type(v) is F for v in got)
