"""Differential tests of the fraction-free vertex purification.

``_reference_purify`` is the elimination over Fraction that
``purify_to_vertex`` replaced, kept here unchanged as the oracle: on every
seeded instance both must return the same vertex or raise the same error.
"""

import random
from fractions import Fraction as F

import pytest

from steinitz.linalg import Matrix, rank, rat
from steinitz.lp import BoxLP, InfeasibleStart, NonPointedCone, purify_to_vertex

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


def _reference_purify(lp: BoxLP, x0):
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
