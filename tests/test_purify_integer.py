"""Differential tests of the integer vertex purification.

``reference_purify`` (in purify_reference.py) is the elimination and the
walk over Fraction that the integer walk replaced, kept as the oracle: on
every seeded instance both must return the same vertex or raise the same
error.  Given a ``trail`` list, it appends x after every move, so a test
can see which walks it covers.  The rearrangement chain, which never walks
and pivots on a kept basis, is checked against the Fraction reference of
chain_reference.py, and the selection, which pivots on the same core
(``linalg.DualBasis``), against the Fraction reference of
purify_reference.py, whose pivots are chain_reference's.  The seeded LPs
come from generators (``LP_SETS``) that test_walk.py replays through the
walk's own oracle.
"""

import collections
import hashlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import chain_reference
import purify_reference
import steinitz.colorful
import steinitz.linalg
import steinitz.rearrange
from chain_reference import order_chain_pivots, order_chain_walk_every_step
from purify_reference import order_chain, reference_feasible, reference_purify
from steinitz.checks import PropertyViolation
from steinitz.colorful import ColoredFamily, SubsetSelection, single_partial_sum
from steinitz.generate import (gen_rank_deficient_sequence, gen_zero_sum_family,
                               gen_zero_sum_sequence)
from steinitz.linalg import Matrix, rank, rat
import steinitz.lp
from steinitz.lp import (BoxLP, InfeasibleStart, NonPointedCone, WalkCheckFailed, _bareiss_step,
                         purify_to_vertex, walk_to_vertex)
from steinitz.norms import L1_NORM, LINF_NORM, norm_eval
from steinitz.rearrange import _order_chain, _run_encode, rearrangement_order

ZERO, ONE = F(0), F(1)


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


def _random_lps(big_denominators):
    rng = random.Random(2022 + big_denominators)
    for _ in range(600):
        yield _random_lp(rng, big_denominators)


@pytest.mark.parametrize("big_denominators", [False, True])
def test_integer_purify_matches_fraction_reference(big_denominators):
    seen = {"vertex": 0, "moved": 0, "NonPointedCone": 0, "rank_deficient": 0}
    for lp, x in _random_lps(big_denominators):
        want = _outcome(reference_purify, lp, x)
        got = _outcome(purify_to_vertex, lp, x)
        assert got == want, (lp, x)
        if isinstance(want, str):
            seen[want] += 1
            continue
        seen["vertex"] += 1
        seen["moved"] += want != x
        seen["rank_deficient"] += rank(lp.M) < lp.M.rows
        # a vertex is a fixed point of both
        assert purify_to_vertex(lp, want) == want == reference_purify(lp, want)
    assert min(seen.values()) >= 10, seen


def test_integer_purify_infeasible_start_matches_reference():
    rng = random.Random(7)
    rejected = 0
    for _ in range(200):
        lp, x = _random_lp(rng, True)
        j = rng.randrange(len(x))
        bad = x[:j] + (x[j] + F(1, 10**6 + 3),) + x[j + 1:]
        want = _outcome(reference_purify, lp, bad)
        assert _outcome(purify_to_vertex, lp, bad) == want
        rejected += want == "InfeasibleStart"
    assert rejected >= 100


def test_integer_feasibility_check_agrees_with_fraction_product():
    rng = random.Random(11)
    verdicts = set()
    for _ in range(400):
        lp, x = _random_lp(rng, rng.random() < 0.5)
        assert lp.is_feasible_point(x) and reference_feasible(lp, x)
        j = rng.randrange(len(x))
        for delta in (F(1), F(-1, 3), F(1, 2**61 - 1)):
            bad = x[:j] + (x[j] + delta,) + x[j + 1:]
            want = reference_feasible(lp, bad)
            assert lp.is_feasible_point(bad) == want
            verdicts.add(want)
        assert not lp.is_feasible_point(x[:-1])
    assert verdicts == {True, False}


def test_integer_rows_scale_each_row_to_integers():
    M = Matrix.from_rows([[F(1, 2), F(2, 3)], [ZERO, ZERO], [F(-3, 4), F(5)]])
    lp = BoxLP(M, (F(1, 5), ZERO, F(7, 2)), (ZERO, ZERO), (None, None))
    rows, rhs = lp.integer_rows
    # one common factor, 60, the lcm of every denominator of [M | b]
    assert rows == [(30, 40), (0, 0), (-45, 300)]
    assert rhs == [12, 0, 210]


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
    vertex = reference_purify(lp, x0, trail)
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


def _large_denominator_lps():
    rng = random.Random(31)
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
        yield _lp_through(rows, x, lower, upper), x


def test_bounds_with_large_denominators_and_coprime_starts():
    walks = den_steps = reduced = 0
    for lp, x in _large_denominator_lps():
        assert all(math.gcd(rat(v).denominator, b) == 1
                   for v in x for b in BOUND_DENOMINATORS)
        vertex, steps = _walk(lp, x)
        assert purify_to_vertex(lp, x) == vertex
        walks += len(steps) >= 2
        den_steps += sum(den != 1 for den, _ in steps)
        reduced += sum(h != 1 for _, h in steps)
    assert walks >= 80 and den_steps >= 150 and reduced >= 80, (walks, den_steps, reduced)


def _one_sided_lps():
    rng = random.Random(32)
    for _ in range(300):
        n = rng.randint(2, 6)
        # a row with a positive and a negative entry has a nonnegative kernel
        # direction; with no upper bound, + has no blocking bound along it
        rows = [[F(rng.randint(0, 3)) * rng.choice((1, -1)) if j > 1 else F((1, -2)[j])
                 for j in range(n)] for _ in range(rng.randint(1, 2))]
        lower = [F(rng.randint(-4, 0), rng.choice((1, 3, 10**9 + 7))) for _ in range(n)]
        x = [lo + F(rng.randint(1, 20), rng.choice((1, 7, 2**31))) for lo in lower]
        yield _lp_through(rows, x, lower, [None] * n), x


def test_one_sided_bounds_force_the_minus_direction():
    minus = plus = 0
    for lp, x in _one_sided_lps():
        trail = [tuple(x)]
        got = _outcome(purify_to_vertex, lp, x)
        assert got == _outcome(lambda lp, x: reference_purify(lp, x, trail), lp, x)
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
    assert purify_to_vertex(lp, x) == reference_purify(lp, x) == (F(1, 3), F(2, 3))


def _growing_denominator_lps():
    rng = random.Random(33)
    for _ in range(200):
        n = rng.randint(4, 9)
        rows = [[F(rng.randint(-6, 6), rng.choice((1, 3, 4))) for _ in range(n)]
                for _ in range(2)]
        lower = [F(rng.randint(-2, 0), rng.choice((1, 5))) for _ in range(n)]
        upper = [lo + F(rng.randint(1, 9), rng.choice((2, 7, 11))) for lo in lower]
        x = [lo + (hi - lo) * F(rng.randint(1, 12), 13) for lo, hi in zip(lower, upper)]
        yield _lp_through(rows, x, lower, upper), x


def test_several_steps_with_growing_denominator():
    long_walks = 0
    for lp, x in _growing_denominator_lps():
        vertex, steps = _walk(lp, x)
        assert purify_to_vertex(lp, x) == vertex
        dens = [den for den, _ in steps if den != 1]
        long_walks += len(dens) >= 3 and any(h != 1 for _, h in steps)
    assert long_walks >= 80, long_walks


def test_basis_prefix_survives_a_tightened_basic_column():
    # walks where basic columns tighten, most often one strictly inside the
    # basis (neither its first nor its last column): the integer walk then
    # updates the basis inverse by one exchange pivot on that column's row,
    # which changes the rows above and below it, or by one downdate pivot per
    # other tightened column; the reference rebuilds its whole basis every time
    tightened = kept_prefix = 0
    for lp, x in _tightening_lps():
        rebuilds = []
        assert purify_to_vertex(lp, x) == reference_purify(lp, x, rebuilds=rebuilds)
        tightened += bool(rebuilds)
        kept_prefix += any(0 < first < size - 1 for first, size in rebuilds)
    assert tightened >= 300 and kept_prefix >= 150, (tightened, kept_prefix)


def _tightening_lps():
    rng = random.Random(34)
    for _ in range(400):
        n, r = rng.randint(5, 10), rng.randint(2, 4)
        rows = [[F(rng.randint(-6, 6), rng.choice((1, 3, 4))) for _ in range(n)]
                for _ in range(r)]
        lower = [F(rng.randint(-2, 0), rng.choice((1, 5))) for _ in range(n)]
        upper = [lo + F(rng.randint(1, 9), rng.choice((2, 7, 11))) for lo in lower]
        x = [lo + (hi - lo) * F(rng.randint(1, 12), 13) for lo, hi in zip(lower, upper)]
        yield _lp_through(rows, x, lower, upper), x


# ---------------------------------------------------------------------------
# the basis inverse: exchange pivots, rebuilds and the walk's own checks


def test_exchange_and_rebuild_paths_match_reference():
    # the 0/1 box, small integer rows and starts at thirds make many moves
    # tighten several bounds at once; the reference logs each rebuild as an
    # exchange (one basic column leaves, the entering one stays free: one
    # pivot of the basis inverse) or a rebuild (the inverse is built again)
    paths, walks = collections.Counter(), collections.Counter()
    for lp, x in _zero_one_box_lps():
        log = []
        assert purify_to_vertex(lp, x) == reference_purify(lp, x, paths=log)
        paths.update(log)
        walks.update(set(log))
    assert paths["exchange"] >= 400 and paths["rebuild"] >= 200, paths
    assert walks["exchange"] >= 200 and walks["rebuild"] >= 150, walks


def _zero_one_box_lps():
    rng = random.Random(41)
    for _ in range(300):
        n, r = rng.randint(4, 9), rng.randint(1, 4)
        rows = [[F(rng.choice((-1, 0, 1, 1, 2))) for _ in range(n)] for _ in range(r)]
        x = [F(rng.choice((1, 1, 1, 2)), 3) for _ in range(n)]
        yield _lp_through(rows, x, [ZERO] * n, [ONE] * n), x


@pytest.mark.parametrize("shape", ["hyperplane", "duplicated rows"])
def test_rank_deficient_columns_match_reference(shape):
    # more rows than the rank: T must find the dependent columns from the
    # rows below r, which never all vanish on an independent column
    moved = paths = 0
    for lp, x in _rank_deficient_lps(shape):
        assert rank(lp.M) < lp.M.rows
        log = []
        vertex = purify_to_vertex(lp, x)
        assert vertex == reference_purify(lp, x, paths=log)
        moved += vertex != tuple(x)
        paths += len(log)
    assert moved >= 150 and paths >= 100, (moved, paths)


def _rank_deficient_lps(shape):
    rng = random.Random(42 + (shape == "hyperplane"))
    for _ in range(200):
        n, r = rng.randint(3, 8), rng.randint(2, 4)
        rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(r - 1)]
        if shape == "hyperplane":
            # every column is orthogonal to (w, 1)
            w = [F(rng.randint(-2, 2), rng.choice((1, 2))) for _ in rows]
            rows.append([-sum(wi * row[j] for wi, row in zip(w, rows)) for j in range(n)])
        else:
            rows.insert(rng.randrange(r), list(rows[rng.randrange(r - 1)]))
        lower = [F(rng.randint(-2, 0)) for _ in range(n)]
        upper = [lo + rng.randint(1, 2) for lo in lower]
        x = [lo + (hi - lo) * F(rng.randint(1, 6), 7) for lo, hi in zip(lower, upper)]
        yield _lp_through(rows, x, lower, upper), x


def _bounds(rng, n):
    """Seeded bounds with each side present or absent."""
    pairs = [rng.choice(((F(-1), F(2)), (F(-1), None), (None, F(2)), (None, None)))
             for _ in range(n)]
    return [lo for lo, _ in pairs], [hi for _, hi in pairs]


def test_zero_row_lps_match_reference():
    # no rows: every column is dependent on the empty basis, so each
    # coordinate moves to its upper bound, or to its lower bound when it has
    # none, and a coordinate with neither is a line
    seen = collections.Counter()
    for lp, x in _zero_row_lps():
        lower, upper = lp.lower, lp.upper
        got = _outcome(purify_to_vertex, lp, x)
        assert got == _outcome(reference_purify, lp, x)
        if any(lo is None and hi is None for lo, hi in zip(lower, upper)):
            assert got == "NonPointedCone"
        else:
            assert got == tuple(lo if hi is None else hi for lo, hi in zip(lower, upper))
        seen[isinstance(got, str)] += 1
    assert min(seen[True], seen[False]) >= 40, seen


def _zero_row_lps():
    rng = random.Random(44)
    for _ in range(150):
        n = rng.randint(1, 6)
        lower, upper = _bounds(rng, n)
        x = tuple(F(rng.randint(-2, 4), 3) for _ in range(n))
        x = tuple(max(v, lo) if lo is not None else v for v, lo in zip(x, lower))
        x = tuple(min(v, hi) if hi is not None else v for v, hi in zip(x, upper))
        yield BoxLP(Matrix.zeros(0, n), (), tuple(lower), tuple(upper)), x


def test_one_sided_and_absent_bounds_match_reference():
    seen = collections.Counter()
    for lp, x in _open_bound_lps():
        lower, upper = lp.lower, lp.upper
        got = _outcome(purify_to_vertex, lp, x)
        assert got == _outcome(reference_purify, lp, x)
        if isinstance(got, str):
            seen[got] += 1
        else:
            # a coordinate with no bound can end a walk only as a basic column
            seen["free basic"] += any(lo is None and hi is None
                                      for lo, hi in zip(lower, upper))
            seen["vertex"] += 1
    assert min(seen.values()) >= 40 and len(seen) == 3, seen


def _open_bound_lps():
    rng = random.Random(45)
    for _ in range(300):
        n, r = rng.randint(2, 7), rng.randint(1, 3)
        rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(r)]
        lower, upper = _bounds(rng, n)
        x = [(F(0) if lo is None else lo) + F(rng.randint(0, 6), 4) for lo in lower]
        x = [v if hi is None else min(v, hi) for v, hi in zip(x, upper)]
        yield _lp_through(rows, x, lower, upper), x


# the seeded LP generators above, by name
LP_SETS = {"random": lambda: _random_lps(False), "random big": lambda: _random_lps(True),
           "large denominators": _large_denominator_lps, "one-sided": _one_sided_lps,
           "growing denominator": _growing_denominator_lps, "tightening": _tightening_lps,
           "0/1 box": _zero_one_box_lps, "zero rows": _zero_row_lps,
           "open bounds": _open_bound_lps,
           "hyperplane": lambda: _rank_deficient_lps("hyperplane"),
           "duplicated rows": lambda: _rank_deficient_lps("duplicated rows")}


@pytest.mark.parametrize("nrows", [0, 1, 3])
def test_single_column_matches_reference(nrows):
    # n = 1: a nonzero column is basic and x cannot move; a zero column (or
    # no rows) moves x to its upper bound, else its lower one, else a line
    columns = [(0,) * nrows]
    if nrows:
        columns += [tuple(range(1, nrows + 1)), (0,) * (nrows - 1) + (-2,)]
    for entries in columns:
        for lo, hi in ((ZERO, ONE), (ZERO, None), (None, ONE), (None, None)):
            x = (F(1, 2),)
            M = Matrix.from_rows([[F(a)] for a in entries]) if nrows else Matrix.zeros(0, 1)
            lp = BoxLP(M, M.mul_vec(x), (lo,), (hi,))
            got = _outcome(purify_to_vertex, lp, x)
            assert got == _outcome(reference_purify, lp, x)
            if any(entries):
                assert got == x
            else:
                assert got == ((hi if hi is not None else lo,) if (lo, hi) != (None, None)
                               else "NonPointedCone")


def test_bareiss_divisions_are_exact(monkeypatch):
    # T stays plus or minus the adjugate of the basis completed by unit
    # columns, so no division of a Bareiss step leaves a remainder
    divisions = 0

    def checked(T, t, p, delta):
        nonlocal divisions
        Tp = T[p]
        for i, (row, ti) in enumerate(zip(T, t)):
            if i != p:
                for a, b in zip(row, Tp):
                    assert divmod(t[p] * a - ti * b, delta)[1] == 0
                    divisions += 1
        return _bareiss_step(T, t, p, delta)

    monkeypatch.setattr(steinitz.lp, "_bareiss_step", checked)
    monkeypatch.setattr(steinitz.linalg, "_bareiss_step", checked)
    rng = random.Random(47)
    for _ in range(300):
        lp, x = _random_lp(rng, rng.random() < 0.5)
        assert _outcome(purify_to_vertex, lp, x) == _outcome(reference_purify, lp, x)
    # the chains, with the dual pivots of linalg.DualBasis, the per-copy
    # chain that walks at every step, whose walks keep their columns longer,
    # and two selections, which pivot on DualBasis too
    for d, m in ((3, 30), (5, 30)):
        vectors = gen_zero_sum_sequence(d, m, LINF_NORM, 48 + d, 16).vectors
        runs = _run_encode(vectors)
        assert _order_chain(runs, d) == order_chain_pivots(runs, d)
        assert sorted(order_chain_walk_every_step(vectors, d)) == list(range(m))
    seq = gen_rank_deficient_sequence(4, 2, 30, 51)
    runs = _run_encode(seq.vectors)
    assert _order_chain(runs, 4) == order_chain_pivots(runs, 4)
    for fam in (gen_zero_sum_family(3, 6, 12, L1_NORM, 49, 16),
                gen_zero_sum_family(3, 8, 12, L1_NORM, 50, 16)):
        assert single_partial_sum(fam, 5) == purify_reference.single_partial_sum(fam, 5)
    assert divisions >= 15_000, divisions


def _doubling_step(T, t, p, delta):
    """A corrupted Bareiss step: T right, the new delta doubled."""
    return 2 * _bareiss_step(T, t, p, delta)


def test_corrupted_vertex_is_rejected(monkeypatch):
    # with delta doubled, the first direction is -1 on x0 and 2 on x1, off the
    # kernel of x0 + x1 + x2, and the walk ends at (0, 1, 1/3), off the sum row
    x = (F(1, 3),) * 3
    lp = _lp_through([[1, 1, 1]], x, [ZERO] * 3, [ONE] * 3)
    assert purify_to_vertex(lp, x) == reference_purify(lp, x) == (ZERO, ZERO, ONE)
    monkeypatch.setattr(steinitz.lp, "_bareiss_step", _doubling_step)
    with pytest.raises(WalkCheckFailed, match="^vertex left the affine space A x = b$"):
        purify_to_vertex(lp, x)
    # seeded LPs: a corrupted walk either raises the named check or still
    # ends on a feasible point
    rng = random.Random(46)
    rejected = 0
    for _ in range(100):
        lp, x = _random_lp(rng, False)
        try:
            vertex = purify_to_vertex(lp, x)
        except WalkCheckFailed:
            rejected += 1
        except NonPointedCone:
            continue
        else:
            assert reference_feasible(lp, vertex)
    assert rejected >= 20, rejected


def test_start_outside_its_bounds_is_rejected():
    # the caller checks the start; a start above its upper bound on a basic
    # column that never moves ends the walk outside the bounds
    with pytest.raises(WalkCheckFailed, match="^vertex left its bounds$"):
        walk_to_vertex([(1,)], 1, [5], [0], [3])
    assert walk_to_vertex([(1,)], 1, [2], [0], [3]) == (1, [2])


def test_walk_checks_survive_python_O():
    code = ("import steinitz.lp as lp\n"
            "step = lp._bareiss_step\n"
            "lp._bareiss_step = lambda T, t, p, delta: 2 * step(T, t, p, delta)\n"
            "for cols, X, LO, HI in (([(1,), (1,), (1,)], [1, 1, 1], [0] * 3, [3] * 3),\n"
            "                        ([(1,)], [5], [0], [3])):\n"
            "    try:\n"
            "        lp.walk_to_vertex(cols, 3, X, LO, HI)\n"
            "    except lp.WalkCheckFailed as exc:\n"
            "        print(exc)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out == "vertex left the affine space A x = b\nvertex left its bounds\n"


def _count_restores(monkeypatch):
    """Count the restores of linalg.DualBasis, with the length of their
    order; each must end with delta > 0."""
    calls = []
    restore = steinitz.linalg.DualBasis.restore

    def counted(basis, name):
        calls.append(len(basis.order))
        delta, X = restore(basis, name)
        assert delta == basis.delta > 0
        return delta, X

    monkeypatch.setattr(steinitz.linalg.DualBasis, "restore", counted)
    return calls


def _count_pivot_phases(monkeypatch):
    """Count the chains that reach their pivot phase, the calls of
    rearrange._pivot_steps."""
    calls = []
    steps = steinitz.rearrange._pivot_steps

    def counted(k, dim, cols, live, left, drops):
        calls.append(k)
        return steps(k, dim, cols, live, left, drops)

    monkeypatch.setattr(steinitz.rearrange, "_pivot_steps", counted)
    return calls


def _chain_cases():
    """(d, vectors): seeded zero-sum sequences for d = 2..5 under both
    norms and denominators 3, 16 and 1024, m up to 70, and sequences that
    repeat a few vectors many times."""
    rng = random.Random(700)
    for d in range(2, 6):
        for norm in (LINF_NORM, L1_NORM):
            for i, denom in enumerate((3, 16, 1024)):
                m = (10, 25, 40)[(d + i) % 3]
                yield d, gen_zero_sum_sequence(d, m, norm, rng.randrange(10**6), denom).vectors
        yield d, gen_zero_sum_sequence(d, 70, LINF_NORM, rng.randrange(10**6), 16).vectors
        base = gen_zero_sum_sequence(d, rng.randint(3, 5), L1_NORM, rng.randrange(10**6), 16)
        repeated = list(base.vectors) * rng.randint(4, 8)
        rng.shuffle(repeated)
        yield d, tuple(repeated)
        v = base.vectors[0]
        yield d, (v, tuple(-x for x in v)) * 12


def _long_chains():
    """(d, vectors): zero-sum sequences of 2-4 distinct vectors in d = 2..4,
    100-400 copies in all, each vector as one long run or interleaved."""
    rng = random.Random(702)
    for i in range(24):
        d, types = rng.randint(2, 4), rng.randint(2, 4)
        counts = [rng.randint(20, 150) for _ in range(types)]
        while not 100 <= sum(counts) <= 400:
            counts = [rng.randint(20, 150) for _ in range(types)]
        vs = [tuple(F(rng.randint(-8, 8), 4) for _ in range(d)) for _ in range(types - 1)]
        vs.append(tuple(-sum(c * v[i] for c, v in zip(counts, vs)) / counts[-1]
                        for i in range(d)))
        seq = [v for v, count in zip(vs, counts) for _ in range(count)]
        if i % 2:
            rng.shuffle(seq)
        yield d, tuple(seq)


def _prefix_max(vectors, order, norm):
    """The largest norm of a prefix of the vectors in the order, summed
    one vector at a time."""
    prefix, best = [ZERO] * len(vectors[0]), ZERO
    for idx in order:
        prefix = [a + b for a, b in zip(prefix, vectors[idx])]
        best = max(best, norm_eval(norm, tuple(prefix)))
    return best


def _count_reference_walks(monkeypatch):
    """Count the walks of the reference chain, its reference_purify calls."""
    calls = []

    def walk(lp, x):
        calls.append(len(x))
        return reference_purify(lp, x)

    monkeypatch.setattr(purify_reference, "reference_purify", walk)
    return calls


def _count_pivots(monkeypatch):
    """Count the Bareiss steps of the chain's own basis: its dual pivots and
    the downdates of basic types that run out."""
    calls = []

    def counted(T, t, p, delta):
        calls.append(p)
        return _bareiss_step(T, t, p, delta)

    monkeypatch.setattr(steinitz.linalg, "_bareiss_step", counted)
    return calls


def test_rearrangement_chain_matches_reference(monkeypatch):
    """The same chunks as the Fraction reference of the chain, which solves
    each basic solution and pivot row afresh, with the same start and the
    same pivots; every order is a bijection within the bound d * radius.  A
    chain enters its pivot phase at most once, at its first step without a
    type to place, and keeps its basis from then on."""
    starts = _count_pivot_phases(monkeypatch)
    pivots = _count_pivots(monkeypatch)
    steps = repeated = chains = 0
    log = []
    for d, vectors in _chain_cases():
        before = len(starts)
        runs = _run_encode(vectors)
        assert _order_chain(runs, d) == order_chain_pivots(runs, d, log)
        assert len(starts) - before <= 1
        order = rearrangement_order(vectors, d)
        repeated += len(set(vectors)) < len(vectors)
        assert sorted(order) == list(range(len(vectors)))
        for norm in (LINF_NORM, L1_NORM):
            radius = max(norm_eval(norm, v) for v in vectors)
            assert _prefix_max(vectors, order, norm) <= d * radius
        steps += len(vectors) - d
        chains += 1
    # each chain twice; at one walk per step without a type to place, 369
    # walks for 975 chain steps; from the walk's vertex, 1,720 pivots and 31
    # downdates; from the unit columns by Bland's rule, 2,320 pivots and 34
    # downdates; by the greedy rule, 887 and 32, and no pivot by Bland's
    assert len(starts) == 2 * log.count("start")
    assert len(pivots) == 2 * (log.count("pivot") + log.count("downdate"))
    assert (chains, steps, log.count("start"), log.count("pivot"), log.count("downdate"),
            log.count("bland")) == (36, 975, 30, 887, 32, 0), \
        (chains, steps, collections.Counter(log))
    assert repeated >= 8, repeated

    # 2-4 types with 100-400 copies, in long runs and interleaved: 5,173 of
    # the 5,758 chain steps are walk-free, and two chains reach the pivot
    # phase
    log.clear()
    steps = pivot_steps = 0
    for d, vectors in _long_chains():
        before = len(starts)
        runs = _run_encode(vectors)
        assert _order_chain(runs, d) == order_chain_pivots(runs, d, log)
        pivot_steps += sum(k - d for k in starts[before:])
        order = rearrangement_order(vectors, d)
        for norm in (LINF_NORM, L1_NORM):
            radius = max(norm_eval(norm, v) for v in vectors)
            assert _prefix_max(vectors, order, norm) <= d * radius
        steps += len(vectors) - d
    assert (steps, pivot_steps) == (5758, 585), (steps, pivot_steps)
    assert collections.Counter(log) == {"start": 2, "pivot": 9, "artificial": 6,
                                        "downdate": 2}, collections.Counter(log)


def test_stuck_chain_types_are_within_one_copy_of_their_count(monkeypatch):
    """At the first step without a type to place, on the corpus above, each
    type is within one copy of its share c_t S / m of the walk-free point,
    (left_t - 1) m < c_t S <= left_t m with S = k-1-d: the start of the
    pivot phase, every type at its count, is that close to that point.  No
    type has run out by then."""
    steps = steinitz.rearrange._pivot_steps
    stuck = []

    def checked(k, dim, cols, live, left, drops):
        assert live == list(range(len(cols)))
        counts = [count + drops.count(t) for t, count in zip(live, left)]
        m, S = sum(counts), k - 1 - dim
        assert all((count - 1) * m < c * S <= count * m for c, count in zip(counts, left))
        stuck.append(len(live))
        return steps(k, dim, cols, live, left, drops)

    monkeypatch.setattr(steinitz.rearrange, "_pivot_steps", checked)
    for d, vectors in _chain_cases():
        rearrangement_order(vectors, d)
    assert len(stuck) == 30, stuck


def test_chain_checks_each_pivot_step_once(monkeypatch):
    """On the corpus above, the chain's exact point check runs once per
    step of its pivot phase, steps k..d+1, and never in its walk-free
    phase, which the one zero-sum check of the input covers."""
    starts, checks = [], []
    steps, check = steinitz.rearrange._pivot_steps, steinitz.linalg.DualBasis.holds
    monkeypatch.setattr(steinitz.rearrange, "_pivot_steps",
                        lambda k, dim, *args: starts.append(k - dim) or steps(k, dim, *args))
    monkeypatch.setattr(steinitz.linalg.DualBasis, "holds",
                        lambda *args: checks.append(1) or check(*args))
    for d, vectors in _chain_cases():
        rearrangement_order(vectors, d)
    assert len(starts) == 30 and len(checks) == sum(starts), (len(starts), len(checks))


def test_rearrangement_chain_matches_reference_off_the_corpus():
    """The same chunks as the Fraction reference on rank-deficient
    sequences, whose bases keep unit columns among their basics (and some
    leave as dual pivots), and on the shortest chains, m = d+1 and d+2."""
    rng = random.Random(701)
    log = []
    for i in range(60):
        d = rng.randint(2, 5)
        seq = gen_rank_deficient_sequence(d, rng.randint(1, d - 1), rng.randint(d + 1, 40),
                                          rng.randrange(10**6))
        runs = _run_encode(seq.vectors)
        assert _order_chain(runs, d) == order_chain_pivots(runs, d, log)
    # every rank-deficient chain but two reaches the pivot phase, which
    # starts on the R unit columns; the d - rank or more that its types do
    # not span stay basic, and 151 leave as dual pivots (148 of 2,032 pivots,
    # with 31 downdates, by Bland's rule)
    assert collections.Counter(log) == {"start": 58, "pivot": 1191, "downdate": 47,
                                        "artificial": 151}, collections.Counter(log)
    log.clear()
    for d in range(2, 6):
        for m in (d + 1, d + 2):
            for seed in range(5):
                for norm in (LINF_NORM, L1_NORM):
                    runs = _run_encode(gen_zero_sum_sequence(d, m, norm, 910 + seed, 16).vectors)
                    assert _order_chain(runs, d) == order_chain_pivots(runs, d, log)
    # m = d+1 places its one copy without a pivot; each m = d+2 chain starts
    # its pivot phase at its first step, where all R unit columns leave (in
    # 220 pivots; 262 by Bland's rule), places a basic type at zero, which
    # runs out, and pivots no more
    assert collections.Counter(log) == {"start": 40, "pivot": 220, "artificial": 180,
                                        "downdate": 40}, collections.Counter(log)


# sha256 of the chunks of _order_chain over _chain_cases(), in order, as they
# were when the dual pivots followed Bland's rule alone
BLAND_CHAIN_CASES_SHA256 = "d45a941b49ca8e928780052d1e2f073dfbd82147e2d3037ce68284dce98b61b5"


def test_pure_bland_pivots_reproduce_the_bland_chain(monkeypatch):
    """With the fallback at 0 pivots, every restore follows Bland's rule
    from its first pivot: the chain's rule before the greedy one.  On
    _chain_cases() it then makes that chain's 2,320 pivots and 34 downdates
    and returns its chunks (their digest is pinned), and so does the
    Fraction reference with the same setting."""
    monkeypatch.setattr(steinitz.linalg, "GREEDY_PIVOTS_PER_ROW", 0)
    monkeypatch.setattr(chain_reference, "GREEDY_PIVOTS_PER_ROW", 0)
    pivots = _count_pivots(monkeypatch)
    digest = hashlib.sha256()
    log = []
    for d, vectors in _chain_cases():
        runs = _run_encode(vectors)
        chunks = _order_chain(runs, d)
        assert chunks == order_chain_pivots(runs, d, log)
        digest.update(repr(chunks).encode())
    assert digest.hexdigest() == BLAND_CHAIN_CASES_SHA256
    assert log.count("pivot") == log.count("bland") == 2320 and log.count("downdate") == 34
    assert len(pivots) == 2320 + 34


def _pivots_per_restore(monkeypatch):
    """The pivots of each DualBasis restore, over its rows R."""
    ratios, pivots = [], []
    step, restore = steinitz.linalg._positive_step, steinitz.linalg.DualBasis.restore

    def counted(*args):
        pivots.append(1)
        return step(*args)

    def measured(basis, name):
        pivots.clear()
        point = restore(basis, name)
        ratios.append(F(len(pivots), len(basis.T)))
        return point

    monkeypatch.setattr(steinitz.linalg, "_positive_step", counted)
    monkeypatch.setattr(steinitz.linalg.DualBasis, "restore", measured)
    return ratios


@pytest.mark.parametrize("per_row", [50, 1])
def test_greedy_restores_end_before_the_fallback(monkeypatch, per_row):
    """On _chain_cases() and the selections of _selection_families(), no
    restore takes more than 11/6 R pivots (the chains; the selections take
    at most 11/7 R), far below the 50 R after which the core falls back to
    Bland's rule, which these inputs never reach.  With the fallback at one
    pivot per row, 130 chain pivots follow Bland's rule after a greedy
    start; every restore still ends, at most 3 R pivots on the chains and
    29/9 R on the selections, and the chains and the selections match their
    references with the same setting."""
    monkeypatch.setattr(steinitz.linalg, "GREEDY_PIVOTS_PER_ROW", per_row)
    monkeypatch.setattr(chain_reference, "GREEDY_PIVOTS_PER_ROW", per_row)
    ratios = _pivots_per_restore(monkeypatch)
    log = []
    for d, vectors in _chain_cases():
        runs = _run_encode(vectors)
        assert _order_chain(runs, d) == order_chain_pivots(runs, d, log)
    chains = max(ratios)
    ratios.clear()
    for fam in _selection_families():
        for k in range(fam.length + 1):
            assert single_partial_sum(fam, k) == purify_reference.single_partial_sum(fam, k)
    want = {50: (F(11, 6), F(11, 7), 0), 1: (F(3), F(29, 9), 130)}[per_row]
    assert (chains, max(ratios), log.count("bland")) == want, (chains, max(ratios), log)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_rearrangement_order_one_step_chain(monkeypatch, d):
    # m = d + 1: one chain step, at S = 0, where every type passes the count
    # test, so column 0 is placed without a pivot
    starts = _count_pivot_phases(monkeypatch)
    for seed in range(5):
        vectors = gen_zero_sum_sequence(d, d + 1, L1_NORM, 900 + seed, 16).vectors
        order = rearrangement_order(vectors, d)
        assert order == order_chain(vectors, d)
        assert sorted(order) == list(range(d + 1)) and order[-1] == 0
    assert starts == []


_positive_step = steinitz.linalg._positive_step


def _off_the_sum_row(T, t, q, delta):
    """A faulty pivot of the chain: its Bareiss step, and then the basic
    value of row q raised by one unit over delta, off A x = b."""
    delta = _positive_step(T, t, q, delta)
    T[q][-1] += 1
    return delta


def test_corrupted_chain_start_is_named(monkeypatch):
    # not zero-sum: the first start point is off V x = 0
    vectors = ((F(1), F(0)), (F(0), F(1)), (F(-1), F(0)), (F(0), F(-1, 2)))
    with pytest.raises(PropertyViolation, match="^property chain-start-point violated: "
                                                "chain point is not feasible$"):
        rearrangement_order(vectors, 2)

    # pivots that push the basic values off the sum row: the point read from
    # the basis fails the same check
    monkeypatch.setattr(steinitz.linalg, "_positive_step", _off_the_sum_row)
    seq = gen_zero_sum_sequence(2, 8, LINF_NORM, 5, 16)
    with pytest.raises(PropertyViolation, match="^property chain-start-point violated: "):
        rearrangement_order(seq.vectors, 2)


@pytest.mark.parametrize("vectors", [((F(1),), (F(1),)),
                                     ((F(1), F(0)), (F(1), F(0)), (F(0), F(1)))])
def test_input_off_zero_sum_is_named_in_every_dimension(vectors):
    # longer than d and not zero-sum: the one check of the chain's
    # walk-free points names it, before the d = 1 greedy or the chain runs
    # (at m = d + 1 the chain's one point is 0, which a point check passes)
    d = len(vectors[0])
    with pytest.raises(PropertyViolation, match="^property chain-start-point violated: "
                                                "chain point is not feasible$"):
        rearrangement_order(vectors, d)
    # at most d vectors: the identity, whatever their sum
    assert rearrangement_order(vectors[:d], d) == tuple(range(d))


# the CLI run of a chain whose pivots push each basic value off the sum row:
# a named violation, exit 1 (the start check is not a usage error)
CORRUPTED_CHAIN_RUN = (
    "import sys\n"
    "import steinitz.cli as cli, steinitz.linalg as linalg\n"
    "from test_purify_integer import _off_the_sum_row\n"
    "path = sys.argv[1]\n"
    "if cli.main(['gen', 'family', '--d', '3', '--n', '1', '--m', '200', '--seed', '5',\n"
    "             '--output', path]):\n"
    "    sys.exit('gen failed')\n"
    "linalg._positive_step = _off_the_sum_row\n"
    "print(cli.main(['rearrange', '--input', path]))\n")


def _corrupted_chain_run(python_flags, tmp_path):
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *python_flags, "-c", CORRUPTED_CHAIN_RUN,
                           str(tmp_path / "seq200.txt")], env=env, capture_output=True,
                          text=True, timeout=120, check=True)


def test_corrupted_chain_start_exits_with_one(tmp_path):
    run = _corrupted_chain_run([], tmp_path)
    assert run.stdout == "1\n"
    assert "property violation [chain-start-point]: property chain-start-point violated: " \
        "chain point is not feasible" in run.stderr


def test_corrupted_chain_start_raises_under_python_O(tmp_path):
    run = _corrupted_chain_run(["-O"], tmp_path)
    assert run.stdout == "1\n"
    assert "property violation [chain-start-point]: " in run.stderr


def _selection_families():
    rng = random.Random(800)
    for d in range(1, 5):
        for norm in (LINF_NORM, L1_NORM):
            for denom in (3, 16, 1024):
                n, m = rng.randint(1, 6), rng.randint(1, 8)
                yield gen_zero_sum_family(d, n, m, norm, rng.randrange(10**6), denom)


def test_selection_matches_reference(monkeypatch):
    restores = _count_restores(monkeypatch)
    selections = 0
    for fam in _selection_families():
        for k in range(fam.length + 1):
            got = single_partial_sum(fam, k)
            assert got == purify_reference.single_partial_sum(fam, k)
            assert type(got.achieved) is F
            selections += 1
    # one restore per selection, with no walk
    assert len(restores) == selections


@pytest.mark.parametrize("colors,length", [(3, 0), (0, 3), (0, 0)])
def test_selection_without_variables_never_walks(monkeypatch, colors, length):
    # no variables: the basis of unit columns is feasible at once, with
    # delta = 1, and makes no pivot
    restores = _count_restores(monkeypatch)
    pivots = _count_pivots(monkeypatch)
    fam = ColoredFamily(2, colors, length, ((),) * colors, LINF_NORM)
    for k in range(length + 1):
        got = single_partial_sum(fam, k)
        assert got == purify_reference.single_partial_sum(fam, k)
        assert got == SubsetSelection(((),) * colors, k, ZERO)
    assert restores == [0] * (length + 1) and pivots == []
    with pytest.raises(ValueError, match="k out of range"):
        single_partial_sum(fam, length + 1)


def test_selection_of_nothing_and_everything():
    for fam in _selection_families():
        none, every = single_partial_sum(fam, 0), single_partial_sum(fam, fam.length)
        assert none.index_sets == ((),) * fam.colors and none.achieved == 0
        assert every.index_sets == (tuple(range(fam.length)),) * fam.colors
        assert every.achieved == 0  # the whole family is zero-sum


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
    want = _outcome(reference_purify, lp, x)
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
    assert got == reference_purify(lp, x) == purify_to_vertex(lp, tuple(map(F, x)))
    assert all(type(v) is F for v in got)
