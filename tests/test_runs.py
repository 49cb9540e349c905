"""The run cores against the per-element loops they replaced.

A repeated piece is carried as a run (value, count).  The greedy order in
dimension one, the prefix maxima, the integer tube check and the vertex
peel each work a run (or a chunk of one) at a time; ``runs_reference.py``
keeps the loops that visit every copy.  On seeded sequences with long runs,
zero runs, alternating runs of equal magnitude, ties at prefix 0, one
element and no element, both must give the same answer, or raise the same
error.  Cutting a run into several must not change an answer either.
"""

import math
import random
from fractions import Fraction as F

import pytest

import runs_reference as ref
from steinitz.blockip import PropertyViolation, _leaves_tube_runs, _peel_vertices
from steinitz.norms import BlockMax, L1_NORM, LINF_NORM
from steinitz.rearrange import (VectorSequence, _expand, _max_prefix_runs, _order_dim1_runs,
                                _order_runs, _run_encode, max_prefix_norm, rearrangement_order)


def _spell(runs):
    return [v for v, count in runs for _ in range(count)]


def _cut(runs, rng):
    """The same sequence with its runs cut at random places."""
    out = []
    for v, count in runs:
        while count > 1 and rng.random() < 0.5:
            part = rng.randint(1, count - 1)
            out.append((v, part))
            count -= part
        out.append((v, count))
    return out


def _zero_sum(runs):
    total = sum(v * count for v, count in runs)
    return runs + [(-total, 1)] if total else runs


def _scalar_runs(rng, kind):
    """Scalar runs of one kind, made zero-sum by one more element."""
    frac = rng.random() < 0.5

    def value(lo, hi):
        return F(rng.randint(lo, hi), rng.randint(1, 4)) if frac else rng.randint(lo, hi)

    size = rng.randint(1, 7)
    if kind == "long":
        runs = [(value(-5, 5) or 1, rng.randint(20, 80)) for _ in range(size)]
    elif kind == "zeros":
        runs = [(0 if rng.random() < 0.4 else value(-4, 4), rng.randint(1, 12))
                for _ in range(size)]
    elif kind == "alternating":
        a = value(1, 6)
        runs = [(a if j % 2 == 0 else -a, rng.randint(1, 15)) for j in range(2 * size)]
    else:   # ties: unit steps, so the prefix comes back to 0 again and again
        runs = [(rng.choice((-1, 0, 1)), rng.randint(1, 5)) for _ in range(3 * size)]
    return _zero_sum(runs)


EDGE_RUNS = [[], [(0, 1)], [(5, 1)], [(0, 4)], [(3, 7), (-3, 7)],
             [(-2, 3), (2, 3), (0, 2), (2, 1), (-2, 1)], [(F(1, 2), 6), (0, 3), (F(-3, 2), 2)],
             [(1, 1000), (-1000, 1)]]
KINDS = ("long", "zeros", "alternating", "ties")


def _outcome(fn, *args):
    """fn's result, or the type name of the IndexError or PropertyViolation
    it raised (with the violated property)."""
    try:
        return fn(*args)
    except IndexError:
        return "IndexError"
    except PropertyViolation as exc:
        return ("violation", exc.name)


def _seeded_scalar_runs(seed, per_kind):
    rng = random.Random(seed)
    return EDGE_RUNS + [_scalar_runs(rng, kind) for kind in KINDS for _ in range(per_kind)]


# ---------------------------------------------------------------------------
# the greedy order in dimension one


def test_order_dim1_runs_match_the_per_element_greedy():
    rng = random.Random(8000)
    for runs in _seeded_scalar_runs(8001, 60):
        values = _spell(runs)
        want = ref._order_dim1(values)
        chunks = _order_dim1_runs(runs)
        assert all(0 <= lo < hi <= runs[r][1] for r, lo, hi in chunks)
        assert _expand(runs, chunks) == want
        cut = _cut(runs, rng)
        assert _expand(cut, _order_dim1_runs(cut)) == want
        assert rearrangement_order([(v,) for v in values], 1) == want
        assert _expand(runs, _order_runs([((v,), count) for v, count in runs], 1)) == want


def test_order_dim1_runs_take_a_run_in_few_chunks():
    # the shape of a psi sequence: alpha equal values and r = -(their sum)
    assert _order_dim1_runs([(1, 1000), (-1000, 1)]) == [(0, 0, 1), (1, 0, 1), (0, 1, 1000)]
    # a zero run goes out whole at prefix 0
    assert _order_dim1_runs([(0, 50), (2, 3), (-3, 2)]) == [
        (0, 0, 50), (1, 0, 1), (2, 0, 1), (1, 1, 2), (2, 1, 2), (1, 2, 3)]


def test_order_runs_chain_matches_the_spelled_sequence():
    """In dimension two and up the chain groups equal vectors by value, so
    runs, cut runs, equal vectors held as separate objects and runs of no
    copies all give the order of the spelled sequence; the copies that the
    chain places one after another from one run form one chunk."""
    rng = random.Random(8003)
    merged = 0
    for d in (2, 3):
        for _ in range(12):
            base = [tuple(F(rng.randint(-3, 3), rng.choice((1, 2, 4))) for _ in range(d))
                    for _ in range(rng.randint(2, 5))]
            runs = [(rng.choice(base), rng.randint(1, 9)) for _ in range(rng.randint(3, 8))]
            total = [sum(v[i] * count for v, count in runs) for i in range(d)]
            runs.append((tuple(-x for x in total), 1))
            runs.insert(rng.randrange(len(runs)), (rng.choice(base), 0))
            want = rearrangement_order(_spell(runs), d)
            chunks = _order_runs(runs, d)
            assert all(0 <= lo < hi <= runs[r][1] for r, lo, hi in chunks)
            assert _expand(runs, chunks) == want
            # equal vectors as separate objects, and cut runs
            copied = [(tuple(list(v)), count) for v, count in _cut(runs, rng)]
            assert _expand(copied, _order_runs(copied, d)) == want
            merged += len(chunks) < len(want)
    assert merged >= 12, merged


def test_order_dim1_runs_fail_as_the_per_element_greedy():
    """A sequence that is not zero-sum can run out of the sign the prefix
    needs: both raise IndexError, or both finish with the same order."""
    rng = random.Random(8002)
    verdicts = set()
    for _ in range(200):
        runs = [(rng.randint(-3, 3), rng.randint(1, 6)) for _ in range(rng.randint(1, 5))]
        want = _outcome(ref._order_dim1, _spell(runs))
        got = _outcome(lambda: _expand(runs, _order_dim1_runs(runs)))
        assert got == want
        verdicts.add(want == "IndexError")
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# prefix maxima


def _vector_runs(rng, dim, frac):
    def entry():
        return F(rng.randint(-6, 6), rng.randint(1, 5)) if frac else rng.randint(-6, 6)
    pool = [tuple(entry() for _ in range(dim)) for _ in range(rng.randint(1, 4))]
    pool.append((0,) * dim)
    return [(rng.choice(pool), rng.choice((1, 1, 2, 5, 30))) for _ in range(rng.randint(0, 8))]


@pytest.mark.parametrize("norm", ["l1", "linf", "blockmax"])
def test_max_prefix_runs_match_the_per_element_loop(norm):
    rng = random.Random(8100 + len(norm))
    checked = 0
    for _ in range(150):
        dim = rng.choice((1, 2, 4))
        spec = {"l1": L1_NORM, "linf": LINF_NORM,
                "blockmax": BlockMax(rng.choice((L1_NORM, LINF_NORM)), rng.choice((1, dim)))}[norm]
        frac = rng.random() < 0.5
        runs = _vector_runs(rng, dim, frac)
        vectors = tuple(_spell(runs))
        seq = VectorSequence(vectors, dim, spec)
        drifts = [None, tuple(F(rng.randint(-4, 4), 3) for _ in range(dim))]
        if not frac:
            drifts.append(tuple(rng.randint(-2, 2) for _ in range(dim)))
        for drift in drifts:
            want = ref.max_prefix_norm(seq, range(len(vectors)), drift)
            for got in (_max_prefix_runs(runs, dim, spec, drift),
                        _max_prefix_runs(_cut(runs, rng), dim, spec, drift),
                        max_prefix_norm(seq, range(len(vectors)), drift)):
                assert got == want and type(got) is type(want)
            perm = rng.sample(range(len(vectors)), len(vectors))
            assert max_prefix_norm(seq, perm, drift) == ref.max_prefix_norm(seq, perm, drift)
            checked += 1
    assert checked >= 300


def test_max_prefix_runs_of_nothing_is_zero():
    for spec in (L1_NORM, LINF_NORM):
        got = _max_prefix_runs([], 2, spec)
        assert got == ref.max_prefix_norm(VectorSequence((), 2, spec), ()) == 0
        assert type(got) is F


# ---------------------------------------------------------------------------
# the integer tube check


def _worst(images):
    m = len(images)
    total = [sum(col) for col in zip(*images)]
    return max((abs(sum(im[r] for im in images[:k]) - F(k, m) * total[r])
                for k in range(1, m + 1) for r in range(len(total))), default=F(0))


def test_leaves_tube_runs_match_the_per_element_loop():
    rng = random.Random(8200)
    left = held = 0
    for _ in range(250):
        dim = rng.randint(1, 3)
        pool = [tuple(rng.randint(-5, 5) for _ in range(dim)) for _ in range(rng.randint(1, 3))]
        runs = [(rng.choice(pool), rng.choice((1, 2, 3, 40))) for _ in range(rng.randint(1, 6))]
        images = _spell(runs)
        worst = _worst(images)
        eps = F(1, 7 * len(images))
        for cap in (worst, worst - eps, worst + eps, F(math.floor(worst)), F(math.ceil(worst))):
            if cap < 0:
                continue
            want = ref._leaves_tube(images, cap)
            assert _leaves_tube_runs(runs, cap) == want
            assert _leaves_tube_runs(_cut(runs, rng), cap) == want
            left += want
            held += not want
    assert left and held
    assert _leaves_tube_runs([], 1) is ref._leaves_tube([], 1) is False


# ---------------------------------------------------------------------------
# the vertex peel


def _peel_case(rng):
    """(tau, lam, count, span, verts, w), w = lam sum tau_k verts[k], with
    the weights or w perturbed on about half of the cases."""
    t = rng.randint(1, 3)
    verts = [tuple(rng.randint(0, 4) for _ in range(t)) for _ in range(rng.randint(1, 4))]
    support = rng.sample(range(len(verts)), rng.randint(1, len(verts)))
    raw = {k: rng.randint(1, 9) for k in support}
    tau = {k: F(a, sum(raw.values())) for k, a in raw.items()}
    lam = F(rng.randint(4, 160), rng.choice((1, 1, 2, 3)))
    span = rng.randint(1, 3)
    count = rng.randint(1, max(1, math.floor(lam)))
    w = tuple(sum((lam * c * verts[k][r] for k, c in tau.items()), F(0)) for r in range(t))
    fault = rng.random()
    if fault < 0.25:
        tau = {k: c * F(rng.randint(4, 12), 8) for k, c in tau.items()}
    elif fault < 0.4:
        w = tuple(x * F(rng.randint(1, 7), 8) for x in w)
    elif fault < 0.5:
        heaviest = max(tau, key=tau.get)
        tau = {heaviest: tau[heaviest] * F(3, 2)}
    return tau, lam, count, span, verts, w


def test_peel_runs_match_the_per_step_loop():
    """The same picks and remainder, or the same violated property.  The
    vertex-weight failures include many in the middle of a run of one
    vertex, which the run core finds by integer division."""
    rng = random.Random(8300)
    names = set()
    mid_run = long_runs = 0
    for _ in range(600):
        tau, lam, count, span, verts, w = _peel_case(rng)
        trace = []
        want = _outcome(ref._peel_vertices, tau, lam, count, span, verts, w, trace)
        den = math.lcm(*(c.denominator for c in tau.values()))
        got = _outcome(_peel_vertices, (den, {k: int(c * den) for k, c in tau.items()}), lam,
                       count, span, verts, w)
        if isinstance(want, tuple) and want[0] == "violation":
            assert got == want
            names.add(want[1])
            # the failing step picks the vertex its previous step picked
            mid_run += want[1] == "vertex-weight" and len(trace) >= 2 and trace[-1] == trace[-2]
            continue
        runs, rem = got
        assert (_spell(runs), rem) == want
        assert all(c >= 1 for _, c in runs)
        assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))
        long_runs += any(c >= 10 for _, c in runs)
    assert names == {"vertex-weight", "extraction-nonneg"}
    assert mid_run >= 20 and long_runs >= 50


def test_run_encode_keeps_the_sequence():
    assert _run_encode([]) == []
    assert _run_encode([3]) == [(3, 1)]
    one, other = (F(1, 2),), (F(1, 2),)
    assert _run_encode([one, one, other, (F(1),), one]) == [
        (one, 2), (other, 1), ((F(1),), 1), (one, 1)]
    assert _run_encode([one, one, other])[1][0] is other
