"""The per-copy shrinking chain, kept as the oracle of the multiplicity-aware
one in ``steinitz.rearrange``.

``order_chain`` is ``rearrange._order_chain`` as it was when every copy of
a repeated vector had its own walk column with upper bound 1, with the
library's rule for the copy to place: the first column at zero of the
rescaled point, and only when there is none, the first column at zero of
the vertex that the point walks to.  It calls ``walk_to_vertex`` through
``steinitz.lp``, so a test that replaces the walk there sees these walks
too.  On duplicate-free input the library's chain makes the same walks and
returns the same order; on repeated input it may return another order with
the same bound.

``order_chain_walk_every_step`` is the same chain as it was when every
step walked to a vertex before it placed a copy: the baseline of the
quality test of the place-before-walk rule.

``order_chain_walk_when_stuck`` is ``rearrange._order_chain`` as it was
before it kept its vertex's basis: one column per distinct vector, and a
walk at every step whose rescaled point has no type at zero or with a unit
gap.  Its walks are the chain inputs of the walk's differential test.

``order_chain_pivots`` is the library's chain over ``Fraction``, the oracle
of its differential test: the walk-free phase on a rational point, and
from its first step without a type to place, the basis of the R unit
columns with every type at its count, and then the same placement rule
and the same dual pivots with Bland's rule, each basic solution and each
pivot row entry solved afresh from the basis columns by the ``Fraction``
Gauss-Jordan elimination of echelon_reference.py.  It never walks.
"""

import math
from fractions import Fraction
from operator import mul

import steinitz.lp as lp
from echelon_reference import solve_linear
from steinitz.checks import PropertyViolation
from steinitz.linalg import Matrix, scale_to_integers


def _chain(vectors, dim, walk_every_step) -> tuple:
    """The shrinking-chain construction for zero-sum vectors in R^dim.

    One integer state for the whole chain: the columns (L v_j, 1), with L
    the lcm of the entry denominators, and the point X over D.  At step k
    the point is rescaled by (k-1-dim)/(k-dim) and checked exactly; the
    first column at zero is dropped with its coordinate, after a walk to a
    vertex when walk_every_step is set or no column is at zero.
    """
    m = len(vectors)
    order = [-1] * m
    active = list(range(m))
    _, ints = scale_to_integers(vectors)
    cols = [(*v, 1) for v in ints]
    D, X = m, [m - dim] * m
    for k in range(m, dim, -1):
        X = [a * (k - 1 - dim) for a in X]
        D *= k - dim
        h = math.gcd(D, *X)
        X = [a // h for a in X]
        D //= h
        # the start point of step k: 0 <= X <= D, V X = 0 and sum X = (k-1-dim) D
        *coords, ones = (sum(map(mul, row, X)) for row in zip(*cols))
        if any(a < 0 or a > D for a in X) or any(coords) or ones != (k - 1 - dim) * D:
            raise PropertyViolation("chain-start-point", "chain point is not feasible")
        if walk_every_step or 0 not in X:
            D, X = lp.walk_to_vertex(cols, D, X, [0] * k, [D] * k)
        drop = next((p for p, a in enumerate(X) if a == 0), None)
        if drop is None:
            raise PropertyViolation("chain-zero-coordinate",
                                    "vertex without a zero coordinate; descent invariant broken")
        order[k - 1] = active.pop(drop)
        del cols[drop], X[drop]
    for pos, idx in enumerate(active):
        order[pos] = idx
    return tuple(order)


def order_chain(vectors, dim) -> tuple:
    """The per-copy chain that walks only when no column is at zero."""
    return _chain(vectors, dim, False)


def order_chain_walk_every_step(vectors, dim) -> tuple:
    """The per-copy chain that walks to a vertex at every step."""
    return _chain(vectors, dim, True)


def _types(runs):
    """(own, counts, ints): per distinct vector of the runs (vector, count),
    in order of first occurrence, its runs and its count, and the vectors
    scaled to integers by one common factor."""
    _, ints = scale_to_integers([v for v, _ in runs])
    types = {}
    for r, (v, (_, count)) in enumerate(zip(ints, runs)):
        if count:
            types.setdefault(v, []).append(r)
    own = list(types.values())
    return own, [sum(runs[r][1] for r in rs) for rs in own], list(types)


def _chunks(runs, own, live, left, drops):
    """The chunks (r, lo, hi) of a chain that placed the types drops, in
    order, and left the copies left of the types live: those fill positions
    0..dim-1, each type's first ones."""
    taken = [0] * len(runs)
    for t, count in zip(live, left):
        for r in own[t]:
            taken[r] = min(runs[r][1], count)
            count -= taken[r]
            if not count:
                break
    chunks = [(r, 0, count) for r, count in enumerate(taken) if count]
    at = [0] * len(own)
    for t in reversed(drops):
        while taken[own[t][at[t]]] == runs[own[t][at[t]]][1]:
            at[t] += 1
        r = own[t][at[t]]
        lo = taken[r]
        taken[r] += 1
        if chunks and chunks[-1][0] == r and chunks[-1][2] == lo:
            chunks[-1] = (r, chunks[-1][1], lo + 1)
        else:
            chunks.append((r, lo, lo + 1))
    return chunks


def _first_placeable(X, left, D):
    p = next((p for p, a in enumerate(X) if a == 0), None)
    if p is None:
        p = next((p for p, (a, count) in enumerate(zip(X, left)) if a <= (count - 1) * D), None)
    return p


def order_chain_walk_when_stuck(runs, dim) -> list:
    """The chain over the distinct vectors that walks at every step whose
    rescaled point has no type at zero or with a unit gap, as chunks."""
    own, counts, ints = _types(runs)
    m = sum(counts)
    cols = [(*v, 1) for v in ints]
    live, left = list(range(len(cols))), list(counts)
    drops = []
    D, X = m, [count * (m - dim) for count in counts]
    for k in range(m, dim, -1):
        X = [a * (k - 1 - dim) for a in X]
        D *= k - dim
        h = math.gcd(D, *X)
        X = [a // h for a in X]
        D //= h
        HI = [count * D for count in left]
        *coords, ones = (sum(map(mul, row, X)) for row in zip(*cols))
        if any(a < 0 or a > hi for a, hi in zip(X, HI)) or any(coords) or \
                ones != (k - 1 - dim) * D:
            raise PropertyViolation("chain-start-point", "chain point is not feasible")
        p = _first_placeable(X, left, D)
        if p is None:
            D, X = lp.walk_to_vertex(cols, D, X, [0] * len(X), HI)
            p = _first_placeable(X, left, D)
        if p is None:
            raise PropertyViolation("chain-zero-coordinate",
                                    "vertex without a zero coordinate or a unit gap; "
                                    "descent invariant broken")
        drops.append(live[p])
        left[p] -= 1
        if not left[p]:
            del cols[p], X[p], left[p], live[p]
    return _chunks(runs, own, live, left, drops)


def order_chain_pivots(runs, dim, log=None) -> list:
    """The library's chain, with a Fraction point and Fraction dual pivots,
    as chunks.  Given a log list, it appends "start" for its first step
    without a type to place, "pivot" for each dual pivot, "artificial" for
    one whose leaving basic is a unit column, and "downdate" for a basic
    type that runs out."""
    own, counts, ints = _types(runs)
    m = sum(counts)
    col = [(*v, 1) for v in ints]
    live, left = list(range(len(col))), dict(enumerate(counts))
    drops = []
    lam = {t: Fraction(c * (m - dim), m) for t, c in left.items()}
    k = m
    while k > dim:
        S = k - 1 - dim
        lam = {t: a * S / (S + 1) for t, a in lam.items()}
        _check(live, lam, left, col, dim, S)
        p = _first_placeable([lam[t] for t in live], [left[t] for t in live], 1)
        if p is None:
            if log is not None:
                log.append("start")
            _pivot_steps(k, dim, col, live, left, drops, log)
            break
        t = live[p]
        drops.append(t)
        left[t] -= 1
        if not left[t]:
            live.remove(t)
            del lam[t]
        k -= 1
    return _chunks(runs, own, live, [left[t] for t in live], drops)


def _check(live, lam, left, col, dim, S):
    if any(not 0 <= lam[t] <= left[t] for t in live) or \
            any(sum(lam[t] * col[t][i] for t in live) != (S if i == dim else 0)
                for i in range(dim + 1)):
        raise PropertyViolation("chain-start-point", "chain point is not feasible")


def _closest(live, lam, left, P, col):
    placeable = [t for t in live if lam[t] == 0 or lam[t] <= left[t] - 1]
    if not placeable:
        raise PropertyViolation("chain-zero-coordinate", "no type to place")
    return min(placeable, key=lambda t: (sum((x - y) ** 2 for x, y in zip(P, col[t])), t))


def _pivot_steps(k, dim, col, live, left, drops, log):
    R = dim + 1
    # the start basis: the R unit columns, every type nonbasic at its count
    names = [("e", i) for i in range(R)]
    upper = set(live)
    P = [sum(left[t] * col[t][i] for t in live) for i in range(dim)]

    def column(name):
        kind, i = name
        return col[i] if kind == "t" else tuple(int(j == i) for j in range(R))

    def solve(rhs):
        B = Matrix.from_rows([[column(name)[i] for name in names] for i in range(R)])
        return solve_linear(B, tuple(rhs))

    while True:
        S = k - 1 - dim
        while True:
            rhs = [0] * dim + [S]
            for t in upper:
                rhs = [a - left[t] * b for a, b in zip(rhs, col[t])]
            x = solve(rhs)
            viol = []
            for q, (name, value) in enumerate(zip(names, x)):
                if name[0] == "e" and value:
                    viol.append((-1, q, value > 0))
                elif name[0] == "t" and not 0 <= value <= left[name[1]]:
                    viol.append((name[1], q, value > left[name[1]]))
            if not viol:
                break
            _, q, high = min(viol)
            j = next((j for j in live if ("t", j) not in names and
                      (a := solve(col[j])[q]) and ((a > 0) == high) != (j in upper)), None)
            if j is None:
                raise PropertyViolation("chain-dual-infeasible", "no entering type")
            kind, out = names[q]
            if log is not None:
                log.append("pivot")
                if kind == "e":
                    log.append("artificial")
            if kind == "t" and high:
                upper.add(out)
            upper.discard(j)
            names[q] = ("t", j)
        # the basic solution: a feasible basis holds every artificial at 0
        lam = {t: Fraction(left[t] if t in upper else 0) for t in live}
        for name, value in zip(names, x):
            if name[0] == "t":
                lam[name[1]] = value
        _check(live, lam, left, col, dim, S)
        p = _closest(live, lam, left, P, col)
        drops.append(p)
        left[p] -= 1
        P = [x - y for x, y in zip(P, col[p])]
        if not left[p]:
            if ("t", p) in names:
                q = names.index(("t", p))
                i = next(i for i in range(R)
                         if solve([int(j == i) for j in range(R)])[q])
                names[q] = ("e", i)
                if log is not None:
                    log.append("downdate")
            live.remove(p)
        k -= 1
        if k == dim:
            return
