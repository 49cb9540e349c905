"""Pre-change code kept as the oracles of the differential tests.

``reference_purify`` is the elimination and the walk over Fraction that the
integer ``purify_to_vertex`` replaced: basis entries and kernel tags are
Fraction dicts, and a tightened basic column rebuilds the whole basis.
``order_chain`` is the library's code from before the rearrangement chain
moved onto the integer walk, verbatim but for the imports and with
``reference_purify`` in place of ``purify_to_vertex``: each chain step
builds a BoxLP of Fraction rows and converts the vertex back to Fraction.
The chain has the library's rule for the copy it places: it walks only
when the rescaled point has no coordinate at zero.

``single_partial_sum`` is the library's selection over Fraction: the same
start and the same dual pivots (``chain_reference.dual_restore``), each
basic solution solved afresh, and the point checked against a BoxLP of
Fraction rows before it is rounded.
"""

import math
from fractions import Fraction

from chain_reference import dual_restore
from steinitz.colorful import (SubsetSelection, _require_unit_ball, _require_zero_sum_union,
                               round_to_binary)
from steinitz.linalg import Matrix, ONE, ZERO, rat
from steinitz.lp import BoxLP, InfeasibleStart, NonPointedCone
from steinitz.norms import norm_eval


def reference_feasible(lp: BoxLP, x) -> bool:
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


def reference_purify(lp: BoxLP, x0, trail=None, rebuilds=None, paths=None):
    """The vertex of the walk over Fraction.  Given a trail list, x is
    appended after every move; given a rebuilds list, (position of the
    first tightened basic column, basis size) is appended at every basis
    rebuild; given a paths list, each rebuild appends "exchange" when one
    basic column tightened and the entering column did not (one column
    leaves, the entering one takes its place) and "rebuild" otherwise."""
    if not reference_feasible(lp, tuple(x0)):
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
            if rebuilds is not None:
                rebuilds.append((basis.index(removed_basic[0]), len(basis)))
            if paths is not None:
                exchange = len(removed_basic) == 1 and c not in tightened
                paths.append("exchange" if exchange else "rebuild")
            keep = [e[0] for e in basis if e[0] not in tightened]
            if c not in tightened:
                keep.append(c)
            basis.clear()
            for col in keep:
                if not insert(col):
                    raise AssertionError("basis rebuild lost independence")
    return tuple(x)


def order_chain(vectors, dim) -> tuple:
    """The shrinking-chain construction for zero-sum vectors in R^dim: the
    first coordinate at zero leaves, of the rescaled point or, when it has
    none, of the vertex that it walks to."""
    m = len(vectors)
    order = [-1] * m
    active = list(range(m))
    value = [Fraction(m - dim, m)] * m
    for k in range(m, dim, -1):
        rho = Fraction(k - 1 - dim, k - dim)
        point = tuple(rho * v for v in value)
        rows = [[vectors[j][r] for j in active] for r in range(dim)]
        rows.append([ONE] * k)
        lp = BoxLP(
            Matrix.from_rows(rows),
            tuple([ZERO] * dim + [Fraction(k - 1 - dim)]),
            (ZERO,) * k,
            (ONE,) * k,
        )
        vertex = point if ZERO in point else reference_purify(lp, point)
        drop = next((p for p, v in enumerate(vertex) if v == 0), None)
        if drop is None:
            raise AssertionError("vertex without a zero coordinate; descent invariant broken")
        order[k - 1] = active[drop]
        active = active[:drop] + active[drop + 1:]
        value = list(vertex[:drop] + vertex[drop + 1:])
    for pos, idx in enumerate(active):
        order[pos] = idx
    return tuple(order)


def single_partial_sum(fam, k: int) -> SubsetSelection:
    """One size-k index set per color whose joint selected sum has norm
    at most d: the library's selection over Fraction.  Each color starts
    with its first k entries at 1, every row on its unit column, and the
    dual pivots of chain_reference.dual_restore end at a basic feasible
    point of the selection polytope, which is checked against those rows
    and rounded."""
    _require_unit_ball(fam.max_norm())
    _require_zero_sum_union(fam.total())
    d, n, m = fam.dim, fam.colors, fam.length
    if not 0 <= k <= m:
        raise ValueError("k out of range")

    # variables alpha[j][i] flattened j-major, columns (e_j, L v[j][i]), L
    # the lcm of the denominators: the rows the library poses, on which the
    # greedy rule measures how far an artificial basic is off 0
    nm = n * m
    L = math.lcm(*(x.denominator for color in fam.vectors for v in color for x in v))
    cols = [tuple(int(a == j) for a in range(n)) + tuple(L * x for x in fam.vectors[j][i])
            for j in range(n) for i in range(m)]
    b = [Fraction(k)] * n + [ZERO] * d
    names = [("e", i) for i in range(n + d)]
    upper = {j * m + i for j in range(n) for i in range(k)}

    def column(name):
        kind, i = name
        return cols[i] if kind == "t" else tuple(int(r == i) for r in range(n + d))

    x = dual_restore(names, column, range(nm), [ONE] * nm, upper, b,
                     "selection-dual-infeasible")
    vertex = [ONE if j in upper else ZERO for j in range(nm)]
    for (kind, j), value in zip(names, x):
        if kind == "t":
            vertex[j] = value
    lp = BoxLP(Matrix.from_rows(list(zip(*cols))) if nm else Matrix.zeros(n + d, 0),
               tuple(b), (ZERO,) * nm, (ONE,) * nm)
    if not reference_feasible(lp, tuple(vertex)):
        raise AssertionError("selection point is not feasible")

    frac_total = sum(1 for v in vertex if 0 < v < 1)
    if frac_total > 2 * d:
        raise AssertionError("vertex has more than 2d fractional entries")

    index_sets = []
    for j in range(n):
        alpha = vertex[j * m:(j + 1) * m]
        frac_idx = [i for i, v in enumerate(alpha) if 0 < v < 1]
        ones = {i for i, v in enumerate(alpha) if v == 1}
        if frac_idx:
            kj = Fraction(k) - len(ones)
            if kj.denominator != 1:
                raise AssertionError("fractional part of a color does not sum to an integer")
            z = round_to_binary(tuple(alpha[i] for i in frac_idx), int(kj))
            ones.update(i for i, zi in zip(frac_idx, z) if zi == 1)
        if len(ones) != k:
            raise AssertionError("selection size drifted from k")
        index_sets.append(tuple(sorted(ones)))

    acc = [ZERO] * d
    for j, sel in enumerate(index_sets):
        for i in sel:
            v = fam.vectors[j][i]
            for r in range(d):
                acc[r] += v[r]
    achieved = norm_eval(fam.norm, tuple(acc))
    if achieved > d:
        raise AssertionError("selected sum exceeded the bound d")
    return SubsetSelection(tuple(index_sets), k, achieved)
