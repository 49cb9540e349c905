"""Brute-force references; every bound in the library is checked against
these at tiny scale.  Budgets are hard caps with explicit errors, never
silent truncation.  The integer-program search visits every feasible
point of its box; only prefixes that no point of the box completes to a
feasible one are skipped."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations

from .linalg import ZERO
from .norms import norm_eval
from .rearrange import VectorSequence
from .colorful import ColoredFamily

DEFAULT_BUDGET = 200_000


class BudgetExceeded(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


def brute_rearrange_optimum(seq: VectorSequence, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Exact minimum over all m! orders of the max prefix norm."""
    m = len(seq)
    if math.factorial(m) > budget:
        raise BudgetExceeded(f"{m}! exceeds budget {budget}")
    vectors = seq.vectors
    d = seq.dim
    best = None

    def dfs(remaining, prefix, curmax):
        nonlocal best
        if best is not None and curmax >= best:
            return
        if not remaining:
            best = curmax
            return
        for i, idx in enumerate(remaining):
            nxt = tuple(p + v for p, v in zip(prefix, vectors[idx]))
            val = norm_eval(seq.norm, nxt)
            dfs(remaining[:i] + remaining[i + 1:], nxt, max(curmax, val))

    dfs(tuple(range(m)), (ZERO,) * d, ZERO)
    return best


def brute_colorful_optimum(fam: ColoredFamily, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Exact minimum over all per-color permutation tuples of the max
    norm over the n*k-element prefixes."""
    n, m = fam.colors, fam.length
    total = math.factorial(m) ** n
    if total > budget:
        raise BudgetExceeded(f"(m!)^n = {total} exceeds budget {budget}")
    best = None
    perms = list(permutations(range(m)))

    def dfs(color, chosen):
        nonlocal best
        if color == n:
            prefix = [ZERO] * fam.dim
            curmax = ZERO
            for k in range(m):
                for j in range(n):
                    v = fam.vectors[j][chosen[j][k]]
                    for i in range(fam.dim):
                        prefix[i] += v[i]
                val = norm_eval(fam.norm, tuple(prefix))
                if val > curmax:
                    curmax = val
                if best is not None and curmax >= best:
                    return
            best = curmax
            return
        for p in perms:
            dfs(color + 1, chosen + [p])

    dfs(0, [])
    return best


def brute_single_sum(fam: ColoredFamily, k: int, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Exact minimum of the selected-sum norm over all equal-size-k
    selections, one index set per color.

    The family is scaled once to integers by the lcm L of its
    denominators; the partial sums are folded in integers and divided by
    L only at the final minimum of the norms."""
    n, m = fam.colors, fam.length
    if not 0 <= k <= m:
        raise ValueError("k out of range")
    per_color = math.comb(m, k)
    if per_color ** n > budget:
        raise BudgetExceeded(f"C(m,k)^n = {per_color ** n} exceeds budget {budget}")
    scale = 1
    for color in fam.vectors:
        scale = math.lcm(scale, *(x.denominator for v in color for x in v))
    ints = [[tuple(x.numerator * (scale // x.denominator) for x in v) for v in color]
            for color in fam.vectors]
    # fold color by color, deduplicating partial sums
    partial = {(0,) * fam.dim}
    for color in ints:
        sums = set()
        for sel in combinations(color, k):
            sums.add(tuple(map(sum, zip(*sel))) if sel else (0,) * fam.dim)
        partial = {tuple(a + b for a, b in zip(p, s)) for p in partial for s in sums}
    return Fraction(min(norm_eval(fam.norm, p) for p in partial), scale)


def brute_ilp(inst, box_cap: int | None = None):
    """Exact integer optimum of a 4-block instance by visiting every
    feasible integer point of the search box.

    Returns (z, value), the lex-first optimum, or None when infeasible
    inside the search box.  Requires finite upper bounds, or box_cap to
    close them off.
    """
    c = tuple(inst.cx) + tuple(inst.cy)
    best = None
    best_val = None
    for z in inst.box_points(box_cap):
        val = sum((ci * zi for ci, zi in zip(c, z)), ZERO)
        if best_val is None or val > best_val:
            best, best_val = z, val
    if best is None:
        return None
    return best, best_val
