"""Row balancing as it was before it moved to integers, kept as the oracle
of the differential tests in test_colorful.py.

``balance_rows`` below is the library's pre-change ``Fraction`` code,
verbatim but for the imports: the row sums, their norms, the threshold
test, the stacked deviations x - row/n and the chain bound
(d+1)(4d(d+1)+2) + d/(d+1) mx all run on the rational family.  The family
and result types, the unit-ball and zero-sum checks, row_sums, the
Caratheodory anchor and rearrangement_order come from the library.
"""

from __future__ import annotations

from fractions import Fraction

from steinitz.checks import PropertyViolation
from steinitz.colorful import (BalanceResult, ColoredFamily, _require_unit_ball,
                               _require_zero_sum_union, conic_caratheodory_anchor, row_sums)
from steinitz.linalg import ZERO
from steinitz.norms import BlockMax, norm_eval
from steinitz.rearrange import rearrangement_order


def balance_rows(fam: ColoredFamily) -> BalanceResult:
    """Per-color permutations capping every row-sum norm by
    (d+1)^2 (4d(d+1)+2).

    Local improvement: while some row exceeds the threshold, pick the worst
    row, find at most d more rows whose sums surround the origin, rotate
    windows of consecutive colors among those rows (after a classical
    rearrangement of the per-color deviations decides the color order),
    and recheck.  The pair (max row norm, number of rows attaining it)
    strictly decreases lexicographically, which gives termination.
    """
    _require_unit_ball(fam.max_norm())
    _require_zero_sum_union(fam.total())
    d, n, m = fam.dim, fam.colors, fam.length
    threshold = Fraction((d + 1) ** 2 * (4 * d * (d + 1) + 2))
    sigma = [list(range(m)) for _ in range(n)]
    history = []
    prev = None
    while True:
        rows = row_sums(fam, sigma, range(m))
        norms = [norm_eval(fam.norm, row) for row in rows]
        mx = max(norms, default=ZERO)
        cnt = sum(1 for v in norms if v == mx)
        history.append((mx, cnt))
        if prev is not None and not (mx, cnt) < prev:
            raise PropertyViolation("balance-potential",
                                    "row-balancing potential failed to decrease")
        prev = (mx, cnt)
        if mx <= threshold:
            break

        anchor = norms.index(mx)
        sel_rows, _lams = conic_caratheodory_anchor(rows, anchor)
        p = len(sel_rows)
        t = n // p
        if t < 1 or n - p * t >= t:
            raise PropertyViolation("balance-window",
                                    "window arithmetic requires n much larger than d")

        # stacked per-color deviations over the selected rows; norm <= 2 each
        block_norm = BlockMax(fam.norm, d)
        stacked = []
        for j in range(n):
            parts = []
            for r in sel_rows:
                v = fam.vectors[j][sigma[j][r]]
                parts.extend(x - rows[r][idx] / n for idx, x in enumerate(v))
            w = tuple(parts)
            if norm_eval(block_norm, w) > 2:
                raise PropertyViolation("balance-stacked-norm",
                                        "stacked deviation left the radius-2 ball")
            stacked.append(w)
        tau = rearrangement_order(stacked, d * p)

        new_sigma = [list(s) for s in sigma]
        for pos, j in enumerate(tau):
            w = (pos // t) % p
            for a in range(p):
                new_sigma[j][sel_rows[a]] = sigma[j][sel_rows[(a + w) % p]]
        sigma = new_sigma

        # the proof's chain bound on every touched row, and strict progress
        cap = Fraction((d + 1) * (4 * d * (d + 1) + 2)) + Fraction(d, d + 1) * mx
        for row in row_sums(fam, sigma, sel_rows):
            val = norm_eval(fam.norm, row)
            if val > cap:
                raise PropertyViolation("balance-chain-bound",
                                        "touched row exceeded the improvement chain bound")
            if val >= mx:
                raise PropertyViolation("balance-strict-progress",
                                        "touched row failed to improve strictly")
    return BalanceResult(tuple(tuple(s) for s in sigma), prev[0], tuple(history))
