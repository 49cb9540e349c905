"""Colorful rearrangement: permuting several unit-ball sequences at once.

Main entry points:

* ``colorful_rearrange`` certifies prefix sums of n jointly permuted
  sequences against min{n*d, 40*d^5}.  The n-independent route first runs
  ``balance_rows``, a local-improvement loop in integers that caps every
  row sum by (d+1)^2 (4d(d+1)+2), then orders the balanced rows
  classically; the certificate carries the balance's row bound and history.
  Its Caratheodory supports are one integer LP each (``_caratheodory``).
* ``colorful_affine`` drops the zero-sum requirement by recentering, at
  the cost of a factor 2 in the certified bound.
* ``single_partial_sum`` picks one size-k subset per sequence whose joint
  sum has norm at most d, via the dual pivots of ``linalg.DualBasis`` to a
  basic feasible point and sorted rounding.

Every entry reads the family's integer form, scaled once and cached
(``ColoredFamily.integer_form``).  Both certificates run on one integer core
that takes each color as runs (vector, count) of equal vectors and their
scale: the trivial route's row sums are formed once per merged run (a
stretch where no color changes its vector), ordered as chunks of runs and
their prefix maximum read at the chunk ends, so the work grows with the
runs, not the vectors.  The public functions run-encode the shared tuples
of the integer form; the v-decomposition hands the core its C-images.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import itemgetter
from typing import NamedTuple

from .checks import PropertyViolation
from .linalg import DualBasis, Vec, ZERO, _width, rat, is_zero_vec, scale_to_integers
from .lp import integer_simplex
from .norms import BlockMax, NormSpec, norm_eval
from .rearrange import (ZeroSumRequired, _expand, _max_prefix_runs, _order_runs, _run_encode,
                        _run_sum, rearrangement_order)

ROUTE_TRIVIAL = "trivial_nd"
ROUTE_BALANCED = "balanced_40d5"


@dataclass(frozen=True)
class ColoredFamily:
    """n sequences ("colors") of m vectors each in dimension d; access
    vectors[j][i] for the i-th vector of color j."""

    dim: int
    colors: int
    length: int
    vectors: tuple
    norm: NormSpec

    def __post_init__(self):
        if len(self.vectors) != self.colors:
            raise ValueError("color count mismatch")
        for color in self.vectors:
            if len(color) != self.length:
                raise ValueError("per-color length mismatch")
            for v in color:
                if len(v) != self.dim:
                    raise ValueError("vector dimension mismatch")

    def total(self) -> Vec:
        out = [ZERO] * self.dim
        for color in self.vectors:
            for v in color:
                for i, x in enumerate(v):
                    out[i] += x
        return tuple(out)

    @cached_property
    def integer_form(self) -> tuple:
        """(L, V): L is the lcm of the entry denominators and V[j][i] is the
        int tuple L*vectors[j][i].  Each vector object is scaled once, and
        equal vectors then share one tuple, found by hashing integers only.
        The unit-ball check runs on those tuples (every norm at most L)
        before any algorithm reads them."""
        objects = {id(v): v for color in self.vectors for v in color}
        scale, ints = scale_to_integers(objects.values())
        distinct = {}
        of_id = {key: distinct.setdefault(w, w) for key, w in zip(objects, ints)}
        _require_unit_ball(max((norm_eval(self.norm, w) for w in distinct), default=ZERO), scale)
        return scale, tuple(tuple(of_id[id(v)] for v in color) for color in self.vectors)

    def max_norm(self) -> Fraction:
        # each vector object once: a family's repeated vectors are mostly one shared tuple
        distinct = {id(v): v for color in self.vectors for v in color}
        return max((norm_eval(self.norm, v) for v in distinct.values()), default=ZERO)


@dataclass(frozen=True)
class ColorfulCertificate:
    """The orders of a colorful certificate and its bounds.  When the
    balanced route ran (n > 40 d^4), phase1_row_bound and phase1_history are
    its balance_rows result's row_bound and history, whichever route won;
    otherwise both are None."""
    permutations: tuple       # n orders, each position -> original index
    certified_bound: Fraction
    achieved_max: Fraction
    route: str
    phase1_row_bound: Fraction | None = None
    phase1_history: tuple | None = None    # (max row norm, count attaining it) per inspection
    drift: Vec | None = None               # per-position drift, affine variant only
    tight_bound_met: bool | None = None    # soft check of the un-doubled bound


@dataclass(frozen=True)
class SubsetSelection:
    index_sets: tuple   # n sorted index tuples, all of size k
    k: int
    achieved: Fraction


@dataclass(frozen=True)
class BalanceResult:
    orders: tuple           # sigma_j as row -> original index
    row_bound: Fraction     # final max row-sum norm
    history: tuple          # (max_row_norm, count_attaining) per inspection


def _require_unit_ball(max_norm, scale=1):
    """max_norm, the largest norm of a family's vectors, is at most scale:
    the unit ball of the family that they hold scale times."""
    if max_norm > scale:
        raise ValueError("family has a vector outside the unit ball")


def _require_zero_sum_union(total: Vec):
    if not is_zero_vec(total):
        raise ZeroSumRequired("union of the family is not zero-sum")


def row_sums(fam: ColoredFamily, orders, rows) -> list:
    """The joint row sums sum_j fam.vectors[j][orders[j][i]] for each i in
    rows.  On integer vectors they stay int; a family without colors has
    ZERO rows."""
    return _row_sums(fam.vectors, fam.dim, orders, rows)


def _row_sums(vectors, dim, orders, rows) -> list:
    """row_sums of the colors vectors, each of dimension dim."""
    if not vectors:
        return [(ZERO,) * dim for _ in rows]
    rows = list(rows)
    picked = [[color[order[i]] for i in rows] for color, order in zip(vectors, orders)]
    return [tuple(map(sum, zip(*row))) for row in zip(*picked)]


def _merged_rows(colors, dim: int, m: int) -> list:
    """The rows of the trivial route (row i joins the i-th vector of every
    color) as runs (row sum, count), for colors given as runs over m rows:
    the row sum is constant between two run boundaries of any color, so it
    is formed once per merged run.  A family without colors has ZERO rows."""
    if not m or not colors:
        return [((ZERO,) * dim, m)] if m else []
    ends = [list(accumulate(map(itemgetter(1), color))) for color in colors]
    cuts = sorted(set().union(*ends))
    starts = [0, *cuts[:-1]]
    # each color's vector on each merged run: that of its first run ending past the start
    picked = [map(itemgetter(0), map(color.__getitem__, map(bisect_right, repeat(end), starts)))
              for color, end in zip(colors, ends)]
    return [(tuple(map(sum, zip(*vectors))), cut - start)
            for vectors, start, cut in zip(zip(*picked), starts, cuts)]


# ---------------------------------------------------------------------------
# Caratheodory subroutine


def conic_caratheodory_anchor(row_sums, anchor: int):
    """Indices (including anchor, at most d+1 of them) and convex
    coefficients lam >= 0 with sum(lam) = 1 and sum(lam_i row_i) = 0 of the
    zero-sum rows, the anchor's as large as possible: ``_caratheodory`` of
    the rows scaled to integers.  Ragged rows or an anchor that is not a
    row index raise ValueError.
    """
    rows = [tuple(rat(x) for x in r) for r in row_sums]
    _width(rows)
    if anchor not in range(len(rows)):
        raise ValueError("anchor is not a row index")
    if any(map(sum, zip(*rows))):
        raise ZeroSumRequired("row sums are not zero-sum")
    scale, ints = scale_to_integers(rows)
    indices, (den, weights) = _caratheodory(ints, scale, anchor)
    return indices, tuple(Fraction(x, den) for x in weights)


def _caratheodory(rows, scale: int, anchor: int):
    """(indices, (den, X)): one ``integer_simplex`` call maximises the
    anchor's weight over {lam >= 0 : sum(lam_i row_i) = 0, sum(lam) = 1},
    for zero-sum integer rows, its sum row posed as (L, ..., L | L), L =
    scale, so rows scaled by another common factor get the same pivots.
    Equal weights are feasible, so the anchor's is positive, and a basic
    solution has at most d+1 nonzero weights X/den; both are checked here.
    """
    n, d = len(rows), len(rows[anchor])
    _, (den, X) = integer_simplex([*zip(*rows), (scale,) * n], [0] * d + [scale], 1,
                                  (0,) * n, (None,) * n, [int(i == anchor) for i in range(n)])
    support = tuple(i for i, x in enumerate(X) if x)
    if len(support) > d + 1:
        raise PropertyViolation("caratheodory-support", "Caratheodory support exceeded d+1")
    if (anchor not in support or min(X) < 0 or sum(X) != den
            or any(sum(X[i] * rows[i][r] for i in support) for r in range(d))):
        raise PropertyViolation("caratheodory-coefficients",
                                "Caratheodory coefficients failed verification")
    return support, (den, tuple(X[i] for i in support))


# ---------------------------------------------------------------------------
# row balancing (the n-independent route)


def _chain_cap(d: int, limit: int, mx: int) -> int:
    """(d+1) L times the proof's chain bound (d+1)(4d(d+1)+2) + d/(d+1) mx on
    a row that balance_rows touched, for rows scaled by L, mx their largest
    norm before the step and limit = (d+1)^2 (4d(d+1)+2) L the scaled
    threshold."""
    return limit + d * mx


def balance_rows(fam: ColoredFamily) -> BalanceResult:
    """Per-color permutations capping every row-sum norm by
    (d+1)^2 (4d(d+1)+2).

    Local improvement: while some row exceeds the threshold, pick the worst
    row, find at most d more rows whose sums surround the origin, rotate
    windows of consecutive colors among those rows (after a classical
    rearrangement of the per-color deviations decides the color order),
    and recheck.  The pair (max row norm, number of rows attaining it)
    strictly decreases lexicographically, which gives termination.

    Runs in integers, on fam.integer_form's vectors V = L*v, by
    ``_balance_rows``.
    """
    scale, vectors = fam.integer_form
    return _balance_rows(fam.dim, fam.length, fam.norm, vectors, scale)


def _balance_rows(d: int, m: int, norm: NormSpec, vectors, scale: int) -> BalanceResult:
    """balance_rows of the family of the len(vectors) colors of m integer
    vectors V = L*v in dimension d, L = scale: the row sums and their
    norms, the threshold test mx <= (d+1)^2 (4d(d+1)+2) L, the stacked
    deviations n*V - row (the deviations over nL, checked against 2nL) and
    the chain bound, multiplied by (d+1) L.  The Caratheodory support (its
    LP poses its sum row over L) and the chain take the integer rows and
    deviations, and neither answer changes under scaling, so any common
    multiple of the denominators will do for L.  row_bound and the
    history's norms are divided by L, as Fraction.
    """
    _require_zero_sum_union(tuple(map(sum, zip(*(v for color in vectors for v in color)))))
    n = len(vectors)
    limit = (d + 1) ** 2 * (4 * d * (d + 1) + 2) * scale
    sigma = [list(range(m)) for _ in range(n)]
    history = []
    prev = None
    while True:
        rows = _row_sums(vectors, d, sigma, range(m))
        norms = [norm_eval(norm, row) for row in rows]
        mx = max(norms, default=0)
        cnt = sum(1 for v in norms if v == mx)
        history.append((mx, cnt))
        if prev is not None and not (mx, cnt) < prev:
            raise PropertyViolation("balance-potential",
                                    "row-balancing potential failed to decrease")
        prev = (mx, cnt)
        if mx <= limit:
            break

        anchor = norms.index(mx)
        sel_rows, _ = _caratheodory(rows, scale, anchor)
        p = len(sel_rows)
        t = n // p
        if t < 1 or n - p * t >= t:
            raise PropertyViolation("balance-window",
                                    "window arithmetic requires n much larger than d")

        # stacked per-color deviations over the selected rows, times nL; norm <= 2 each
        block_norm = BlockMax(norm, d)
        stacked = []
        for color, order in zip(vectors, sigma):
            w = tuple(n * x - y for r in sel_rows for x, y in zip(color[order[r]], rows[r]))
            if norm_eval(block_norm, w) > 2 * n * scale:
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
        cap = _chain_cap(d, limit, mx)
        for row in _row_sums(vectors, d, sigma, sel_rows):
            val = norm_eval(norm, row)
            if (d + 1) * val > cap:
                raise PropertyViolation("balance-chain-bound",
                                        "touched row exceeded the improvement chain bound")
            if val >= mx:
                raise PropertyViolation("balance-strict-progress",
                                        "touched row failed to improve strictly")
    return BalanceResult(tuple(tuple(s) for s in sigma), Fraction(prev[0], scale),
                         tuple((Fraction(mx, scale), cnt) for mx, cnt in history))


# ---------------------------------------------------------------------------
# the colorful rearrangement bound


class _Route(NamedTuple):
    """A certified route: the rows are runs (row sum, count) and chunks
    (r, lo, hi) of them give the rows' order; orders[j] takes a row to
    color j's original index (None: the identity, the trivial route).
    row_bound and history are those of the balance when it ran, else None."""
    name: str
    achieved: int          # the joint prefix maximum, in the units of the rows
    row_bound: Fraction | None
    history: tuple | None
    orders: tuple | None
    rows: list
    chunks: list

    def permutations(self, n: int) -> tuple:
        """Per color, position -> original index."""
        rho = _expand(self.rows, self.chunks)
        if self.orders is None:
            return (rho,) * n
        return tuple(tuple(order[i] for i in rho) for order in self.orders)


def _bound(n: int, d: int) -> Fraction:
    """min{n*d, 40*d^5}, the colorful prefix bound."""
    return min(Fraction(n * d), Fraction(40 * d ** 5))


def _certify(dim: int, m: int, norm: NormSpec, colors, scale: int) -> _Route:
    """The route of colorful_rearrange for the family of n = len(colors)
    colors of m vectors in dimension dim whose vectors are the integer
    vectors of colors, given as runs (vector, count), divided by scale.

    The caller has checked the unit ball and the shape.  The zero-sum
    check, row sums, orders and prefix maxima all run on the integers: the
    bound scales by scale, signs and the rearrangement LPs do not change.
    The trivial route's rows are formed once per merged run, ordered as
    chunks and their prefix maximum read at the chunk ends.  Only the
    balanced route, taken when n > 40 d^4, balances the rows, once, on the
    same integers and scale (``_balance_rows``), and its rows are one run
    each.
    The route carries the balance's row bound and history whichever route
    wins, so a caller reads them from the certificate.
    """
    d, n = dim, len(colors)
    routes = {ROUTE_TRIVIAL: (None, _merged_rows(colors, d, m))}
    if n * d > 40 * d ** 5:
        vectors = [[v for v, count in color for _ in range(count)] for color in colors]
        bal = _balance_rows(d, m, norm, vectors, scale)
        routes[ROUTE_BALANCED] = (bal.orders, [(row, 1) for row in
                                                _row_sums(vectors, d, bal.orders, range(m))])
        row_bound, history = bal.row_bound, bal.history
    else:
        row_bound = history = None

    best = None
    for name, (orders, rows) in routes.items():
        # every route's rows add up to the total of the family
        _require_zero_sum_union(_run_sum(rows, d))
        # row k of the route is the k-th row in the order of the chunks, so its
        # joint prefixes are the classical prefixes of the rows in that order
        chunks = _order_runs(rows, d)
        achieved = _max_prefix_runs([(rows[r][0], hi - lo) for r, lo, hi in chunks], d, norm)
        if best is None or achieved < best.achieved:  # the balanced route must do strictly better
            best = _Route(name, achieved, row_bound, history, orders, rows, chunks)
    if best.achieved > _bound(n, d) * scale:
        raise PropertyViolation("colorful-prefix-bound",
                                "colorful prefix bound min{nd, 40d^5} violated")
    return best


def colorful_rearrange(fam: ColoredFamily) -> ColorfulCertificate:
    """Permutations of each color with every joint prefix bounded by
    min{n*d, 40*d^5}.

    Runs in integers, on fam.integer_form: the checks, the row sums, their
    order and the prefix maxima run on the vectors L*v, each color as runs
    of one shared tuple; achieved_max is divided by L at the end.  The
    balanced route balances the same integers once; its row bound and
    history are the certificate's phase1_row_bound and phase1_history.
    """
    scale, vectors = fam.integer_form
    colors = [_run_encode(color) for color in vectors]
    route = _certify(fam.dim, fam.length, fam.norm, colors, scale)
    return ColorfulCertificate(route.permutations(fam.colors), _bound(fam.colors, fam.dim),
                               Fraction(route.achieved, scale), route.name, route.row_bound,
                               route.history)


def colorful_affine(fam: ColoredFamily) -> ColorfulCertificate:
    """Affine variant: no zero-sum requirement; prefixes are compared
    against the proportional share (k/m) of the total sum.

    The certificate is the colorful certificate of the recentred vectors
    (v - mean)/2 with certified_bound and achieved_max doubled: the bound is
    2 * min{n*d, 40*d^5}, and tight_bound_met says whether the un-doubled
    bound held anyway.  A family without vectors raises ValueError.  The
    work is _affine_runs on fam.integer_form, the colors as runs of one
    shared tuple.
    """
    scale, vectors = fam.integer_form
    route, total = _affine_runs(fam.dim, fam.length, fam.norm,
                                [_run_encode(color) for color in vectors], scale)
    n, m, bound = fam.colors, fam.length, _bound(fam.colors, fam.dim)
    achieved = 2 * Fraction(route.achieved, 2 * n * m * scale)
    return ColorfulCertificate(
        route.permutations(n), 2 * bound, achieved, route.name, route.row_bound, route.history,
        drift=tuple(Fraction(t, m * scale) for t in total), tight_bound_met=achieved <= bound)


def _affine_runs(dim: int, m: int, norm: NormSpec, colors, scale):
    """(route, T) of colorful_affine for the colors given as runs (V, count)
    over m rows of the integer vectors V = L*v, L = scale (a Fraction too),
    whose unit ball the caller has checked: the route certifies the
    recentred vectors, T is the sum of the V.

    Runs in integers: the recentred vector is n*m*V - T over 2nmL, formed
    once per distinct vector, checked against the unit ball and certified
    by the same integer core.  Its k-th joint prefix, n*(m*P_k - k*T) over
    2nmL with P_k that of V, is half the deviation of the k-th prefix of v
    from k*drift.
    """
    n = len(colors)
    nm = n * m
    if nm == 0:
        raise ValueError("the affine variant needs a family with at least one vector")
    total = _run_sum(chain.from_iterable(colors), dim)
    centred = {v: tuple(nm * x - t for x, t in zip(v, total))
               for v in dict.fromkeys(v for color in colors for v, _ in color)}
    inner = [[(centred[v], count) for v, count in color] for color in colors]
    denom = 2 * nm * scale
    _require_unit_ball(max(norm_eval(norm, w) for w in centred.values()), denom)
    return _certify(dim, m, norm, inner, denom), total


# ---------------------------------------------------------------------------
# single partial sum


def round_to_binary(y: Vec, k: int):
    """0/1 vector with exactly k ones at the k largest entries of y
    (ties to the lower index); l1 distance to y is at most m/2."""
    y = tuple(rat(v) for v in y)
    m = len(y)
    if any(v < 0 or v > 1 for v in y):
        raise ValueError("entries must lie in [0, 1]")
    if sum(y, ZERO) != k:
        raise ValueError("entries must sum to k exactly")
    if not 0 <= k <= m:
        raise ValueError("k out of range")
    ranked = sorted(range(m), key=lambda i: (-y[i], i))
    z = [0] * m
    for i in ranked[:k]:
        z[i] = 1
    dist = sum((abs(yi - zi) for yi, zi in zip(y, z)), ZERO)
    if dist > Fraction(m, 2):
        raise PropertyViolation("rounding-distance", "rounding distance exceeded m/2")
    return tuple(z)


def single_partial_sum(fam: ColoredFamily, k: int) -> SubsetSelection:
    """One size-k index set per color whose joint selected sum has norm
    at most d.

    The dual pivots of a ``DualBasis`` find a basic feasible point of the
    selection polytope {sum_i alpha[j][i] = k per color j,
    sum alpha[j][i] v[j][i] = 0, 0 <= alpha <= 1}, and round_to_binary
    rounds each color's fractional part.  Any such point will do: its
    fractional columns are basic, so independent, and touch f colors, two
    or more each, so there are at most f + d <= 2d of them, and rounding
    moves the sum by at most d.  Runs in integers, on the columns
    (e_j, V[j][i]) of fam.integer_form's V = L*v, from each color's first k
    entries at 1 (only the d vector rows start off); achieved is the norm
    of the integer sum of the selected V, divided by L.
    """
    scale, vectors = fam.integer_form
    d, n, m = fam.dim, fam.colors, fam.length
    _require_zero_sum_union(tuple(map(sum, zip(*(v for color in vectors for v in color)))))
    if not 0 <= k <= m:
        raise ValueError("k out of range")

    # variables alpha[j][i] flattened j-major
    nm = n * m
    units = [tuple(int(a == j) for a in range(n)) for j in range(n)]
    cols = [units[j] + v for j, color in enumerate(vectors) for v in color]
    start = _run_sum(((v, 1) for color in vectors for v in color[:k]), d)
    basis = DualBasis(cols, [1] * nm, range(nm), [0] * n + [-a for a in start],
                      {j * m + i for j in range(n) for i in range(k)})
    D, X = basis.restore("selection-dual-infeasible")

    if sum(0 < a < D for a in X) > 2 * d:
        raise PropertyViolation("selection-fractional-support",
                                "vertex has more than 2d fractional entries")

    index_sets = []
    acc = [0] * d
    for j in range(n):
        alpha = X[j * m:(j + 1) * m]
        frac_idx = [i for i, a in enumerate(alpha) if 0 < a < D]
        ones = {i for i, a in enumerate(alpha) if a == D}
        if frac_idx:
            kj = k - len(ones)
            if sum(alpha[i] for i in frac_idx) != kj * D:
                raise PropertyViolation("selection-color-integral",
                                        "fractional part of a color does not sum to an integer")
            z = round_to_binary(tuple(Fraction(alpha[i], D) for i in frac_idx), kj)
            ones.update(i for i, zi in zip(frac_idx, z) if zi == 1)
        if len(ones) != k:
            raise PropertyViolation("selection-size", "selection size drifted from k")
        index_sets.append(tuple(sorted(ones)))
        for i in ones:
            for r, x in enumerate(vectors[j][i]):
                acc[r] += x
    achieved = norm_eval(fam.norm, tuple(acc))
    if achieved > d * scale:
        raise PropertyViolation("selection-sum-bound", "selected sum exceeded the bound d")
    # last, so that each check above can fail on its own: a feasible point
    # passes the color and size checks, and with them the sum bound
    if not basis.holds(D, X, [k] * n + [0] * d):
        raise PropertyViolation("selection-point", "selection point is not feasible")
    return SubsetSelection(tuple(index_sets), k, Fraction(achieved, scale))
