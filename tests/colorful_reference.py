"""The colorful layer as it was before it moved to integers, kept as the
oracle of the differential tests.

``colorful_rearrange``, ``colorful_affine`` and ``_colorful_prefix_max``
below are the library's pre-change ``Fraction`` code, verbatim but for the
imports: every vector is recentred, summed and normed once per piece in
``Fraction``, and the row sums start from ``ZERO``.  The family and
certificate types, balance_rows, rearrangement_order and max_prefix_norm
come from the library.  One field postdates the copy: the certificate's
phase1_history is filled from the reference's own balance_rows call, as
its phase1_row_bound is, so that comparing certificates compares every
field.
"""

from __future__ import annotations

from fractions import Fraction

from steinitz.colorful import (ROUTE_BALANCED, ROUTE_TRIVIAL, ColoredFamily,
                               ColorfulCertificate, balance_rows)
from steinitz.linalg import Vec, ZERO, is_zero_vec, vscale, vsub
from steinitz.rearrange import VectorSequence, ZeroSumRequired, max_prefix_norm, rearrangement_order


def _require_unit_ball(fam: ColoredFamily):
    if fam.max_norm() > 1:
        raise ValueError("family has a vector outside the unit ball")


def _require_zero_sum_union(fam: ColoredFamily):
    if not is_zero_vec(fam.total()):
        raise ZeroSumRequired("union of the family is not zero-sum")


def row_sums(fam: ColoredFamily, orders, rows) -> list:
    """The joint row sums sum_j fam.vectors[j][orders[j][i]] for each i in rows."""
    out = []
    for i in rows:
        acc = [ZERO] * fam.dim
        for color, order in zip(fam.vectors, orders):
            for r, x in enumerate(color[order[i]]):
                acc[r] += x
        out.append(tuple(acc))
    return out


def _colorful_prefix_max(fam: ColoredFamily, perms, drift: Vec | None = None) -> Fraction:
    """Max joint prefix norm: a joint prefix is a classical prefix of the row sums."""
    m = fam.length
    rows = VectorSequence(tuple(row_sums(fam, perms, range(m))), fam.dim, fam.norm)
    return max_prefix_norm(rows, range(m), drift)


def colorful_rearrange(fam: ColoredFamily) -> ColorfulCertificate:
    """Permutations of each color with every joint prefix bounded by
    min{n*d, 40*d^5}."""
    _require_unit_ball(fam)
    _require_zero_sum_union(fam)
    d, n, m = fam.dim, fam.colors, fam.length
    bound_nd = Fraction(n * d)
    bound_poly = Fraction(40 * d ** 5)
    certified = min(bound_nd, bound_poly)

    # row k of a route is rows[rho[k]], so its joint prefixes are the
    # classical prefixes of the rows in hand taken in the order rho
    rows = row_sums(fam, (range(m),) * n, range(m))
    rho = rearrangement_order(rows, d)
    perms_trivial = tuple(tuple(rho) for _ in range(n))
    achieved_trivial = max_prefix_norm(VectorSequence(tuple(rows), d, fam.norm), rho)

    best = (achieved_trivial, ROUTE_TRIVIAL, perms_trivial)
    row_bound = history = None
    if bound_nd > bound_poly:
        bal = balance_rows(fam)
        row_bound, history = bal.row_bound, bal.history
        rows = row_sums(fam, bal.orders, range(m))
        rho2 = rearrangement_order(rows, d)
        perms_bal = tuple(tuple(order[i] for i in rho2) for order in bal.orders)
        achieved_bal = max_prefix_norm(VectorSequence(tuple(rows), d, fam.norm), rho2)
        if achieved_bal < best[0]:
            best = (achieved_bal, ROUTE_BALANCED, perms_bal)
    achieved, route, perms = best
    if achieved > certified:
        raise AssertionError("colorful prefix bound min{nd, 40d^5} violated")
    return ColorfulCertificate(perms, certified, achieved, route, row_bound, history)


def colorful_affine(fam: ColoredFamily) -> ColorfulCertificate:
    """Affine variant: no zero-sum requirement; prefixes are compared
    against the proportional share (k/m) of the total sum.

    Recentring pushes vectors to norm <= 2, so the certified bound is
    2 * min{n*d, 40*d^5}; whether the un-doubled bound held anyway is
    reported in tight_bound_met.
    """
    _require_unit_ball(fam)
    d, n, m = fam.dim, fam.colors, fam.length
    total = fam.total()
    center = vscale(total, Fraction(1, n * m))
    centered = tuple(
        tuple(vscale(vsub(v, center), Fraction(1, 2)) for v in color)
        for color in fam.vectors)
    inner = ColoredFamily(d, n, m, centered, fam.norm)
    cert = colorful_rearrange(inner)
    drift = vscale(total, Fraction(1, m))
    achieved = _colorful_prefix_max(fam, cert.permutations, drift)
    certified = 2 * min(Fraction(n * d), Fraction(40 * d ** 5))
    if achieved > certified:
        raise AssertionError("affine deviation bound 2*min{nd, 40d^5} violated")
    return ColorfulCertificate(
        cert.permutations, certified, achieved, cert.route, cert.phase1_row_bound,
        cert.phase1_history, drift=drift, tight_bound_met=bool(achieved <= certified / 2))
