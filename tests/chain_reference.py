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
"""

import math
from operator import mul

import steinitz.lp as lp
from steinitz.checks import PropertyViolation
from steinitz.linalg import scale_to_integers


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
