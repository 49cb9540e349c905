"""The per-copy shrinking chain, kept as the oracle of the multiplicity-aware
one in ``steinitz.rearrange``.

``order_chain`` is ``rearrange._order_chain`` as it was when every copy of
a repeated vector had its own walk column with upper bound 1 and the chain
dropped the first column at zero.  The body is verbatim but for the name,
the imports and one change: it calls ``walk_to_vertex`` through
``steinitz.lp``, so a test that replaces the walk there sees these walks
too.  On duplicate-free input the library's chain makes the same walks and
returns the same order; on repeated input it may return another order with
the same bound.
"""

import math
from operator import mul

import steinitz.lp as lp
from steinitz.checks import PropertyViolation
from steinitz.linalg import scale_to_integers
from steinitz.lp import InfeasibleStart


def order_chain(vectors, dim) -> tuple:
    """The shrinking-chain construction for zero-sum vectors in R^dim.

    One integer state for the whole chain: the columns (L v_j, 1), with L
    the lcm of the entry denominators, and the point X over D.  At step k
    the point is rescaled by (k-1-dim)/(k-dim), checked exactly, walked to
    a vertex, and the first column at zero is dropped with its coordinate.
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
            raise InfeasibleStart("chain point is not feasible")
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
