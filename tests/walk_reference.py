"""The vertex walk before its point was held lazily, kept as the oracle of
the differential test in test_walk.py.

``reference_walk`` is ``lp.walk_to_vertex`` as it was when every step
rescaled the whole point and a move that tightened the entering column
together with a basic one, or two basic columns at once, built the basis
inverse again from the surviving columns.  The body is verbatim but for the
name and an optional ``log`` list: given one, the walk appends
"start-tight" for a column found at a bound when it is visited (no column
moves before its visit, so it was tight at the start), "den" for a step
whose length has a denominator, "multi-leave" when two or more basic
columns tighten at once and "tight-leave" when the entering column tightens
together with a basic one.
"""

import math
from operator import mul

from steinitz.linalg import _bareiss_step
from steinitz.lp import NonPointedCone, WalkCheckFailed


def reference_walk(cols, D: int, X, LO, HI, log=None):
    """Walk from the feasible point X/D to a vertex; returns (D, X) there.

    The polytope is {x : A x = b, LO/D <= x <= HI/D}, with cols the columns
    of A as integer tuples; b is implied by the start point.  X, LO and HI
    are integer lists over the positive common denominator D, an absent
    bound being None.  The caller checks that X/D is feasible; the walk
    checks its vertex, exactly and once, against the start (A X over D is
    unchanged, every bound holds) and raises WalkCheckFailed otherwise.

    Repeatedly finds a kernel direction g of A supported on the coordinates
    strictly inside their bounds and moves maximally until a bound becomes
    tight.  The basis B (r independent interior columns) is held as an
    integer R x R matrix T and a scalar delta with T A_B = delta [I_r; 0],
    R the number of rows: T is delta times the inverse of A_B completed by
    unit columns to a basis, fraction-free.  An entering column c costs one
    product t = T a_c.  If some t_i with i >= r is nonzero, c is
    independent and enters by one Bareiss step on that row (swapped to row
    r).  Otherwise delta a_c = A_B t[:r], so g is delta on c and -t[:r] on
    B.  When one basic column tightens and c does not, c takes its place by
    one Bareiss step on its row; any other tightening of basic columns
    builds T again from the surviving columns.  g is fixed by the basis set
    and c up to a factor (the kernel of [A_B a_c] is a line); primitive and
    positive on c, it gives exactly the steps and the vertex of elimination
    over Fraction, whatever the order of B, and scaling a row of A changes
    neither.  The bounds are held once over their own least denominator
    DB, and D = DB*s: a step of num/den (lowest terms, in units of 1/D)
    maps X to den*X + num*g and s to den*s, and then X and s are divided by
    their common factor.  A step with den = 1 leaves D as it was and is not
    divided back; D need not be least, since every choice of the walk
    compares ratios, which do not depend on it.
    """
    n = len(cols)
    rows = list(zip(*cols))
    R = len(rows)
    D0, AX0 = D, [sum(map(mul, row, X)) for row in rows]
    X = list(X)
    # the bounds stay fixed over DB = D/s, with s the gcd of D and the finite
    # bounds, while X moves over D = DB*s: a step rescales X and s only
    s = math.gcd(D, *(a for a in (*LO, *HI) if a is not None))
    LO = [None if a is None else a // s for a in LO]
    HI = [None if a is None else a // s for a in HI]
    DB = D // s

    def is_tight(j):
        lo, hi = LO[j], HI[j]
        return (lo is not None and X[j] == lo * s) or (hi is not None and X[j] == hi * s)

    # T A_B = delta [I_r; 0]: row k < r of T belongs to basis[k], and the rows
    # from r on vanish on every basic column; set by build_basis
    T = delta = basis = None

    def insert(c):
        """Add column c to the basis if it is independent of it; returns
        T a_c when it is not."""
        nonlocal delta
        col = cols[c]
        t = [sum(map(mul, row, col)) for row in T]
        r = len(basis)
        i = next((i for i in range(r, R) if t[i]), None)
        if i is None:
            return t
        T[r], T[i], t[r], t[i] = T[i], T[r], t[i], t[r]
        delta = _bareiss_step(T, t, r, delta)
        basis.append(c)
        return None

    def build_basis(columns):
        nonlocal T, delta, basis
        T = [[int(i == j) for j in range(R)] for i in range(R)]
        delta, basis = 1, []
        for c in columns:
            if insert(c) is not None:
                raise WalkCheckFailed("basis rebuild lost independence")

    build_basis(())
    # a column tight at the start never enters a direction, so it stays tight
    for c in range(n):
        if is_tight(c):
            if log is not None:
                log.append("start-tight")
            continue
        t = insert(c)
        if t is None:
            continue
        # primitive and positive on c, as Fraction elimination gives it
        h = math.gcd(delta, *t[:len(basis)])
        if delta < 0:
            h = -h
        g = {c: delta // h}
        g.update((b, -tb // h) for b, tb in zip(basis, t) if tb)

        # line search along +g / -g for the first finite blocking bound; the
        # step to bound j is gap/rate in units of 1/D, kept as the pair
        # (gap, rate) with rate > 0 and compared by cross-multiplying
        def max_step(sign):
            best = None
            for j, gj in g.items():
                gj = sign * gj
                if gj > 0 and HI[j] is not None:
                    gap, rate = HI[j] * s - X[j], gj
                elif gj < 0 and LO[j] is not None:
                    gap, rate = X[j] - LO[j] * s, -gj
                else:
                    continue
                if best is None or gap * best[1] < best[0] * rate:
                    best = (gap, rate)
            return best

        step = max_step(1)
        sign = 1
        if step is None:
            step = max_step(-1)
            sign = -1
        if step is None:
            raise NonPointedCone("feasible region contains a line through x")
        h = math.gcd(*step)
        num, den = sign * step[0] // h, step[1] // h
        if den != 1:
            if log is not None:
                log.append("den")
            X = [den * a for a in X]
            s *= den
        for j, gj in g.items():
            X[j] += num * gj
        # a step with den = 1 leaves D as it was, so only a den step is divided back
        h = math.gcd(s, *X) if den != 1 else 1
        if h != 1:
            X = [a // h for a in X]
            s //= h
        left = [k for k, b in enumerate(basis) if is_tight(b)]
        stays = not is_tight(c)
        if log is not None:
            log.extend(["multi-leave"] * (len(left) > 1) + ["tight-leave"] * (bool(left) and not stays))
        if not left and stays:
            raise WalkCheckFailed("maximal move failed to tighten a bound")
        if len(left) == 1 and stays:
            # one exchange: c enters in the row of the column that left
            delta = _bareiss_step(T, t, left[0], delta)
            basis[left[0]] = c
        elif left:
            build_basis([b for b in basis if not is_tight(b)] + ([c] if stays else []))
    D = DB * s
    if [a * D0 for a in (sum(map(mul, row, X)) for row in rows)] != [a * D for a in AX0]:
        raise WalkCheckFailed("vertex left the affine space A x = b")
    if any((lo is not None and x < lo * s) or (hi is not None and x > hi * s)
           for x, lo, hi in zip(X, LO, HI)):
        raise WalkCheckFailed("vertex left its bounds")
    return D, X
