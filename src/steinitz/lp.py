"""Exact linear programming primitives.

Values are Fraction at the BoxLP interface.  Vertex purification has an
integer core, ``walk_to_vertex``: it takes the constraint columns as
integer tuples and x and the bounds as integers over one common
denominator, keeps the inverse of its basis fraction-free on the rows
its columns have touched (an integer matrix and a scalar, updated by one
Bareiss pivot per entering, exchanged or leaving column: a leaving column
is downdated onto a unit column, so the inverse is never built again),
holds its point lazily (only the basic columns and the visited one carry
a value; a tight column is its bound, an unvisited one its start value
rescaled), checks its vertex exactly and returns it in the same form.
``purify_to_vertex`` is its BoxLP boundary, and the selection polytope
calls the core directly.  The simplex is a bounded-variable tableau
method with Bland's rule, so it terminates on degenerate inputs; its
tableau is fraction-free too (integer rows and variables, held over the
basis determinant), and each pivot is one Bareiss step, the step the
walk takes.  It makes the pivots of the same tableau over Fraction.  Its
entry, ``integer_simplex``, takes the rows scaled to integers by one
common factor and integer bounds over one denominator, and returns its
point as integers over one denominator; ``find_feasible`` and
``lp_solve`` are its BoxLP boundary.  The double description has an
integer core as well, ``integer_extreme_rays``.  Infinite bounds are
represented by None and handled symbolically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .linalg import (Matrix, Vec, ZERO, _bareiss_echelon, _bareiss_step, rat,
                     primitive_integer_vector, scale_to_integers)

INF = None  # sentinel for an absent (infinite) bound


class LPError(Exception):
    pass


class InfeasibleStart(LPError):
    """The start point of a vertex walk is not feasible."""


class WalkCheckFailed(LPError):
    """The vertex walk failed one of its own exact checks."""


class SimplexCheckFailed(LPError):
    """The simplex failed one of its own exact checks."""


class RayCheckFailed(LPError):
    """The double description produced a ray outside its cone."""


class NonPointedCone(LPError):
    """The cone contains a line; extreme rays are not well defined."""


@dataclass(frozen=True)
class BoxLP:
    """max objective.x  s.t.  M x = b,  lower <= x <= upper.

    Bound entries equal to None mean -inf (lower) or +inf (upper).
    """

    M: Matrix
    b: Vec
    lower: tuple
    upper: tuple
    objective: Vec | None = None

    def __post_init__(self):
        n = self.M.cols
        if len(self.b) != self.M.rows:
            raise ValueError("b dimension does not match M.rows")
        if len(self.lower) != n or len(self.upper) != n:
            raise ValueError("bound dimensions do not match M.cols")
        if self.objective is not None and len(self.objective) != n:
            raise ValueError("objective dimension does not match M.cols")
        for lo, hi in zip(self.lower, self.upper):
            if lo is not None and hi is not None and lo > hi:
                raise ValueError("lower bound exceeds upper bound")

    @cached_property
    def integer_rows(self):
        """(rows, b): [M | b] scaled to integers by one common factor, the
        lcm of its denominators; the scaled system has the same solutions
        and M the same kernel."""
        _, ints = scale_to_integers((*self.M.row(i), self.b[i]) for i in range(self.M.rows))
        return [row[:-1] for row in ints], [row[-1] for row in ints]

    def _integer_point(self, x: Vec):
        """(D, X, LO, HI): x and the bounds as integer lists X, LO, HI over
        their least common denominator D (an absent bound stays None), or
        None when x is not a feasible point.  M x = b is checked as
        A X = b' D over ``integer_rows``."""
        n = self.M.cols
        if len(x) != n:
            return None
        D, ints = over_lcm((*x, *self.lower, *self.upper))
        X, LO, HI = ints[:n], ints[n:2 * n], ints[2 * n:]
        rows, rhs = self.integer_rows
        if any(lo is not None and xj < lo for xj, lo in zip(X, LO)) or \
                any(hi is not None and xj > hi for xj, hi in zip(X, HI)) or \
                any(sum(map(mul, row, X)) != bi * D for row, bi in zip(rows, rhs)):
            return None
        return D, X, LO, HI

    def is_feasible_point(self, x: Vec) -> bool:
        return self._integer_point(x) is not None


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Vec | None = None
    value: Fraction | None = None


# ---------------------------------------------------------------------------
# vertex purification


def walk_to_vertex(cols, D: int, X, LO, HI):
    """Walk from the feasible point X/D to a vertex; returns (D, X) there.

    The polytope is {x : A x = b, LO/D <= x <= HI/D}, with cols the columns
    of A as integer tuples; b is implied by the start point.  X, LO and HI
    are integer lists over the positive common denominator D, an absent
    bound being None.  The caller checks that X/D is feasible; the walk
    checks its vertex, exactly and once, against the start (A X over D is
    unchanged, every bound holds) and raises WalkCheckFailed otherwise.

    The columns are visited once each, in order.  A visited column c that
    is not at a bound is independent of the basis B (the interior columns
    kept so far) and enters it, or it spans with B a kernel direction g of
    A, and x moves maximally along +g (or -g when + meets no bound) until a
    bound becomes tight.  The basis B (r independent interior columns) is
    held as an integer matrix T and a scalar delta with
    T A_B = delta [I_r; 0] on the rows of A that the visited columns have
    touched, in order of first touch: T is delta times the inverse of A_B
    completed by unit columns to a basis, fraction-free, and row k < r of T
    belongs to the column at basis position k.  An untouched row is a unit
    row of the completion, so a row first touched joins T as delta e_i and
    the basis is unchanged.  An entering column costs one product t = T a_c.
    If some t_i with i >= r is nonzero, c is independent and enters by one
    Bareiss step on that row (swapped to row r).  Otherwise
    delta a_c = A_B t[:r], so g is delta on c and -t[:r] on B.  g is fixed
    by the basis set and c up to a factor (the kernel of [A_B a_c] is a
    line); primitive and positive on c, it gives exactly the steps and the
    vertex of elimination over Fraction, and scaling a row of A changes
    neither.  Nor does the order of B or of the rows of T, or the
    completion, on which only delta depends: the step is the least ratio,
    one rational whatever the tie-break, and every tightened basic column
    leaves.

    When basic columns tighten and c does not, c takes the row of the first
    of them by one Bareiss step.  Every other tightened basic column is
    downdated: its row k is pivoted onto a unit column e_i with
    T[k][i] != 0 (one Bareiss step with the image T e_i, column i of T), so
    the completion takes e_i in its place, and the row moves past the
    basis.  A zero row there means that T lost its inverse, and raises
    WalkCheckFailed.

    The point is held lazily.  The bounds are held once over their own
    least denominator DB, and D = DB*s.  Only the basic columns and c carry
    a value: a column that tightened is recorded by its bound, its value
    that bound times s, and no column moves before its visit, so an
    unvisited column's value is X0[c]*s/s0, s0 the start's s (exact, as
    it is an integer).  A step of num/den (lowest terms, in units of 1/D)
    maps those values to den*X + num*g and s to den*s, and then they and s
    are divided by the gcd of s and of every value of the point: a tight
    value is a multiple of s, and the unvisited ones have the gcd
    G*s/s0, G the gcd of their start values.  A step with den = 1 leaves D
    as it was and is not divided back; D need not be least, since every
    choice of the walk compares ratios, which do not depend on it.
    """
    n = len(cols)
    rows = list(zip(*cols))
    R = len(rows)
    D0, AX0, X0 = D, [sum(map(mul, row, X)) for row in rows], X
    # the bounds stay fixed over DB = D/s, with s the gcd of D and the finite
    # bounds, while the point moves over D = DB*s: a step rescales s and the
    # explicit values only
    s = s0 = math.gcd(D, *(a for a in (*LO, *HI) if a is not None))
    LO = [None if a is None else a // s for a in LO]
    HI = [None if a is None else a // s for a in HI]
    DB = D // s
    # G[c]: gcd of the start values of columns c.., the unvisited block
    G = [0] * (n + 1)
    for c in range(n - 1, -1, -1):
        G[c] = math.gcd(G[c + 1], X0[c])
    at = [None] * n          # the bound (over DB) of a tight column
    # T A_B = delta [I_r; 0] on the rows touched so far, in order of first
    # touch (where[i] is row i's place); row k < r of T, val[k] (the value
    # over D) and blo[k], bhi[k] (the bounds over DB) belong to basis[k]
    T, where = [], [None] * R
    delta, basis, val, blo, bhi = 1, [], [], [], []
    for c in range(n):
        x, lo, hi = X0[c] * s // s0, LO[c], HI[c]
        # a column tight at the start never enters a direction, so it stays tight
        if (lo is not None and x == lo * s) or (hi is not None and x == hi * s):
            at[c] = x // s
            continue
        col = [0] * len(T)       # a_c on the rows of T; a new row joins as delta e_i
        for i, a in enumerate(cols[c]):
            if a:
                if where[i] is None:
                    where[i] = len(T)
                    for row in T:
                        row.append(0)
                    T.append([0] * len(T) + [delta])
                    col.append(0)
                col[where[i]] = a
        t = [sum(map(mul, row, col)) for row in T]
        r = len(basis)
        if any(t[r:]):
            i = next(i for i in range(r, len(T)) if t[i])
            T[r], T[i], t[r], t[i] = T[i], T[r], t[i], t[r]
            delta = _bareiss_step(T, t, r, delta)
            basis.append(c)
            val.append(x)
            blo.append(lo)
            bhi.append(hi)
            continue
        # primitive and positive on c, as Fraction elimination gives it
        h = math.gcd(delta, *t[:r])
        if delta < 0:
            h = -h
        gc, g = delta // h, [-tk // h for tk in t[:r]]

        # ratio test along +g, then -g, for the first finite blocking bound:
        # the step to bound j is gap/rate in units of 1/D, kept as the pair
        # (gap, rate) with rate > 0 and compared by cross-multiplying
        for sign in (1, -1):
            b = hi if sign > 0 else lo
            gap, rate = (None, None) if b is None else (sign * (b * s - x), gc)
            for gk, v, bl, bh in zip(g, val, blo, bhi):
                gk *= sign
                if gk > 0:
                    if bh is None:
                        continue
                    bgap = bh * s - v
                elif gk < 0:
                    if bl is None:
                        continue
                    bgap, gk = v - bl * s, -gk
                else:
                    continue
                if gap is None or bgap * rate < gap * gk:
                    gap, rate = bgap, gk
            if gap is not None:
                break
        else:
            raise NonPointedCone("feasible region contains a line through x")
        h = math.gcd(gap, rate)
        num, den = sign * gap // h, rate // h
        if den != 1:
            x *= den
            val = [den * a for a in val]
            s *= den
        x += num * gc
        if (lo is not None and x == lo * s) or (hi is not None and x == hi * s):
            at[c] = x // s
        # only the moved basic columns can have tightened
        left = []
        for k, gk in enumerate(g):
            if gk:
                v = val[k] = val[k] + num * gk
                if (blo[k] is not None and v == blo[k] * s) or \
                        (bhi[k] is not None and v == bhi[k] * s):
                    at[basis[k]] = v // s
                    left.append(k)
        # a step with den = 1 leaves D as it was, so only a den step is divided back
        if den != 1:
            h = math.gcd(s, G[c + 1] * s // s0, x, *val)
            if h != 1:
                x //= h
                val = [a // h for a in val]
                s //= h
        stays = at[c] is None
        if not left:
            if stays:
                raise WalkCheckFailed("maximal move failed to tighten a bound")
            continue
        if stays:
            # c enters in the row of the first column that left
            e = left.pop(0)
            delta = _bareiss_step(T, t, e, delta)
            basis[e], val[e], blo[e], bhi[e] = c, x, lo, hi
            if not left:
                continue
        # downdates: each other column that left gives its row to a unit column
        for k in left:
            i = next((i for i, a in enumerate(T[k]) if a), None)
            if i is None:
                raise WalkCheckFailed("basis downdate met a zero row")
            delta = _bareiss_step(T, [row[i] for row in T], k, delta)
        gone = set(left)
        order = [k for k in range(r) if k not in gone]
        basis, val, blo, bhi = ([lst[k] for k in order] for lst in (basis, val, blo, bhi))
        T = [T[k] for k in order] + [T[k] for k in left] + T[r:]
    D = DB * s
    X = [None if b is None else b * s for b in at]
    for j, x in zip(basis, val):
        X[j] = x
    if [a * D0 for a in (sum(map(mul, row, X)) for row in rows)] != [a * D for a in AX0]:
        raise WalkCheckFailed("vertex left the affine space A x = b")
    if any((lo is not None and x < lo * s) or (hi is not None and x > hi * s)
           for x, lo, hi in zip(X, LO, HI)):
        raise WalkCheckFailed("vertex left its bounds")
    return D, X


def purify_to_vertex(lp: BoxLP, x0: Vec) -> Vec:
    """A vertex of the feasible region of lp, reached from the feasible
    point x0 by ``walk_to_vertex``.

    This is the BoxLP boundary of the walk: x0 and the bounds become
    integers over their least common denominator (``lp._integer_point``,
    which also checks x0 exactly, raising InfeasibleStart), the columns are
    those of ``lp.integer_rows``, and the vertex comes back as Fraction.
    """
    start = lp._integer_point(x0)
    if start is None:
        raise InfeasibleStart("starting point is not feasible")
    D, X, LO, HI = start
    rows, _ = lp.integer_rows
    D, X = walk_to_vertex(list(zip(*rows)) if rows else [()] * lp.M.cols, D, X, LO, HI)
    return tuple(Fraction(a, D) for a in X)


# ---------------------------------------------------------------------------
# bounded-variable simplex


class _Simplex:
    """max c.y  s.t.  A y = b, 0 <= y <= ub, on a fraction-free tableau.

    Built from the integer LP of ``integer_simplex``: max c.x s.t.
    rows . x = rhs, LO/L <= x <= HI/L.  The variables are scaled by L, so
    y = L x - LO for a variable with a lower bound, y = HI - L x for one
    with only an upper bound, and a free variable is split into y+ - y-.
    Rows with b < 0 are negated, and each row gets an artificial unit
    column.

    With B the basis, T holds delta B^-1 [A | I | r] over the integers,
    delta = +-det B and r = b minus u_j a_j for each nonbasic column at its
    upper bound u_j: its last column is delta times the basic values.  The
    reduced costs are held the same way, delta (c - c_B B^-1 [A | I]).  A
    pivot is one ``_bareiss_step``; every sign test reads a value times
    sign(delta) and steps are compared by cross-multiplying, so the pivots
    are those of the same tableau over Fraction: scaling the variables by L
    scales every step by L.  Row i of [rows | rhs] is divided by its
    content g_i, and the phase-1 cost of its artificial is -g_i.  Scaling
    row i by K_i > 0 scales its artificial by K_i, so with costs
    proportional to 1/K_i the phase-1 objective is a fixed multiple of that
    of the unscaled rows with unit costs, every reduced cost is scaled by
    that factor and no choice changes: the pivots are those of the rows as
    given with unit costs, so those of the Fraction rows that one common
    factor scaled to integers.
    """

    def __init__(self, rows, rhs, L, LO, HI, c=None):
        n, m = len(LO), len(rows)
        if len(rhs) != m or len(HI) != n or \
                (c is not None and len(c) != n) or any(len(row) != n for row in rows):
            raise ValueError("integer LP dimensions do not match")
        if L < 1:
            raise ValueError("the bound denominator must be positive")
        if any(lo > hi for lo, hi in zip(LO, HI) if lo is not None and hi is not None):
            raise ValueError("lower bound exceeds upper bound")
        self.rows, self.rhs, self.L, self.LO, self.HI = rows, rhs, L, LO, HI
        if c is None:
            c = (0,) * n
        # canonical column k is sign * column j of A; shift[j] is LO_j or HI_j;
        # per variable of the LP, backmap holds ("shift", k, LO_j),
        # ("mirror", k, HI_j) or ("split", k+, k-)
        src, shift, ub, cc, self.backmap = [], [], [], [], []
        for j, (lo, hi, cj) in enumerate(zip(LO, HI, c)):
            k = len(src)
            if lo is not None:
                shift.append(lo)
                ub.append(None if hi is None else hi - lo)
                src.append((j, 1))
                cc.append(cj)
                self.backmap.append(("shift", k, lo))
            elif hi is not None:
                shift.append(hi)
                ub.append(None)
                src.append((j, -1))
                cc.append(-cj)
                self.backmap.append(("mirror", k, hi))
            else:
                shift.append(0)
                ub.extend((None, None))
                src.extend(((j, 1), (j, -1)))
                cc.extend((cj, -cj))
                self.backmap.append(("split", k, k + 1))
        ns = len(src)
        self.nrows, self.nstruct = m, ns
        self.T, self.phase1 = [], [0] * ns
        for i, (row, bi) in enumerate(zip(rows, rhs)):
            g = math.gcd(bi, *row) or 1
            bi = (L * bi - sum(map(mul, row, shift))) // g
            sign = -1 if bi < 0 else 1
            t = [sign * a * row[j] // g for j, a in src] + [0] * m + [sign * bi]
            t[ns + i] = 1
            self.T.append(t)
            self.phase1.append(-g)
        self.ub = ub + [None] * m
        self.c = cc
        self.basis = [ns + i for i in range(m)]
        self.at_upper = set()
        self.delta = 1

    def _pivot(self, p, e):
        """Column e enters the basis in row p: one Bareiss step on every row
        of T, the reduced costs included while they are its last row.  A
        column leaving its upper bound first moves u_e a_e into r."""
        T = self.T
        if e in self.at_upper:
            u = self.ub[e]
            for i in range(self.nrows):
                T[i][-1] += u * T[i][e]
            self.at_upper.discard(e)
        self.delta = _bareiss_step(T, [row[e] for row in T], p, self.delta)
        self.basis[p] = e

    def _iterate(self, c):
        """Run the simplex to optimality for the integer objective c
        (maximize), one entry per column of T but the last; returns
        "optimal" or "unbounded".  Bland's rule: the first column whose
        reduced cost improves enters, and the ratio test takes the least
        step, ties to the least variable index.  The reduced costs are
        priced once and ride along as the last row of T, one entry short of
        the others, so each pivot updates them; they are exactly zero on
        the basic columns, which never enter."""
        T, m, ub, basis, at_upper = self.T, self.nrows, self.ub, self.basis, self.at_upper
        z = [self.delta * cj for cj in c]
        for row, v in zip(T, basis):
            if c[v]:
                z = [zj - c[v] * t if t else zj for zj, t in zip(z, row)]
        T.append(z)
        while True:
            positive = self.delta > 0
            entering = next((j for j, zj in enumerate(T[m])
                             if zj and ((zj > 0) == positive) != (j in at_upper)), None)
            if entering is None:
                T.pop()
                return "optimal"
            direction = -1 if entering in at_upper else 1
            # steps num/den in units of y over den > 0, from the values and
            # rates times |delta|: (step, var, kind, row) of the least step
            sd, ad = (1, self.delta) if positive else (-1, -self.delta)
            u = ub[entering]
            best = None if u is None else (u, 1, entering, "flip", -1)
            for i in range(m):
                row, ubi = T[i], ub[basis[i]]
                rate = -direction * sd * row[entering]
                if rate < 0:
                    num, den, kind = sd * row[-1], -rate, "drop-lower"
                elif rate > 0 and ubi is not None:
                    num, den, kind = ad * ubi - sd * row[-1], rate, "drop-upper"
                else:
                    continue
                if best is None or num * best[1] < best[0] * den or \
                        (num * best[1] == best[0] * den and basis[i] < best[2]):
                    best = (num, den, basis[i], kind, i)
            if best is None:
                T.pop()
                return "unbounded"
            _, _, leaving, kind, p = best
            if kind == "flip":
                # r loses direction u a_e
                for i in range(m):
                    T[i][-1] -= direction * u * T[i][entering]
                if direction == 1:
                    at_upper.add(entering)
                else:
                    at_upper.discard(entering)
                continue
            self._pivot(p, entering)
            if kind == "drop-upper":
                # the leaving column stops at its upper bound: r loses u_l a_l
                ul = ub[leaving]
                for i in range(m):
                    T[i][-1] -= ul * T[i][leaving]
                at_upper.add(leaving)

    def solve_phase1(self) -> bool:
        if self._iterate(self.phase1) != "optimal":
            raise SimplexCheckFailed("phase-1 objective cannot be unbounded")
        ns = self.nstruct
        if any(row[-1] and v >= ns for row, v in zip(self.T, self.basis)):
            return False
        # drive artificial variables out of the basis, dropping redundant rows
        for i in reversed(range(self.nrows)):
            if self.basis[i] < ns:
                continue
            pcol = next((j for j in range(ns) if self.T[i][j]), None)
            if pcol is None:
                # T is zero on the structural columns of row i, whose basic
                # column is a unit column: without both, delta is still +-det
                del self.T[i], self.basis[i]
                self.nrows -= 1
                continue
            # a step of zero: the artificial leaves at 0, pcol keeps its value
            self._pivot(i, pcol)
        # forget artificial columns entirely
        self.T = [row[:ns] + row[-1:] for row in self.T]
        return True

    def solution(self):
        """(den, X): the basic solution as a point of the LP, the integers
        X over den = |delta L|."""
        delta = self.delta
        Y = [0] * self.nstruct  # delta y
        for j in self.at_upper:
            Y[j] = delta * self.ub[j]
        for row, j in zip(self.T, self.basis):
            Y[j] = row[-1]
        out = []
        for kind, a, b in self.backmap:
            if kind == "shift":
                out.append(Y[a] + delta * b)
            elif kind == "mirror":
                out.append(delta * b - Y[a])
            else:
                out.append(Y[a] - Y[b])
        den = delta * self.L
        return (den, out) if den > 0 else (-den, [-v for v in out])

    def point(self):
        """``solution``, checked exactly in integers: with x = X / den, the
        rows read rows . X = rhs den and a bound LO_j / L <= x_j reads
        LO_j den <= X_j L (likewise HI_j).  Raises SimplexCheckFailed when
        a check fails."""
        den, X = self.solution()
        L = self.L
        if any(sum(map(mul, row, X)) != bi * den for row, bi in zip(self.rows, self.rhs)) or \
                any(lo is not None and xj * L < lo * den for xj, lo in zip(X, self.LO)) or \
                any(hi is not None and xj * L > hi * den for xj, hi in zip(X, self.HI)):
            raise SimplexCheckFailed("simplex point is not feasible")
        return den, X


def integer_simplex(rows, rhs, L: int, LO, HI, c=None):
    """The simplex on an integer LP: max c.x  s.t.  rows . x = rhs,
    LO/L <= x <= HI/L.

    rows and rhs are over int, the rational rows scaled to integers by one
    common factor (a factor per row would change the phase-1 pivots), L is
    a positive int and LO, HI are lists over int (None for an absent
    bound).  c is an integer objective; without it only phase 1 runs, and
    its basic solution is a vertex when no variable is free.

    Returns (status, point): status "optimal", "infeasible" or "unbounded",
    and point = (den, X), the integers X over den > 0, checked exactly
    against the rows and the bounds (``_Simplex.point``), or None.  Raises
    ValueError on malformed input, SimplexCheckFailed when a check
    fails."""
    sx = _Simplex(rows, rhs, L, LO, HI, c)
    if not sx.solve_phase1():
        return "infeasible", None
    if c is not None and sx._iterate(sx.c) == "unbounded":
        return "unbounded", None
    return "optimal", sx.point()


def over_lcm(values):
    """(L, ints): the rational values as integers over the lcm L of their
    denominators (1 when there are none), an entry None kept as None."""
    values = [None if v is None else rat(v) for v in values]
    L = math.lcm(*(v.denominator for v in values if v is not None))
    return L, [None if v is None else v.numerator * (L // v.denominator) for v in values]


def _integer_lp(lp: BoxLP):
    """The arguments of ``integer_simplex`` for a BoxLP: [M | b] scaled to
    integers by one common factor (``integer_rows``); the bounds over the
    lcm L of their denominators; the objective scaled by the lcm of its
    denominators, or None."""
    n = lp.M.cols
    L, bounds = over_lcm((*lp.lower, *lp.upper))
    c = None if lp.objective is None else over_lcm(lp.objective)[1]
    return (*lp.integer_rows, L, bounds[:n], bounds[n:], c)


def find_feasible(lp: BoxLP) -> Vec | None:
    """Phase-1 only: some feasible point of the LP, or None.  It is the
    basic solution phase 1 ends on: a vertex when no variable is free."""
    _, point = integer_simplex(*_integer_lp(lp)[:-1])
    if point is None:
        return None
    den, X = point
    return tuple(Fraction(v, den) for v in X)


def lp_solve(lp: BoxLP) -> LPResult:
    """Exact optimum of a BoxLP: the simplex's basic solution, which is a
    vertex of the feasible region whenever no variable is free."""
    if lp.objective is None:
        raise ValueError("lp_solve requires an objective")
    status, point = integer_simplex(*_integer_lp(lp))
    if point is None:
        return LPResult(status)
    den, X = point
    x = tuple(Fraction(v, den) for v in X)
    value = sum((rat(ci) * xi for ci, xi in zip(lp.objective, x)), ZERO)
    return LPResult("optimal", x, value)


# ---------------------------------------------------------------------------
# extreme rays by double description


def extreme_rays(ineqs: Matrix):
    """One primitive integer representative per extreme ray of
    {x : ineqs @ x >= 0}; the cone must be pointed.

    The double description (``integer_extreme_rays``) runs on the rows
    scaled to integers by one common factor.  Scaling the rows by a positive
    number changes no ray, no tight set and no primitive representative."""
    rows = scale_to_integers(ineqs.row(i) for i in range(ineqs.rows))[1]
    return integer_extreme_rays(rows, ineqs.cols)


def integer_extreme_rays(rows, d: int):
    """One primitive integer representative per extreme ray of
    {x in R^d : row . x >= 0 for every row}, the rows tuples over int, in
    sorted order; the cone must be pointed."""
    if d == 0:
        return []
    m = len(rows)
    # one elimination of [rows^T | I]: its pivot columns are the first d
    # independent rows, and then row k of the right block is delta times
    # column k of base^-1, base the matrix of those rows in order; the
    # initial simplicial cone is spanned by these columns
    work = [[row[j] for row in rows] + [int(k == j) for k in range(d)] for j in range(d)]
    chosen, delta, _ = _bareiss_echelon(work, m)
    if len(chosen) < d:
        raise NonPointedCone("cone contains a line (inequality matrix is rank deficient)")
    sign = 1 if delta > 0 else -1
    rays = [primitive_integer_vector(tuple(sign * a for a in work[k][m:])) for k in range(d)]

    # tight[r]: the processed rows on which r is 0; ray k of the initial cone
    # is 0 on every chosen row but the k-th
    tight = {r: frozenset(chosen[:k] + chosen[k + 1:]) for k, r in enumerate(rays)}
    for q in sorted(set(range(m)) - set(chosen)):
        vals = {r: sum(map(mul, rows[q], r)) for r in rays}
        plus = [r for r in rays if vals[r] > 0]
        zero = [r for r in rays if vals[r] == 0]
        minus = [r for r in rays if vals[r] < 0]
        new_tight = {r: tight[r] for r in plus}
        new_tight.update((r, tight[r] | {q}) for r in zero)
        for rp in plus:
            for rm in minus:
                common = tight[rp] & tight[rm]
                if any(common <= tight[other] for other in rays
                       if other is not rp and other is not rm):
                    continue
                # a positive combination of rp and rm, so of the processed
                # rows it is 0 on exactly those that are 0 on both
                combo = tuple(vals[rp] * a - vals[rm] * b for a, b in zip(rm, rp))
                new_tight[primitive_integer_vector(combo)] = common | {q}
        rays, tight = list(new_tight), new_tight

    for r in rays:
        if any(sum(map(mul, row, r)) < 0 for row in rows):
            raise RayCheckFailed("double description produced an infeasible ray")
    return sorted(rays)


# ---------------------------------------------------------------------------
# integer point enumeration


def enum_integer_points(lower: Vec, upper: Vec, ell1_cap=None, predicate=None, system=None):
    """Yield every integer point in the box (and l1 ball, when capped)
    satisfying the predicate, in lexicographic order, depth first.

    With ``system=(rows, rhs)`` over int, only the points with rows . z ==
    rhs are yielded, in the same order: a value of a coordinate is skipped
    when some row's residual can no longer be reached by that row's later
    columns inside the box.  A row is looked at only on its nonzero
    columns, so a block row is checked while its block is fixed."""
    n = len(lower)
    if len(upper) != n:
        raise ValueError("bound dimension mismatch")
    rows, rhs = system if system is not None else ((), ())
    if len(rows) != len(rhs) or any(len(row) != n for row in rows):
        raise ValueError("system dimension mismatch")
    lo = [math.ceil(rat(v)) for v in lower]
    hi = [math.floor(rat(v)) for v in upper]
    if any(l > h for l, h in zip(lo, hi)):
        return
    # checks[j]: (row, coefficient, min, max of the row over the columns after j)
    checks = [[] for _ in range(n)]
    for r, row in enumerate(rows):
        rmin = rmax = 0
        for j in reversed(range(n)):
            if row[j]:
                checks[j].append((r, row[j], rmin, rmax))
                rmin += min(row[j] * lo[j], row[j] * hi[j])
                rmax += max(row[j] * lo[j], row[j] * hi[j])
        if not rmin <= rhs[r] <= rmax:
            return
    point = [0] * n

    def dfs(i, budget, res):
        if i == n:
            pt = tuple(point)
            if predicate is None or predicate(pt):
                yield pt
            return
        vlo, vhi = lo[i], hi[i]
        if budget is not None:
            vlo, vhi = max(vlo, -budget), min(vhi, budget)
        for r, a, rmin, rmax in checks[i]:
            p, q = res[r] - rmax, res[r] - rmin  # p <= a v <= q
            if a < 0:
                a, p, q = -a, -q, -p
            vlo, vhi = max(vlo, -(-p // a)), min(vhi, q // a)
        for v in range(vlo, vhi + 1):
            point[i] = v
            child = list(res)
            for r, a, _, _ in checks[i]:
                child[r] -= a * v
            yield from dfs(i + 1, None if budget is None else budget - abs(v), child)
        point[i] = 0

    yield from dfs(0, ell1_cap, list(rhs))
