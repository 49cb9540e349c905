"""Exact rational vectors and matrices.

Vectors are tuples of Fraction (or int where a value is known integral);
matrices are immutable row-major Fraction grids.  Every routine here is
exact: no floats, no rounding, arbitrary precision throughout.

Every elimination in the package is fraction-free and shares one row step,
``_bareiss_step``: the vertex walk and the simplex tableau in ``lp`` and
``DualBasis``, the dual-simplex pivots of the shrinking chain and of the
single sum, take it one pivot at a time, and the Gauss-Jordan routine
``_bareiss_echelon`` runs it column by column.  Rational rows reach it
through ``_integer_echelon``, which scales them to integers by one common
factor: solves, kernels, rank, determinants and span coordinates here, and
the rank dim V in ``blockip`` and the generator's rank check.  The block
bases in ``blockip`` and the double description's initial cone call
``_bareiss_echelon`` on their own integer rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import gt, mul

from .checks import PropertyViolation

Rat = Fraction
Vec = tuple

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce an int, string like '3/4', or Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def vadd(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise ValueError("dimension mismatch in vector addition")
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise ValueError("dimension mismatch in vector subtraction")
    return tuple(x - y for x, y in zip(a, b))


def vscale(a: Vec, s) -> Vec:
    return tuple(s * x for x in a)


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def is_integer_vec(a: Vec) -> bool:
    return all(x.denominator == 1 for x in a)


def l1_norm(a: Vec):
    return sum((abs(x) for x in a), ZERO)


def linf_norm(a: Vec):
    return max((abs(x) for x in a), default=ZERO)


@dataclass(frozen=True)
class Matrix:
    """Immutable row-major rational matrix."""

    rows: int
    cols: int
    data: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.data) != self.rows * self.cols:
            raise ValueError("matrix entry count does not match rows*cols")

    @staticmethod
    def from_rows(rows) -> Matrix:
        rows = [tuple(rat(x) for x in r) for r in rows]
        return Matrix(len(rows), _width(rows), tuple(x for r in rows for x in r))

    @staticmethod
    def identity(n: int) -> Matrix:
        return Matrix(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(r: int, c: int) -> Matrix:
        return Matrix(r, c, (ZERO,) * (r * c))

    def at(self, i: int, j: int):
        return self.data[i * self.cols + j]

    def row(self, i: int) -> Vec:
        return self.data[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> Vec:
        return self.data[j::self.cols] if self.cols else ()

    def mul_vec(self, v: Vec) -> Vec:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        out = []
        for i in range(self.rows):
            base = i * self.cols
            out.append(sum((self.data[base + j] * v[j] for j in range(self.cols)), ZERO))
        return tuple(out)

    def column_submatrix(self, cols) -> Matrix:
        cols = tuple(cols)
        data = []
        for i in range(self.rows):
            base = i * self.cols
            for j in cols:
                data.append(self.data[base + j])
        return Matrix(self.rows, len(cols), tuple(data))

    def transpose(self) -> Matrix:
        return Matrix(self.cols, self.rows,
                      tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.data)


def _bareiss_step(T, t, p, delta):
    """One fraction-free pivot on row p of T for the column whose image
    under T is t: row p stays, every other row i becomes
    (t_p T_i - t_i T_p) / delta, and t_p is returned as the new delta.
    The divisions are exact: before the step and after it, delta is plus or
    minus the determinant of a basis B (in the walk, the basic columns
    completed by unit columns to an R x R matrix) and each row of T is delta
    times a row of B^-1 applied to integer columns, so a row of plus or minus
    the adjugate of B applied to them.  A row of reduced costs
    delta (c - c_B B^-1 A), carried as one more row of T, stays integer
    the same way."""
    tp, Tp = t[p], T[p]
    for i, ti in enumerate(t):
        if i == p:
            continue
        if ti:
            T[i] = [(tp * a - ti * b) // delta for a, b in zip(T[i], Tp)]
        elif tp != delta:  # a row with t_i = 0 is only rescaled by t_p / delta
            T[i] = [tp * a // delta for a in T[i]]
    return tp


def _positive_step(T, t, q, delta) -> int:
    """One ``_bareiss_step`` of T on row q; when the new delta is negative,
    T and delta are negated, so that delta > 0 and T over delta still
    holds the basis inverse and the basic values."""
    delta = _bareiss_step(T, t, q, delta)
    if delta < 0:
        for row in T:
            row[:] = [-a for a in row]
    return abs(delta)


GREEDY_PIVOTS_PER_ROW = 50   # per basis row, in one restore; then Bland's rule


class DualBasis:
    """Bounded dual-simplex pivots with zero costs, the one pivoting loop of
    the shrinking chain and of the single sum.

    Column j is the int tuple cols[j], with 0 <= x_j <= hi[j]; order lists
    the columns in play in index order (held, not copied: a bound may fall
    between restores, and ``leave`` drops a column).  delta > 0 and T, R
    rows of R+1 ints, hold delta times the basis inverse and the basic
    values.  basic[q] is the column at position q, None for a unit column
    (an artificial fixed at 0); pos is its inverse.  sign[p] is 0 for a
    basic column of order, else the direction it can move: 1 at 0, -1 at
    hi.  The start is T = I, delta = 1, the columns of the set upper at
    hi, the rest at 0 and the basic values rhs = b - A_N x_N.  rows holds
    the rows of A over order.
    """

    def __init__(self, cols, hi, order, rhs, upper):
        self.cols, self.hi, self.order = cols, hi, order
        self.T = [[int(i == q) for i in range(len(rhs))] + [a] for q, a in enumerate(rhs)]
        self.delta, self.basic, self.pos = 1, [None] * len(rhs), {}
        self.sign = [-1 if j in upper else 1 for j in order]
        self.rows = [list(row) for row in zip(*map(cols.__getitem__, order))]

    def restore(self, name) -> tuple:
        """Dual pivots, each one ``_bareiss_step``, until every basic value
        is within its bounds; returns (delta, X), the point of the columns
        of order over delta.  The greedy rule: the basic furthest off the
        bound it crossed leaves there, and of the columns whose move takes
        it back (it falls by T_q a_j / delta per unit x_j rises), the one
        with the largest |T_q a_j| enters; ties go to the lowest position
        and index.  After GREEDY_PIVOTS_PER_ROW * R pivots, Bland's rule:
        the violated basic of lowest index (an artificial, by position,
        first) leaves, the first eligible column enters.  Zero costs keep
        every basis dual feasible, and Bland's rule cannot cycle (Bland
        1977), so a restore ends at a basic feasible point, unless a
        violated basic has no eligible column: the polytope is empty, the
        named violation name."""
        T, cols, hi, basic, pos, sign, order = self.T, self.cols, self.hi, self.basic, \
            self.pos, self.sign, self.order
        R, N, delta = len(T), len(order), self.delta
        greedy = GREEDY_PIVOTS_PER_ROW * R
        while True:
            # how far each basic value is off the bound it crossed
            off = [abs(v) if j is None else -v if v < 0 else v - hi[j] * delta
                   for j, v in zip(basic, [row[R] for row in T])]
            worst = max(off, default=0)
            if worst <= 0:
                break
            q = off.index(worst) if greedy else min(
                (-1 if j is None else j, i) for i, j in enumerate(basic) if off[i] > 0)[1]
            Tq, out = T[q], basic[q]
            high = Tq[R] > (0 if out is None else hi[out] * delta)
            # sign T_q A over order: a column is eligible when its entry is
            # positive for a value above its bound, negative below
            w = [0] * N
            for x, row in zip(Tq, self.rows):
                if x:
                    w = [u + x * y for u, y in zip(w, row)]
            w = list(map(mul, w, sign))
            best = (max if high else min)(w, default=0)
            if not best or (best > 0) != high:
                raise PropertyViolation(name, "a violated basic has no entering column; "
                                              "the polytope cannot be empty")
            p = w.index(best) if greedy else \
                next(p for p, a in enumerate(w) if a and (a > 0) == high)
            e = order[p]
            t = [sum(map(mul, row, cols[e])) for row in T]
            if sign[p] < 0:
                for row, ti in zip(T, t):
                    row[R] += hi[e] * ti
            if out is not None:
                del pos[out]
                sign[order.index(out)] = -1 if high else 1
                if high:
                    Tq[R] -= delta * hi[out]
            delta = _positive_step(T, t, q, delta)
            basic[q], pos[e], sign[p] = e, q, 0
            greedy = max(greedy - 1, 0)
        self.delta = delta
        return delta, [T[pos[j]][R] if j in pos else hi[j] * delta if s < 0 else 0
                       for j, s in zip(order, sign)]

    def holds(self, D, X, b) -> bool:
        """Whether X over D, a point of the columns of order, is exactly
        feasible: 0 <= X <= hi D and A X = b D."""
        order = self.order
        if len(X) != len(order) or min(X, default=0) < 0 or \
                any(map(gt, X, map(D.__mul__, map(self.hi.__getitem__, order)))):
            return False
        AX = [sum(map(mul, row, X)) for row in zip(*map(self.cols.__getitem__, order))]
        return AX == [a * D for a in b] if X else not any(b)

    def shift(self, i, a):
        """b_i moves by a, and the basic values by a T e_i over delta."""
        for row in self.T:
            row[-1] += a * row[i]

    def leave(self, j):
        """Column j, at 0, leaves for good and is dropped from order; when
        basic, its row is pivoted onto the first unit column e_i with
        T[q][i] != 0, an artificial, which leaves the point as it is."""
        q = self.pos.pop(j, None)
        if q is not None:
            i = next(i for i, a in enumerate(self.T[q][:-1]) if a)
            self.delta = _positive_step(self.T, [row[i] for row in self.T], q, self.delta)
            self.basic[q] = None
        p = self.order.index(j)
        del self.order[p], self.sign[p]
        for row in self.rows:
            del row[p]


def _bareiss_echelon(rows, ncols=None):
    """In-place fraction-free Gauss-Jordan elimination of the list of
    integer rows on their first ncols columns (all of them by default), one
    ``_bareiss_step`` per pivot.  Rows are swapped and replaced in the list,
    never written, so they may be tuples.  The pivot of a column is its first
    nonzero entry at or below the current row, and the elimination stops
    once every row holds a pivot.

    Returns (pivot columns, delta, sign).  The pivots and the row swaps are
    those of the Gauss-Jordan elimination over the rationals with the same
    pivot rule, and every row ends as delta times the row it leaves there,
    in reduced row echelon form.  With r pivots, delta is the determinant
    of the first r rows on the pivot columns, in the order the swaps left
    them, and sign is -1 when the number of swaps is odd, so sign * delta
    is the determinant of a square matrix of full rank."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots, delta, sign, r = [], 1, 1, 0
    for c in range(ncols):
        if r == len(rows):
            break
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        delta = _bareiss_step(rows, [row[c] for row in rows], r, delta)
        pivots.append(c)
        r += 1
    return pivots, delta, sign


def _width(rows) -> int:
    """The common length of the rows (0 when there are none); ragged rows
    raise ValueError."""
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise ValueError("ragged rows")
    return width


def _integer_echelon(vectors):
    """One ``_bareiss_echelon`` of the rational rows, scaled to integers by
    one common factor; ragged rows raise ValueError.

    Returns (pivot columns, delta, sign, scale, rows): scale is the common
    factor, and each int row ends as delta times the reduced row echelon
    form of the rows, so entry [r][c] / delta is the Gauss-Jordan entry."""
    scale, rows = scale_to_integers(vectors)
    _width(rows)
    pivots, delta, sign = _bareiss_echelon(rows)
    return pivots, delta, sign, scale, rows


def solve_linear(M: Matrix, b: Vec):
    """Return some x with Mx = b, or None when the system is inconsistent."""
    if M.rows != len(b):
        raise ValueError("dimension mismatch: M.rows != len(b)")
    pivots, delta, _, _, rows = _integer_echelon(
        M.row(i) + (rat(b[i]),) for i in range(M.rows))
    # a pivot in the augmented column means 0 = 1
    if any(c == M.cols for c in pivots):
        return None
    x = [ZERO] * M.cols
    for r, c in enumerate(pivots):
        x[c] = Fraction(rows[r][M.cols], delta)
    return tuple(x)


def null_space(M: Matrix):
    """Basis of ker M as a list of vectors; empty iff full column rank."""
    pivots, delta, _, _, rows = _integer_echelon(M.row(i) for i in range(M.rows))
    pivot_set = set(pivots)
    basis = []
    for free in range(M.cols):
        if free in pivot_set:
            continue
        v = [ZERO] * M.cols
        v[free] = ONE
        for r, c in enumerate(pivots):
            v[c] = Fraction(-rows[r][free], delta)
        basis.append(tuple(v))
    return basis


def rank(M: Matrix) -> int:
    return len(_integer_echelon(M.row(i) for i in range(M.rows))[0])


def rank_of_vectors(vectors) -> int:
    return len(_integer_echelon(vectors)[0])


def det(M: Matrix):
    """Determinant: sign * delta of one elimination of the rows scaled by
    one common factor, divided by that factor to the n-th power."""
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    pivots, delta, sign, scale, _ = _integer_echelon(M.row(i) for i in range(M.rows))
    return Fraction(sign * delta, scale ** M.rows) if len(pivots) == M.rows else ZERO


def span_coordinates(vectors):
    """(r, coords): r = dim span(vectors), and coords[j] holds vector j's
    coordinates over the basis of the first vectors that raise the rank.

    One fraction-free elimination with the vectors as columns: the pivot
    columns are that greedy basis, and column j of the reduced form,
    divided by delta, holds coords[j].
    """
    vectors = list(vectors)
    pivots, delta, _, _, rows = _integer_echelon(
        [v[i] for v in vectors] for i in range(_width(vectors)))
    r = len(pivots)
    return r, [tuple(Fraction(rows[i][j], delta) for i in range(r)) for j in range(len(vectors))]


def ceil_sqrt(n: int) -> int:
    """Exact ceiling of the square root of a nonnegative integer."""
    if n < 0:
        raise ValueError("negative argument")
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def lcm_abs_dets(mats, s: int, entry_bound=None) -> int:
    """lcm of |det D| over all invertible s x s column submatrices.

    Every matrix must have integer entries and exactly s rows.  Returns 1
    when no invertible submatrix exists.  When entry_bound is given, each
    enumerated determinant is checked against Hadamard's inequality
    (compared in squared form to stay rational), and one past it raises
    PropertyViolation("hadamard-bound").
    """
    result = 1
    for M in mats:
        if M.rows != s:
            raise ValueError("matrix does not have s rows")
        if not all(Fraction(x).denominator == 1 for x in M.data):
            raise ValueError("non-integer matrix entries")
        for cols in combinations(range(M.cols), s):
            d = det(M.column_submatrix(cols))
            if d == 0:
                continue
            a = abs(int(d))
            if entry_bound is not None:
                if a * a > (int(entry_bound) ** (2 * s)) * (s ** s):
                    raise PropertyViolation("hadamard-bound", "a submatrix determinant "
                                            "exceeds Hadamard's bound")
            result = math.lcm(result, a)
    return result


def scale_to_integers(vectors) -> tuple:
    """(L, ints): L is the lcm of the entry denominators of the rational
    vectors (1 when there are none), and ints[j] is L * vectors[j] as a
    tuple of int.  Every order, sign test and norm comparison of the
    vectors is the same on ints, with bounds multiplied by L."""
    vectors = list(vectors)
    scale = math.lcm(*[x.denominator for v in vectors for x in v])
    return scale, [tuple([x.numerator * (scale // x.denominator) for x in v]) for v in vectors]


def primitive_integer_vector(v: Vec) -> Vec:
    """Scale a nonzero rational vector to a primitive integer vector."""
    _, (ints,) = scale_to_integers([v])
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)
