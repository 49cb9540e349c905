"""The Fraction simplex that the integer tableau replaced, kept as the oracle
of the differential tests.

``_Canonical``, ``_Simplex``, ``find_feasible`` and ``lp_solve`` below are
the library's pre-change code, verbatim but for the imports, the
``pivots`` log (each tableau pivot appends its (row, entering column)) and
the named phase-1 check: the tableau, the basic values and the reduced
costs are Fraction, and each pivot is one ``_pivot`` of
``tests/echelon_reference.py``.
"""

from __future__ import annotations

from fractions import Fraction

from echelon_reference import _pivot
from steinitz.linalg import ONE, ZERO, rat
from steinitz.lp import BoxLP, InfeasibleStart, LPResult, SimplexCheckFailed


class _Canonical:
    """max c.y  s.t.  A y = b, 0 <= y <= ub (ub entries may be None)."""

    def __init__(self, lp: BoxLP):
        M, n = lp.M, lp.M.cols
        self.b = [rat(v) for v in lp.b]
        self.cols = []      # list of column vectors
        self.ub = []
        self.c = []
        self.const = ZERO
        self.backmap = []   # per original var: ("shift", k, lo) | ("mirror", k, hi) | ("split", k+, k-)
        obj = lp.objective if lp.objective is not None else (ZERO,) * n
        for j in range(n):
            col = [M.at(i, j) for i in range(M.rows)]
            lo, hi, cj = lp.lower[j], lp.upper[j], rat(obj[j])
            if lo is not None:
                if lo != 0:
                    for i in range(M.rows):
                        self.b[i] -= lo * col[i]
                    self.const += cj * lo
                self.backmap.append(("shift", len(self.cols), lo))
                self.cols.append(col)
                self.ub.append(None if hi is None else hi - lo)
                self.c.append(cj)
            elif hi is not None:
                for i in range(M.rows):
                    self.b[i] -= hi * col[i]
                self.const += cj * hi
                self.backmap.append(("mirror", len(self.cols), hi))
                self.cols.append([-v for v in col])
                self.ub.append(None)
                self.c.append(-cj)
            else:
                self.backmap.append(("split", len(self.cols), len(self.cols) + 1))
                self.cols.append(col)
                self.cols.append([-v for v in col])
                self.ub.extend([None, None])
                self.c.extend([cj, -cj])

    def restore(self, y):
        out = []
        for kind, a, bb in self.backmap:
            if kind == "shift":
                out.append(y[a] + bb)
            elif kind == "mirror":
                out.append(bb - y[a])
            else:
                out.append(y[a] - y[bb])
        return tuple(out)


class _Simplex:
    def __init__(self, cols, b, ub):
        self.nrows = len(b)
        self.nstruct = len(cols)
        self.ub = list(ub) + [None] * self.nrows
        self.pivots = []
        # rows made b >= 0, artificial identity appended
        self.T = []
        self.rhs = []
        for i in range(self.nrows):
            row = [col[i] for col in cols]
            bi = b[i]
            if bi < 0:
                row = [-v for v in row]
                bi = -bi
            row.extend(ONE if k == i else ZERO for k in range(self.nrows))
            self.T.append(row)
            self.rhs.append(bi)
        self.basis = [self.nstruct + i for i in range(self.nrows)]
        self.xb = list(self.rhs)
        self.at_upper = set()

    def _iterate(self, c):
        """Run simplex to optimality for objective c (maximize), one entry per
        tableau column; returns "optimal" or "unbounded".  The reduced costs
        c_j - c_B . T[:, j] are priced once and kept up to date by each pivot;
        they are exactly zero on the basic columns, which never enter."""
        z = list(c)
        for i, v in enumerate(self.basis):
            if c[v]:
                z = [zj - c[v] * t if t else zj for zj, t in zip(z, self.T[i])]
        while True:
            entering = None
            direction = 0
            for j, zj in enumerate(z):
                if j in self.at_upper:
                    if zj < 0:
                        entering, direction = j, -1
                        break
                else:
                    if zj > 0:
                        entering, direction = j, 1
                        break
            if entering is None:
                return "optimal"
            col = [self.T[i][entering] for i in range(self.nrows)]
            # ratio test; candidates: (step, tie-break var index, kind, row)
            candidates = []
            if self.ub[entering] is not None:
                candidates.append((self.ub[entering], entering, "flip", -1))
            for i in range(self.nrows):
                rate = -direction * col[i]
                if rate < 0:
                    candidates.append((self.xb[i] / (-rate), self.basis[i], "drop-lower", i))
                elif rate > 0:
                    ubi = self.ub[self.basis[i]]
                    if ubi is not None:
                        candidates.append(((ubi - self.xb[i]) / rate, self.basis[i], "drop-upper", i))
            if not candidates:
                return "unbounded"
            step = min(cand[0] for cand in candidates)
            _, _, kind, row = min(c4 for c4 in candidates if c4[0] == step)
            for i in range(self.nrows):
                self.xb[i] -= direction * step * col[i]
            if kind == "flip":
                if direction == 1:
                    self.at_upper.add(entering)
                else:
                    self.at_upper.discard(entering)
                continue
            leaving = self.basis[row]
            enter_val = (self.ub[entering] if entering in self.at_upper else ZERO) + direction * step
            self.at_upper.discard(entering)
            if kind == "drop-upper":
                self.at_upper.add(leaving)
            self.basis[row] = entering
            self.xb[row] = enter_val
            self.pivots.append((row, entering))
            _pivot(self.T, row, entering)
            f = z[entering]
            z = [zj - f * t if t else zj for zj, t in zip(z, self.T[row])]

    def solve_phase1(self) -> bool:
        c1 = [ZERO] * self.nstruct + [Fraction(-1)] * self.nrows
        status = self._iterate(c1)
        if status != "optimal":
            raise SimplexCheckFailed("phase-1 objective cannot be unbounded")
        if any(self.xb[i] != 0 and self.basis[i] >= self.nstruct for i in range(self.nrows)):
            return False
        # drive artificial variables out of the basis, dropping redundant rows
        for i in reversed(range(self.nrows)):
            if self.basis[i] < self.nstruct:
                continue
            pcol = next((j for j in range(self.nstruct) if self.T[i][j] != 0), None)
            if pcol is None:
                del self.T[i], self.xb[i], self.basis[i]
                self.nrows -= 1
                continue
            self.pivots.append((i, pcol))
            _pivot(self.T, i, pcol)
            self.basis[i] = pcol
            # label swap at step zero: the entering column keeps its value
            self.xb[i] = self.ub[pcol] if pcol in self.at_upper else ZERO
            self.at_upper.discard(pcol)
        # forget artificial columns entirely
        for i in range(self.nrows):
            self.T[i] = self.T[i][:self.nstruct]
        return True

    def values(self):
        y = []
        basic_pos = {v: i for i, v in enumerate(self.basis)}
        for j in range(self.nstruct):
            if j in basic_pos:
                y.append(self.xb[basic_pos[j]])
            elif j in self.at_upper:
                y.append(self.ub[j])
            else:
                y.append(ZERO)
        return y


def find_feasible(lp: BoxLP, pivots=None):
    """Phase-1 only: some feasible point of the LP, or None.  Given a
    pivots list, each pivot's (row, entering column) is appended to it."""
    canon = _Canonical(lp)
    sx = _Simplex(canon.cols, canon.b, canon.ub)
    if pivots is not None:
        sx.pivots = pivots
    if not sx.solve_phase1():
        return None
    x = canon.restore(sx.values())
    if not lp.is_feasible_point(x):
        raise InfeasibleStart("simplex point is not feasible")
    return x


def lp_solve(lp: BoxLP, pivots=None) -> LPResult:
    """Exact optimum of a BoxLP: the simplex's basic solution.  Given a
    pivots list, each pivot's (row, entering column) is appended to it."""
    if lp.objective is None:
        raise ValueError("lp_solve requires an objective")
    canon = _Canonical(lp)
    sx = _Simplex(canon.cols, canon.b, canon.ub)
    if pivots is not None:
        sx.pivots = pivots
    if not sx.solve_phase1():
        return LPResult("infeasible")
    status = sx._iterate(list(canon.c))
    if status == "unbounded":
        return LPResult("unbounded")
    x = canon.restore(sx.values())
    if not lp.is_feasible_point(x):
        raise InfeasibleStart("simplex point is not feasible")
    value = sum((rat(ci) * xi for ci, xi in zip(lp.objective, x)), ZERO)
    return LPResult("optimal", x, value)
