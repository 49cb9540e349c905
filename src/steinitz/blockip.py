"""4-block integer programs: kernel decomposition, reduction, Graver
enumeration within a box, the proximity-driven solver, and proximity
reports.

The decomposition pipeline mirrors the constants it certifies: every
stage asserts its own exact bound and any violation aborts with the name
of the violated property.  Each value of the decomposition is held in one
integer form, the one its checks read: a block basis as its int rows
-|det D| D^{-1} Bi, a u residual as ints over the block's scale, a piece
as a tuple of int.  The v-decomposition solves one convex LP per block,
over its vertices at x: the weighted bases give rows of the cone, so each
is feasible at every ray, and the vertex map is linear, so its weights
give every ray's part and start every ray's peel.

Past xi a kernel point is written as alpha small pieces, of which only a
few are distinct, while alpha grows with the point.  The pipeline carries
them as runs (piece, count) of equal consecutive pieces: the vertex peel
picks a run of one vertex at a time, the colorful and psi orders come as
chunks of runs, the u and v tubes and the psi prefix bound are read at the
chunk ends by ``rearrange._max_prefix_runs`` (the deviations are affine
along a chunk, their norms convex), and the psi collision loop draws
positions lazily from the chunks.  The bundle's piece tuples are spelled
out from the runs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import accumulate, chain, combinations, repeat
from operator import mul

from .linalg import (Matrix, Vec, ZERO, ONE, _bareiss_echelon, _integer_echelon, rat, ceil_sqrt,
                     is_integer_vec, l1_norm, linf_norm, span_coordinates, scale_to_integers, vadd,
                     vscale, vsub)
from .checks import PropertyViolation
from .lp import LPError, enum_integer_points, integer_extreme_rays, integer_simplex, over_lcm
from .norms import LINF_NORM
from .rearrange import _max_prefix_runs, _order_runs, _run_sum
from .colorful import _affine_runs


class UnboundedRelaxation(LPError):
    """The LP relaxation of the 4-block program is unbounded."""


# ---------------------------------------------------------------------------
# instance and kernel-point types


@dataclass(frozen=True)
class IntegerForm:
    """The blocks of a 4-block instance, each held once, as tuples of int
    rows: A0 and, per diagonal block i, B[i], A[i] and C[i].  The rows of
    C_all = [C_1 ... C_n] and of H are derived from them on first use."""
    A0: tuple
    B: tuple
    A: tuple
    C: tuple

    def entries(self):
        """Every block entry, block by block."""
        return chain.from_iterable(chain.from_iterable((self.A0, *self.B, *self.A, *self.C)))

    @cached_property
    def C_all(self) -> tuple:
        return tuple(tuple(chain.from_iterable(Ci[r] for Ci in self.C))
                     for r in range(len(self.A0)))

    @cached_property
    def H(self) -> tuple:
        """The rows of H = [[A0, C_1 ... C_n], [B_i, A_i on the diagonal]]."""
        n = len(self.A)
        H = [a0 + c for a0, c in zip(self.A0, self.C_all)]
        for i, (Bi, Ai) in enumerate(zip(self.B, self.A)):
            t = len(Ai[0])
            H.extend(b + (0,) * (t * i) + a + (0,) * (t * (n - 1 - i)) for b, a in zip(Bi, Ai))
        return tuple(H)


def _has_shape(rows, r: int, c: int) -> bool:
    return len(rows) == r and all(len(row) == c for row in rows)


@dataclass(frozen=True)
class FourBlockInstance:
    """max c.z s.t. H z = b, 0 <= z <= (ux, uy).  The Fraction matrices A0,
    B, A, C and H_matrix() are views of integer_form, built on first read."""
    s0: int
    s: int
    t0: int
    t: int
    n: int
    integer_form: IntegerForm
    b: Vec
    cx: Vec
    cy: Vec
    ux: tuple
    uy: tuple
    delta: int

    def __post_init__(self):
        if min(self.s0, self.s, self.t0, self.t, self.n) < 1:
            raise ValueError("all block dimensions must be positive")
        form = self.integer_form
        if not _has_shape(form.A0, self.s0, self.t0):
            raise ValueError("A0 shape mismatch")
        if len(form.B) != self.n or len(form.A) != self.n or len(form.C) != self.n:
            raise ValueError("block count mismatch")
        for i in range(self.n):
            if not _has_shape(form.B[i], self.s, self.t0):
                raise ValueError(f"B[{i}] shape mismatch")
            if not _has_shape(form.A[i], self.s, self.t):
                raise ValueError(f"A[{i}] shape mismatch")
            if not _has_shape(form.C[i], self.s0, self.t):
                raise ValueError(f"C[{i}] shape mismatch")
        if len(self.b) != self.s0 + self.n * self.s:
            raise ValueError("b dimension mismatch")
        if len(self.cx) != self.t0 or len(self.ux) != self.t0:
            raise ValueError("x objective/bound dimension mismatch")
        if len(self.cy) != self.n * self.t or len(self.uy) != self.n * self.t:
            raise ValueError("y objective/bound dimension mismatch")
        if any(type(a) is not int for a in form.entries()):
            raise ValueError("blocks must have integer entries")
        if not is_integer_vec(self.b):
            raise ValueError("b must be integer")
        biggest = max(map(abs, form.entries()), default=0)
        if self.delta != biggest:
            raise ValueError(f"delta={self.delta} but largest absolute entry is {biggest}")

    @staticmethod
    def make(A0, B, A, C, b, cx, cy, ux, uy) -> "FourBlockInstance":
        """The instance with these blocks, each given as int rows or as an
        integer Matrix; the dimensions and delta are read off the blocks."""
        rows = partial(_int_rows, error="blocks must have integer entries")
        form = IntegerForm(rows(A0), tuple(map(rows, B)), tuple(map(rows, A)), tuple(map(rows, C)))
        s0, t0 = len(form.A0), len(form.A0[0]) if form.A0 else 0
        s, t = len(form.A[0]), len(form.A[0][0]) if form.A[0] else 0
        delta = max(map(abs, form.entries()), default=0)
        return FourBlockInstance(s0, s, t0, t, len(form.A), form, tuple(b), tuple(cx),
                                 tuple(cy), tuple(ux), tuple(uy), delta)

    @property
    def x_dim(self) -> int:
        return self.t0

    @property
    def y_dim(self) -> int:
        return self.n * self.t

    @property
    def a0_is_zero(self) -> bool:
        return not any(map(any, self.integer_form.A0))

    def y_block(self, y: Vec, i: int) -> Vec:
        return tuple(y[i * self.t:(i + 1) * self.t])

    @cached_property
    def A0(self) -> Matrix:
        return Matrix.from_rows(self.integer_form.A0)

    @cached_property
    def B(self) -> tuple:
        return tuple(map(Matrix.from_rows, self.integer_form.B))

    @cached_property
    def A(self) -> tuple:
        return tuple(map(Matrix.from_rows, self.integer_form.A))

    @cached_property
    def C(self) -> tuple:
        return tuple(map(Matrix.from_rows, self.integer_form.C))

    def H_matrix(self) -> Matrix:
        """H as a Fraction matrix, built once per instance."""
        return self._H

    @cached_property
    def _H(self) -> Matrix:
        # one Fraction per distinct entry, shared across the kept matrix
        H = self.integer_form.H
        value = {a: Fraction(a) for a in set(chain.from_iterable(H))}
        return Matrix(len(H), self.x_dim + self.y_dim, tuple(value[a] for row in H for a in row))

    def apply_C(self, y: Vec) -> Vec:
        """C y = sum_i C_i y^i, as Fraction: one integer product over the
        common denominator of y, divided back once per entry."""
        if len(y) != self.y_dim:
            raise ValueError("dimension mismatch in matrix-vector product")
        L, (Y,) = scale_to_integers([y])
        return tuple(Fraction(sum(map(mul, row, Y)), L) for row in self.integer_form.C_all)

    def integer_C_images(self):
        """A function taking an integer y (a tuple of int) to the integer
        vector C y.  It computes each distinct y once: the pieces of a
        decomposition repeat, so most calls are cache hits."""
        rows = self.integer_form.C_all
        cache = {}

        def image(y):
            im = cache.get(y)
            if im is None:
                im = cache[y] = tuple(sum(map(mul, row, y)) for row in rows)
            return im
        return image

    def integer_system(self):
        """(rows, b) of H z = b over int, as enum_integer_points takes it."""
        return self.integer_form.H, tuple(int(v) for v in self.b)

    def box_points(self, box_cap: int | None = None):
        """The integer points of H z = b in the brute-force search box, in
        lexicographic order: 0 <= z <= the bounds, capped at box_cap."""
        _check_box_cap(box_cap)
        upper = []
        for u in tuple(self.ux) + tuple(self.uy):
            if u is None and box_cap is None:
                raise ValueError("unbounded search box: provide box_cap")
            hi = box_cap if u is None else math.floor(rat(u))
            upper.append(hi if box_cap is None else min(hi, box_cap))
        return enum_integer_points((0,) * len(upper), upper, system=self.integer_system())


def _int_rows(block, error: str = "expected an integer matrix") -> tuple:
    """A block's int rows as a tuple of tuples, from int rows or from a
    Matrix, which raises ValueError(error) unless integer."""
    if not isinstance(block, Matrix):
        return tuple(map(tuple, block))
    if any(a.denominator != 1 for a in block.data):
        raise ValueError(error)
    return tuple(tuple(a.numerator for a in block.row(r)) for r in range(block.rows))


def _kernel_test(rows, v: Vec) -> bool:
    """Whether rows . v = 0 for the rational vector v, tested as an integer
    product over its common denominator."""
    _, (V,) = scale_to_integers([v])
    return not any(sum(map(mul, row, V)) for row in rows)


def _check_box_cap(box_cap: int | None):
    if box_cap is not None and box_cap < 0:
        raise ValueError(f"box_cap must be nonnegative, got {box_cap}")


@dataclass(frozen=True)
class KernelPoint:
    x: Vec
    y: Vec

    def check(self, inst: FourBlockInstance):
        if len(self.x) != inst.x_dim or len(self.y) != inst.y_dim:
            raise ValueError("kernel point dimension mismatch")
        if any(v < 0 for v in self.x) or any(v < 0 for v in self.y):
            raise ValueError("kernel point must be nonnegative")
        if not _kernel_test(inst.integer_form.H, tuple(self.x) + tuple(self.y)):
            raise ValueError("point is not in the kernel of H")


def kernel_bound(inst: FourBlockInstance) -> int:
    """t (2 s Delta + 1)^s, the l1 threshold for extracting an integer
    kernel vector from a block."""
    return inst.t * (2 * inst.s * inst.delta + 1) ** inst.s


def omega1(inst: FourBlockInstance) -> int:
    """t0 Delta^s s^((s+1)/2), rounded up to stay rational for even s."""
    return inst.t0 * inst.delta ** inst.s * ceil_sqrt(inst.s ** (inst.s + 1))


# ---------------------------------------------------------------------------
# the A0 = 0 lift


def lift_three_block(inst: FourBlockInstance) -> FourBlockInstance:
    """Equivalent instance with A0 = 0; kernel points (x, y) of the input
    biject with kernel points (x, (x, y^1), (0, y^2), ...) of the output."""
    if inst.a0_is_zero:
        return inst
    s0, s, t0, t, n = inst.s0, inst.s, inst.t0, inst.t, inst.n
    form = inst.integer_form
    eye = tuple(tuple(int(r == c) for c in range(t0)) for r in range(t0))
    zero = (0,) * t0
    A2, B2, C2, b2, cy2, uy2 = [], [], [], list(inst.b[:s0]), [], []
    for i in range(n):
        corner = tuple(tuple(-a for a in row) for row in eye) if i == 0 else eye
        A2.append(tuple(row + (0,) * t for row in corner) +
                  tuple(zero + row for row in form.A[i]))
        B2.append((eye if i == 0 else (zero,) * t0) + form.B[i])
        C2.append(tuple(a0 + c for a0, c in zip(form.A0 if i == 0 else (zero,) * s0, form.C[i])))
        b2 += [ZERO] * t0 + list(inst.b[s0 + i * s:s0 + (i + 1) * s])
        cy2 += [ZERO] * t0 + list(inst.cy[i * t:(i + 1) * t])
        uy2 += list(inst.ux if i == 0 else [Fraction(0)] * t0) + list(inst.uy[i * t:(i + 1) * t])
    return FourBlockInstance.make(
        (zero,) * s0, B2, A2, C2, tuple(b2), inst.cx, tuple(cy2), inst.ux, tuple(uy2))


def lift_point(inst: FourBlockInstance, x: Vec, y: Vec):
    """Map a point of the original instance into the lifted coordinates."""
    if inst.a0_is_zero:
        return tuple(x), tuple(y)
    t0, t, n = inst.t0, inst.t, inst.n
    out = []
    for i in range(n):
        out.extend(x if i == 0 else [ZERO] * t0)
        out.extend(y[i * t:(i + 1) * t])
    return tuple(x), tuple(out)


def project_lifted_point(inst: FourBlockInstance, x: Vec, y_lifted: Vec):
    """Inverse of lift_point on the y coordinates."""
    if inst.a0_is_zero:
        return tuple(x), tuple(y_lifted)
    t0, t, n = inst.t0, inst.t, inst.n
    width = t0 + t
    out = []
    for i in range(n):
        out.extend(y_lifted[i * width + t0:(i + 1) * width])
    return tuple(x), tuple(out)


# ---------------------------------------------------------------------------
# maximal kernel split and the u-decomposition


def split_max_kernel(inst: FourBlockInstance, pt: KernelPoint):
    """(u, v) with y = u + v, u a blockwise-maximal nonnegative kernel
    vector of the diagonal blocks, and ||v||_inf <= omega1 ||x||_inf."""
    if not inst.a0_is_zero:
        raise ValueError("split_max_kernel requires a lifted instance (A0 = 0)")
    pt.check(inst)
    s, t = inst.s, inst.t
    u = []
    for i in range(inst.n):
        # max 1.u  s.t.  A_i u = 0, 0 <= u <= y^i, the bounds over their lcm
        L, (Y,) = scale_to_integers([inst.y_block(pt.y, i)])
        status, point = integer_simplex(inst.integer_form.A[i], (0,) * s, L, (0,) * t, Y,
                                        (1,) * t)
        if status != "optimal":
            raise PropertyViolation("block-kernel-lp", "block kernel LP must be solvable")
        den, X = point
        u.extend(Fraction(a, den) for a in X)
    u = tuple(u)
    v = vsub(pt.y, u)
    if any(x < 0 for x in v):
        raise PropertyViolation("kernel-split-nonneg", "kernel split produced a negative remainder")
    if linf_norm(v) > omega1(inst) * linf_norm(pt.x):
        raise PropertyViolation("v-bound-omega1", "||v||_inf > omega1 ||x||_inf")
    return u, v


def minimal_kernel_below(Ai, w: Vec, cap: int):
    """First (lex) nonzero integer point of ker Ai inside [0, floor(w)]
    with l1 norm at most cap, or None when no such point exists.  Ai is
    given as int rows or as an integer Matrix."""
    upper = tuple(math.floor(rat(x)) for x in w)
    rows = _int_rows(Ai)
    kernel = enum_integer_points((0,) * len(w), upper, ell1_cap=cap, predicate=any,
                                 system=(rows, (0,) * len(rows)))
    return next(kernel, None)


def decompose_u(inst: FourBlockInstance, u_hat: Vec):
    """u = u0 + sum of alpha0 small integer kernel vectors, the integer
    pieces ordered so their C-images stay near the proportional line:
    (u0, pieces), the pieces of _decompose_u spelled out."""
    u0, runs = _decompose_u(inst, u_hat)
    return u0, _spelled(runs)


def _decompose_u(inst: FourBlockInstance, u_hat: Vec):
    """(u0, runs): decompose_u with the ordered pieces as runs (piece, count).

    The pieces are extracted by counts.  The lex-first kernel point w of
    the box [0, floor(res)] stays lex-first while the box only shrinks, so
    w is subtracted at once the largest number of times c that keeps
    c w <= res and the loop test l1(res) > K true before each subtraction.
    The block's residual is held once, as ints over the common denominator
    scale of the block of u, and made Fraction at the end.  The pieces are
    carried as runs (piece, c) of one tuple: they are ordered on the
    integer deviations alpha0 C p - sum C p of their C-images, alpha0 times
    the deviations from the mean, as chunks of runs, and the tube is
    checked at the chunk ends."""
    K = kernel_bound(inst)
    runs = []
    residuals = []
    for i in range(inst.n):
        scale, (res,) = scale_to_integers([inst.y_block(u_hat, i)])
        if any(x < 0 for x in res):
            raise ValueError("u must be nonnegative")
        if any(sum(map(mul, row, res)) for row in inst.integer_form.A[i]):
            raise ValueError("u is not in the kernel of the diagonal blocks")
        excess = sum(res) - K * scale       # scale (l1(res) - K), as res >= 0
        while excess > 0:
            wbar = minimal_kernel_below(inst.integer_form.A[i], [a // scale for a in res], K)
            if wbar is None:
                raise PropertyViolation("kernel-extraction",
                                        "no small kernel vector below a large residual")
            step = scale * sum(wbar)
            count = min((excess - 1) // step + 1,
                        *(a // (scale * b) for a, b in zip(res, wbar) if b))
            res = [a - count * scale * b for a, b in zip(res, wbar)]
            excess -= count * step
            padded = [0] * (inst.n * inst.t)
            padded[i * inst.t:(i + 1) * inst.t] = list(wbar)
            runs.append((tuple(padded), count))
        residuals.extend(Fraction(a, scale) for a in res)
    u0 = tuple(residuals)
    alpha0 = sum(count for _, count in runs)

    image = inst.integer_C_images()
    if alpha0 >= 2:
        total = _run_sum(((image(p), count) for p, count in runs), inst.s0)
        deviations = [(tuple(alpha0 * x - t for x, t in zip(image(p), total)), count)
                      for p, count in runs]
        runs = [(runs[r][0], hi - lo) for r, lo, hi in _order_runs(deviations, inst.s0)]

    # certified bounds of the u-decomposition
    if alpha0 < Fraction(linf_norm(u_hat), K) - 1:
        raise PropertyViolation("u-layer-count", "alpha0 < ||u||_inf / K - 1")
    for p in dict.fromkeys(p for p, _ in runs):
        if sum(map(abs, p)) > K:
            raise PropertyViolation("u-piece-norm", "an integer piece exceeds the l1 cap")
    if l1_norm(u0) > inst.n * K or linf_norm(u0) > K:
        raise PropertyViolation("u-remainder-norm", "remainder norm bound failed")
    if alpha0 >= 1 and _leaves_tube_runs([(image(p), count) for p, count in runs],
                                         inst.s0 * 2 * inst.delta * K):
        raise PropertyViolation("u-prefix-tube", "ordered C-prefix left the certified tube")
    return u0, runs


def _spelled(runs) -> tuple:
    """The sequence that the runs (value, count) spell, as one tuple."""
    return tuple(chain.from_iterable(repeat(value, count) for value, count in runs))


def _leaves_tube_runs(runs, cap) -> bool:
    """Whether a prefix sum of the m integer vectors that the runs (image,
    count) spell leaves the tube |prefix_k - (k/m) total| <= cap around the
    proportional line.  Checked in integers, multiplied through by m: the
    largest ||m prefix_k - k total||_inf, which _max_prefix_runs reads at
    the run ends on the images times m with drift total, against
    floor(m cap)."""
    m = sum(count for _, count in runs)
    dim = len(runs[0][0]) if runs else 0
    scaled = [(tuple(m * x for x in im), count) for im, count in runs]
    return _max_prefix_runs(scaled, dim, LINF_NORM, _run_sum(runs, dim)) > math.floor(m * cap)


# ---------------------------------------------------------------------------
# the x-decomposition over cone rays


@dataclass(frozen=True)
class FeasibleBasis:
    """An invertible s x s column basis D of a diagonal block Ai: its
    columns cols, det = det D, an integer, and the integer matrix
    rows = -|det D| D^{-1} Bi (s rows of length t0).  The point supported
    on cols with Ai y = -Bi x has y_cols = rows x / |det D|, so for every x
    the basis gives a vertex of {y >= 0 : Ai y = -Bi x} iff rows x >= 0."""
    cols: tuple
    det: int
    rows: tuple


def block_bases(Ai, Bi):
    """Every invertible s x s column basis of the integer block Ai with its
    integer rows, in lexicographic column order; Ai and Bi are given as int
    rows or as integer Matrix.

    One fraction-free elimination of [D | Bi] per subset
    (``_bareiss_echelon``): D is invertible iff the pivots are its s
    columns, and then the last t0 columns hold delta D^{-1} Bi, where
    sign * delta = det D."""
    A, B = _int_rows(Ai), _int_rows(Bi)
    s = len(A)
    out = []
    for cols in combinations(range(len(A[0]) if A else 0), s):
        work = [[a[c] for c in cols] + list(b) for a, b in zip(A, B)]
        pivots, delta, sign = _bareiss_echelon(work, s)
        if len(pivots) == s:
            rows = tuple(tuple(-x if delta > 0 else x for x in row[s:]) for row in work)
            out.append(FeasibleBasis(cols, sign * delta, rows))
    return out


def _feasible(bases, x: Vec):
    """The bases of a block_bases table whose vertex at x is nonnegative,
    tested in integers with x scaled by the lcm of its denominators."""
    _, (X,) = scale_to_integers([x])
    return [fb for fb in bases if all(sum(map(mul, row, X)) >= 0 for row in fb.rows)]


def feasible_bases(Ai, Bi, x_hat: Vec):
    """All invertible s x s column bases D of Ai with -D^{-1} Bi x_hat >= 0,
    in lexicographic column order, each carrying its integer rows."""
    return _feasible(block_bases(Ai, Bi), x_hat)


def _vertex_at(fb: FeasibleBasis, X, t: int) -> list:
    """The point supported on fb.cols with Ai y = -Bi x, at x = X / L with
    X over int, as the integers fb.rows X over L |det D|: fb.rows X placed
    on fb.cols, 0 elsewhere."""
    y = [0] * t
    for c, row in zip(fb.cols, fb.rows):
        y[c] = sum(map(mul, row, X))
    return y


def _gamma(inst: FourBlockInstance, tables) -> int:
    """gamma, the lcm of |det D| over every invertible s x s column basis D
    of every diagonal block (1 when there is none), read off the block_bases
    tables; each det D is checked against Hadamard's inequality
    det D^2 <= delta^(2s) s^s."""
    cap = inst.delta ** (2 * inst.s) * inst.s ** inst.s
    gamma = 1
    for table in tables:
        for fb in table:
            if fb.det * fb.det > cap:
                raise PropertyViolation("hadamard-bound", "a block basis determinant exceeds "
                                        "Hadamard's bound")
            gamma = math.lcm(gamma, abs(fb.det))
    return gamma


def cone_rays_K(inst: FourBlockInstance, x_hat: Vec, tables=None):
    """Extreme rays of {x >= 0 : -D^{-1} B^i x >= 0 for all feasible
    bases D}, scaled into gamma Z^{t0}; returns (rays, omega2, gamma).

    tables[i] is block i's block_bases table, built here when not given;
    gamma comes from its determinants and the cone from the bases feasible
    at x_hat."""
    t0 = inst.t0
    if tables is None:
        tables = list(map(block_bases, inst.integer_form.A, inst.integer_form.B))
    # the cone rows are the integer rows -|det D| D^{-1} Bi, positive
    # multiples of the rows of -D^{-1} Bi, so they cut out the same cone
    rows = [tuple(int(r == c) for c in range(t0)) for r in range(t0)]
    for table in tables:
        for fb in _feasible(table, x_hat):
            rows.extend(fb.rows)
    _, (X,) = scale_to_integers([x_hat])
    if any(sum(map(mul, row, X)) < 0 for row in rows):
        raise PropertyViolation("x-in-cone", "x violates a cone inequality")
    gamma = _gamma(inst, tables)
    rays = [tuple(gamma * x for x in r) for r in integer_extreme_rays(rows, t0)]
    omega2 = max((linf_norm(r) for r in rays), default=ZERO)
    return tuple(rays), omega2, gamma


def decompose_x(x_hat: Vec, rays):
    """x as a conic combination of at most t0 rays: (lambdas, chosen rays).

    The multipliers are a vertex of {lam >= 0 : sum_i lam_i h_i = x}, found
    by phase 1 on the rows of [h_1 ... h_k | x] scaled to integers by one
    common factor."""
    t0 = len(x_hat)
    if all(v == 0 for v in x_hat):
        return (), ()
    if not rays:
        raise PropertyViolation("cone-membership", "nonzero x but the cone has no rays")
    k = len(rays)
    _, ints = scale_to_integers((*(r[c] for r in rays), xc) for c, xc in enumerate(x_hat))
    rows, rhs = [row[:-1] for row in ints], [row[-1] for row in ints]
    _, point = integer_simplex(rows, rhs, 1, (0,) * k, (None,) * k)
    if point is None:
        raise PropertyViolation("cone-membership", "x is not in the conic hull of the rays")
    den, X = point
    chosen = [i for i, a in enumerate(X) if a]
    if len(chosen) > t0:
        raise PropertyViolation("conic-support", "conic support exceeds t0")
    # sum_i lam_i h_i = x, read on the integer rows over den
    if any(sum(X[i] * row[i] for i in chosen) != b * den for row, b in zip(rows, rhs)):
        raise PropertyViolation("conic-reconstruction", "conic combination mismatch")
    return tuple(Fraction(X[i], den) for i in chosen), tuple(rays[i] for i in chosen)


# ---------------------------------------------------------------------------
# the v-decomposition


def _convex_combo_over_vertices(vertices, target):
    """Convex coefficients over the points V_k / d_k reproducing the target
    T / e, found as a vertex by phase 1; vertices holds the pairs (d_k, V_k)
    and target the pair (e, T), over int.  Returns (den, combo): the
    coefficients are combo[k] / den, zero off combo.  It is solved once per
    block, over its vertices at x, and its weights serve every ray.

    Every row, the row sum_k tau_k = 1 included, is scaled to integers by
    one common factor, K = e lcm_k d_k: row r of
    sum_k tau_k V_k[r] / d_k = T_r / e reads sum_k tau_k (K / d_k) V_k[r]
    = D T_r."""
    k = len(vertices)
    if k == 0:
        raise PropertyViolation("v-convex-decomposition", "no candidate vertices")
    e, T = target
    D = math.lcm(*(d for d, _ in vertices))
    K = e * D
    factors = [e * (D // d) for d, _ in vertices]
    rows = [[f * V[r] for f, (_, V) in zip(factors, vertices)] for r in range(len(T))]
    rows.append([K] * k)
    _, point = integer_simplex(rows, [D * b for b in T] + [K], 1, (0,) * k, (None,) * k)
    if point is None:
        raise PropertyViolation("v-convex-decomposition", "convex decomposition infeasible")
    den, X = point
    return den, {i: a for i, a in enumerate(X) if a}


def _peel_vertices(tau, lam, count, span, verts, w):
    """Peel count vertices off the block part w = lam sum_k tau_k verts[k],
    with tau = (den, combo) the block's convex weights at x, each on the
    first index in verts (its vertices at the ray) of its basis's vertex.

    Each step takes the vertex of largest weight (the lowest index on a
    tie), then renormalises the weights over the lam - j units left.  The
    weights are kept as integer masses m_k = tau_k (lam - j) D, with
    D = den q for lam = p / q, a common denominator of lam and the initial
    masses (every test and division below reads a ratio to D, so no choice
    depends on which common denominator it is): the checks
    tau_k >= 1/span and tau_k (lam - j) >= 1 read m_k span >= (lam - j) D
    and m_k >= D, and a step subtracts D from m_k and from (lam - j) D.
    Returns the picked vertex indices as runs (k, c) in order and the
    remainder of w.

    The steps are taken a run at a time: the heaviest vertex stays the pick
    until its mass falls below that of the runner-up (or to it, when the
    runner-up has the lower index), which integer division counts.  Along a
    run m_k span - (lam - j) D falls by D (span - 1) per step and m_k by D,
    so both checks are hardest at the run's last step; when that one fails,
    the first failing step is found by integer division as well.

    The vertices are nonnegative, so w only decreases along the steps: it
    went negative at some step exactly when it is negative after the last
    one, or, on a failed weight check, after the steps taken before it."""
    den, combo = tau
    mass = {k: c * lam.numerator for k, c in combo.items()}
    D = den * lam.denominator
    left = lam.numerator * den
    counts = dict.fromkeys(mass, 0)
    runs = []

    def remainder():
        taken = _run_sum(((verts[k], c) for k, c in counts.items()), len(w))
        rem = tuple(a - b for a, b in zip(w, taken))
        if any(x < 0 for x in rem):
            raise PropertyViolation("extraction-nonneg", "extraction overshot")
        return rem

    while count:
        dbar = max(mass, key=lambda idx: (mass[idx], -idx))
        steps = count
        rival = max(((mass[k], -k) for k in mass if k != dbar), default=None)
        if rival is not None:
            gap = mass[dbar] - rival[0]
            # step j still picks dbar while gap - j D > 0, or = 0 with dbar first
            steps = min(steps, gap // D + 1 if dbar < -rival[1] else -(-gap // D))
        # the first step j failing m span >= left or m >= D, m = mass - j D and
        # left = left - j D (no step fails the first check when span = 1 and it holds)
        slack = mass[dbar] * span - left
        first_a = 0 if slack < 0 else (slack // (D * (span - 1)) + 1 if span > 1 else steps)
        failing = max(0, min(first_a, mass[dbar] // D))
        if failing < steps:
            counts[dbar] += failing
            remainder()
            raise PropertyViolation("vertex-weight", "no vertex carries enough weight")
        mass[dbar] -= steps * D
        left -= steps * D
        counts[dbar] += steps
        runs.append((dbar, steps))
        count -= steps
    return runs, remainder()


def decompose_v(inst: FourBlockInstance, lambdas, hs, v_hat: Vec, omega2, bases):
    """Split v into per-ray parts and extract integer pieces per part:
    _decompose_v with the pieces of each ray spelled out."""
    v0s, vseq_runs, alphas = _decompose_v(inst, lambdas, hs, v_hat, omega2, bases)
    return v0s, tuple(_spelled(seq) for seq in vseq_runs), alphas


def _decompose_v(inst: FourBlockInstance, lambdas, hs, v_hat: Vec, omega2, bases):
    """Split v into per-ray parts and extract integer pieces per part.

    bases[i] is block i's block_bases table; the vertices at x and at each
    ray h are read from it, filtered to the bases feasible there.  One
    convex LP per block writes v_i = sum_k mu_k y_k(x) over its vertices at
    x.  The weighted bases give rows of the cone, so each is feasible at
    every ray h (else vertex-support), and y_k is linear, so
    lam sum_k mu_k y_k(h) is the ray's part and mu starts its peel.

    Returns (v0_per_ell, vseq_runs, alphas) where vseq_runs[ell] spells,
    as runs (piece, count), the stacked integer vectors ordered so that the
    C-image prefixes stay inside the certified tube.

    Every piece is one of the few vertices of a block polytope, so the
    extraction works on vertex indices and counts with integer weights
    (_peel_vertices), which picks them in runs of one vertex.  The integer
    form and the integer C-image of a vertex are computed once, the colorful
    order takes each block's picks as runs of C-images over CXv (checked
    against CXv) and gives the stacked pieces as runs, equal stacked pieces
    share one tuple whose kernel pairing is checked once, and the tube is
    checked over integer C-images at the ends of the runs."""
    s, t, t0, n = inst.s, inst.t, inst.t0, inst.n
    Xv = Fraction(inst.delta ** (s + 1) * s ** s * t0) * omega2
    CXv = inst.delta * Xv

    if not lambdas:
        if any(x != 0 for x in v_hat):
            raise PropertyViolation("maximality-zero-v", "x = 0 but v != 0")
        return (), (), ()

    x_hat = tuple(
        sum((lam * h[c] for lam, h in zip(lambdas, hs)), ZERO) for c in range(t0))

    # per block: convex weights over the vertices of {y >= 0 : A y = -B x}, each the
    # integers _vertex_at(fb, X, t) over L |det D|, kept by basis; the vertices lie in
    # the (t - s)-dimensional space A y = -B x, so a basic solution has <= span weights
    span = t - s + 1
    L, (X,) = scale_to_integers([x_hat])
    weights = []        # per block: (den, {columns of a weighted basis: weight})
    for i in range(n):
        bases_x = _feasible(bases[i], x_hat)
        verts = [(L * abs(fb.det), _vertex_at(fb, X, t)) for fb in bases_x]
        e, (T,) = scale_to_integers([inst.y_block(v_hat, i)])
        den, mu = _convex_combo_over_vertices(verts, (e, T))
        if len(mu) > span:
            raise PropertyViolation("v-convex-decomposition", f"support {len(mu)} exceeds {span}")
        weights.append((den, {bases_x[k].cols: a for k, a in mu.items()}))
    alphas = [math.floor(lam - (t - s)) if lam >= span else 0 for lam in lambdas]

    v_parts = [[] for _ in range(n)]  # v_parts[i][ell] : t-dim
    v0_per_ell = []
    vseq_runs = []          # per ell: the ordered pieces as runs (piece, count)
    form = inst.integer_form
    for ell, (lam, h) in enumerate(zip(lambdas, hs)):
        a_ell = alphas[ell]
        picks = []          # per block: the extracted pieces as runs (vertex index, count)
        int_verts = []      # per block: the vertices as integer tuples
        rem_blocks = []
        for i in range(n):
            verts, index, first = [], {}, {}
            for fb in _feasible(bases[i], h):
                d = abs(fb.det)
                v = _vertex_at(fb, h, t)
                if any(a % d for a in v):
                    raise PropertyViolation("vertex-integrality",
                                            "gamma scaling failed to make a vertex integer")
                v = tuple(a // d for a in v)
                if sum(map(abs, v)) > Xv:
                    raise PropertyViolation("v-piece-norm", "vertex l1 norm exceeds the cap")
                index[fb.cols] = first.setdefault(v, len(verts))
                verts.append(v)
            den, mu = weights[i]
            if any(cols not in index for cols in mu):
                raise PropertyViolation("vertex-support", "a weighted basis is infeasible at a ray")
            # bases with one vertex at h pool their weights on its first index
            tau = (den, Counter())
            for cols, a in mu.items():
                tau[1][index[cols]] += a
            # the part w = lam sum_k tau_k verts[k]
            acc = _run_sum(((verts[k], a) for k, a in tau[1].items()), t)
            w = tuple(Fraction(lam.numerator * a, lam.denominator * den) for a in acc)
            if any(x < 0 for x in w):
                raise PropertyViolation("v-part-nonneg", "a v part left the orthant")
            v_parts[i].append(w)
            pick = []
            if a_ell > 0:
                pick, w = _peel_vertices(tau, lam, a_ell, span, verts, w)
            if l1_norm(w) > span * Xv:
                raise PropertyViolation("v-remainder-norm", "v remainder exceeds its l1 cap")
            rem_blocks.append(w)
            picks.append(pick)
            int_verts.append(verts)
        # stack per-block remainders / pieces into R^{nt}
        v0_per_ell.append(tuple(x for blk in rem_blocks for x in blk))

        seq = []
        if a_ell > 0:
            # order the pieces jointly across blocks, the colors as runs of
            # one vertex; each picked vertex's C-image is one int tuple
            images = [{k: tuple(sum(map(mul, row, int_verts[i][k])) for row in form.C[i])
                       for k, _ in pick} for i, pick in enumerate(picks)]
            if any(linf_norm(im) > CXv for block in images for im in block.values()):
                raise PropertyViolation("v-image-norm", "a vertex C-image exceeds CXv")
            route, _ = _affine_runs(inst.s0, a_ell, LINF_NORM, [
                [(images[i][k], c) for k, c in pick] for i, pick in enumerate(picks)], CXv)
            starts = [list(accumulate((c for _, c in pick), initial=0)) for pick in picks]
            row_at = list(accumulate((c for _, c in route.rows), initial=0))
            stacked = {}    # vertex index per block -> the stacked piece
            for r, lo, hi in route.chunks:
                # the rows of a chunk take each block's piece from one run
                row = row_at[r] + lo
                key = tuple(pick[bisect_right(start, row if route.orders is None
                                              else route.orders[i][row]) - 1][0]
                            for i, (pick, start) in enumerate(zip(picks, starts)))
                piece = stacked.get(key)
                if piece is None:
                    piece = stacked[key] = tuple(
                        x for i, k in enumerate(key) for x in int_verts[i][k])
                seq.append((piece, hi - lo))
        vseq_runs.append(seq)

    for i in range(n):
        if tuple(map(sum, zip(*v_parts[i]))) != inst.y_block(v_hat, i):
            raise PropertyViolation("v-part-reconstruction", "v parts do not sum back")

    # exact prefix check of the ordered C-images
    cap_ix = Fraction(40 * inst.s0 ** 5) * CXv
    image = inst.integer_C_images()
    for seq in vseq_runs:
        if seq and _leaves_tube_runs([(image(vv), c) for vv, c in seq], cap_ix):
            raise PropertyViolation("v-prefix-tube", "ordered C-prefix left the certified tube")

    # kernel pairing and the layer-count bound, once per distinct piece in
    # order of first appearance, so the first failing piece is the one found
    for ell, (lam, h) in enumerate(zip(lambdas, hs)):
        bh = [[sum(map(mul, row, h)) for row in form.B[i]] for i in range(n)]
        for vv in dict.fromkeys(vv for vv, _ in vseq_runs[ell]):
            for i in range(n):
                vi = inst.y_block(vv, i)
                if any(sum(map(mul, row, vi)) + b for row, b in zip(form.A[i], bh[i])):
                    raise PropertyViolation("v-piece-kernel", "(h, v) is not in ker [B A]")
            if any(x < 0 for x in vv) or not is_integer_vec(vv):
                raise PropertyViolation("v-piece-kernel", "piece not a nonnegative integer vector")
    if omega2 > 0:
        if sum(alphas) < Fraction(linf_norm(x_hat)) / omega2 - t0 * (t - s + 2):
            raise PropertyViolation("v-layer-count", "too few extracted layers")
    return tuple(v0_per_ell), vseq_runs, tuple(alphas)


# ---------------------------------------------------------------------------
# bundle assembly and the constants table


@dataclass(frozen=True)
class DecompositionBundle:
    x_hat: Vec
    y_hat: Vec
    u_hat: Vec
    v_hat: Vec
    u0: Vec
    u_seq: tuple            # alpha0 integer vectors in Z^{nt}, ordered
    lambdas: tuple
    rays: tuple             # h^ell, integer vectors in gamma Z^{t0}
    alphas: tuple
    v0: tuple               # per ell
    v_seq: tuple            # per ell: ordered integer vectors in Z^{nt}
    p: tuple                # per ell: C-image totals of v_seq[ell]
    q: Vec
    r: Vec
    gamma: int
    omega2: Fraction

    @property
    def alpha0(self) -> int:
        return len(self.u_seq)


@dataclass(frozen=True)
class ConstantsTable:
    gamma: int
    omega1: Fraction
    omega2: Fraction
    omega3: Fraction
    omega4: Fraction
    omega5: Fraction
    xi: Fraction
    psi: int
    dim_v: int
    kernel_bound: Fraction


def _require_pipeline_ready(inst: FourBlockInstance):
    """The block_bases table of every diagonal block, once the instance is
    checked to be ready for the pipeline.  With t >= s, a block has full row
    rank exactly when it has an invertible s-column basis, so when its table
    is not empty."""
    if not inst.a0_is_zero:
        raise ValueError("pipeline requires a lifted instance (A0 = 0); call lift_three_block")
    if inst.t < inst.s:
        raise ValueError("pipeline requires t >= s in the diagonal blocks")
    tables = []
    for i in range(inst.n):
        tables.append(block_bases(inst.integer_form.A[i], inst.integer_form.B[i]))
        if not tables[-1]:
            raise ValueError(f"diagonal block {i} is not of full row rank")
    return tables


def decompose_bundle(inst: FourBlockInstance, pt: KernelPoint):
    """Run the full decomposition pipeline; returns (bundle, constants).

    Every certified property is asserted exactly along the way; a failure
    raises PropertyViolation naming the property.
    """
    bases = _require_pipeline_ready(inst)
    u_hat, v_hat = split_max_kernel(inst, pt)
    u0, u_runs = _decompose_u(inst, u_hat)
    rays_all, omega2, gamma = cone_rays_K(inst, pt.x, bases)
    lambdas, hs = decompose_x(pt.x, rays_all)
    v0s, v_runs, alphas = _decompose_v(inst, lambdas, hs, v_hat, omega2, bases)

    # exact reassembly checks; the pieces are summed over their runs
    if vadd(u_hat, v_hat) != tuple(pt.y):
        raise PropertyViolation("split-reassembly", "u + v != y")
    u_pieces = _run_sum(u_runs, inst.y_dim)
    if tuple(a + b for a, b in zip(u0, u_pieces)) != tuple(u_hat):
        raise PropertyViolation("u-reassembly", "u0 + sum u_j != u")
    # the integer pieces are summed in int first; p_ell and q are C applied
    # to those sums, which is the sum of the pieces' images by linearity
    acc = [ZERO] * inst.y_dim
    p_vecs = []
    for ell in range(len(lambdas)):
        pieces = _run_sum(v_runs[ell], inst.y_dim)
        for r in range(inst.y_dim):
            acc[r] += v0s[ell][r] + pieces[r]
        p_vecs.append(inst.apply_C(pieces))
    if tuple(acc) != tuple(v_hat):
        raise PropertyViolation("v-reassembly", "sum of v pieces != v")
    q = inst.apply_C(u_pieces)
    r_vec = inst.apply_C(tuple(map(sum, zip(u0, *v0s))))     # C u0 + sum of the C v0_ell
    total = [ZERO] * inst.s0
    for vec_ in (*p_vecs, q, r_vec):
        for rr in range(inst.s0):
            total[rr] += vec_[rr]
    if any(x != 0 for x in total):
        raise PropertyViolation("zero-sum-Cy", "sum p + q + r != 0")

    bundle = DecompositionBundle(
        tuple(pt.x), tuple(pt.y), u_hat, v_hat, u0, _spelled(u_runs), lambdas, hs, alphas,
        v0s, tuple(_spelled(seq) for seq in v_runs), tuple(p_vecs), q, r_vec, gamma, omega2)
    return bundle, compute_constants(inst, bundle)


def compute_constants(inst: FourBlockInstance, bundle: DecompositionBundle) -> ConstantsTable:
    """Every derived constant of the pipeline, each recomputable from its
    defining formula."""
    s, t, s0, t0 = inst.s, inst.t, inst.s0, inst.t0
    K = Fraction(kernel_bound(inst))
    w1 = Fraction(omega1(inst))
    w2 = bundle.omega2
    terms = []
    for ell, a in enumerate(bundle.alphas):
        if a > 0:
            terms.append(linf_norm(bundle.p[ell]) / a)
    if bundle.alpha0 > 0:
        terms.append(linf_norm(bundle.q) / bundle.alpha0)
    terms.append(linf_norm(bundle.r))
    w3 = max(terms)
    w4 = Fraction(s0 * 2 * inst.delta) * K + \
        Fraction(t0 * 40 * s0 ** 5 * inst.delta ** (s + 2) * s ** s * t0) * w2
    # dim V: one elimination of the nonzero C-image totals, none without any
    totals = [v for v in (bundle.r, bundle.q, *bundle.p) if any(x != 0 for x in v)]
    dim_v = len(_integer_echelon(totals)[0]) if totals else 0
    root = Fraction(ceil_sqrt(s0))
    w5 = Fraction(36) * (root * (w3 * (dim_v + 1) + w4 + Fraction(1, 2))) ** dim_v \
        * (root * (w4 + Fraction(1, 2))) ** (s0 - dim_v)
    psi = 1 + bundle.alpha0 + sum(bundle.alphas)
    xi = (w5 + t0 * (t - s + 2) + 1) * max(w2, ONE) * max(w1, ONE) * K
    return ConstantsTable(bundle.gamma, w1, w2, w3, w4, w5, xi, psi, dim_v, K)


# ---------------------------------------------------------------------------
# the reduction (pigeonhole over offset vectors)


@dataclass(frozen=True)
class ReduceOutcome:
    vector: tuple | None       # (x, y) or None
    bundle: DecompositionBundle
    constants: ConstantsTable
    diagnostics: dict


def reduce_kernel_point(inst: FourBlockInstance, pt: KernelPoint) -> ReduceOutcome:
    """Extract a nonzero integer kernel vector dominated by pt.

    Succeeds whenever ||pt||_inf > xi; may also succeed below that.
    Returns an outcome with vector=None plus diagnostics when no offset
    collision exists.
    """
    bundle, consts = decompose_bundle(inst, pt)
    s0 = inst.s0
    # the psi sequence as runs (tag, value, count) of equal values
    runs = [(("p", ell), vscale(bundle.p[ell], Fraction(1, a)), a)
            for ell, a in enumerate(bundle.alphas) if a >= 1]
    if bundle.alpha0 >= 1:
        runs.append((("q",), vscale(bundle.q, Fraction(1, bundle.alpha0)), bundle.alpha0))
    runs.append((("r",), bundle.r, 1))
    psi = sum(count for _, _, count in runs)
    if psi != consts.psi:
        raise PropertyViolation("psi-count", "psi differs from 1 + alpha0 + sum of the alphas")

    # the distinct values and their span coordinates, each scaled to
    # integers once by its lcm; orders and prefix tests are scale-invariant
    distinct = dict.fromkeys(value for _, value, _ in runs)
    scale, ints = scale_to_integers(distinct)
    int_of = dict(zip(distinct, ints))

    # order within the span as chunks (run, lo, hi) of the runs, then force
    # r, the last run's one copy, to the last position
    rdim, coords = span_coordinates(distinct)
    if rdim == 0:
        chunks = [(run, 0, count) for run, (_, _, count) in enumerate(runs)]
    else:
        coord_of = dict(zip(distinct, scale_to_integers(coords)[1]))
        chunks = _order_runs([(coord_of[value], count) for _, value, count in runs], rdim)
    last = (len(runs) - 1, 0, 1)
    chunks.remove(last)
    chunks.append(last)

    # the prefixes are read at the chunk ends (linf is convex along a chunk)
    cap_prefix = math.floor(consts.omega3 * (consts.dim_v + 1) * scale)
    ordered = [(int_of[runs[run][1]], hi - lo) for run, lo, hi in chunks]
    if _max_prefix_runs(ordered, s0, LINF_NORM) > cap_prefix:
        raise PropertyViolation("prefix-omega3", "rearranged prefix left omega3 (dimV + 1) box")

    # offsets O_k with exact integer keys, k = 0 .. psi-1
    image = inst.integer_C_images()
    phi_counts = [0] * len(bundle.lambdas)
    mu_count = 0
    offset = [0] * s0
    frac = [0] * s0                 # scale times the fractional prefix
    cap_dev = math.floor(consts.omega4 * scale)
    seen = {tuple(offset): 0}
    snapshots = [(tuple(phi_counts), 0)]
    collision = None
    # the runs of the ordered positions, drawn one by one up to a collision
    drawn = chain.from_iterable(repeat(run, hi - lo) for run, lo, hi in chunks)
    for k, run in zip(range(1, psi), drawn):
        tag, value, _ = runs[run]
        if tag[0] == "p":
            ell = tag[1]
            phi_counts[ell] += 1
            im = image(bundle.v_seq[ell][phi_counts[ell] - 1])
        elif tag[0] == "q":
            mu_count += 1
            im = image(bundle.u_seq[mu_count - 1])
        else:
            raise PropertyViolation("psi-r-last", "r appeared before the last position")
        for r, x in enumerate(int_of[value]):
            offset[r] += im[r]
            frac[r] += x
        if any(abs(scale * o - f) > cap_dev for o, f in zip(offset, frac)):
            raise PropertyViolation("omega4-deviation",
                                    "offset drifted from the fractional prefix")
        snapshots.append((tuple(phi_counts), mu_count))
        key = tuple(offset)
        if key in seen:
            collision = (seen[key], k)
            break
        seen[key] = k

    diagnostics = {
        "psi": psi,
        "dim_v": consts.dim_v,
        "collision": collision,
    }
    if collision is None:
        return ReduceOutcome(None, bundle, consts, diagnostics)

    k_lo, k_hi = collision
    phi_lo, mu_lo = snapshots[k_lo]
    phi_hi, mu_hi = snapshots[k_hi]
    x = [0] * inst.t0
    for ell, h in enumerate(bundle.rays):
        times = phi_hi[ell] - phi_lo[ell]
        for c in range(inst.t0):
            x[c] += times * h[c]
    # the pieces between the two colliding offsets
    windows = [bundle.v_seq[ell][phi_lo[ell]:phi_hi[ell]] for ell in range(len(bundle.lambdas))]
    windows.append(bundle.u_seq[mu_lo:mu_hi])
    pieces = ((piece, 1) for window in windows for piece in window)
    xv, yv = tuple(x), tuple(map(Fraction, _run_sum(pieces, inst.y_dim)))
    if all(v == 0 for v in xv) and all(v == 0 for v in yv):
        raise PropertyViolation("reduce-nonzero", "assembled vector is zero")
    if not (is_integer_vec(xv) and is_integer_vec(yv)):
        raise PropertyViolation("reduce-integral", "assembled vector is not integer")
    if any(v < 0 for v in xv) or any(v < 0 for v in yv):
        raise PropertyViolation("reduce-nonneg", "assembled vector left the orthant")
    if not _kernel_test(inst.integer_form.H, xv + yv):
        raise PropertyViolation("reduce-kernel", "assembled vector is not in ker H")
    if any(a > b for a, b in zip(xv, pt.x)) or any(a > b for a, b in zip(yv, pt.y)):
        raise PropertyViolation("reduce-dominated", "assembled vector is not below pt")
    return ReduceOutcome((xv, yv), bundle, consts, diagnostics)


# ---------------------------------------------------------------------------
# sign normalization wrapper


def flip_for_kernel_work(inst: FourBlockInstance, flips):
    """Instance with the flipped columns negated; bounds and objective are
    cleared since only kernel structure is used downstream."""
    t0, t, n = inst.t0, inst.t, inst.n
    form = inst.integer_form

    def flip_cols(rows, offs):
        return tuple(tuple(-a if flips[offs + c] else a for c, a in enumerate(row))
                     for row in rows)

    return FourBlockInstance.make(
        flip_cols(form.A0, 0), [flip_cols(Bi, 0) for Bi in form.B],
        [flip_cols(Ai, t0 + i * t) for i, Ai in enumerate(form.A)],
        [flip_cols(Ci, t0 + i * t) for i, Ci in enumerate(form.C)],
        (0,) * (inst.s0 + n * inst.s), (0,) * t0, (0,) * (n * t), (None,) * t0, (None,) * (n * t))


def _sign_normalized(inst: FourBlockInstance, x: Vec, y: Vec):
    """(flips, work, pt): lifts A0 away, then flips the columns where the
    lifted point is negative, so pt = |lifted point| lies in ker work."""
    lifted = lift_three_block(inst)
    lx, ly = lift_point(inst, x, y)
    z = tuple(lx) + tuple(ly)
    flips = tuple(v < 0 for v in z)
    work = flip_for_kernel_work(lifted, flips) if any(flips) else lifted
    absz = tuple(abs(v) for v in z)
    return flips, work, KernelPoint(absz[:lifted.t0], absz[lifted.t0:])


def reduce_kernel_point_signed(inst: FourBlockInstance, x: Vec, y: Vec):
    """Caller-facing reduction: lifts A0 away, flips columns so the target
    is nonnegative, reduces, and flips/projects the answer back."""
    flips, work, pt = _sign_normalized(inst, x, y)
    outcome = reduce_kernel_point(work, pt)
    if outcome.vector is None:
        return None, outcome
    rx, ry = outcome.vector
    rz = list(rx) + list(ry)
    rz = [-v if f else v for v, f in zip(rz, flips)]
    px, py = project_lifted_point(inst, tuple(rz[:work.t0]), tuple(rz[work.t0:]))
    return (px, py), outcome


# ---------------------------------------------------------------------------
# Graver enumeration within a box


def conformal_leq(a, b) -> bool:
    """a is sign-compatible with b and componentwise no larger in magnitude."""
    return all(x * y >= 0 and abs(x) <= abs(y) for x, y in zip(a, b))


def graver_enumerate(inst: FourBlockInstance, box: int):
    """All conformally-minimal nonzero integer kernel vectors of H inside
    [-box, box]^{t0+nt}; the true Graver basis restricted to the box, in
    enumeration order.

    Each kernel point is tested, in order of l1 norm, against the minimal
    ones kept so far only, which is exact: below a point g that is not
    minimal lies a minimal one of smaller l1 norm, inside the box (a
    conformal minor of a point of the box is in the box), so it was kept
    before g is tested; and two points of equal l1 norm are conformally
    comparable only when equal.  That is O(K |G|) tests, not O(K^2)."""
    if box < 1:
        raise ValueError("box must be at least 1")
    rows, _ = inst.integer_system()
    dim = inst.x_dim + inst.y_dim
    kernel = list(enum_integer_points((-box,) * dim, (box,) * dim, predicate=any,
                                      system=(rows, (0,) * len(rows))))
    kept = []
    for j in sorted(range(len(kernel)), key=lambda j: sum(map(abs, kernel[j]))):
        if not any(conformal_leq(kernel[h], kernel[j]) for h in kept):
            kept.append(j)
    return [kernel[j] for j in sorted(kept)]


# ---------------------------------------------------------------------------
# the proximity-driven solver and proximity report


def _relaxation(inst: FourBlockInstance):
    """(status, x) of the LP relaxation max c.z s.t. H z = b,
    0 <= z <= (ux, uy): the integer rows of H, the bounds over their lcm
    and c scaled to integers; x is None unless optimal."""
    H, b = inst.integer_system()
    dim = inst.x_dim + inst.y_dim
    L, HI = over_lcm(tuple(inst.ux) + tuple(inst.uy))
    _, c = over_lcm(tuple(inst.cx) + tuple(inst.cy))
    status, point = integer_simplex(H, b, L, (0,) * dim, HI, c)
    if point is None:
        return status, None
    den, X = point
    return status, tuple(Fraction(a, den) for a in X)


def _implied_upper(rows, rhs, L: int, HI, j: int) -> int:
    """The floor of the largest y_j on {rows y = rhs, 0 <= y <= HI / L},
    0 when that is empty."""
    n = len(HI)
    status, point = integer_simplex(rows, rhs, L, (0,) * n, HI, [int(k == j) for k in range(n)])
    if status == "unbounded":
        raise ValueError("cannot brute force: coordinate unbounded and no cap given")
    if status == "infeasible":
        return 0
    den, X = point
    return X[j] // den


def solve_four_block(inst: FourBlockInstance, radius: int):
    """Solve exactly: LP relaxation, enumerate integer x within the proximity
    radius, solve the residual program per candidate, return the best.

    Returns (x, y, value) or None; raises UnboundedRelaxation when the LP
    relaxation is unbounded.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    status, z = _relaxation(inst)
    if status == "infeasible":
        return None
    if status == "unbounded":
        raise UnboundedRelaxation("LP relaxation of the 4-block program is unbounded")
    x_hat = z[:inst.t0]

    x_lower = [max(0, math.ceil(v - radius)) for v in x_hat]
    x_upper = [math.floor(v + radius) if u is None else min(math.floor(v + radius), math.floor(rat(u)))
               for v, u in zip(x_hat, inst.ux)]
    rows, b = inst.integer_system()
    y_rows = [row[inst.t0:] for row in rows]
    y_upper = [0 if u is None else math.floor(rat(u)) for u in inst.uy]
    open_bounds = [j for j, u in enumerate(inst.uy) if u is None]
    L, HI = over_lcm(inst.uy)
    best = None
    for xbar in enum_integer_points(x_lower, x_upper):
        rhs = tuple(bi - sum(map(mul, row[:inst.t0], xbar)) for row, bi in zip(rows, b))
        for j in open_bounds:
            y_upper[j] = _implied_upper(y_rows, rhs, L, HI, j)
        x_value = sum((ci * xi for ci, xi in zip(inst.cx, xbar)), ZERO)
        for y in enum_integer_points((0,) * inst.y_dim, y_upper, system=(y_rows, rhs)):
            value = x_value + sum((ci * yi for ci, yi in zip(inst.cy, y)), ZERO)
            if best is None or value > best[2]:
                best = (xbar, y, value)
    return best


@dataclass(frozen=True)
class ProximityReport:
    lp_status: str
    ip_feasible: bool
    lp_vertex: Vec | None = None
    nearest_optimal_ip: Vec | None = None
    distance_inf: Fraction | None = None
    xi: Fraction | None = None


def xi_for_difference(inst: FourBlockInstance, z_from: Vec, z_to: Vec):
    """Domination-threshold constants for the (sign-normalized, lifted) difference of
    two solutions with equal right-hand side."""
    diff = vsub(z_from, z_to)
    _, work, pt = _sign_normalized(inst, diff[:inst.t0], diff[inst.t0:])
    _, consts = decompose_bundle(work, pt)
    return consts.xi


def proximity_report(inst: FourBlockInstance, box_cap: int | None = None) -> ProximityReport:
    """LP vertex, nearest optimal integer solution, their distance, and the
    xi bound certified for the difference; asserts distance <= xi.  The
    nearest optimum is the first optimum of least distance in lex order."""
    _check_box_cap(box_cap)
    status, z_lp = _relaxation(inst)
    if status != "optimal":
        return ProximityReport(status, ip_feasible=False)
    c = tuple(inst.cx) + tuple(inst.cy)
    best_val = nearest = best_dist = None
    for z in inst.box_points(box_cap):
        val = sum((ci * zi for ci, zi in zip(c, z)), ZERO)
        if best_val is not None and val < best_val:
            continue
        dist = linf_norm(vsub(z_lp, z))
        if best_val is None or val > best_val or dist < best_dist:
            best_val, nearest, best_dist = val, z, dist
    if nearest is None:
        return ProximityReport("optimal", ip_feasible=False, lp_vertex=z_lp)
    xi = xi_for_difference(inst, z_lp, nearest)
    if best_dist > xi:
        raise PropertyViolation(
            "proximity-xi", f"distance {best_dist} exceeds xi {xi} on {inst!r}")
    return ProximityReport("optimal", True, z_lp, nearest, best_dist, xi)
