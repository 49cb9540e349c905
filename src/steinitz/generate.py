"""Seeded instance generation.  Identical seed and parameters give a
bit-identical instance (Python's Mersenne Twister is stable across
platforms)."""

from __future__ import annotations

import random
from fractions import Fraction
from operator import mul

from .linalg import ZERO, _integer_echelon
from .lp import integer_simplex
from .norms import LINF_NORM, NormSpec, norm_eval
from .colorful import ColoredFamily
from .blockip import FourBlockInstance, IntegerForm, KernelPoint
from .rearrange import VectorSequence


class GenerationError(RuntimeError):
    """Retry budget exhausted; reseed and try again."""


# the entries of gen_four_block's integer feasible point and its upper bounds
UB_CAP = 3


def gen_zero_sum_family(d: int, n: int, m: int, norm: NormSpec, seed: int,
                        denom: int = 16) -> ColoredFamily:
    """n*m rational vectors with denominator denom, recentered to an exact
    zero sum and rescaled into the unit ball of the requested norm."""
    if n * m < 1:
        raise ValueError("need at least one vector")
    if denom < 1:
        raise ValueError("denom must be positive")
    rng = random.Random(seed)
    vs = [[[Fraction(rng.randint(-denom, denom), denom) for _ in range(d)]
           for _ in range(m)] for _ in range(n)]
    total = [ZERO] * d
    for color in vs:
        for v in color:
            for r in range(d):
                total[r] += v[r]
    mean = [x / (n * m) for x in total]
    vs = [[[x - mu for x, mu in zip(v, mean)] for v in color] for color in vs]
    radius = max((norm_eval(norm, tuple(v)) for color in vs for v in color),
                 default=ZERO)
    if radius > 1:
        vs = [[[x / radius for x in v] for v in color] for color in vs]
    vectors = tuple(tuple(tuple(v) for v in color) for color in vs)
    return ColoredFamily(d, n, m, vectors, norm)


def gen_zero_sum_sequence(d: int, m: int, norm: NormSpec, seed: int,
                          denom: int = 16) -> VectorSequence:
    fam = gen_zero_sum_family(d, 1, m, norm, seed, denom)
    return VectorSequence(fam.vectors[0], d, norm)


def gen_four_block(s0: int, s: int, t0: int, t: int, n: int, delta: int, seed: int,
                   scale: int | None = None, zero_a0: bool = False,
                   require_full_rank: bool = True, max_retries: int = 60):
    """A random 4-block instance plus a planted rational kernel point.

    The kernel point is a vertex of {H z = 0, z >= 0, sum z = scale} for a
    seeded objective; blocks are redrawn when that slice is empty.  With
    require_full_rank the diagonal blocks are redrawn until they have full
    row rank (needed by the decomposition pipeline; pass False to allow
    degenerate blocks such as delta = 0).  A block dimension below 1 raises
    ValueError, as does a scale below 1 (its slice has no nontrivial point).
    """
    if scale is not None and scale < 1:
        raise ValueError(f"scale must be at least 1, got {scale}")
    if min(s0, s, t0, t, n) < 1:
        raise ValueError("all block dimensions must be positive")
    rng = random.Random(seed)
    dim = t0 + n * t
    total = scale if scale is not None else 2 * dim

    def draw_rows(r, c):
        return tuple([tuple([rng.randint(-delta, delta) for _ in range(c)]) for _ in range(r)])

    for _ in range(max_retries):
        A0 = ((0,) * t0,) * s0 if zero_a0 else draw_rows(s0, t0)
        B = tuple([draw_rows(s, t0) for _ in range(n)])
        A = tuple([draw_rows(s, t) for _ in range(n)])
        C = tuple([draw_rows(s0, t) for _ in range(n)])
        # the rank of each diagonal block: one fraction-free elimination
        if require_full_rank and any(len(_integer_echelon(Ai)[0]) != s for Ai in A):
            continue
        # integer feasible point fixes b; finite bounds keep brute force finite
        z0 = [rng.randint(0, UB_CAP) for _ in range(dim)]
        cx = tuple(rng.randint(-3, 3) for _ in range(t0))
        cy = tuple(rng.randint(-3, 3) for _ in range(n * t))
        ux = (Fraction(UB_CAP),) * t0
        uy = (Fraction(UB_CAP),) * (n * t)
        # b = H z0 in integers; the instance holds b as Fraction
        form = IntegerForm(A0, B, A, C)
        H = form.H
        b = tuple(Fraction(sum(map(mul, row, z0))) for row in H)

        # the slice {H z = 0, z >= 0, sum z = total}: integer rows
        obj = [rng.randint(1, 7) for _ in range(dim)]
        status, point = integer_simplex([*H, (1,) * dim], [0] * len(H) + [total], 1,
                                        [0] * dim, [None] * dim, obj)
        if status != "optimal":
            continue
        inst = FourBlockInstance(s0, s, t0, t, n, form, b, cx, cy, ux, uy,
                                 max(map(abs, form.entries()), default=0))
        den, X = point
        z = [Fraction(a, den) for a in X]
        planted = KernelPoint(tuple(z[:t0]), tuple(z[t0:]))
        return inst, planted
    raise GenerationError(
        f"no nontrivial nonnegative kernel point after {max_retries} draws (seed {seed})")


def gen_adversarial_scalar_family(n: int, m: int, seed: int,
                                  denom: int = 16) -> ColoredFamily:
    """d = 1 family whose colors are near-identical sign patterns, so the
    identity arrangement has row sums on the order of n.  Exercises the
    row-balancing loop."""
    rng = random.Random(seed)
    base = [1 if i < m // 2 else -1 for i in range(m)]
    cols = []
    for _ in range(n):
        col = []
        for i in range(m):
            jitter = Fraction(rng.randint(0, denom // 4), denom)
            col.append(base[i] * (1 - jitter))
        cols.append(col)
    total = sum(x for col in cols for x in col)
    mean = total / (n * m)
    cols = [[x - mean for x in col] for col in cols]
    radius = max(abs(x) for col in cols for x in col)
    if radius > 1:
        cols = [[x / radius for x in col] for col in cols]
    vectors = tuple(tuple((x,) for x in col) for col in cols)
    return ColoredFamily(1, n, m, vectors, LINF_NORM)


def gen_rank_deficient_sequence(d: int, r: int, m: int, seed: int,
                                denom: int = 16) -> VectorSequence:
    """Zero-sum unit-ball sequence in R^d whose span has dimension at most
    r < d: a random integer map applied to a dimension-r family."""
    if not 1 <= r < d:
        raise ValueError("need 1 <= r < d")
    rng = random.Random(seed)
    inner = gen_zero_sum_family(r, 1, m, LINF_NORM, seed * 2 + 1, denom)
    lift = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(d)]
    vs = []
    for v in inner.vectors[0]:
        vs.append(tuple(sum(lift[row][c] * v[c] for c in range(r)) for row in range(d)))
    radius = max((max(abs(x) for x in v) for v in vs), default=ZERO)
    if radius > 1:
        vs = [tuple(x / radius for x in v) for v in vs]
    return VectorSequence(tuple(vs), d, LINF_NORM)


def gen_unit_family(d: int, n: int, m: int, norm: NormSpec, seed: int,
                    denom: int = 16) -> ColoredFamily:
    """Unit-ball family without recentering; the union generally does not
    sum to zero (input for the affine variant)."""
    rng = random.Random(seed)
    vs = [[[Fraction(rng.randint(-denom, denom), denom) for _ in range(d)]
           for _ in range(m)] for _ in range(n)]
    radius = max((norm_eval(norm, tuple(v)) for color in vs for v in color),
                 default=ZERO)
    if radius > 1:
        vs = [[[x / radius for x in v] for v in color] for color in vs]
    vectors = tuple(tuple(tuple(v) for v in color) for color in vs)
    return ColoredFamily(d, n, m, vectors, norm)
