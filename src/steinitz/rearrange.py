"""Zero-sum sequence rearrangement with certified prefix-sum bounds.

The core construction maintains a shrinking chain of index sets.  At each
step the current feasible point is rescaled into the polytope whose
coordinate sum is one lower, walked to a vertex, and an element sitting
at value zero is dropped.  A counting argument over the vertex guarantees
such an element exists, so the descent never needs to backtrack; any
violation of that guarantee would be a genuine bug and raises.

The chain runs on one integer state and builds no LP per step: the
vectors are scaled to integers once, the point is a list of integers over
one common denominator that each step rescales, checks exactly and hands
to ``lp.walk_to_vertex``, and a dropped element takes its column with it.

Dimension one has a cheap special case: always append an element whose
sign opposes the running prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .linalg import Vec, ZERO, scale_to_integers, span_coordinates
from .lp import InfeasibleStart, walk_to_vertex
from .norms import NormSpec, norm_eval


class ZeroSumRequired(ValueError):
    """The operation needs an exactly zero-sum input sequence."""


@dataclass(frozen=True)
class VectorSequence:
    vectors: tuple
    dim: int
    norm: NormSpec

    def __post_init__(self):
        for v in self.vectors:
            if len(v) != self.dim:
                raise ValueError("vector dimension does not match sequence dimension")

    def __len__(self):
        return len(self.vectors)

    def total(self) -> Vec:
        out = [ZERO] * self.dim
        for v in self.vectors:
            for i, x in enumerate(v):
                out[i] += x
        return tuple(out)

    def radius(self) -> Fraction:
        return max((norm_eval(self.norm, v) for v in self.vectors), default=ZERO)


@dataclass(frozen=True)
class RearrangementCertificate:
    permutation: tuple        # position -> original index, 0-based
    certified_bound: Fraction
    achieved_max: Fraction
    radius: Fraction


def _require_zero_sum(seq: VectorSequence):
    if not all(x == 0 for x in seq.total()):
        raise ZeroSumRequired("sequence does not sum to zero exactly")


def _order_dim1(values) -> tuple:
    """Greedy order for scalars: always oppose the sign of the prefix."""
    pos = [i for i, v in enumerate(values) if v > 0]
    neg = [i for i, v in enumerate(values) if v < 0]
    zer = [i for i, v in enumerate(values) if v == 0]
    ip = ineg = iz = 0
    prefix = 0
    order = []
    for _ in range(len(values)):
        if prefix > 0:
            idx = neg[ineg]; ineg += 1
        elif prefix < 0:
            idx = pos[ip]; ip += 1
        else:
            heads = []
            if ip < len(pos):
                heads.append(pos[ip])
            if ineg < len(neg):
                heads.append(neg[ineg])
            if iz < len(zer):
                heads.append(zer[iz])
            idx = min(heads)
            if idx == (pos[ip] if ip < len(pos) else -1):
                ip += 1
            elif idx == (neg[ineg] if ineg < len(neg) else -1):
                ineg += 1
            else:
                iz += 1
        order.append(idx)
        prefix += values[idx]
    return tuple(order)


def _order_chain(vectors, dim) -> tuple:
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
        D, X = walk_to_vertex(cols, D, X, [0] * k, [D] * k)
        drop = next((p for p, a in enumerate(X) if a == 0), None)
        if drop is None:
            raise AssertionError("vertex without a zero coordinate; descent invariant broken")
        order[k - 1] = active.pop(drop)
        del cols[drop], X[drop]
    for pos, idx in enumerate(active):
        order[pos] = idx
    return tuple(order)


def rearrangement_order(vectors, dim) -> tuple:
    """Order (position -> index) with all prefix norms at most dim * radius."""
    m = len(vectors)
    if m <= dim:
        return tuple(range(m))
    if dim == 1:
        return _order_dim1([v[0] for v in vectors])
    return _order_chain(vectors, dim)


def prefix_sums(vectors, order, dim: int, drift: Vec | None = None):
    """Yield, for k = 1..len(order), the sum of the first k ordered vectors
    minus k*drift.  The one prefix-sum loop behind every certificate; on
    integer vectors (and drift) the sums stay int."""
    prefix = [0] * dim
    for k, idx in enumerate(order, start=1):
        for i, x in enumerate(vectors[idx]):
            prefix[i] += x
        if drift is None:
            yield tuple(prefix)
        else:
            yield tuple(p - k * d for p, d in zip(prefix, drift))


def max_prefix_norm(seq: VectorSequence, perm, drift: Vec | None = None) -> Fraction:
    """Exact max over k of || sum of the first k permuted vectors - k*drift ||."""
    if sorted(perm) != list(range(len(seq))):
        raise ValueError("perm is not a bijection on the sequence indices")
    return max((norm_eval(seq.norm, p) for p in prefix_sums(seq.vectors, perm, seq.dim, drift)),
               default=ZERO)


def steinitz_rearrange(seq: VectorSequence) -> RearrangementCertificate:
    """Order a zero-sum sequence so every prefix has norm <= dim * radius."""
    _require_zero_sum(seq)
    order = rearrangement_order(seq.vectors, seq.dim)
    radius = seq.radius()
    certified = seq.dim * radius
    achieved = max_prefix_norm(seq, order)
    if achieved > certified:
        raise AssertionError("prefix bound dim * radius violated; construction is broken")
    return RearrangementCertificate(order, certified, achieved, radius)


def subspace_rearrange(seq: VectorSequence) -> RearrangementCertificate:
    """Like steinitz_rearrange but certified against the span dimension.

    The vectors are mapped through a coordinate bijection onto the span of
    the input, rearranged there, and the certificate is stated in the
    ambient norm with bound dim(span) * radius.
    """
    _require_zero_sum(seq)
    r, coords = span_coordinates(seq.vectors)
    radius = seq.radius()
    if r == 0:
        order = tuple(range(len(seq)))
    elif r == seq.dim:
        order = rearrangement_order(seq.vectors, seq.dim)
    else:
        order = rearrangement_order(coords, r)
    certified = r * radius
    achieved = max_prefix_norm(seq, order)
    if achieved > certified:
        raise AssertionError("subspace prefix bound dim(V) * radius violated")
    return RearrangementCertificate(order, certified, achieved, radius)
