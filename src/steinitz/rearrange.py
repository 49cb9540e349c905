"""Zero-sum sequence rearrangement with certified prefix-sum bounds.

The core construction maintains a shrinking chain of multisets.  It runs
over the distinct vectors, each with its number of copies as the upper
bound of its coordinate.  At each step the current feasible point is
rescaled into the polytope whose coordinate sum is one lower and checked,
and one copy leaves: of a vector at value zero, else of one whose value is
at least one below its count.  Only when the point has no such vector is
it walked to a vertex, where a counting argument guarantees one, so the
descent never needs to backtrack; any violation of that guarantee would
be a genuine bug and raises.

The chain runs on one integer state and builds no LP per step: the
vectors are scaled to integers once, the point is a list of integers over
one common denominator that each step rescales, checks exactly and, when
it must, hands to ``lp.walk_to_vertex``, and a vector whose last copy
leaves takes its column with it.

Dimension one has a cheap special case: always append an element whose
sign opposes the running prefix.

Repeated vectors are carried as runs (value, count) of equal consecutive
entries, and an order as chunks (r, lo, hi): copies lo..hi-1 of run r.  In
dimension one the greedy takes ceil(|prefix| / |value|) copies of a run at
once, so its work grows with the chunks, not the copies; the chain has one
column per distinct vector, so its walks grow with the distinct vectors,
not the copies.  Prefix maxima are read at the ends of the runs only: along
a run the prefix is affine in k and a norm is convex.
``rearrangement_order`` and ``max_prefix_norm`` run-encode their input and
call these run cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress
from operator import is_not, itemgetter, mul, sub

from .checks import PropertyViolation
from .linalg import Vec, ZERO, scale_to_integers, span_coordinates
from .lp import walk_to_vertex
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


def _run_encode(seq) -> list:
    """The runs (value, count) of consecutive entries of seq that are one
    object.  Equal values held as separate objects start separate runs,
    which changes no answer of a run core and compares no entries."""
    seq = list(seq)
    starts = [0, *compress(range(1, len(seq)), map(is_not, seq[1:], seq))]
    ends = starts[1:] + [len(seq)]
    return list(zip(map(seq.__getitem__, starts), map(sub, ends, starts))) if seq else []


def _expand(runs, chunks) -> tuple:
    """The indices, into the sequence that runs spell, of the chunks
    (r, lo, hi), in order: copies lo..hi-1 of run r."""
    starts = list(accumulate(map(itemgetter(1), runs), initial=0))
    return tuple([i for r, lo, hi in chunks for i in range(starts[r] + lo, starts[r] + hi)])


def _run_sum(runs, dim: int) -> tuple:
    """The sum of the vectors of dimension dim that the runs (vector, count)
    spell."""
    total = [0] * dim
    for v, count in runs:
        for i, x in enumerate(v):
            total[i] += count * x
    return tuple(total)


def _order_dim1_runs(runs) -> list:
    """The greedy order of the scalars that the runs (value, count) spell, as
    chunks (r, lo, hi).  A nonzero prefix takes the head run of opposite sign,
    ceil(|prefix| / |value|) copies at once or the rest of the run; a zero
    prefix takes the head of lowest index, one copy, or a zero run whole (no
    other head lies inside it)."""
    queues = ([], [], [])            # the runs of zeros, of positives, of negatives
    for r, (value, _) in enumerate(runs):
        queues[(value > 0) - (value < 0)].append(r)
    at = [0, 0, 0]                   # per queue, the position of its head run
    taken = [0] * len(runs)          # copies taken of each run
    chunks = []
    prefix = 0
    left = sum(count for _, count in runs)
    while left:
        if prefix:
            sign = -1 if prefix > 0 else 1
            r = queues[sign][at[sign]]
        else:
            r, sign = min((q[a], s) for s, (q, a) in enumerate(zip(queues, at)) if a < len(q))
        value, count = runs[r]
        take = count - taken[r]
        if prefix and take > 1:
            take = min(take, -(-abs(prefix) // abs(value)))
        elif not prefix and sign:
            take = 1
        chunks.append((r, taken[r], taken[r] + take))
        taken[r] += take
        if taken[r] == count:
            at[sign] += 1
        prefix += value if take == 1 else take * value
        left -= take
    return chunks


def _placeable(X, left, D):
    """The first type at zero, else the first with a unit gap
    X_p <= (c_p - 1) D, c_p its copies left; None if there is none."""
    p = next((p for p, a in enumerate(X) if a == 0), None)
    if p is None:
        p = next((p for p, (a, count) in enumerate(zip(X, left)) if a <= (count - 1) * D), None)
    return p


def _order_chain(runs, dim) -> list:
    """The shrinking-chain construction for the zero-sum vectors in R^dim
    that the runs (vector, count) spell, as chunks (r, lo, hi).

    The chain runs over the distinct vectors v_i (the runs grouped by value,
    in order of first occurrence), each with its count c_i as an upper
    bound.  One integer state for the whole chain: the columns (L v_i, 1),
    with L the lcm of the entry denominators, and the point X over D in
    {sum_i X_i v_i = 0, sum X = (k-1-dim) D, 0 <= X <= c D}.  At step k the
    point is rescaled by (k-1-dim)/(k-dim) and checked exactly, and one copy
    of a type takes position k (counted from 1): of the first type at zero,
    else of the first with a gap c_i D - X_i >= D (``_placeable``).  Only
    when there is none is the point walked to a vertex, where there is one:
    the gaps add up to (dim+1) D, and at most dim+1 coordinates of the
    vertex lie strictly inside their bounds.  Any checked point will do,
    vertex or not: with lambda = X/D and lambda_p <= c_p - 1, the prefix
    left is sum (c'_i - lambda_i) v_i, with weights >= 0 that add up to
    dim, so its norm is at most dim * radius.  A zero stays zero when the
    point is rescaled, so most steps place a copy without a walk.  A type
    whose copies are all placed takes its column with it.  With every
    count 1 this is the LP of one column per vector and the first-zero
    drop.

    Each type's copies take their places in index order: the first ones,
    whose count is left when the chain ends, fill positions 0..dim-1 in
    index order, the others follow as the chain placed them.
    """
    _, ints = scale_to_integers([v for v, _ in runs])
    types = {}                        # per type (distinct vector), its runs
    for r, (v, (_, count)) in enumerate(zip(ints, runs)):
        if count:
            types.setdefault(v, []).append(r)
    own = list(types.values())
    counts = [sum(runs[r][1] for r in rs) for rs in own]
    m = sum(counts)
    cols = [(*v, 1) for v in types]
    live, left = list(range(len(cols))), list(counts)
    drops = []
    D, X = m, [count * (m - dim) for count in counts]
    for k in range(m, dim, -1):
        X = [a * (k - 1 - dim) for a in X]
        D *= k - dim
        h = math.gcd(D, *X)
        X = [a // h for a in X]
        D //= h
        HI = [count * D for count in left]
        # the start point of step k: 0 <= X <= c D, V X = 0 and sum X = (k-1-dim) D
        *coords, ones = (sum(map(mul, row, X)) for row in zip(*cols))
        if any(a < 0 or a > hi for a, hi in zip(X, HI)) or any(coords) or \
                ones != (k - 1 - dim) * D:
            raise PropertyViolation("chain-start-point", "chain point is not feasible")
        p = _placeable(X, left, D)
        if p is None:
            D, X = walk_to_vertex(cols, D, X, [0] * len(X), HI)
            p = _placeable(X, left, D)
        if p is None:
            raise PropertyViolation("chain-zero-coordinate",
                                    "vertex without a zero coordinate or a unit gap; "
                                    "descent invariant broken")
        drops.append(live[p])
        left[p] -= 1
        if not left[p]:
            del cols[p], X[p], left[p], live[p]
    # the copies left fill positions 0..dim-1, each type's first ones
    taken = [0] * len(runs)           # copies of each run placed so far
    for t, count in zip(live, left):
        for r in own[t]:
            taken[r] = min(runs[r][1], count)
            count -= taken[r]
            if not count:
                break
    chunks = [(r, 0, count) for r, count in enumerate(taken) if count]
    at = [0] * len(counts)            # per type, its first run with a copy left
    for t in reversed(drops):
        while taken[own[t][at[t]]] == runs[own[t][at[t]]][1]:
            at[t] += 1
        r = own[t][at[t]]
        lo = taken[r]
        taken[r] += 1
        if chunks and chunks[-1][0] == r and chunks[-1][2] == lo:
            chunks[-1] = (r, chunks[-1][1], lo + 1)
        else:
            chunks.append((r, lo, lo + 1))
    return chunks


def rearrangement_order(vectors, dim) -> tuple:
    """Order (position -> index) with all prefix norms at most dim * radius:
    the run core on the runs of equal vector objects."""
    runs = _run_encode(vectors)
    return _expand(runs, _order_runs(runs, dim))


def _order_runs(runs, dim) -> list:
    """rearrangement_order of the sequence that the runs (vector, count)
    spell, as chunks (r, lo, hi): copies lo..hi-1 of run r, in that order.
    In dimension one the greedy takes whole chunks; the chain has one
    column per distinct vector, and the copies it places one after another
    from one run form one chunk."""
    m = sum(count for _, count in runs)
    if m <= dim:
        return [(r, 0, count) for r, (_, count) in enumerate(runs)]
    if dim == 1:
        return _order_dim1_runs([(v[0], count) for v, count in runs])
    return _order_chain(runs, dim)


def prefix_sums(vectors, order, dim: int, drift: Vec | None = None):
    """Yield, for k = 1..len(order), the sum of the first k ordered vectors
    minus k*drift: every prefix, for the ``plotdata`` traces (the
    certificates and checks read the run ends of _max_prefix_runs).  On
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
    return _max_prefix_runs(_run_encode(seq.vectors[i] for i in perm), seq.dim, seq.norm, drift)


def _max_prefix_runs(runs, dim: int, norm: NormSpec, drift: Vec | None = None):
    """max_prefix_norm of the sequence that the runs (vector, count) spell,
    read at the run ends only: along a run the prefix minus k*drift is
    affine in k and a norm is convex, so its maximum over the run is at an
    end, and a run starts where the one before it ended (or at the zero
    prefix, of norm 0).  Integer vectors (and drift) keep int values."""
    prefix = [0] * dim
    k, best = 0, None
    for v, count in runs:
        k += count
        for i, x in enumerate(v if count == 1 else [count * x for x in v]):
            prefix[i] += x
        value = norm_eval(norm, tuple(prefix) if drift is None else
                          tuple(p - k * d for p, d in zip(prefix, drift)))
        if best is None or value > best:
            best = value
    return ZERO if best is None else best


def steinitz_rearrange(seq: VectorSequence) -> RearrangementCertificate:
    """Order a zero-sum sequence so every prefix has norm <= dim * radius."""
    _require_zero_sum(seq)
    order = rearrangement_order(seq.vectors, seq.dim)
    radius = seq.radius()
    certified = seq.dim * radius
    achieved = max_prefix_norm(seq, order)
    if achieved > certified:
        raise PropertyViolation("steinitz-prefix-bound",
                                "prefix bound dim * radius violated; construction is broken")
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
    order = tuple(range(len(seq))) if r == 0 else rearrangement_order(coords, r)
    certified = r * radius
    achieved = max_prefix_norm(seq, order)
    if achieved > certified:
        raise PropertyViolation("subspace-prefix-bound",
                                "subspace prefix bound dim(V) * radius violated")
    return RearrangementCertificate(order, certified, achieved, radius)
