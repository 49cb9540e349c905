"""Zero-sum sequence rearrangement with certified prefix-sum bounds.

The core construction maintains a shrinking chain of multisets.  It runs
over the distinct vectors, each with its number of copies as the upper
bound of its coordinate, and needs only some point, not a vertex, of each
shrinking polytope: one copy leaves at each step, of a vector at value
zero or of one whose value is at least one below its count, and the
copies left then have the bound.  The chain has two phases.  At first
each step rescales the current point into the polytope whose coordinate
sum is one lower, checks it, and places the first such vector.  From the
first step whose point has none, the chain keeps a basis: it starts with
every vector at its count and every row on a unit column, each step
lowers the sum by one, and dual-simplex pivots with Bland's rule restore
feasibility and end at a basic feasible point, where a counting argument
guarantees a vector to place, so the descent never needs to backtrack;
any violation of that guarantee would be a genuine bug and raises.  In
the pivot phase the vector placed is the one whose copy leaves the
smallest next prefix.

The chain runs on one integer state and builds no LP per step: the
vectors are scaled to integers once, the point is a list of integers over
one common denominator, checked exactly at every step, each pivot is one
``linalg._bareiss_step``, and a vector whose last copy leaves takes its
column with it.

Dimension one has a cheap special case: always append an element whose
sign opposes the running prefix.

Repeated vectors are carried as runs (value, count) of equal consecutive
entries, and an order as chunks (r, lo, hi): copies lo..hi-1 of run r.  In
dimension one the greedy takes ceil(|prefix| / |value|) copies of a run at
once, so its work grows with the chunks, not the copies; the chain has one
column per distinct vector, so its pivots grow with the distinct
vectors, not the copies.  Prefix maxima are read at the ends of the runs
only: along a run the prefix is affine in k and a norm is convex.
``rearrangement_order`` and ``max_prefix_norm`` run-encode their input and
call these run cores.  A ``VectorSequence`` holds its integer form once
(``integer_form``, cached), and the certificates read it: the zero-sum
check, the radius, the chain and the prefix maximum run on the integers,
and the bound and the maximum are divided by L once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, compress
from operator import is_not, itemgetter, mul, sub

from .checks import PropertyViolation
from .linalg import Vec, ZERO, _bareiss_step, scale_to_integers, span_coordinates
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

    @cached_property
    def integer_form(self) -> tuple:
        """(L, V): L is the lcm of the entry denominators and V[j] is the int
        tuple L*vectors[j].  Each vector object is scaled once, and equal
        vectors then share one tuple, found by hashing integers only."""
        objects = {id(v): v for v in self.vectors}
        scale, ints = scale_to_integers(objects.values())
        distinct = {}
        of_id = {key: distinct.setdefault(w, w) for key, w in zip(objects, ints)}
        return scale, tuple(of_id[id(v)] for v in self.vectors)

    def radius(self) -> Fraction:
        """The largest norm of a vector, read on the integer form."""
        scale, vectors = self.integer_form
        return Fraction(max((norm_eval(self.norm, v) for v in set(vectors)), default=0), scale)


@dataclass(frozen=True)
class RearrangementCertificate:
    permutation: tuple        # position -> original index, 0-based
    certified_bound: Fraction
    achieved_max: Fraction
    radius: Fraction


def _require_zero_sum(seq: VectorSequence):
    """The sum of the sequence, read on its integer form, is zero."""
    if any(map(sum, zip(*seq.integer_form[1]))):
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


def _check_point(cols, X, left, D, S):
    """The exact check of a chain point, X over D for the columns cols with
    left copies each: 0 <= X <= c D, V X = 0 and sum X = S D, with
    S = k-1-dim at step k; raises chain-start-point otherwise."""
    *coords, ones = (sum(map(mul, row, X)) for row in zip(*cols))
    if any(a < 0 or a > count * D for a, count in zip(X, left)) or any(coords) or \
            ones != S * D:
        raise PropertyViolation("chain-start-point", "chain point is not feasible")


def _order_chain(runs, dim) -> list:
    """The shrinking-chain construction for the zero-sum vectors in R^dim
    that the runs (vector, count) spell, as chunks (r, lo, hi).

    The chain runs over the distinct vectors v_i (the runs grouped by value,
    in order of first occurrence), each with its count c_i as an upper
    bound.  One integer state for the whole chain: the columns (L v_i, 1),
    with L the lcm of the entry denominators, and the point X over D in
    P_k = {sum_i X_i v_i = 0, sum X = (k-1-dim) D, 0 <= X <= c D}.  Step k
    (counted from 1) places one copy of a type at position k, of one whose
    point is at zero or has a gap c_i D - X_i >= D; the copies left number
    k, so the gaps add up to (dim+1) D.  Any checked point will do, vertex
    or not: with lambda = X/D and lambda_p <= c_p - 1, the prefix left is
    sum (c'_i - lambda_i) v_i, with weights >= 0 that add up to dim, so its
    norm is at most dim * radius.  A type whose copies are all placed
    takes its column with it.

    The chain has two phases.  Walk-free: the point is rescaled by
    (k-1-dim)/(k-dim) and checked exactly, and one copy of the first type
    at zero, else of the first with a unit gap (``_placeable``), takes
    position k.  A zero stays zero when the point is rescaled, so most steps
    place a copy this way; with every count 1 this is the LP of one column
    per vector and the first-zero drop.  At the first step with no such
    type, every type is within one copy of its count, and ``_pivot_steps``
    runs the rest of the chain on a kept basis that starts with every type
    at its count: each step lowers the sum by one, and dual pivots with
    Bland's rule, which cannot cycle, restore a basic feasible point, where
    a type to place always exists (the nonbasic types sit at 0 or at their
    count, and the gaps add up to dim+1).  Its placement rule differs: the
    type whose copy leaves the smallest next prefix.

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
        _check_point(cols, X, left, D, k - 1 - dim)
        p = _placeable(X, left, D)
        if p is None:
            live, left = _pivot_steps(k, dim, cols, live, left, drops)
            break
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


def _closest(live, X, D, count, P, col):
    """Among the types of live (X over D, count their copies left) at zero
    or with a unit gap, the one whose copy leaves the smallest prefix
    P - v, in squared Euclidean norm on the integer vectors, the first on
    ties; raises chain-zero-coordinate when there is none."""
    best = None
    for t, a in zip(live, X):
        if a == 0 or a <= (count[t] - 1) * D:
            key = sum((x - y) ** 2 for x, y in zip(P, col[t]))
            if best is None or key < best[0]:
                best = key, t
    if best is None:
        raise PropertyViolation("chain-zero-coordinate",
                                "point without a zero coordinate or a unit gap; "
                                "descent invariant broken")
    return best[1]


def _positive_step(T, t, q, delta) -> int:
    """One ``_bareiss_step`` of T on row q; when the new delta is negative,
    T and delta are negated, so that delta > 0 and T over delta still
    holds the basis inverse and the basic values."""
    delta = _bareiss_step(T, t, q, delta)
    if delta < 0:
        for row in T:
            row[:] = [-a for a in row]
    return abs(delta)


def _pivot_steps(k, dim, cols, live, left, drops) -> tuple:
    """Steps k..dim+1 of ``_order_chain`` from its first step without a type
    to place, appending the types placed to drops; returns (live, left) at
    the end.  cols are the columns of the types live, with left copies each.

    The chain keeps a basis from step to step: delta > 0 and T, delta times
    the inverse of the basis over the R = dim+1 rows.  Its basics are types
    and unit columns, held as artificial basics fixed at 0 (so a
    rank-deficient input and a basic type that runs out need no second
    path); every other type is nonbasic, at 0 or at its count.  Each row of
    T carries one more entry, T r with r = b - A_N x_N: the basic values
    over delta.  The start is T = I and delta = 1, every type at its
    count: the rescaled point, with no type to place, has each type within
    one copy of its count.

    Each step restores feasibility by dual-simplex pivots, each one
    ``_bareiss_step``: the violated basic of lowest index leaves at the
    bound it crossed, an artificial (indexed by its basis position, which
    it keeps until it leaves) before any type, and the eligible nonbasic
    type of lowest index enters, one whose move takes the leaving value
    back toward its bound.  The costs are zero, so every basis is dual
    feasible and every pivot dual degenerate, and with Bland's rule the
    pivots cannot cycle (Bland 1977): each step ends at a basic feasible
    point.  There is one, the rescaled point, so a violated basic without
    an entering type is a bug, chain-dual-infeasible.  The point is checked
    by ``_check_point``.  A basic feasible point has a type to place: one at
    zero, or else every nonbasic type is at its count, with gap 0, so the
    gaps, which add up to dim+1, lie on at most dim+1 basic types, and one
    has a gap of at least 1.  The step places the type that ``_closest``
    picks and lowers the right-hand side of the sum row by one, which moves
    the basic values by -T e_R.  A basic type that runs out is at 0, and its
    row is pivoted onto the first unit column e_i with T[q][i] != 0, an
    artificial, which leaves the point as it is."""
    R = dim + 1
    col = dict(zip(live, cols))
    count = dict(zip(live, left))
    P = [sum(count[t] * col[t][i] for t in live) for i in range(dim)]
    # every row on its unit column and every type at its count; the copies
    # left number k, so the sum row's value is k-1-dim - k
    T = [[int(i == q) for i in range(R)] + [-a] for q, a in enumerate([*P, R])]
    delta = 1
    basic = [None] * R                # None: an artificial
    pos = {}
    upper = set(live)
    while True:
        while True:
            # the violated basics, an artificial off 0 keyed before every type
            viol = [(-1 if t is None else t, q) for q, t in enumerate(basic)
                    if (T[q][R] if t is None else not 0 <= T[q][R] <= count[t] * delta)]
            if not viol:
                break
            q = min(viol)[1]
            out = basic[q]
            high = T[q][R] > (0 if out is None else count[out] * delta)
            j = next((j for j in live if j not in pos and
                      _moves_back(sum(map(mul, T[q], col[j])), high, j in upper)), None)
            if j is None:
                raise PropertyViolation("chain-dual-infeasible",
                                        "a violated basic has no entering type; "
                                        "the chain polytope cannot be empty")
            t = [sum(map(mul, row, col[j])) for row in T]
            if j in upper:
                upper.discard(j)
                for row, ti in zip(T, t):
                    row[R] += count[j] * ti
            if out is not None:
                del pos[out]
                if high:
                    upper.add(out)
                    T[q][R] -= delta * count[out]
            delta = _positive_step(T, t, q, delta)
            basic[q], pos[j] = j, q
        # the start point of step k, read from the basis
        X = [T[pos[t]][R] if t in pos else count[t] * delta * (t in upper) for t in live]
        _check_point([col[t] for t in live], X, [count[t] for t in live], delta, k - 1 - dim)
        p = _closest(live, X, delta, count, P, col)
        drops.append(p)
        count[p] -= 1
        P = [x - y for x, y in zip(P, col[p])]
        if not count[p]:
            q = pos.pop(p, None)
            if q is not None:
                i = next(i for i in range(R) if T[q][i])
                delta = _positive_step(T, [row[i] for row in T], q, delta)
                basic[q] = None
            live.remove(p)
        k -= 1
        if k == dim:
            return live, [count[t] for t in live]
        for row in T:                  # the sum row's right-hand side drops by one
            row[R] -= row[dim]


def _moves_back(a: int, high: bool, at_count: bool) -> bool:
    """Whether a nonbasic type with row entry a = T_q a_j can move a basic
    value that is above its bound (high) or below it back toward that bound:
    the value falls by a / delta per unit the type rises, so from 0 up when
    a has the violation's sign, and from its count down when it has the
    other."""
    return a != 0 and ((a > 0) == high) != at_count


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


def _certificate(seq: VectorSequence, order, dim: int, name: str, message: str):
    """The certificate of order with bound dim * radius, read on the
    sequence's integer form: the prefix maximum of the vectors L*v at the
    run ends, and the radius, each divided by L once."""
    scale, vectors = seq.integer_form
    radius = seq.radius()
    achieved = Fraction(_max_prefix_runs(_run_encode(vectors[i] for i in order), seq.dim,
                                         seq.norm), scale)
    if achieved > dim * radius:
        raise PropertyViolation(name, message)
    return RearrangementCertificate(order, dim * radius, achieved, radius)


def steinitz_rearrange(seq: VectorSequence) -> RearrangementCertificate:
    """Order a zero-sum sequence so every prefix has norm <= dim * radius.
    The zero-sum check, the chain and the certificate run on the integer
    form."""
    _require_zero_sum(seq)
    return _certificate(seq, rearrangement_order(seq.integer_form[1], seq.dim), seq.dim,
                        "steinitz-prefix-bound",
                        "prefix bound dim * radius violated; construction is broken")


def subspace_rearrange(seq: VectorSequence) -> RearrangementCertificate:
    """Like steinitz_rearrange but certified against the span dimension.

    The vectors are mapped through a coordinate bijection onto the span of
    the input, rearranged there, and the certificate is stated in the
    ambient norm with bound dim(span) * radius.  The span coordinates of the
    integer form are those of the input: one elimination scales both to the
    same integer rows.
    """
    _require_zero_sum(seq)
    r, coords = span_coordinates(seq.integer_form[1])
    order = tuple(range(len(seq))) if r == 0 else rearrangement_order(coords, r)
    return _certificate(seq, order, r, "subspace-prefix-bound",
                        "subspace prefix bound dim(V) * radius violated")
