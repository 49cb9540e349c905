"""Zero-sum sequence rearrangement with certified prefix-sum bounds.

The core construction maintains a shrinking chain of multisets over the
distinct vectors, each with its number of copies as the upper bound of
its coordinate (``_order_chain``).  It needs only some point, not a
vertex, of each shrinking polytope.  At first it holds none: on a zero-sum
input the counts scaled to the step lie in the polytope, and a count test
picks the vector to place.  From the first step with none, it pivots a
``linalg.DualBasis`` to a basic feasible point at each step, where a
counting argument guarantees a vector to place; a violation of that
guarantee is a bug and raises.  It runs on integers and builds no LP per
step; the pivot phase's point is checked exactly at every step, and one
exact check of the input's sum covers every point of the first phase.

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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, compress
from operator import is_not, itemgetter, sub

from .checks import PropertyViolation
from .linalg import DualBasis, Vec, ZERO, scale_to_integers, span_coordinates
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


def _order_chain(runs, dim) -> list:
    """The shrinking-chain construction for the zero-sum vectors in R^dim
    that the runs (vector, count) spell, as chunks (r, lo, hi).

    The chain runs over the distinct vectors v_i (the runs grouped by value,
    in order of first occurrence), each with its count c_i as an upper
    bound, on the columns (L v_i, 1), with L the lcm of the entry
    denominators.  Step k (counted from 1) places at position k one copy of
    a type whose value in some point lambda of
    P_k = {sum_i lambda_i v_i = 0, sum lambda = S, 0 <= lambda <= c'},
    with S = k-1-dim and c' the copies left, is zero or has a gap
    c'_i - lambda_i >= 1; the copies left number k, so the gaps add up to
    dim+1.  Any point will do, vertex or not: with lambda_p <= c'_p - 1, the
    prefix left is sum (c'_i - lambda_i) v_i, with weights >= 0 that add up
    to dim, so its norm is at most dim * radius.  A type whose copies are
    all placed takes its column with it.

    The chain has two phases.  Walk-free: lambda = c S / m, with c the
    counts at the start, and the chain holds no point.  lambda lies in
    every P_k of this phase: V lambda = (S/m) V c = 0 on a zero-sum input
    (``_order_runs`` checks the sum once, which covers every step, as each
    point is a positive multiple of c), sum lambda = S, and the bounds
    c_t S <= c'_t m hold by induction from the placement rule.  They hold
    at the first step (S < m, c' = c); step k places one copy of the first
    type with c_p S <= (c'_p - 1) m, which is c_p (S-1) <= c'_p m at the
    next step, and every other c_t S only falls.  No type is at zero
    before S = 0, where every type passes the test and the first one is
    placed; a type's last copy can leave only there, at the last step, so
    no column leaves in this phase.  At the first step with no type to
    place, (c'_t - 1) m < c_t S <= c'_t m: every type is within one copy of
    its count, and ``_pivot_steps`` runs the rest of the chain from every
    type at its count.

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
    live, left = list(range(len(counts))), list(counts)
    drops = []
    for k in range(m, dim, -1):
        S = k - 1 - dim
        p = next((p for p, c in enumerate(counts) if c * S <= (left[p] - 1) * m), None)
        if p is None:
            live, left = _pivot_steps(k, dim, [(*v, 1) for v in types], live, left, drops)
            break
        drops.append(p)
        left[p] -= 1
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


def _pivot_steps(k, dim, cols, live, left, drops) -> tuple:
    """Steps k..dim+1 of ``_order_chain`` from its first step without a type
    to place, appending the types placed to drops; returns (live, left) at
    the end.  cols are the columns of every type, by index, and the types
    live have left copies each.

    The chain keeps one ``DualBasis`` over the R = dim+1 rows, the types
    its columns with their copies left as bounds, from every type at its
    count and every row on its unit column.  Each step restores a basic
    feasible point; there is one (c S / m at the first step, the last
    point times S / (S+1) after), so chain-dual-infeasible is a bug, and
    the point is checked exactly (chain-start-point).  It has a type to
    place: one at zero, or else the nonbasic types sit at their counts, so
    the gaps, which add up to dim+1, lie on at most dim+1 basic types, and
    one is at least 1.  The step places the type that ``_closest`` picks
    and lowers the sum row's right-hand side by one; a type that runs out
    is at 0 and leaves the basis."""
    count = dict(zip(live, left))
    P = [sum(count[t] * cols[t][i] for t in live) for i in range(dim)]
    # every type at its count; the copies left number k, so the sum row's
    # value is k-1-dim - k
    basis = DualBasis(cols, count, live, [-a for a in (*P, dim + 1)], set(live))
    while True:
        delta, X = basis.restore("chain-dual-infeasible")
        if not basis.holds(delta, X, (0,) * dim + (k - 1 - dim,)):
            raise PropertyViolation("chain-start-point", "chain point is not feasible")
        p = _closest(live, X, delta, count, P, cols)
        drops.append(p)
        count[p] -= 1
        P = [x - y for x, y in zip(P, cols[p])]
        if not count[p]:
            basis.leave(p)             # which drops p from live, its order
        k -= 1
        if k == dim:
            return live, [count[t] for t in live]
        basis.shift(dim, -1)


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
    from one run form one chunk.  A sequence longer than dim must sum to
    zero: the one exact check of the chain's walk-free points, whose
    violation is chain-start-point in every dimension."""
    m = sum(count for _, count in runs)
    if m <= dim:
        return [(r, 0, count) for r, (_, count) in enumerate(runs)]
    if any(_run_sum(runs, dim)):
        raise PropertyViolation("chain-start-point", "chain point is not feasible")
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
