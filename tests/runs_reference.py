"""The per-element loops that the run cores replaced, kept as the oracle of
the run-core tests.

``_order_dim1``, ``_peel_vertices``, ``_leaves_tube`` and
``max_prefix_norm`` below are the library's code from before it carried
repeated pieces as runs (value, count), verbatim but for the imports, and
for the ``trace`` list that ``_peel_vertices`` takes: it records the vertex
of every step, the failing one included, so a test can tell where in a run
of one vertex a check failed.  Each visits every copy of a repeated value.
"""

from __future__ import annotations

import math
from fractions import Fraction

from steinitz.blockip import PropertyViolation
from steinitz.linalg import ZERO, Vec
from steinitz.norms import norm_eval
from steinitz.rearrange import VectorSequence, prefix_sums


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


def max_prefix_norm(seq: VectorSequence, perm, drift: Vec | None = None) -> Fraction:
    """Exact max over k of || sum of the first k permuted vectors - k*drift ||."""
    if sorted(perm) != list(range(len(seq))):
        raise ValueError("perm is not a bijection on the sequence indices")
    return max((norm_eval(seq.norm, p) for p in prefix_sums(seq.vectors, perm, seq.dim, drift)),
               default=ZERO)


def _leaves_tube(images, cap) -> bool:
    """Whether a prefix sum of the integer vectors images leaves the tube
    |prefix_k - (k/m) total| <= cap around the proportional line, m =
    len(images).  Checked in integers, multiplied through by m:
    |m prefix_k - k total| <= floor(m cap)."""
    m = len(images)
    total = [sum(col) for col in zip(*images)]
    bound = math.floor(m * cap)
    prefix = [0] * len(total)
    for k, im in enumerate(images, start=1):
        for r, x in enumerate(im):
            prefix[r] += x
            if abs(m * prefix[r] - k * total[r]) > bound:
                return True
    return False


def _peel_vertices(tau, lam, count, span, verts, w, trace=None):
    """Peel count vertices off the block part w = lam sum_k tau_k verts[k].

    Each step takes the vertex of largest weight (the lowest index on a
    tie), then renormalises the weights over the lam - j units left.  The
    weights are kept as integer masses m_k = tau_k (lam - j) D, with D the
    common denominator of lam and the initial masses: the checks
    tau_k >= 1/span and tau_k (lam - j) >= 1 read m_k span >= (lam - j) D
    and m_k >= D, and a step subtracts D from m_k and from (lam - j) D.
    Returns the picked vertex indices in order and the remainder of w.

    The vertices are nonnegative, so w only decreases along the steps: it
    went negative at some step exactly when it is negative after the last
    one, or, on a failed weight check, after the steps taken before it."""
    masses = {k: c * lam for k, c in tau.items()}
    D = math.lcm(lam.denominator, *(m.denominator for m in masses.values()))
    mass = {k: int(m * D) for k, m in masses.items()}
    left = int(lam * D)
    counts = dict.fromkeys(mass, 0)
    picks = []

    def remainder():
        rem = list(w)
        for k, c in counts.items():
            if c:
                for r, x in enumerate(verts[k]):
                    rem[r] -= c * x
        if any(x < 0 for x in rem):
            raise PropertyViolation("extraction-nonneg", "extraction overshot")
        return tuple(rem)

    for _ in range(count):
        dbar = max(mass, key=lambda idx: (mass[idx], -idx))
        if trace is not None:
            trace.append(dbar)
        if mass[dbar] * span < left or mass[dbar] < D:
            remainder()
            raise PropertyViolation("vertex-weight", "no vertex carries enough weight")
        mass[dbar] -= D
        left -= D
        counts[dbar] += 1
        picks.append(dbar)
    return picks, remainder()
