"""Differential tests of the multiplicity-aware v-decomposition.

The ``_reference_*`` functions are ``decompose_u``, ``decompose_v``,
``decompose_bundle`` and ``reduce_kernel_point`` as they were before the
extraction moved to integer vertex masses and the C-images, kernel
pairings, reassembly sums and offsets were computed once per distinct
vertex in int.  They do the same work once per piece over Fraction and are
kept here as the oracle: on every seeded instance the library must return
equal bundles, constants and outcomes, or raise a PropertyViolation of the
same name.  The feasible bases, basis vertices and cone rays they use are
the same functions as they were before a block basis carried its vertex
map: a determinant test and a separate solve for every vertex and every
cone row.  The colorful order of the v-pieces comes from the pre-change
``Fraction`` colorful_affine in ``colorful_reference.py``, not from the
library's integer core, the convex weights from a ``Fraction`` BoxLP solved
by the ``Fraction`` simplex of ``simplex_reference.py``, not from the
library's integer LPs, and ``_reference_decompose_u`` extracts one piece
per enumeration, not by counts.  The reference peels each ray's part from
the weights of a second convex LP over the vertices at the ray, where the
library carries the weights of the block's one LP at x.
"""

import copy
import dataclasses
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from steinitz import blockip, rearrange
from steinitz.blockip import (DecompositionBundle, KernelPoint, PropertyViolation, ReduceOutcome,
                              _leaves_tube_runs, _require_pipeline_ready, compute_constants,
                              decompose_x, kernel_bound, minimal_kernel_below)
from steinitz.cli import main
from steinitz.colorful import ColoredFamily
from steinitz.fileio import read_fourblock, read_point, write_point
from steinitz.generate import GenerationError, gen_four_block
from steinitz.lp import BoxLP, extreme_rays, lp_solve
from steinitz.linalg import (Matrix, ONE, ZERO, det, is_integer_vec, l1_norm, lcm_abs_dets,
                             linf_norm, rank_of_vectors, solve_linear, vadd, vscale, vsub)
from steinitz.norms import LINF_NORM
from steinitz.rearrange import rearrangement_order
from steinitz.verify import PIPELINE_SHAPES

import simplex_reference
from chain_reference import order_chain
from colorful_reference import colorful_affine


def _reference_decompose_u(inst, u_hat):
    """u = u0 + sum of alpha0 small integer kernel vectors, the integer
    pieces ordered so their C-images stay near the proportional line."""
    K = kernel_bound(inst)
    pieces = []
    residuals = []
    for i in range(inst.n):
        res = list(inst.y_block(u_hat, i))
        if any(x < 0 for x in res):
            raise ValueError("u must be nonnegative")
        if any(x != 0 for x in inst.A[i].mul_vec(tuple(res))):
            raise ValueError("u is not in the kernel of the diagonal blocks")
        while l1_norm(tuple(res)) > K:
            wbar = minimal_kernel_below(inst.integer_form.A[i], tuple(res), K)
            if wbar is None:
                raise PropertyViolation("kernel-extraction",
                                        "no small kernel vector below a large residual")
            res = [a - b for a, b in zip(res, wbar)]
            padded = [0] * (inst.n * inst.t)
            padded[i * inst.t:(i + 1) * inst.t] = list(wbar)
            pieces.append(tuple(padded))
        residuals.extend(res)
    u0 = tuple(residuals)
    alpha0 = len(pieces)

    c_images = [inst.apply_C(p) for p in pieces]
    if alpha0 >= 2:
        q = tuple(sum(col, ZERO) for col in zip(*c_images))
        mean = vscale(q, Fraction(1, alpha0))
        deviations = [vsub(ci, mean) for ci in c_images]
        order = rearrangement_order(deviations, inst.s0)
        pieces = [pieces[i] for i in order]
        c_images = [c_images[i] for i in order]

    # certified bounds of the u-decomposition
    if alpha0 < Fraction(linf_norm(u_hat), K) - 1:
        raise PropertyViolation("u-layer-count", "alpha0 < ||u||_inf / K - 1")
    for p in pieces:
        if l1_norm(p) > K:
            raise PropertyViolation("u-piece-norm", "an integer piece exceeds the l1 cap")
    if l1_norm(u0) > inst.n * K or linf_norm(u0) > K:
        raise PropertyViolation("u-remainder-norm", "remainder norm bound failed")
    if alpha0 >= 1:
        q = tuple(sum(col, ZERO) for col in zip(*c_images))
        cap_iv = Fraction(inst.s0 * 2 * inst.delta * K)
        prefix = [ZERO] * inst.s0
        for k, ci in enumerate(c_images, start=1):
            for r in range(inst.s0):
                prefix[r] += ci[r]
            dev = tuple(prefix[r] - Fraction(k, alpha0) * q[r] for r in range(inst.s0))
            if linf_norm(dev) > cap_iv:
                raise PropertyViolation("u-prefix-tube", "ordered C-prefix left the certified tube")
    return u0, tuple(pieces)


def _reference_feasible_bases(Ai, Bi, x_hat):
    """(cols, D) for every invertible s x s column submatrix D of Ai with
    -D^{-1} Bi x_hat >= 0, in lexicographic column order."""
    rhs = Bi.mul_vec(x_hat)
    out = []
    for cols in combinations(range(Ai.cols), Ai.rows):
        D = Ai.column_submatrix(cols)
        if det(D) != 0 and all(-x >= 0 for x in solve_linear(D, rhs)):
            out.append((cols, D))
    return out


def _reference_basis_vertex(basis, Bi, x, t):
    """The point supported on the basis columns with Ai y = -Bi x."""
    cols, D = basis
    w = solve_linear(D, Bi.mul_vec(x))
    y = [ZERO] * t
    for r, c in enumerate(cols):
        y[c] = -w[r]
    return tuple(y)


def _reference_cone_rays_K(inst, x_hat, bases_x):
    """Extreme rays of {x >= 0 : -D^{-1} B^i x >= 0 for all feasible
    bases D}, scaled into gamma Z^{t0}; returns (rays, omega2, gamma)."""
    rows = [list(Matrix.identity(inst.t0).row(r)) for r in range(inst.t0)]
    for i in range(inst.n):
        for _, D in bases_x[i]:
            cols = [solve_linear(D, inst.B[i].col(c)) for c in range(inst.t0)]
            for r in range(inst.s):
                rows.append([-cols[c][r] for c in range(inst.t0)])
    ineqs = Matrix.from_rows(rows)
    for r in range(ineqs.rows):
        if sum((ineqs.at(r, c) * x_hat[c] for c in range(inst.t0)), ZERO) < 0:
            raise PropertyViolation("x-in-cone", "x violates a cone inequality")
    gamma = lcm_abs_dets(inst.A, inst.s, entry_bound=inst.delta)
    rays = [tuple(gamma * x for x in r) for r in extreme_rays(ineqs)]
    omega2 = max((linf_norm(r) for r in rays), default=ZERO)
    return tuple(rays), omega2, gamma


def _reference_convex_combo(vertices, target, support_cap, prop):
    """Convex coefficients over the given points reproducing target with
    bounded support, found as a vertex by phase 1."""
    k = len(vertices)
    tdim = len(target)
    if k == 0:
        raise PropertyViolation(prop, "no candidate vertices")
    rows = [[v[r] for v in vertices] for r in range(tdim)]
    rows.append([ONE] * k)
    lp = BoxLP(Matrix.from_rows(rows), tuple(target) + (ONE,),
               (ZERO,) * k, (None,) * k)
    vertex = simplex_reference.find_feasible(lp)  # a vertex, as no variable is free
    if vertex is None:
        raise PropertyViolation(prop, "convex decomposition infeasible")
    combo = {i: c for i, c in enumerate(vertex) if c != 0}
    if len(combo) > support_cap:
        raise PropertyViolation(prop, f"support {len(combo)} exceeds {support_cap}")
    return combo


def _reference_decompose_v(inst, lambdas, hs, v_hat, omega2, bases_x):
    """Split v into per-ray parts and extract integer pieces per part.

    Returns (v0_per_ell, vseq_per_ell, alphas) where
    vseq_per_ell[ell][j] are stacked integer vectors ordered so that the
    C-image prefixes stay inside the certified tube."""
    s, t, t0, n = inst.s, inst.t, inst.t0, inst.n
    ell_count = len(lambdas)
    Xv = Fraction(inst.delta ** (s + 1) * s ** s * t0) * omega2
    CXv = inst.delta * Xv

    if ell_count == 0:
        if any(x != 0 for x in v_hat):
            raise PropertyViolation("maximality-zero-v", "x = 0 but v != 0")
        return (), (), ()

    x_hat = tuple(
        sum((lam * h[c] for lam, h in zip(lambdas, hs)), ZERO) for c in range(t0))

    # per block: convex multipliers over the vertices of {y >= 0 : A y = -B x}
    v_parts = [[None] * ell_count for _ in range(n)]  # v_parts[i][ell] : t-dim
    for i in range(n):
        vi = inst.y_block(v_hat, i)
        verts = [_reference_basis_vertex(fb, inst.B[i], x_hat, t) for fb in bases_x[i]]
        mu = _reference_convex_combo(verts, vi, t + 1, "v-convex-decomposition")
        for ell, (lam, h) in enumerate(zip(lambdas, hs)):
            acc = [ZERO] * t
            for k, coef in mu.items():
                yk = _reference_basis_vertex(bases_x[i][k], inst.B[i], h, t)
                for r in range(t):
                    acc[r] += coef * yk[r]
            part = tuple(lam * v for v in acc)
            if any(v < 0 for v in part):
                raise PropertyViolation("v-part-nonneg", "a v part left the orthant")
            v_parts[i][ell] = part
        recon = tuple(sum(v_parts[i][ell][r] for ell in range(ell_count)) for r in range(t))
        if recon != vi:
            raise PropertyViolation("v-part-reconstruction", "v parts do not sum back")

    span = t - s + 1
    alphas = []
    for lam in lambdas:
        alphas.append(math.floor(lam - (t - s)) if lam >= span else 0)

    v0_per_ell = []
    vseq_per_ell = []
    for ell, (lam, h) in enumerate(zip(lambdas, hs)):
        a_ell = alphas[ell]
        seq_blocks = [[] for _ in range(n)]
        rem_blocks = []
        for i in range(n):
            fbs = _reference_feasible_bases(inst.A[i], inst.B[i], h)
            verts = [_reference_basis_vertex(fb, inst.B[i], h, t) for fb in fbs]
            for v in verts:
                if not is_integer_vec(v):
                    raise PropertyViolation("vertex-integrality",
                                            "gamma scaling failed to make a vertex integer")
                if l1_norm(v) > Xv:
                    raise PropertyViolation("v-piece-norm", "vertex l1 norm exceeds the cap")
            w = list(v_parts[i][ell])
            if a_ell > 0:
                target = tuple(x / lam for x in w)
                tau = _reference_convex_combo(verts, target, span, "vertex-support")
                beta = lam
                for j in range(a_ell):
                    dbar = max(tau, key=lambda idx: (tau[idx], -idx))
                    if tau[dbar] < Fraction(1, span) or tau[dbar] * beta < 1:
                        raise PropertyViolation("vertex-weight",
                                                "no vertex carries enough weight")
                    piece = verts[dbar]
                    w = [a - b for a, b in zip(w, piece)]
                    if any(x < 0 for x in w):
                        raise PropertyViolation("extraction-nonneg", "extraction overshot")
                    seq_blocks[i].append(tuple(int(x) for x in piece))
                    if j < a_ell - 1:
                        tau = {idx: (c * beta - (ONE if idx == dbar else ZERO)) / (beta - 1)
                               for idx, c in tau.items()}
                        tau = {idx: c for idx, c in tau.items() if c != 0}
                        beta -= 1
            if l1_norm(tuple(w)) > span * Xv:
                raise PropertyViolation("v-remainder-norm", "v remainder exceeds its l1 cap")
            rem_blocks.append(tuple(w))
        # stack per-block remainders / pieces into R^{nt}
        v0 = tuple(x for blk in rem_blocks for x in blk)
        v0_per_ell.append(v0)

        if a_ell > 0:
            # order the pieces jointly across blocks
            scaled = tuple(
                tuple(tuple(x / CXv for x in inst.C[i].mul_vec(v)) for v in seq_blocks[i])
                for i in range(n))
            fam = ColoredFamily(inst.s0, n, a_ell, scaled, LINF_NORM)
            cert = colorful_affine(fam)
            stacked = []
            for j in range(a_ell):
                parts = []
                for i in range(n):
                    parts.extend(seq_blocks[i][cert.permutations[i][j]])
                stacked.append(tuple(parts))
            vseq_per_ell.append(tuple(stacked))
        else:
            vseq_per_ell.append(())

    # exact prefix check of the ordered C-images
    cap_ix = Fraction(40 * inst.s0 ** 5) * CXv
    for ell, seq in enumerate(vseq_per_ell):
        a_ell = alphas[ell]
        if a_ell < 1:
            continue
        p_ell = [ZERO] * inst.s0
        images = [inst.apply_C(vv) for vv in seq]
        for im in images:
            for r in range(inst.s0):
                p_ell[r] += im[r]
        prefix = [ZERO] * inst.s0
        for k, im in enumerate(images, start=1):
            for r in range(inst.s0):
                prefix[r] += im[r]
            dev = tuple(prefix[r] - Fraction(k, a_ell) * p_ell[r] for r in range(inst.s0))
            if linf_norm(dev) > cap_ix:
                raise PropertyViolation("v-prefix-tube", "ordered C-prefix left the certified tube")

    # kernel pairing and the layer-count bound
    for ell, (lam, h) in enumerate(zip(lambdas, hs)):
        for j, vv in enumerate(vseq_per_ell[ell]):
            for i in range(n):
                lhs = inst.A[i].mul_vec(inst.y_block(vv, i))
                rhs = inst.B[i].mul_vec(h)
                if any(a + b != 0 for a, b in zip(lhs, rhs)):
                    raise PropertyViolation("v-piece-kernel", "(h, v) is not in ker [B A]")
            if any(x < 0 for x in vv) or not is_integer_vec(vv):
                raise PropertyViolation("v-piece-kernel", "piece not a nonnegative integer vector")
    if omega2 > 0:
        if sum(alphas) < Fraction(linf_norm(x_hat)) / omega2 - t0 * (t - s + 2):
            raise PropertyViolation("v-layer-count", "too few extracted layers")
    return tuple(v0_per_ell), tuple(vseq_per_ell), tuple(alphas)


def _reference_decompose_bundle(inst, pt):
    """Run the full decomposition pipeline; returns (bundle, constants).

    Every certified property is asserted exactly along the way; a failure
    raises PropertyViolation naming the property.
    """
    _require_pipeline_ready(inst)
    pt.check(inst)
    u_hat, v_hat = blockip.split_max_kernel(inst, pt)
    u0, u_seq = _reference_decompose_u(inst, u_hat)
    bases_x = [_reference_feasible_bases(inst.A[i], inst.B[i], pt.x) for i in range(inst.n)]
    rays_all, omega2, gamma = _reference_cone_rays_K(inst, pt.x, bases_x)
    lambdas, hs = decompose_x(pt.x, rays_all)
    v0s, vseqs, alphas = _reference_decompose_v(inst, lambdas, hs, v_hat, omega2, bases_x)

    # exact reassembly checks
    if vadd(u_hat, v_hat) != tuple(pt.y):
        raise PropertyViolation("split-reassembly", "u + v != y")
    acc = list(u0)
    for piece in u_seq:
        acc = [a + b for a, b in zip(acc, piece)]
    if tuple(acc) != tuple(u_hat):
        raise PropertyViolation("u-reassembly", "u0 + sum u_j != u")
    acc = [ZERO] * inst.y_dim
    for ell in range(len(lambdas)):
        for r, x in enumerate(v0s[ell]):
            acc[r] += x
        for piece in vseqs[ell]:
            for r, x in enumerate(piece):
                acc[r] += x
    if tuple(acc) != tuple(v_hat):
        raise PropertyViolation("v-reassembly", "sum of v pieces != v")

    p_vecs = []
    for ell in range(len(lambdas)):
        total = [ZERO] * inst.s0
        for piece in vseqs[ell]:
            im = inst.apply_C(piece)
            for r in range(inst.s0):
                total[r] += im[r]
        p_vecs.append(tuple(total))
    q = tuple(sum(col, ZERO) for col in zip(*[inst.apply_C(p) for p in u_seq])) \
        if u_seq else (ZERO,) * inst.s0
    r_vec = list(inst.apply_C(u0))
    for ell in range(len(lambdas)):
        im = inst.apply_C(v0s[ell])
        for rr in range(inst.s0):
            r_vec[rr] += im[rr]
    r_vec = tuple(r_vec)
    total = [ZERO] * inst.s0
    for vec_ in (*p_vecs, q, r_vec):
        for rr in range(inst.s0):
            total[rr] += vec_[rr]
    if any(x != 0 for x in total):
        raise PropertyViolation("zero-sum-Cy", "sum p + q + r != 0")

    bundle = DecompositionBundle(
        tuple(pt.x), tuple(pt.y), u_hat, v_hat, u0, u_seq, lambdas, hs, alphas,
        v0s, vseqs, tuple(p_vecs), q, r_vec, gamma, omega2)
    return bundle, compute_constants(inst, bundle)


def _reference_reduce(inst, pt):
    """Extract a nonzero integer kernel vector dominated by pt.

    Succeeds whenever ||pt||_inf > xi; may also succeed below that.
    Returns an outcome with vector=None plus diagnostics when no offset
    collision exists.
    """
    bundle, consts = _reference_decompose_bundle(inst, pt)
    s0 = inst.s0
    tags = []
    values = []
    for ell, a in enumerate(bundle.alphas):
        if a >= 1:
            val = vscale(bundle.p[ell], Fraction(1, a))
            for _ in range(a):
                tags.append(("p", ell))
                values.append(val)
    if bundle.alpha0 >= 1:
        val = vscale(bundle.q, Fraction(1, bundle.alpha0))
        for _ in range(bundle.alpha0):
            tags.append(("q",))
            values.append(val)
    tags.append(("r",))
    values.append(bundle.r)
    psi = len(values)
    if psi != consts.psi:
        raise AssertionError("psi bookkeeping mismatch")

    # order within the span, then force r to the last position
    distinct = {}
    for v in values:
        distinct.setdefault(v, None)
    basis = []
    for v in distinct:
        if any(x != 0 for x in v) and rank_of_vectors(basis + [v]) > len(basis):
            basis.append(v)
    rdim = len(basis)
    if rdim == 0:
        order = list(range(psi))
    else:
        bmat = Matrix.from_rows(basis).transpose()
        coord_of = {}
        for v in distinct:
            phi = solve_linear(bmat, v)
            if phi is None:
                raise AssertionError("psi-sequence element outside its span")
            coord_of[v] = phi
        coords = [coord_of[v] for v in values]
        order = list(rearrangement_order(coords, rdim))
    r_pos = order.index(psi - 1)
    order = order[:r_pos] + order[r_pos + 1:] + [psi - 1]

    cap_prefix = consts.omega3 * (consts.dim_v + 1)
    prefix = [ZERO] * s0
    for idx in order:
        for r in range(s0):
            prefix[r] += values[idx][r]
        if linf_norm(tuple(prefix)) > cap_prefix:
            raise PropertyViolation("prefix-omega3",
                                    "rearranged prefix left omega3 (dimV + 1) box")

    # offsets O_k with exact integer keys, k = 0 .. psi-1
    cum_v = []
    for ell in range(len(bundle.lambdas)):
        cums = [(ZERO,) * inst.y_dim]
        for piece in bundle.v_seq[ell]:
            cums.append(vadd(cums[-1], piece))
        cum_v.append(cums)
    cum_u = [(ZERO,) * inst.y_dim]
    for piece in bundle.u_seq:
        cum_u.append(vadd(cum_u[-1], piece))

    phi_counts = [0] * len(bundle.lambdas)
    mu_count = 0
    offset = [ZERO] * s0
    frac = [ZERO] * s0
    seen = {tuple(offset): 0}
    snapshots = [(tuple(phi_counts), 0)]
    collision = None
    for k in range(1, psi):
        tag = tags[order[k - 1]]
        if tag[0] == "p":
            ell = tag[1]
            phi_counts[ell] += 1
            piece = bundle.v_seq[ell][phi_counts[ell] - 1]
            im = inst.apply_C(piece)
        elif tag[0] == "q":
            mu_count += 1
            im = inst.apply_C(bundle.u_seq[mu_count - 1])
        else:
            raise AssertionError("r appeared before the last position")
        for r in range(s0):
            offset[r] += im[r]
            frac[r] += values[order[k - 1]][r]
        dev = tuple(o - f for o, f in zip(offset, frac))
        if linf_norm(dev) > consts.omega4:
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
    y = [ZERO] * inst.y_dim
    for ell in range(len(bundle.lambdas)):
        hi = cum_v[ell][phi_hi[ell]]
        lo = cum_v[ell][phi_lo[ell]]
        for r in range(inst.y_dim):
            y[r] += hi[r] - lo[r]
    for r in range(inst.y_dim):
        y[r] += cum_u[mu_hi][r] - cum_u[mu_lo][r]

    xv, yv = tuple(x), tuple(y)
    if all(v == 0 for v in xv) and all(v == 0 for v in yv):
        raise PropertyViolation("reduce-nonzero", "assembled vector is zero")
    if not (is_integer_vec(xv) and is_integer_vec(yv)):
        raise PropertyViolation("reduce-integral", "assembled vector is not integer")
    if any(v < 0 for v in xv) or any(v < 0 for v in yv):
        raise PropertyViolation("reduce-nonneg", "assembled vector left the orthant")
    if any(v != 0 for v in inst.H_matrix().mul_vec(xv + yv)):
        raise PropertyViolation("reduce-kernel", "assembled vector is not in ker H")
    if any(a > b for a, b in zip(xv, pt.x)) or any(a > b for a, b in zip(yv, pt.y)):
        raise PropertyViolation("reduce-dominated", "assembled vector is not below pt")
    return ReduceOutcome((xv, yv), bundle, consts, diagnostics)


# ---------------------------------------------------------------------------
# helpers


def _outcome(fn, *args):
    """fn's result, or the name of the PropertyViolation it raised."""
    try:
        return fn(*args)
    except PropertyViolation as e:
        return ("violation", e.name)


def _gen(shape, delta, seed, scale):
    for sub in range(50):
        try:
            return gen_four_block(*shape, delta, seed * 100 + sub, zero_a0=True, scale=scale)
        except GenerationError:
            continue
    raise AssertionError(f"no instance for {shape} at seed {seed}")


def _scaled(pt, c):
    return KernelPoint(tuple(c * v for v in pt.x), tuple(c * v for v in pt.y))


def _past_xi(inst, pt):
    """pt scaled past its own xi, as the benchmark's reduce operations do."""
    _, consts = _reference_decompose_bundle(inst, pt)
    c = math.ceil(consts.xi / linf_norm(tuple(pt.x) + tuple(pt.y))) + 1
    for _ in range(6):
        big = _scaled(pt, c)
        out = _reference_reduce(inst, big)
        if linf_norm(tuple(big.x) + tuple(big.y)) > out.constants.xi:
            return big, out
        c *= 2
    raise AssertionError("could not scale past xi")


def _assert_same_reduction(inst, pt):
    """The outcome holds the bundle and the constants, so this compares
    those too."""
    ref = _outcome(_reference_reduce, inst, pt)
    assert _outcome(blockip.reduce_kernel_point, inst, pt) == ref
    return ref


def _plus_slice_vertex(inst, pt, seed):
    """pt plus an optimal vertex of {H z = 0, z >= 0, sum z = sum pt} for a
    seeded objective: another nonnegative kernel point."""
    rng = random.Random(seed)
    H = inst.H_matrix()
    dim = H.cols
    rows = [list(H.row(r)) for r in range(H.rows)] + [[1] * dim]
    lp = BoxLP(Matrix.from_rows(rows), (ZERO,) * H.rows + (sum(pt.x) + sum(pt.y),),
               (ZERO,) * dim, (None,) * dim, tuple(Fraction(rng.randint(1, 7)) for _ in range(dim)))
    z = lp_solve(lp).x
    return KernelPoint(tuple(map(sum, zip(pt.x, z[:inst.t0]))),
                       tuple(map(sum, zip(pt.y, z[inst.t0:]))))


def _picked_vertices(bundle, inst):
    """Per ray and block, the number of distinct vertices among the pieces."""
    t = inst.t
    return [[len({piece[i * t:(i + 1) * t] for piece in seq}) for i in range(inst.n)]
            for seq in bundle.v_seq]


# ---------------------------------------------------------------------------
# same answers


@pytest.mark.parametrize("n", [2, 3])
def test_bench_points_past_xi_match_reference(n):
    for seed in range(2):
        inst, pt = _gen((1, 1, 1, 1, n), 1, 7000 + 10 * n + seed, scale=8)
        big, ref = _past_xi(inst, pt)
        assert ref.vector is not None
        assert blockip.reduce_kernel_point(inst, big) == ref


@pytest.mark.parametrize("shape", PIPELINE_SHAPES)
def test_pipeline_shapes_match_reference(shape):
    for seed in range(4):
        for delta, scale in ((1, 24), (2, 24), (1, 120)):
            inst, pt = _gen(shape, delta, 7100 + seed, scale)
            _assert_same_reduction(inst, pt)


def test_several_vertices_per_block_match_reference():
    """t > s: a block polytope has several vertices, so the argmax and its
    lowest-index tie-break choose among them.  A planted point is an LP
    vertex and its blocks usually sit on one polytope vertex, so the points
    here are sums of three LP vertices of the same slice."""
    multi = 0
    for shape in ((1, 1, 1, 2, 2), (1, 1, 1, 2, 3), (1, 1, 1, 3, 2), (2, 1, 2, 2, 2)):
        for seed in range(12):
            inst, pt = _gen(shape, 1, 7200 + seed, 24)
            for j in range(2):
                pt = _plus_slice_vertex(inst, pt, 7200 + 10 * seed + j)
            ref = _assert_same_reduction(inst, pt)
            if isinstance(ref, ReduceOutcome):
                multi += any(k > 1 for ks in _picked_vertices(ref.bundle, inst) for k in ks)
    assert multi >= 3


def test_several_rays_match_reference():
    """t0 >= 2: x splits over several cone rays, each peeled separately."""
    several = 0
    for shape in ((1, 1, 2, 2, 2), (2, 1, 2, 2, 2), (1, 1, 3, 2, 2), (1, 1, 2, 1, 3),
                  (1, 1, 2, 1, 2)):
        for seed in range(8):
            inst, pt = _gen(shape, 1, 7300 + seed, 24)
            for j in range(2):
                pt = _plus_slice_vertex(inst, pt, 7300 + 10 * seed + j)
            ref = _assert_same_reduction(inst, pt)
            if isinstance(ref, ReduceOutcome):
                several += sum(a > 0 for a in ref.bundle.alphas) >= 2
    assert several >= 3


@pytest.mark.parametrize("args", [
    (1, 2, 2, 4, 2, 1, 9097), (1, 2, 2, 4, 2, 1, 9130), (2, 1, 2, 2, 2, 1, 9201),
    (2, 1, 2, 3, 3, 2, 9142), (2, 2, 2, 3, 2, 1, 9128)])
def test_degenerate_vertices_at_a_ray_match_reference(args):
    """Instances where two bases have the same vertex at a ray, and the
    reference's per-ray LP puts the weight of that vertex on other bases
    than the library, which keeps the bases weighted at x: the pieces, and
    so the bundles, are the same."""
    inst, pt = gen_four_block(*args, zero_a0=True, scale=24)
    for c in (1, 7, 40):
        big = _scaled(pt, c)
        assert _outcome(blockip.decompose_bundle, inst, big) == \
            _outcome(_reference_decompose_bundle, inst, big)


def test_bases_with_one_vertex_pool_their_weights(monkeypatch):
    """On gen_four_block(2, 1, 2, 2, 2, 1, 9201) two bases weighted at x have
    the same vertex at a ray, the zero vector.  Their weights are pooled on
    one index, so the peel takes each vertex as one colour: at x400 the
    1,199 copies of that vertex are one run (800 runs when each basis kept
    its own weight, as the two alternated as the heaviest)."""
    peels = []
    real = blockip._peel_vertices

    def recorded(tau, lam, count, span, verts, w):
        runs, rem = real(tau, lam, count, span, verts, w)
        peels.append([verts[k] for k, _ in runs])
        return runs, rem

    monkeypatch.setattr(blockip, "_peel_vertices", recorded)
    inst, pt = gen_four_block(2, 1, 2, 2, 2, 1, 9201, zero_a0=True, scale=24)
    blockip.decompose_bundle(inst, _scaled(pt, 400))
    assert [(0, 0)] in peels
    assert all(a != b for peel in peels for a, b in zip(peel, peel[1:]))


def test_decompose_v_returns_the_bundles_v_parts():
    """decompose_v gives (v0 per ray, spelled pieces per ray, alphas), the
    bundle's v0, v_seq and alphas."""
    for k, shape in enumerate(PIPELINE_SHAPES):
        inst, pt = _gen(shape, 1, 7400 + k, 24)
        bases = _require_pipeline_ready(inst)
        bundle, _ = blockip.decompose_bundle(inst, pt)
        got = blockip.decompose_v(inst, bundle.lambdas, bundle.rays, bundle.v_hat, bundle.omega2,
                                  bases)
        assert got == (bundle.v0, bundle.v_seq, bundle.alphas)


def _calls(fn, *args):
    """fn(*args) and the number of calls it made, Python and C, counted as
    the call and c_call events of sys.setprofile."""
    events = 0

    def profile(frame, event, arg):
        nonlocal events
        events += event in ("call", "c_call")

    sys.setprofile(profile)
    try:
        out = fn(*args)
    finally:
        sys.setprofile(None)
    return out, events


def test_reduce_work_does_not_grow_with_the_point():
    """The bench-shaped point past xi by c and by 4c: alpha grows fourfold,
    but reduce_kernel_point carries the equal pieces as runs and makes
    exactly as many calls; at c and 2c it answers as the per-piece
    reference."""
    inst, pt = _gen((1, 1, 1, 1, 3), 1, 7020, scale=8)
    _, consts = blockip.decompose_bundle(inst, pt)
    size = linf_norm(tuple(pt.x) + tuple(pt.y))
    c = math.ceil(consts.xi / size) + 1
    while size * c <= blockip.reduce_kernel_point(inst, _scaled(pt, c)).constants.xi:
        c *= 2
    counts = []
    for k in (c, 4 * c):
        out, calls = _calls(blockip.reduce_kernel_point, inst, _scaled(pt, k))
        assert out.vector is not None
        counts.append((calls, out.diagnostics["psi"]))
    assert counts[0][0] == counts[1][0]
    assert counts[1][1] - 1 == 4 * (counts[0][1] - 1) >= 4 * 1000
    for k in (c, 2 * c):
        assert blockip.reduce_kernel_point(inst, _scaled(pt, k)) == \
            _reference_reduce(inst, _scaled(pt, k))


@pytest.mark.parametrize("args, scale", [((2, 1, 2, 3, 2, 1, 24), 240),
                                         ((1, 1, 2, 3, 2, 1, 24), 240),
                                         ((1, 2, 2, 4, 2, 1, 9097), 24)])
def test_decompose_bundle_solves_one_convex_lp_per_block(monkeypatch, args, scale):
    """decompose_bundle makes 2 n + 1 integer LPs: n block-kernel LPs, the
    conic LP of decompose_x and one convex LP per block, whose weights
    give every ray's part and peel; with a convex LP per ray and block that
    has pieces it made 9 here (7 at x1 on the last instance)."""
    calls = []
    real = blockip.integer_simplex
    monkeypatch.setattr(blockip, "integer_simplex", lambda *a: calls.append(1) or real(*a))
    inst, pt = gen_four_block(*args, zero_a0=True, scale=scale)
    for c in (1, 40):
        calls.clear()
        bundle, _ = blockip.decompose_bundle(inst, _scaled(pt, c))
        assert len(bundle.lambdas) == 2 and sum(bundle.alphas) > 0
        assert len(calls) == 2 * inst.n + 1 == 5


def _per_copy_chain(runs, dim):
    """rearrange._order_chain with one walk column per copy: the reference
    chain on the runs spelled out, one chunk per copy."""
    copies = [(r, j, j + 1) for r, (_, count) in enumerate(runs) for j in range(count)]
    return [copies[i] for i in order_chain([v for v, count in runs for _ in range(count)], dim)]


def test_s0_2_reduce_work_does_not_grow_with_the_point(monkeypatch):
    """The s0 = 2 point, whose colorful v order runs the chain on the
    recentred rows of its equal v pieces, at c and 4c: at every step of
    those chains a type passes the walk-free count test, so none enters the
    pivot phase, and the work stays flat as the point grows (with one walk
    per step it grew with the point, and with one column per copy with its
    square); at x10 it answers as the per-copy chain."""
    inst, pt = gen_four_block(2, 2, 2, 3, 2, 1, 0, zero_a0=True, scale=24)
    chain = rearrange._order_chain
    chains, pivoting = [], []

    def counted(runs, dim):
        chains.append(sum(count for _, count in runs) - dim)
        return chain(runs, dim)

    monkeypatch.setattr(rearrange, "_order_chain", counted)
    pivots = rearrange._pivot_steps
    monkeypatch.setattr(rearrange, "_pivot_steps",
                        lambda k, *args: pivoting.append(k) or pivots(k, *args))
    c, steps = 50, []
    for k in (c, 4 * c):
        chains.clear()
        assert blockip.reduce_kernel_point(inst, _scaled(pt, k)).vector is not None
        assert chains
        steps.append(sum(chains))
    # one chain of m = 24 k - 1 vectors at xk, m - dim steps, and no pivot
    assert steps == [24 * c - 3, 96 * c - 3], steps
    assert pivoting == []
    got = blockip.reduce_kernel_point(inst, _scaled(pt, 10))
    monkeypatch.setattr(rearrange, "_order_chain", _per_copy_chain)
    assert got == blockip.reduce_kernel_point(inst, _scaled(pt, 10))


# ---------------------------------------------------------------------------
# same violations


def _scaled_weights(combo, rng, n_vertices):
    return {k: c * Fraction(rng.randint(1, 12), 8) for k, c in combo.items()}


def _one_weight_full(combo, rng, n_vertices):
    return {**combo, rng.randrange(n_vertices): ONE}


def _zero_weight_added(combo, rng, n_vertices):
    return {**combo, rng.randrange(n_vertices): ZERO}


def _heaviest_only(combo, rng, n_vertices):
    heaviest = max(combo, key=combo.get)
    return {heaviest: combo[heaviest] * Fraction(3, 2)}


@pytest.mark.parametrize("perturb, expected", [
    (_scaled_weights, {"vertex-weight"}),
    (_one_weight_full, {"extraction-nonneg"}),
    (_zero_weight_added, set()),
    (_heaviest_only, {"extraction-nonneg"}),
])
def test_forced_extraction_failures_match_reference(monkeypatch, perturb, expected):
    """Perturbed convex weights make the extraction fail: too little weight
    on every vertex (vertex-weight), or a vertex peeled more often than w
    holds it (extraction-nonneg).  Keeping only the heaviest vertex at 3/2
    of its weight does both in one run: that vertex overshoots w first and
    fails the weight check later, and the overshoot is what is reported.
    The points are sums of LP vertices, so blocks have several vertices.
    The reference perturbs the weights of its per-ray LP, the library those
    that its peel receives, the block's weights at x on the vertices at the
    ray; they are the same weights, in the same order of vertex index."""
    real, real_reference = blockip._peel_vertices, _reference_convex_combo
    rng = random.Random(7400)

    def perturbed_reference(vertices, target, support_cap, prop):
        combo = real_reference(vertices, target, support_cap, prop)
        return perturb(combo, rng, len(vertices)) if prop == "vertex-support" else combo

    def perturbed(tau, lam, count, span, verts, w):
        # the library's weights are (den, integers); the perturbation is the
        # reference's, on the same weights as Fraction
        den, combo = tau
        combo = perturb({k: Fraction(a, den) for k, a in sorted(combo.items())}, rng, len(verts))
        den = math.lcm(*(c.denominator for c in combo.values()))
        return real((den, {k: int(c * den) for k, c in combo.items()}), lam, count, span, verts, w)

    monkeypatch.setattr(blockip, "_peel_vertices", perturbed)
    monkeypatch.setitem(globals(), "_reference_convex_combo", perturbed_reference)
    names = set()
    for shape in ((1, 1, 1, 2, 2), (1, 1, 1, 2, 3), (1, 1, 1, 3, 2), (2, 1, 2, 2, 2)):
        for seed in range(6):
            inst, pt = _gen(shape, 1, 7400 + seed, 24)
            for j in range(2):
                pt = _plus_slice_vertex(inst, pt, 7400 + 10 * seed + j)
            state = rng.getstate()
            ref = _outcome(_reference_decompose_bundle, inst, pt)
            rng.setstate(state)
            assert _outcome(blockip.decompose_bundle, inst, pt) == ref
            if isinstance(ref, tuple) and ref[0] == "violation":
                names.add(ref[1])
    assert expected <= names


def test_weighted_basis_infeasible_at_a_ray_is_vertex_support():
    """x = (8, 8) lies on the one cone ray (1, 1); written over the unit
    rays, which lie outside the cone, a basis weighted at x is infeasible
    at a ray, and decompose_v names it vertex-support."""
    inst, pt = gen_four_block(1, 2, 2, 3, 2, 1, 10, zero_a0=True, scale=24)
    bundle, _ = blockip.decompose_bundle(inst, pt)
    assert pt.x == (8, 8) and bundle.rays == ((1, 1),)
    with pytest.raises(PropertyViolation) as err:
        blockip.decompose_v(inst, (Fraction(8), Fraction(8)), ((1, 0), (0, 1)), bundle.v_hat,
                            bundle.omega2, _require_pipeline_ready(inst))
    assert err.value.name == "vertex-support"


def test_u_prefix_tube_same_verdicts(monkeypatch):
    """A deliberately bad order of the u pieces (sorted by their first
    C-image coordinate) leaves the tube on some instances; the integer check
    and the Fraction check agree on every one.  The library orders runs of
    equal pieces, so it gets the same bad order as chunks: the runs sorted
    by their value's first coordinate, each run whole (its copies are
    consecutive indices of one value)."""
    def sorted_order(vectors, dim):
        return sorted(range(len(vectors)), key=lambda j: (vectors[j][0], j))

    def sorted_runs(runs, dim):
        return [(r, 0, runs[r][1])
                for r in sorted(range(len(runs)), key=lambda r: (runs[r][0][0], r))]

    monkeypatch.setitem(globals(), "rearrangement_order", sorted_order)
    monkeypatch.setattr(blockip, "_order_runs", sorted_runs)
    verdicts = set()
    for shape in ((1, 1, 1, 2, 2), (1, 1, 1, 3, 2), (2, 1, 1, 2, 3)):
        for seed in range(6):
            inst, pt = _gen(shape, 2, 7500 + seed, 240)
            u_hat, _ = blockip.split_max_kernel(inst, pt)
            ref = _outcome(_reference_decompose_u, inst, u_hat)
            assert _outcome(blockip.decompose_u, inst, u_hat) == ref
            verdicts.add(ref == ("violation", "u-prefix-tube"))
    assert verdicts == {True, False}


def _runs(calls):
    """calls with each run of equal consecutive entries kept once."""
    return [c for k, c in enumerate(calls) if k == 0 or c != calls[k - 1]]


def test_decompose_u_enumerates_once_per_run(monkeypatch):
    """minimal_kernel_below runs once per run of equal pieces of a block,
    where the reference runs it once per piece: on the point
    gen_four_block(1, 2, 1, 3, 2, 1, 0, scale=24) scaled by 2000, whose
    23,963 pieces are one vector, once in place of 23,963 times."""
    real = minimal_kernel_below
    lib_calls, ref_calls = [], []

    def counting(record):
        def counted(Ai, w, cap):
            record.append((id(Ai), real(Ai, w, cap)))
            return record[-1][1]
        return counted

    monkeypatch.setattr(blockip, "minimal_kernel_below", counting(lib_calls))
    monkeypatch.setitem(globals(), "minimal_kernel_below", counting(ref_calls))
    inst, pt = gen_four_block(1, 2, 1, 3, 2, 1, 0, zero_a0=True, scale=24)
    points = [(inst, _scaled(pt, 2000))]
    for shape in ((1, 1, 1, 2, 2), (1, 1, 1, 3, 2), (2, 1, 1, 2, 3)):
        for seed in range(4):
            points.append(_gen(shape, 2, 7500 + seed, 240))
    for k, (inst, pt) in enumerate(points):
        u_hat, _ = blockip.split_max_kernel(inst, pt)
        lib_calls.clear()
        ref_calls.clear()
        got = _outcome(blockip.decompose_u, inst, u_hat)
        assert got == _outcome(_reference_decompose_u, inst, u_hat)
        assert lib_calls == _runs(ref_calls)
        if k == 0:
            assert len(got[1]) == len(ref_calls) == 23963 and len(lib_calls) == 1


@pytest.mark.parametrize("field,name", [("omega3", "prefix-omega3"),
                                        ("omega4", "omega4-deviation")])
def test_reduce_caps_same_verdicts(monkeypatch, field, name):
    """With omega3 or omega4 replaced by caps on a grid of sixths, the
    integer prefix and deviation checks of reduce_kernel_point, scaled by
    the lcm of the psi values, give the verdicts of the Fraction checks."""
    real = compute_constants
    points = [_gen(shape, 1, 7800 + seed, 24) for shape in PIPELINE_SHAPES for seed in range(2)]
    verdicts = set()
    for k in range(0, 25):
        def capped(inst, bundle, cap=Fraction(k, 6)):
            return dataclasses.replace(real(inst, bundle), **{field: cap})
        monkeypatch.setattr(blockip, "compute_constants", capped)
        monkeypatch.setitem(globals(), "compute_constants", capped)
        for inst, pt in points:
            ref = _assert_same_reduction(inst, pt)
            verdicts.add(ref[1] if isinstance(ref, tuple) else "passed")
    assert verdicts == {"passed", name}


def _fraction_leaves_tube(images, cap):
    m = len(images)
    total = [sum(col, ZERO) for col in zip(*images)]
    prefix = [ZERO] * len(total)
    for k, im in enumerate(images, start=1):
        for r, x in enumerate(im):
            prefix[r] += x
        if linf_norm(tuple(p - Fraction(k, m) * q for p, q in zip(prefix, total))) > cap:
            return True
    return False


def _leaves_tube(images, cap):
    return _leaves_tube_runs([(im, 1) for im in images], cap)


def test_leaves_tube_boundary_matches_fraction_check():
    """At a cap equal to the largest deviation the tube holds, just below
    it the tube is left, for integer and for rational caps."""
    rng = random.Random(7600)
    for _ in range(300):
        m, d = rng.randint(1, 9), rng.randint(1, 3)
        images = [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(m)]
        total = [sum(col) for col in zip(*images)]
        worst = max(abs(sum(im[r] for im in images[:k]) - Fraction(k, m) * total[r])
                    for k in range(1, m + 1) for r in range(d))
        for cap in (worst, worst - Fraction(1, 7 * m), worst + Fraction(1, 7 * m),
                    Fraction(math.floor(worst)), Fraction(math.ceil(worst))):
            if cap >= 0:
                assert _leaves_tube(images, cap) == _fraction_leaves_tube(images, cap)
        assert not _leaves_tube(images, worst)
        if worst > 0:
            assert _leaves_tube(images, worst - Fraction(1, 7 * m))


# ---------------------------------------------------------------------------
# the v-decomposition's image bound


def _image_fault(real):
    """_decompose_v on a copy of the instance whose C blocks are k times too
    large for its delta, k past CXv = delta^(s+2) s^s t0 omega2: every
    nonzero C-image of a vertex then exceeds the bound CXv that delta
    promises, while the vertices and their l1 caps stay as they are."""
    def faulty(inst, lambdas, hs, v_hat, omega2, bases):
        form = inst.integer_form
        k = math.ceil(inst.delta ** (inst.s + 2) * inst.s ** inst.s * inst.t0 * omega2) + 1
        bad = copy.copy(inst)
        object.__setattr__(bad, "integer_form", dataclasses.replace(
            form, C=tuple(tuple(tuple(k * a for a in row) for row in Ci) for Ci in form.C)))
        return real(bad, lambdas, hs, v_hat, omega2, bases)
    return faulty


# the seeded 3-block instance of the CI reduce step: its v order runs on 6 layers
IMAGE_ARGS = ["--s0", "1", "--s", "1", "--t0", "1", "--t", "1", "--n", "3", "--delta", "1",
              "--seed", "2", "--scale", "24", "--zero-a0"]


def test_v_image_norm_is_named(monkeypatch, tmp_path):
    inst, point = str(tmp_path / "inst"), str(tmp_path / "pt")
    assert main(["gen", "fourblock", *IMAGE_ARGS, "--output", inst, "--point-output", point]) == 0
    monkeypatch.setattr(blockip, "_decompose_v", _image_fault(blockip._decompose_v))
    four = read_fourblock(inst)
    with pytest.raises(PropertyViolation, match="v-image-norm") as err:
        blockip.reduce_kernel_point(four, read_point(point, four))
    assert err.value.name == "v-image-norm"
    # a property violation, so the CLI exits 1 (not 2, a usage error)
    assert main(["reduce", "--input", inst, "--point", point]) == 1


def test_v_image_norm_survives_python_O(tmp_path):
    inst, point = str(tmp_path / "inst"), str(tmp_path / "pt")
    assert main(["gen", "fourblock", *IMAGE_ARGS, "--output", inst, "--point-output", point]) == 0
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from test_decompose_v import _image_fault\n"
            "from steinitz import blockip\n"
            "from steinitz.fileio import read_fourblock, read_point\n"
            "inst = read_fourblock(sys.argv[2])\n"
            "blockip._decompose_v = _image_fault(blockip._decompose_v)\n"
            "try:\n"
            "    blockip.reduce_kernel_point(inst, read_point(sys.argv[3], inst))\n"
            "except blockip.PropertyViolation as exc:\n"
            "    print(exc.name)\n")
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(here.parent / "src"), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", code, str(here), inst, point], env=env,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert out == "v-image-norm\n"


# ---------------------------------------------------------------------------
# golden CLI output


# `steinitz reduce` on a seeded 3-block instance at a point 2.4x past its xi
# (12001 pieces), captured before the extraction moved to integer masses.
GOLDEN_REDUCE = """kind: reduce
found: yes
xi: 5031
psi: 12001
dim_v: 0
gamma: 1
omega1: 1
omega2: 1
omega3: 0
omega4: 46
omega5: 1674
x: 1
y: 0 0 1
"""


def test_cli_reduce_far_past_xi_golden(tmp_path):
    inst, point, big, out = (str(tmp_path / name) for name in ("inst", "pt", "big", "out"))
    assert main(["gen", "fourblock", "--s0", "1", "--s", "1", "--t0", "1", "--t", "1",
                 "--n", "3", "--delta", "1", "--seed", "6", "--zero-a0",
                 "--output", inst, "--point-output", point]) == 0
    pt = read_point(point, read_fourblock(inst))
    write_point(_scaled(pt, 3000), big)
    assert main(["reduce", "--input", inst, "--point", big, "--output", out]) == 0
    with open(out) as fh:
        assert fh.read() == GOLDEN_REDUCE
