"""Batch property verification for the CLI.

Each suite turns (seed, count) into a deterministic list of report lines;
a line starts with "ok" or "FAIL".  The lines are computed one after
another in one process, in input order, so output bytes depend only on the
suite parameters.

Every failed check, a bad draw included, raises a named PropertyViolation,
which the FAIL line names and python -O does not remove.  The suites' own
exact work runs on integers and once: the graver and reduce kernel scans
test the box points on the int rows of H, the colorful-balanced suite
reads the balance's row bound and history from its certificate, and the
singlesum suite asks its oracle once per pair k, m - k.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .linalg import linf_norm, rank_of_vectors, vscale
from .lp import enum_integer_points
from .norms import L1_NORM, LINF_NORM
from .rearrange import max_prefix_norm, steinitz_rearrange, subspace_rearrange
from .colorful import colorful_affine, colorful_rearrange, single_partial_sum
from .oracles import BudgetExceeded, brute_ilp, brute_rearrange_optimum, brute_single_sum
from .generate import (GenerationError, gen_adversarial_scalar_family, gen_four_block,
                       gen_rank_deficient_sequence, gen_unit_family, gen_zero_sum_family,
                       gen_zero_sum_sequence)
from .checks import PropertyViolation
from .blockip import (KernelPoint, conformal_leq, decompose_bundle, graver_enumerate,
                      proximity_report, reduce_kernel_point, solve_four_block)


def _check(cond, name: str):
    """Raise PropertyViolation(name) unless cond holds; unlike assert, it
    is not removed under python -O."""
    if not cond:
        raise PropertyViolation(name)


def _norm_for(idx):
    return LINF_NORM if idx % 2 == 0 else L1_NORM


def _gen_pipeline_instance(idx: int, seed: int, shapes, delta_choices=(1, 2),
                           scale=None):
    """Deterministic instance for pipeline suites, skipping empty draws."""
    shape = shapes[idx % len(shapes)]
    delta = delta_choices[idx % len(delta_choices)]
    sub = 0
    while True:
        try:
            return gen_four_block(*shape, delta, seed * 10_000 + idx * 100 + sub,
                                  zero_a0=True, scale=scale)
        except GenerationError:
            sub += 1
            if sub > 50:
                raise


PIPELINE_SHAPES = ((1, 1, 1, 1, 2), (1, 1, 1, 2, 2), (2, 1, 1, 2, 3),
                   (1, 1, 2, 2, 2), (2, 1, 2, 2, 4), (1, 2, 1, 2, 2))


def suite_steinitz(seed: int, idx: int):
    d = 1 + idx % 5
    m = 5 + (seed + idx * 7) % 36
    seq = gen_zero_sum_sequence(d, m, _norm_for(idx), seed * 1000 + idx)
    cert = steinitz_rearrange(seq)
    _check(cert.radius <= 1, "steinitz-radius")
    _check(cert.achieved_max <= d * cert.radius, "steinitz-bound")
    _check(cert.achieved_max == max_prefix_norm(seq, cert.permutation), "steinitz-achieved")
    return f"ok steinitz[{idx}] d={d} m={m} achieved={cert.achieved_max}"


def suite_steinitz_oracle(seed: int, idx: int):
    d = 1 + idx % 3
    m = 4 + idx % 5
    seq = gen_zero_sum_sequence(d, m, _norm_for(idx), seed * 1000 + idx)
    cert = steinitz_rearrange(seq)
    opt = brute_rearrange_optimum(seq)
    _check(opt <= cert.achieved_max <= d, "steinitz-oracle-bound")
    return f"ok steinitz-oracle[{idx}] d={d} m={m} opt={opt} achieved={cert.achieved_max}"


def suite_colorful(seed: int, idx: int):
    d = 1 + idx % 3
    n = 1 + idx % 8
    m = 2 + idx % 9
    fam = gen_zero_sum_family(d, n, m, _norm_for(idx), seed * 1000 + idx)
    cert = colorful_rearrange(fam)
    bound = min(n * d, 40 * d ** 5)
    _check(cert.achieved_max <= bound, "colorful-bound")
    for perm in cert.permutations:
        _check(sorted(perm) == list(range(m)), "colorful-permutation")
    return f"ok colorful[{idx}] d={d} n={n} m={m} route={cert.route} achieved={cert.achieved_max}"


def suite_colorful_balanced(seed: int, idx: int):
    """n > 40 forces the balanced route; its one balance_rows run, inside
    colorful_rearrange, hands the certificate its history and row bound."""
    n = 50 if idx % 2 == 0 else 100
    m = 3 + idx % 4
    fam = gen_adversarial_scalar_family(n, m, seed * 1000 + idx)
    cert = colorful_rearrange(fam)
    history = cert.phase1_history or ()
    _check(history and history[-1][0] <= 40, "balanced-row-bound")
    for prev, cur in zip(history, history[1:]):
        _check(cur < prev, "balanced-history-decreasing")
    _check(cert.achieved_max <= min(n, 40), "balanced-bound")
    _check(cert.phase1_row_bound is not None and cert.phase1_row_bound <= 40,
           "balanced-phase1-row-bound")
    return (f"ok colorful-balanced[{idx}] n={n} m={m} iters={len(history) - 1} "
            f"rowbound={cert.phase1_row_bound} achieved={cert.achieved_max}")


def suite_affine(seed: int, idx: int):
    d = 1 + idx % 3
    n = 1 + idx % 5
    m = 2 + idx % 7
    fam = gen_unit_family(d, n, m, _norm_for(idx), seed * 1000 + idx)
    cert = colorful_affine(fam)
    bound = min(n * d, 40 * d ** 5)
    _check(cert.achieved_max <= 2 * bound, "affine-bound")
    return (f"ok affine[{idx}] d={d} n={n} m={m} achieved={cert.achieved_max} "
            f"tight_bound_met={cert.tight_bound_met}")


SINGLESUM_SIZES = ((2, 8), (3, 6), (4, 5), (5, 4))


def suite_singlesum(seed: int, idx: int):
    """Every k = 0..m against the brute-force optimum.  The family sums to
    zero, so complementing every color's index set negates the joint sum:
    the optimum at m - k is the one at k, and the oracle runs for k <= m - k
    only (None past its budget, which then holds for both k of the pair)."""
    d = 1 + idx % 4
    n, m = SINGLESUM_SIZES[idx % len(SINGLESUM_SIZES)]
    fam = gen_zero_sum_family(d, n, m, _norm_for(idx), seed * 1000 + idx)
    worst = Fraction(0)
    optima = {}
    for k in range(m + 1):
        sel = single_partial_sum(fam, k)
        _check(all(len(I) == k for I in sel.index_sets), "singlesum-set-size")
        _check(sel.achieved <= d, "singlesum-bound")
        worst = max(worst, sel.achieved)
        if k <= m - k:
            try:
                optima[k] = brute_single_sum(fam, k)
            except BudgetExceeded:
                optima[k] = None
        opt = optima[min(k, m - k)]
        _check(opt is None or opt <= sel.achieved, "singlesum-oracle")
    return f"ok singlesum[{idx}] d={d} n={n} m={m} worst={worst}"


def suite_subspace(seed: int, idx: int):
    d = 2 + idx % 4
    r = 1 + idx % (d - 1) if d > 2 else 1
    m = 6 + idx % 10
    seq = gen_rank_deficient_sequence(d, r, m, seed * 1000 + idx)
    cert = subspace_rearrange(seq)
    span = rank_of_vectors(seq.vectors)
    _check(cert.certified_bound == span * cert.radius, "subspace-certified-bound")
    _check(cert.achieved_max <= span * cert.radius, "subspace-bound")
    return f"ok subspace[{idx}] d={d} span={span} m={m} achieved={cert.achieved_max}"


def suite_pipeline(seed: int, idx: int):
    inst, pt = _gen_pipeline_instance(idx, seed, PIPELINE_SHAPES, scale=24)
    out = reduce_kernel_point(inst, pt)
    diag = out.diagnostics
    return (f"ok pipeline[{idx}] shape=({inst.s0},{inst.s},{inst.t0},{inst.t},{inst.n}) "
            f"delta={inst.delta} psi={diag['psi']} dimV={diag['dim_v']} "
            f"found={out.vector is not None}")


def _box_kernel(inst, lower, upper):
    """The nonzero integer points of the box [lower, upper] with H z = 0, in
    enumeration order: every point of the box is tested on the int rows of
    H, independently of the library's pruned enumeration."""
    H = inst.integer_form.H
    return (z for z in enum_integer_points(lower, upper, predicate=any)
            if not any(sum(map(mul, row, z)) for row in H))


def suite_reduce(seed: int, idx: int):
    """A planted kernel point scaled past xi reduces to a kernel vector, and
    the box below its radius holds a nonzero kernel point (the first one of
    _box_kernel is the witness)."""
    inst, pt = _gen_pipeline_instance(idx, seed, ((1, 1, 1, 1, 2), (1, 1, 1, 1, 3)),
                                      delta_choices=(1,))
    z = tuple(pt.x) + tuple(pt.y)
    _check(linf_norm(z) != 0, "reduce-nonzero-point")
    _, consts = decompose_bundle(inst, pt)
    c = math.ceil(consts.xi / linf_norm(z)) + 1
    for _ in range(6):
        big = KernelPoint(vscale(pt.x, c), vscale(pt.y, c))
        out = reduce_kernel_point(inst, big)
        if linf_norm(tuple(big.x) + tuple(big.y)) > out.constants.xi:
            break
        c *= 2
    else:
        raise PropertyViolation("reduce-past-xi", "could not scale past xi")
    _check(out.vector is not None, "reduce-found")
    # independent existence check below the found vector's radius
    found = tuple(out.vector[0]) + tuple(out.vector[1])
    cap = int(linf_norm(found))
    upper = tuple(min(math.floor(v), cap) for v in tuple(big.x) + tuple(big.y))
    witness = next(_box_kernel(inst, (0,) * len(upper), upper), None)
    _check(witness is not None, "reduce-witness")
    return (f"ok reduce[{idx}] xi={out.constants.xi} psi={out.diagnostics['psi']} "
            f"norm={linf_norm(tuple(big.x) + tuple(big.y))}")


def suite_graver(seed: int, idx: int):
    """Against the box kernel that _box_kernel scans: each element of
    graver_enumerate's basis is conformally minimal in it, and each other
    kernel point has a smaller kernel point conformally below it."""
    inst, _ = _gen_pipeline_instance(idx, seed, ((1, 1, 1, 1, 2),), delta_choices=(1,))
    box = 4
    basis = graver_enumerate(inst, box)
    dim = inst.x_dim + inst.y_dim
    kernel = list(_box_kernel(inst, (-box,) * dim, (box,) * dim))
    for g in basis:
        _check(not any(h != g and conformal_leq(h, g) for h in kernel), "graver-minimal")
    for h in kernel:
        if h not in basis:
            _check(any(g != h and conformal_leq(g, h) for g in kernel), "graver-complete")
    return f"ok graver[{idx}] box={box} size={len(basis)}"


def _feasible_instance(seed_base: int, seed: int, idx: int):
    """(instance, proximity report) for the first of at most 50 seeded draws
    whose IP is feasible and whose LP relaxation has an optimum."""
    for sub in range(50):
        try:
            inst, _ = gen_four_block(1, 1, 1, 1, 2 + idx % 2, 1,
                                     seed * seed_base + idx * 100 + sub)
        except GenerationError:
            continue
        rep = proximity_report(inst)
        if rep.ip_feasible and rep.lp_status == "optimal":
            return inst, rep
    raise PropertyViolation("feasible-instance", "no feasible instance found")


def suite_solve(seed: int, idx: int):
    inst, rep = _feasible_instance(10_000, seed, idx)
    opt = brute_ilp(inst)
    sol = solve_four_block(inst, math.ceil(rep.xi))
    _check(sol is not None and opt is not None, "solve-feasible")
    _check(sol[2] == opt[1], "solve-optimal")
    return f"ok solve[{idx}] value={sol[2]} radius_xi={math.ceil(rep.xi)}"


def suite_proximity(seed: int, idx: int):
    _, rep = _feasible_instance(20_000, seed, idx)
    _check(rep.distance_inf <= rep.xi, "proximity-bound")
    return f"ok proximity[{idx}] dist={rep.distance_inf} xi={rep.xi}"


SUITES = {
    "steinitz": suite_steinitz,
    "steinitz-oracle": suite_steinitz_oracle,
    "colorful": suite_colorful,
    "colorful-balanced": suite_colorful_balanced,
    "affine": suite_affine,
    "singlesum": suite_singlesum,
    "subspace": suite_subspace,
    "pipeline": suite_pipeline,
    "reduce": suite_reduce,
    "graver": suite_graver,
    "solve": suite_solve,
    "proximity": suite_proximity,
}

DEFAULT_COUNTS = {
    "steinitz": 8, "steinitz-oracle": 6, "colorful": 8, "colorful-balanced": 2,
    "affine": 6, "singlesum": 4, "subspace": 6, "pipeline": 6, "reduce": 2,
    "graver": 4, "solve": 4, "proximity": 4,
}


def _run_task(task):
    suite, seed, idx = task
    try:
        return SUITES[suite](seed, idx)
    except Exception as exc:  # noqa: BLE001 - reported as a FAIL line
        name = getattr(exc, "name", type(exc).__name__)
        return f"FAIL {suite}[{idx}] {name}: {exc}"


def run_suites(names, seed: int, count: int | None = None):
    """Run the named suites in this process; returns (lines, all_ok)."""
    if count is not None and count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    tasks = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        c = count if count is not None else DEFAULT_COUNTS[name]
        tasks.extend((name, seed, idx) for idx in range(c))
    lines = [_run_task(t) for t in tasks]
    return lines, all(line.startswith("ok") for line in lines)
