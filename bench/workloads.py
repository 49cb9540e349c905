"""The benchmark's workloads: seeded inputs, the operations run on them, and
an independent check of every answer.

Each build_* function takes the loaded ``steinitz`` modules and a seed and
returns a list of tasks.  A task runs one user operation (or, for
``verify``, one CLI invocation) and returns a list of Record.  Operations
call the program through module attributes at call time, so the tracer's
rebinding reaches them.  The checks recompute norms, prefix sums and H z
from the inputs with their own exact arithmetic, not with the program's
routines.
"""

from __future__ import annotations

import math
import os
import time
from collections import namedtuple
from fractions import Fraction

from calibrate import kernel_seconds

# One executed operation: its kind, wall seconds, whether it and its check
# succeeded, its canonical answer (digested), and the calibration kernel's
# time measured right before it.
Record = namedtuple("Record", "kind seconds ok answer kernel")

# certify: (d, m, norm, generator denominator) per steinitz_rearrange call
REARRANGE_SPECS = ((2, 40, "linf", 16), (3, 60, "l1", 1024), (5, 30, "linf", 1024),
                   (2, 70, "l1", 1024), (3, 35, "linf", 16), (5, 50, "l1", 16))
# certify: (n, m) per adversarial family; n > 40 forces the balanced route
COLORFUL_SPECS = ((64, 3), (80, 3), (48, 4), (56, 3))
SINGLESUM_FAMILIES = 4          # each d=3, n=6, m=12, every k in 0..12
# reduce: n of each lifted (1,1,1,1,n) instance scaled past xi
REDUCE_NS = (2, 3) * 4
PIPELINE_ROUNDS = 14            # instances per PIPELINE_SHAPES entry
# lattice: shapes of the proximity/solve instances, and of the Graver runs
LATTICE_SHAPES = ((1, 1, 1, 1, 3), (1, 1, 1, 1, 3), (1, 1, 1, 1, 4), (1, 1, 1, 1, 3),
                  (1, 1, 1, 1, 3), (1, 1, 1, 2, 2), (1, 1, 1, 1, 3)) * 2 + \
                 ((1, 1, 1, 1, 3), (1, 1, 1, 1, 3), (1, 1, 1, 1, 4), (1, 1, 1, 1, 3),
                  (1, 1, 1, 1, 3), (1, 1, 1, 2, 2), (1, 1, 1, 1, 5))
GRAVER_SHAPES = ((1, 1, 1, 1, 3), (1, 1, 1, 2, 2), (1, 1, 1, 1, 3), (1, 1, 1, 1, 3))
GRAVER_BOX = 3
# verify: one CLI invocation per offset; two, because the CLI's work varies
# with its seed (the colorful-balanced suite alone by up to a factor of three)
VERIFY_SEED_OFFSETS = (0, 10_000)
# each round repeats the lists above on fresh seeds
ROUNDS = {"certify": 3, "reduce": 2, "lattice": 3}

WORKLOADS = ("certify", "reduce", "lattice", "verify")


def _op(kind, run, check):
    """Task that times run() and checks its answer outside the timing."""
    def task():
        kernel = kernel_seconds()
        t0 = time.perf_counter()
        try:
            answer = run()
        except Exception as exc:  # a raised exception is a failed operation
            return [Record(kind, time.perf_counter() - t0, False,
                           f"{kind} raised {type(exc).__name__}: {exc}", kernel)]
        elapsed = time.perf_counter() - t0
        try:
            canonical = check(answer)
            ok = True
        except Exception as exc:  # noqa: BLE001 - a failed check, reported
            ok, canonical = False, f"{kind} check failed: {type(exc).__name__}: {exc}"
        return [Record(kind, elapsed, ok, canonical, kernel)]
    return task


def _require(cond, what):
    if not cond:
        raise ValueError(what)


# ---------------------------------------------------------------------------
# independent arithmetic


def _norm(name, v):
    return max((abs(x) for x in v), default=Fraction(0)) if name == "linf" \
        else sum((abs(x) for x in v), Fraction(0))


def _is_perm(perm, m):
    return sorted(perm) == list(range(m))


def _h_times(inst, z):
    """H z for a 4-block instance, assembled from the blocks."""
    t0, t, n = inst.t0, inst.t, inst.n
    x, y = z[:t0], z[t0:]
    out = []
    for r in range(inst.s0):
        acc = sum(a * b for a, b in zip(inst.A0.row(r), x))
        for i in range(n):
            acc += sum(a * b for a, b in zip(inst.C[i].row(r), y[i * t:(i + 1) * t]))
        out.append(acc)
    for i in range(n):
        for r in range(inst.s):
            out.append(sum(a * b for a, b in zip(inst.B[i].row(r), x)) +
                       sum(a * b for a, b in zip(inst.A[i].row(r), y[i * t:(i + 1) * t])))
    return out


def _integral(v):
    return all(Fraction(a).denominator == 1 for a in v)


def _check_feasible(inst, z):
    _require(_integral(z), "point is not integral")
    bounds = tuple(inst.ux) + tuple(inst.uy)
    _require(all(0 <= a and (u is None or a <= u) for a, u in zip(z, bounds)),
             "point leaves the bounds")
    _require(_h_times(inst, z) == list(inst.b), "H z != b")


def _objective(inst, z):
    return sum((Fraction(c) * a for c, a in zip(tuple(inst.cx) + tuple(inst.cy), z)),
               Fraction(0))


def _check_kernel_vector(inst, vector, pt):
    z = tuple(vector[0]) + tuple(vector[1])
    _require(any(a != 0 for a in z), "reduced vector is zero")
    _require(_integral(z), "reduced vector is not integral")
    _require(all(a >= 0 for a in z), "reduced vector is negative")
    _require(all(a == 0 for a in _h_times(inst, z)), "reduced vector not in ker H")
    _require(all(a <= b for a, b in zip(z, tuple(pt.x) + tuple(pt.y))),
             "reduced vector not below the point")
    return z


def _gen_retry(st, shape, delta, seed, **kw):
    """gen_four_block, redrawn under a shifted seed when a draw is empty."""
    for sub in range(50):
        try:
            return st.generate.gen_four_block(*shape, delta, seed + 131 * sub, **kw)
        except st.generate.GenerationError:
            continue
    raise RuntimeError(f"no instance for shape {shape} at seed {seed}")


# ---------------------------------------------------------------------------
# certify


def _rearrange_op(st, seq, norm):
    d, m = seq.dim, len(seq.vectors)

    def check(cert):
        perm = cert.permutation
        _require(_is_perm(perm, m), "permutation is not a bijection")
        prefix = [Fraction(0)] * d
        best = Fraction(0)
        for idx in perm:
            prefix = [a + b for a, b in zip(prefix, seq.vectors[idx])]
            best = max(best, _norm(norm, prefix))
        radius = max(_norm(norm, v) for v in seq.vectors)
        _require(best == cert.achieved_max, "achieved_max differs from the prefix maximum")
        _require(best <= d * radius, "prefix maximum exceeds dim * radius")
        return f"rearrange d={d} m={m} perm={list(perm)} max={best}"
    return _op("rearrange", lambda: st.rearrange.steinitz_rearrange(seq), check)


def _colorful_op(st, fam):
    d, n, m = fam.dim, fam.colors, fam.length

    def check(cert):
        perms = cert.permutations
        _require(len(perms) == n and all(_is_perm(p, m) for p in perms),
                 "a permutation is not a bijection")
        prefix = [Fraction(0)] * d
        best = Fraction(0)
        for k in range(m):
            for j in range(n):
                prefix = [a + b for a, b in zip(prefix, fam.vectors[j][perms[j][k]])]
            best = max(best, _norm("linf", prefix))
        _require(best == cert.achieved_max, "achieved_max differs from the prefix maximum")
        _require(best <= min(n * d, 40 * d ** 5), "joint prefix exceeds min(nd, 40d^5)")
        return f"colorful n={n} m={m} route={cert.route} perms={[list(p) for p in perms]}"
    return _op("colorful", lambda: st.colorful.colorful_rearrange(fam), check)


def _singlesum_op(st, fam, k, norm):
    d, n, m = fam.dim, fam.colors, fam.length

    def check(sel):
        sets = sel.index_sets
        _require(len(sets) == n, "one index set per color")
        _require(all(len(set(s)) == k == len(s) and all(0 <= i < m for i in s)
                     for s in sets), "index sets do not all have size k")
        acc = [Fraction(0)] * d
        for j, s in enumerate(sets):
            for i in s:
                acc = [a + b for a, b in zip(acc, fam.vectors[j][i])]
        value = _norm(norm, acc)
        _require(value == sel.achieved, "achieved differs from the selected sum")
        _require(value <= d, "selected sum exceeds d")
        return f"singlesum k={k} sets={[list(s) for s in sets]}"
    return _op("singlesum", lambda: st.colorful.single_partial_sum(fam, k), check)


def _spread(heavy, light):
    """The heavy tasks in order, with the light ones spread evenly between."""
    tasks = []
    for i, op in enumerate(heavy):
        tasks.append(op)
        tasks.extend(light[i * len(light) // len(heavy):(i + 1) * len(light) // len(heavy)])
    return tasks


def _round_seeds(seed, rounds):
    """Disjoint seed ranges of width 1000, one per round."""
    return [seed * 10_000 + r * 1000 for r in range(rounds)]


def build_certify(st, seed):
    norms = {"linf": st.norms.LINF_NORM, "l1": st.norms.L1_NORM}
    tasks = []
    for base in _round_seeds(seed, ROUNDS["certify"]):
        heavy = []
        for i, (d, m, norm, denom) in enumerate(REARRANGE_SPECS):
            seq = st.generate.gen_zero_sum_sequence(d, m, norms[norm], base + i, denom)
            heavy.append(_rearrange_op(st, seq, norm))
            if i < len(COLORFUL_SPECS):
                n, m = COLORFUL_SPECS[i]
                fam = st.generate.gen_adversarial_scalar_family(n, m, base + 100 + i)
                heavy.append(_colorful_op(st, fam))
        light = []
        for i in range(SINGLESUM_FAMILIES):
            norm = ("linf", "l1")[i % 2]
            fam = st.generate.gen_zero_sum_family(3, 6, 12, norms[norm], base + 200 + i)
            light.extend(_singlesum_op(st, fam, k, norm) for k in range(13))
        tasks.extend(_spread(heavy, light))
    return tasks


# ---------------------------------------------------------------------------
# reduce


def _reduce_op(kind, inst, run):
    """run() returns the point it reduced and the outcome."""
    def check(answer):
        pt, out = answer
        if max(tuple(pt.x) + tuple(pt.y)) > out.constants.xi:
            _require(out.vector is not None, "no kernel vector although ||pt|| > xi")
        b = out.bundle
        total = [sum(col, Fraction(0)) for col in zip(*b.p, b.q, b.r)]
        _require(all(a == 0 for a in total), "sum p + q + r != 0")
        if out.vector is None:
            return f"{kind} none psi={out.diagnostics['psi']} xi={out.constants.xi}"
        z = _check_kernel_vector(inst, out.vector, pt)
        return f"{kind} z={list(z)} psi={out.diagnostics['psi']} xi={out.constants.xi}"
    return _op(kind, run, check)


def _reduce_past_xi(blockip, inst, pt, c):
    """Reduce c * pt, doubling c until the point lies past its own xi.  xi
    comes from the decomposition of the point, so it moves with the scale;
    the retries are part of the operation, as in the verify reduce suite."""
    for _ in range(6):
        big = blockip.KernelPoint(tuple(c * v for v in pt.x), tuple(c * v for v in pt.y))
        out = blockip.reduce_kernel_point(inst, big)
        if max(tuple(big.x) + tuple(big.y)) > out.constants.xi:
            return big, out
        c *= 2
    raise RuntimeError("could not scale the point past xi")


def build_reduce(st, seed):
    blockip = st.blockip
    shapes = st.verify.PIPELINE_SHAPES
    tasks = []
    for base in _round_seeds(seed, ROUNDS["reduce"]):
        heavy = []
        for j, n in enumerate(REDUCE_NS):
            inst, pt = _gen_retry(st, (1, 1, 1, 1, n), 1, base + j, zero_a0=True, scale=8)
            _, consts = blockip.decompose_bundle(inst, pt)
            c = math.ceil(consts.xi / max(tuple(pt.x) + tuple(pt.y))) + 1
            heavy.append(_reduce_op("reduce", inst, lambda inst=inst, pt=pt, c=c:
                                    _reduce_past_xi(st.blockip, inst, pt, c)))
        light = []
        for r in range(PIPELINE_ROUNDS):
            for i, shape in enumerate(shapes):
                inst, pt = _gen_retry(st, shape, 1, base + 100 + r * len(shapes) + i,
                                      zero_a0=True, scale=24)
                light.append(_reduce_op("pipeline", inst, lambda inst=inst, pt=pt:
                                        (pt, st.blockip.reduce_kernel_point(inst, pt))))
        tasks.extend(_spread(heavy, light))
    return tasks


# ---------------------------------------------------------------------------
# lattice


def _lattice_ops(st, inst):
    report = {}

    def prox_check(rep):
        _require(rep.lp_status == "optimal" and rep.ip_feasible, "instance not feasible")
        nearest = rep.nearest_optimal_ip
        _check_feasible(inst, nearest)
        dist = max(abs(a - b) for a, b in zip(rep.lp_vertex, nearest))
        _require(dist == rep.distance_inf, "distance_inf differs from the recomputed distance")
        _require(dist <= rep.xi, "distance exceeds xi")
        report["rep"] = rep
        return f"proximity z={list(nearest)} dist={dist} xi={rep.xi}"

    def solve_run():
        return st.blockip.solve_four_block(inst, math.ceil(report["rep"].xi))

    def solve_check(sol):
        _require(sol is not None, "solver found no point")
        x, y, value = sol
        z = tuple(x) + tuple(y)
        _check_feasible(inst, z)
        _require(_objective(inst, z) == value, "value differs from c.z")
        _require(value == _objective(inst, report["rep"].nearest_optimal_ip),
                 "value differs from the optimum of the proximity report")
        return f"solve z={list(z)} value={value}"

    def prox_run():
        report.pop("rep", None)
        return st.blockip.proximity_report(inst)

    return [_op("proximity", prox_run, prox_check), _op("solve", solve_run, solve_check)]


def _graver_op(st, inst, box):
    def check(basis):
        dim = inst.t0 + inst.n * inst.t
        for g in basis:
            _require(len(g) == dim and any(g) and all(-box <= a <= box for a in g),
                     "element outside the box or zero")
            _require(all(a == 0 for a in _h_times(inst, g)), "element not in ker H")
        for g in basis:
            for h in basis:
                if g != h and all(a * b >= 0 and abs(a) <= abs(b) for a, b in zip(h, g)):
                    raise ValueError("two elements are conformally comparable")
        return f"graver {sorted(tuple(g) for g in basis)}"
    return _op("graver", lambda: st.blockip.graver_enumerate(inst, box), check)


def build_lattice(st, seed):
    tasks = []
    for base in _round_seeds(seed, ROUNDS["lattice"]):
        heavy = []
        for i, shape in enumerate(GRAVER_SHAPES):
            inst, _ = _gen_retry(st, shape, 1, base + 500 + i, zero_a0=True)
            heavy.append(_graver_op(st, inst, GRAVER_BOX))
        light = []
        for i, shape in enumerate(LATTICE_SHAPES):
            inst, _ = _gen_retry(st, shape, 1, base + i)
            light.extend(_lattice_ops(st, inst))
        tasks.extend(_spread(heavy, light))
    return tasks


# ---------------------------------------------------------------------------
# verify


class _LineTimer:
    """Times each verify task, i.e. each report line, by wrapping the
    module's task runner, and runs the calibration kernel before each; the
    suite table itself is left to the tracer.  A line's kind is its suite."""

    def __init__(self, verify):
        self.times = []
        run_task = verify._run_task

        def timed(task):
            kernel = kernel_seconds()
            t0 = time.perf_counter()
            try:
                return run_task(task)
            finally:
                self.times.append((f"verify.{task[0]}", time.perf_counter() - t0, kernel))
        verify._run_task = timed


def _verify_task(st, timer, seed, path):
    argv = ["verify", "--suite", "all", "--seed", str(seed), "--workers", "1",
            "--output", path]

    def task():
        timer.times = []
        if os.path.exists(path):
            os.remove(path)
        kernel = kernel_seconds()
        try:
            code = st.cli.main(argv)
            with open(path, "rb") as fh:
                report = fh.read()
        except Exception as exc:
            return [Record("verify", sum(t for _, t, _ in timer.times), False,
                           f"verify raised {type(exc).__name__}: {exc}", kernel)]
        lines = report.decode().splitlines()
        if len(lines) != len(timer.times):
            return [Record("verify", sum(t for _, t, _ in timer.times), False,
                           f"verify printed {len(lines)} lines for {len(timer.times)} tasks",
                           kernel)]
        records = [Record(kind, sec, code == 0 and line.startswith("ok"), line, k)
                   for (kind, sec, k), line in zip(timer.times, lines)]
        if code != 0:
            records.append(Record("verify", 0.0, False, f"verify exit code {code}", kernel))
        return records
    return task


def build_verify(st, seed, out_dir):
    timer = _LineTimer(st.verify)
    return [_verify_task(st, timer, seed + off, os.path.join(out_dir, f"verify-{seed + off}.txt"))
            for off in VERIFY_SEED_OFFSETS]


def build(name, st, seed, out_dir):
    if name == "certify":
        return build_certify(st, seed)
    if name == "reduce":
        return build_reduce(st, seed)
    if name == "lattice":
        return build_lattice(st, seed)
    return build_verify(st, seed, out_dir)
