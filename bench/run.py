"""The steinitz benchmark.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed, then runs them through the
library's public functions as a closed loop with one caller: each operation
starts when the previous one has returned.  The list of operations (a pass)
is sized to take about half of a 20-second run on the reference host and is
repeated while another pass still fits in the time.  Every answer is
checked independently; a failure is counted and the run goes on.

Each operation's time is scaled to the reference host speed by the
calibration kernel of calibrate.py, timed right before it.  An operation's
latency is the median over the passes of its scaled time; the end-to-end
metrics are medians, geometric means and percentiles over the operations of
a pass.  kind_gmean_ms, the latency with a bound in BENCHMARK.json, is the
geometric mean over the op kinds of the geometric mean of each kind's ops
(for verify, the kinds are its suites).

With ``--trace 1`` the first half of the time runs untraced passes and the
second half traced ones, and the result holds the per-layer metrics (see
tracer.py).  Every metric is printed as ``metric <name> <value> <unit>``;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
TAIL_LADDER = (50, 75, 90, 99, 99.9)
MODULES = (*tracing.LAYERS, "verify")
PROGRAM_MODULES = ("generate", "norms", "linalg", "lp", "rearrange", "colorful", "blockip",
                   "oracles", "verify", "cli")


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def machine(seed):
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "seed": seed}


# ---------------------------------------------------------------------------
# set-up: import the program from the checkout and build the inputs


class Program:
    """A fresh import of the steinitz modules, by short name."""

    def __init__(self):
        for key in [k for k in sys.modules if k == "steinitz" or k.startswith("steinitz.")]:
            del sys.modules[key]
        pkg = importlib.import_module("steinitz")
        if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
            fail(f"imported steinitz from {pkg.__file__}, not from {SRC}")
        for name in PROGRAM_MODULES:
            setattr(self, name, importlib.import_module(f"steinitz.{name}"))


def set_up(workload, seed):
    """Import and build the inputs SETUP_REPEATS times; returns the scaled
    set-up times and the last program and tasks.  A set-up lasts up to two
    seconds, over which the host speed drifts, so it is scaled by the kernel
    timed both before and after it."""
    def kernel():
        return statistics.median(calibrate.kernel_seconds() for _ in range(7))

    times = []
    for _ in range(SETUP_REPEATS):
        before = kernel()
        t0 = time.perf_counter()
        st = Program()
        tasks = workloads.build(workload, st, seed, OUT)
        elapsed = time.perf_counter() - t0
        times.append(elapsed * calibrate.REFERENCE_S / math.sqrt(before * kernel()))
    return times, st, tasks


# ---------------------------------------------------------------------------
# passes


class Pass:
    """One run over the task list: its records, each operation's time
    scaled by the kernel time measured right before it, and, when traced,
    the layers' self times and counts."""

    def __init__(self, wall, records, self_s=None, counts=None):
        self.wall = wall
        self.records = records
        self.self_s = self_s
        self.counts = counts
        self.kernel = statistics.median(r.kernel for r in records)
        self.scaled = [r.seconds * calibrate.REFERENCE_S / r.kernel for r in records]


def run_passes(tasks, until, tracer=None):
    """At least one pass, then more while the next would end before `until`
    (a perf_counter time), judged by the longest pass so far."""
    passes = []
    while True:
        gc.collect()
        records = []
        t0 = time.perf_counter()
        for i, task in enumerate(tasks):
            if tracer is not None:
                tracer.op = f"{len(passes)}.{i}"
            records.extend(task())
        wall = time.perf_counter() - t0
        if tracer is None:
            passes.append(Pass(wall, records))
        else:
            passes.append(Pass(wall, records, dict(tracer.self_s), dict(tracer.counts)))
            tracer.self_s.clear()
            tracer.counts.clear()
        longest = max(p.wall for p in passes)
        if time.perf_counter() + longest > until:
            return passes


def digest(records):
    h = hashlib.sha256()
    for rec in records:
        h.update(rec.answer.encode() + b"\n")
    return h.hexdigest()


def latencies(passes):
    """Each operation's scaled time, median over the passes (the first pass
    alone when a failure changed the number of records)."""
    if len({len(p.scaled) for p in passes}) > 1:
        passes = passes[:1]
    return [statistics.median(col) for col in zip(*(p.scaled for p in passes))]


def tail(values):
    """(percentile, value, ops beyond): the highest ladder percentile with
    at least ten operations beyond it, by nearest rank."""
    ordered = sorted(values)
    n = len(ordered)
    chosen = (100, ordered[-1], 0)
    for p in TAIL_LADDER:
        rank = -(-p * n // 100)
        if n - rank >= 10:
            chosen = (p, ordered[int(rank) - 1], n - int(rank))
    return chosen


# ---------------------------------------------------------------------------
# metrics: name -> (value, unit, note)


def end_to_end(workload, setups, passes):
    kinds = [r.kind for r in passes[0].records]
    times = latencies(passes)
    n = len(times)
    pct, tail_value, beyond = tail(times)
    attempted = sum(len(p.records) for p in passes)
    failed = sum(1 for p in passes for r in p.records if not r.ok)
    by_kind = {kind: [sec for k, sec in zip(kinds, times) if k == kind]
               for kind in dict.fromkeys(kinds)}
    p50 = {kind: statistics.median(kt) for kind, kt in by_kind.items()}
    # Each kind counts once, however many ops it has: on certify the 12
    # balanced colorful ops weigh as much as the 156 single-sum ops.  Within
    # a kind the geometric mean is used, not the median, because a kind's
    # ops fall into clusters by input size and its median jumps between them.
    kind_gmeans = [statistics.geometric_mean(pos) for kt in by_kind.values()
                   if (pos := [t for t in kt if t > 0])]
    m = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} set-ups: import and input generation"),
        "kind_gmean_ms": (statistics.geometric_mean(kind_gmeans) * 1e3, "ms",
                          f"geometric mean over {len(kind_gmeans)} op kinds of each "
                          "kind's geometric mean"),
        "ops_per_s": (n / sum(times), "1/s", f"{n} ops over the sum of their latencies"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms", f"median of {n} ops"),
        "op_tail_ms": (tail_value * 1e3, "ms", f"p{pct:g} of {n} ops, {beyond} beyond it"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "peak resident memory of this process"),
        "fail_ratio": (failed / attempted, "ratio", f"{failed} failed of {attempted}"),
    }
    for kind, value in p50.items() if len(p50) > 1 else ():
        m[f"{kind}_p50_ms"] = (value * 1e3, "ms", f"median of {len(by_kind[kind])} ops")
    if workload == "verify":
        per = n // len(workloads.VERIFY_SEED_OFFSETS)
        m["verify_s"] = (sum(times) / len(workloads.VERIFY_SEED_OFFSETS), "s",
                         f"mean over the CLI invocations of their {per} report lines")
    return m


def per_layer(untraced, traced, suites):
    """Per-layer metrics from the first traced pass, scaled like the ops."""
    first = traced[0]
    scale = calibrate.REFERENCE_S / first.kernel
    selfs = {name: sec * scale for name, sec in first.self_s.items()}
    counts = first.counts

    def c(key):
        return counts.get(key, 0)

    def s(name):
        return selfs.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("lp.purify_to_vertex", "lp.lp_solve", "rearrange.rearrangement_order",
                 "blockip.reduce_kernel_point", "oracles.brute_ilp"):
        m[f"{name}.calls"] = c(f"{name}.calls")
    for name in ("lp.purify_to_vertex.cols", "lp.extreme_rays.rays",
                 "lp.enum_integer_points.points", "rearrange.rearrangement_order.chain_steps",
                 "colorful.balance_rows.iterations", "blockip.reduce_kernel_point.psi"):
        m[name] = c(name)
    m["linalg.calls"] = sum(c(f"linalg.{f}.calls") for f in tracing.LAYERS["linalg"])
    m["blockip.reduce_kernel_point.found_ratio"] = ratio(
        c("blockip.reduce_kernel_point.found"), c("blockip.reduce_kernel_point.calls"))
    m["blockip.graver_enumerate.kept_ratio"] = ratio(
        c("blockip.graver_enumerate.kept"), c("blockip.graver_enumerate.enumerated"))
    oracles = [f"oracles.{f}" for f in tracing.LAYERS["oracles"]]
    m["oracles.budget_ratio"] = ratio(sum(c(f"{o}.budget_exceeded") for o in oracles),
                                      sum(c(f"{o}.calls") for o in oracles))
    for name in ("lp.purify_to_vertex", "lp.lp_solve", "lp.find_feasible", "lp.extreme_rays",
                 "lp.enum_integer_points", "rearrange.rearrangement_order",
                 "rearrange.max_prefix_norm", "colorful.balance_rows",
                 "colorful.colorful_affine", "colorful.colorful_rearrange",
                 "colorful.single_partial_sum", "blockip.decompose_bundle",
                 "blockip.decompose_v", "blockip.reduce_kernel_point",
                 "blockip.proximity_report", "blockip.solve_four_block",
                 "blockip.graver_enumerate", *oracles, "cli.main",
                 *(f"verify.{suite}" for suite in suites)):
        m[f"{name}.self_s"] = s(name)
    for module in MODULES:
        m[f"{module}.self_s"] = sum(v for k, v in selfs.items() if k.startswith(module + "."))
    op_s = sum(r.seconds for r in first.records) * scale
    m["trace.overhead_ratio"] = sum(latencies(traced)) / sum(latencies(untraced))
    return m, selfs, op_s


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description="The steinitz benchmark.")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if sys.flags.optimize > 0:
        fail("refusing to run under python -O: the verify suites check with assert")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not os.path.isdir(os.path.join(SRC, "steinitz")):
        fail(f"no program source at {os.path.join(SRC, 'steinitz')}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    info = machine(args.seed)
    print("machine " + json.dumps(info, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")

    if args.trace == 0:
        setups, st, tasks = set_up(args.workload, args.seed)
        passes = run_passes(tasks, time.perf_counter() + args.seconds)
    else:
        tracer = tracing.Tracer()
        st = Program()
        tracer.install()   # input generation is traced as set-up and not counted
        tasks = workloads.build(args.workload, st, args.seed, OUT)
        tracer.uninstall()
        t0 = time.perf_counter()
        untraced = run_passes(tasks, t0 + args.seconds / 2)
        tracer.install()
        traced = run_passes(tasks, t0 + args.seconds, tracer)
        tracer.uninstall()
        passes = untraced + traced

    records = [r for p in passes for r in p.records]
    failed = sum(1 for r in records if not r.ok)
    digests = {digest(p.records) for p in passes}
    print(f"digest sha256:{digest(passes[0].records)}"
          + ("" if len(digests) == 1 else f" but passes disagree ({len(digests)} digests)"))
    for rec in [r for r in records if not r.ok][:10]:
        print(f"failed {rec.kind}: {rec.answer}")
    kernel = statistics.median(p.kernel for p in passes)
    walls = sum(p.wall for p in passes)
    print(f"info {len(passes)} passes, {walls:.3f} s wall; calibration kernel median "
          f"{kernel * 1e3:.4f} ms against {calibrate.REFERENCE_S * 1e3:g} ms at the "
          f"reference, so times are scaled by {calibrate.REFERENCE_S / kernel:.4f}")
    print("info no layer has a queue and verify runs with --workers 1: "
          "there is no wait-time metric")

    if args.trace == 0:
        metrics = end_to_end(args.workload, setups, passes)
        for name, (value, unit, note) in metrics.items():
            print(f"metric {name} {value:.6g} {unit}  ({note})")
        result = {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                  for m in bench["end_to_end"]}
    else:
        layer, selfs, op_s = per_layer(untraced, traced, tuple(st.verify.SUITES))
        for name, value in layer.items():
            print(f"metric {name} {value:.6g} {unit_of(name)}")
        for name, value in sorted(selfs.items(), key=lambda kv: -kv[1])[:8]:
            print(f"share {name}.self_s {value / op_s:.3f} of the traced pass's op time")
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path, {"machine": info, "workload": args.workload})
        print(f"info {len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
        result = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                  for m in bench["per_layer"]}
    correct = failed == 0 and len(digests) == 1
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": result}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
