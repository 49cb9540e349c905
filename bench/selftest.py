"""Self-test of the benchmark.

    python3 bench/selftest.py

Checks, for each workload:
  * two traced runs at one seed have no failed operation and give identical
    per-layer counts and digests;
  * an untraced run at a second seed has no failed operation;
  * every metric named in BENCHMARK.json is printed by name and is in the
    JSON result.
It also checks that the metric names and units in BENCHMARK.json follow the
grammar and that its workloads are the benchmark's, that the benchmark
refuses ``python -O``, and that it fails without a result in a directory
holding only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEEDS = (1, 2)


class CheckFailed(Exception):
    pass


def expect(cond, what):
    """A check that, unlike assert, also holds under python -O."""
    if not cond:
        raise CheckFailed(what)


def run(cwd, workload, seed, trace, optimize=False):
    cmd = [sys.executable, *(["-O"] if optimize else []), "bench/run.py",
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def bench_run(workload, seed, trace):
    """(JSON result, names printed on metric lines, digest) of one run."""
    proc = run(ROOT, workload, seed, trace)
    expect(proc.returncode == 0, f"{workload} seed {seed} trace {trace} exited "
                                 f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"result keys {sorted(result)}")
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return result, printed, digest


def check_grammar(bench):
    names = []
    for m in bench["end_to_end"] + bench["per_layer"]:
        expect(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), f"metric {m}")
        names.append(m["name"])
    bad = [n for n in names if not NAME.match(n)]
    expect(not bad, f"names out of grammar: {bad}")
    expect(sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS),
           "workload names match the benchmark's")


def check_refusals(bench):
    proc = run(ROOT, "certify", 1, 0, optimize=True)
    expect(proc.returncode != 0 and "{" not in proc.stdout, "ran under python -O")
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, "certify", 1, 0)
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and "{" not in proc.stdout, "ran without the program source")


def check_workload(name, bench):
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    # every per-layer metric but the times is a function of the work done
    exact = [m["name"] for m in bench["per_layer"]
             if m["unit"] != "s" and m["name"] != "trace.overhead_ratio"]
    a, printed_a, digest_a = bench_run(name, SEEDS[0], 1)
    b, _, digest_b = bench_run(name, SEEDS[0], 1)
    for r in (a, b):
        expect(r["correct"] and r["failed"] == 0, f"seed {SEEDS[0]}: {r['failed']} failed")
    expect(digest_a == digest_b, f"digests differ: {digest_a} {digest_b}")
    expect(sorted(a["metrics"]) == sorted(layer), "traced run's JSON metrics")
    diff = [k for k in exact if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
    expect(not diff, f"counts differ between two traced runs: {diff}")
    c, printed_c, _ = bench_run(name, SEEDS[1], 0)
    expect(c["correct"] and c["failed"] == 0, f"seed {SEEDS[1]}: {c['failed']} failed")
    expect(sorted(c["metrics"]) == sorted(e2e), "untraced run's JSON metrics")
    missing = [k for k in e2e if k not in printed_c] + [k for k in layer if k not in printed_a]
    expect(not missing, f"not printed: {missing}")
    return (f"ok {name}: digest {digest_a[7:23]}, {len(exact)} counts repeat, "
            f"seed {SEEDS[0]} attempted {a['attempted']} failed 0, "
            f"seed {SEEDS[1]} attempted {c['attempted']} failed 0")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    failures = 0
    checks = [("grammar", lambda: check_grammar(bench) or "ok BENCHMARK.json grammar"),
              ("refusals", lambda: check_refusals(bench) or "ok refuses -O and a bare tree")]
    checks += [(name, lambda name=name: check_workload(name, bench))
               for name in workloads.WORKLOADS]
    for name, check in checks:
        try:
            print(check(), flush=True)
        except CheckFailed as exc:
            failures += 1
            print(f"FAIL {name}: {exc}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
