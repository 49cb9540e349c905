"""Outside-in tracing of the steinitz layers.

The benchmark wraps the public functions of each module and rebinds every
name in every loaded ``steinitz`` module that refers to the original, so a
call made through ``from .lp import purify_to_vertex`` inside ``rearrange``
is caught as well as one made through ``steinitz.lp``.  Each call becomes a
span (name, start, end, parent, op id); generators such as
``enum_integer_points`` are timed per ``next()`` and become one span whose
duration is the summed busy time.  Spans are kept in memory and written out
when the run ends.

Self time is a span's duration minus the durations of its direct children.
The program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# module -> public functions wrapped in that module (generators marked).
LAYERS = {
    "lp": ("purify_to_vertex", "lp_solve", "find_feasible", "extreme_rays",
           "enum_integer_points"),
    "linalg": ("solve_linear", "null_space", "rank", "rank_of_vectors", "det",
               "lcm_abs_dets"),
    "rearrange": ("steinitz_rearrange", "subspace_rearrange", "rearrangement_order",
                  "max_prefix_norm"),
    "colorful": ("balance_rows", "colorful_rearrange", "colorful_affine",
                 "single_partial_sum"),
    "blockip": ("decompose_bundle", "decompose_v", "reduce_kernel_point",
                "proximity_report", "solve_four_block", "graver_enumerate"),
    "oracles": ("brute_ilp", "brute_single_sum", "brute_rearrange_optimum"),
    "cli": ("main",),
}
GENERATORS = {"lp.enum_integer_points"}
SETUP = "setup"


# Counters read the arguments positionally: every caller in the program
# passes them that way.
def _counts_purify(args, kwargs, result, exc):
    return {"cols": args[0].M.cols}


def _counts_order(args, kwargs, result, exc):
    vectors, dim = args
    return {"chain_steps": max(0, len(vectors) - dim)}


def _counts_balance(args, kwargs, result, exc):
    return {"iterations": len(result.history) - 1} if result is not None else {}


def _counts_rays(args, kwargs, result, exc):
    return {"rays": len(result)} if result is not None else {}


def _counts_reduce(args, kwargs, result, exc):
    if result is None:
        return {}
    return {"psi": result.diagnostics["psi"], "found": int(result.vector is not None)}


def _counts_graver(args, kwargs, result, exc):
    return {"kept": len(result)} if result is not None else {}


def _counts_oracle(args, kwargs, result, exc):
    return {"budget_exceeded": int(type(exc).__name__ == "BudgetExceeded")}


COUNTERS = {
    "lp.purify_to_vertex": _counts_purify,
    "lp.extreme_rays": _counts_rays,
    "rearrange.rearrangement_order": _counts_order,
    "colorful.balance_rows": _counts_balance,
    "blockip.reduce_kernel_point": _counts_reduce,
    "blockip.graver_enumerate": _counts_graver,
    "oracles.brute_ilp": _counts_oracle,
    "oracles.brute_single_sum": _counts_oracle,
    "oracles.brute_rearrange_optimum": _counts_oracle,
}


class _Open:
    __slots__ = ("index", "name", "start", "children", "busy")

    def __init__(self, index, name, start):
        self.index = index
        self.name = name
        self.start = start
        self.children = 0.0
        self.busy = 0.0


class Tracer:
    """Collects spans, per-op self time and work counts while installed."""

    def __init__(self):
        self.spans = []             # (name, start, end, parent index, op id)
        self.op = SETUP
        self.self_s = defaultdict(float)   # name -> self seconds, op spans only
        self.counts = defaultdict(int)     # "name.key" -> count, op spans only
        self._stack = []
        self._rebound = []          # (namespace, key, original)

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name, start):
        parent = self._stack[-1].index if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, start, None, parent, self.op))
        return _Open(index, name, start)

    def _close(self, span, end, duration):
        name, start, _, parent, op = self.spans[span.index]
        self.spans[span.index] = (name, start, end, parent, op)
        if self._stack:
            self._stack[-1].children += duration
        if op != SETUP:
            self.self_s[name] += duration - span.children
            self.counts[name + ".calls"] += 1

    def _count(self, name, args, kwargs, result, exc):
        counter = COUNTERS.get(name)
        if counter is None or self.op == SETUP:
            return
        for key, value in counter(args, kwargs, result, exc).items():
            self.counts[f"{name}.{key}"] += value

    def _wrap(self, name, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = self._open(name, clock())
            self._stack.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                self._stack.pop()
                end = clock()
                self._close(span, end, end - span.start)
                self._count(name, args, kwargs, result, exc)

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            span = consumer = None
            points = 0
            try:
                while True:
                    t0 = clock()
                    if span is None:
                        consumer = self._stack[-1].name if self._stack else None
                        span = self._open(name, t0)
                    self._stack.append(span)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._stack.pop()
                        busy = clock() - t0
                        span.busy += busy
                        if self._stack:
                            self._stack[-1].children += busy
                    points += 1
                    yield item
            finally:
                inner.close()
                if span is not None:
                    # the consumer was already charged the busy time per next()
                    stack, self._stack = self._stack, []
                    self._close(span, clock(), span.busy)
                    self._stack = stack
                    if self.spans[span.index][4] != SETUP:
                        self.counts[name + ".points"] += points
                        if consumer is not None:
                            self.counts[consumer + ".enumerated"] += points

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------
    def install(self):
        """Rebind every steinitz module attribute that holds a wrapped
        function, plus the verify suite dispatch table."""
        replacements = {}
        for module, names in LAYERS.items():
            mod = sys.modules[f"steinitz.{module}"]
            for fname in names:
                original = getattr(mod, fname)
                qual = f"{module}.{fname}"
                wrap = self._wrap_generator if qual in GENERATORS else self._wrap
                replacements[id(original)] = (original, wrap(qual, original))
        verify = sys.modules["steinitz.verify"]
        for suite, original in verify.SUITES.items():
            replacements[id(original)] = (original, self._wrap(f"verify.{suite}", original))
        namespaces = [vars(m) for key, m in sorted(sys.modules.items())
                      if key == "steinitz" or key.startswith("steinitz.")]
        namespaces.append(verify.SUITES)
        for ns in namespaces:
            for key, value in list(ns.items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    ns[key] = hit[1]
                    self._rebound.append((ns, key, value))

    def uninstall(self):
        for ns, key, original in reversed(self._rebound):
            ns[key] = original
        self._rebound = []

    def write(self, path, header):
        """Write the header line, then one JSON line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
