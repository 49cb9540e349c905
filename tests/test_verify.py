"""The verify suites' own checks: the integer kernel scans of the graver
and reduce suites against the Fraction H, and the named checks that stop a
suite on a bad draw."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from steinitz import verify
from steinitz.blockip import KernelPoint
from steinitz.checks import PropertyViolation
from steinitz.linalg import Matrix, lcm_abs_dets
from steinitz.lp import enum_integer_points

SRC = Path(__file__).resolve().parents[1] / "src" / "steinitz"


def _fraction_kernel(inst, lower, upper):
    """The suites' kernel scan as it was: every nonzero box point tested by
    the Fraction product H_matrix().mul_vec."""
    H = inst.H_matrix()
    return [z for z in enum_integer_points(lower, upper, predicate=lambda z: any(z))
            if all(v == 0 for v in H.mul_vec(z))]


@pytest.mark.parametrize("seed", [1, 5, 10_001])
def test_graver_kernel_scan_matches_fraction_h(seed):
    for idx in range(4):
        inst, _ = verify._gen_pipeline_instance(idx, seed, ((1, 1, 1, 1, 2),),
                                                delta_choices=(1,))
        dim = inst.x_dim + inst.y_dim
        box = ((-4,) * dim, (4,) * dim)
        kernel = list(verify._box_kernel(inst, *box))
        assert kernel and kernel == _fraction_kernel(inst, *box)


@pytest.mark.parametrize("seed", [1, 5, 10_001])
def test_reduce_kernel_scan_matches_fraction_h(seed):
    for idx in range(4):
        inst, _ = verify._gen_pipeline_instance(idx, seed, ((1, 1, 1, 1, 2), (1, 1, 1, 1, 3)),
                                                delta_choices=(1,))
        dim = inst.x_dim + inst.y_dim
        for cap in (2, 4):
            box = ((0,) * dim, (cap,) * dim)
            # the same points in the same order, so the same first witness
            kernel = list(verify._box_kernel(inst, *box))
            assert kernel and kernel == _fraction_kernel(inst, *box)


def _zero_point(real):
    """The suite's instance with its planted point replaced by zero."""
    def draw(*args, **kwargs):
        inst, pt = real(*args, **kwargs)
        return inst, KernelPoint((0,) * len(pt.x), (0,) * len(pt.y))
    return draw


def _never_past_xi(real):
    """A reduction whose xi no scaled point passes."""
    return lambda inst, pt: SimpleNamespace(constants=SimpleNamespace(xi=10 ** 12),
                                            vector=None, diagnostics={"psi": 0})


def _infeasible(real):
    return lambda inst: SimpleNamespace(ip_feasible=False, lp_status="optimal")


# (suite, patched attribute of steinitz.verify, fault given the original,
# the suite's FAIL line)
VERIFY_FAULTS = (
    ("reduce", "_gen_pipeline_instance", _zero_point,
     "FAIL reduce[0] reduce-nonzero-point: property reduce-nonzero-point violated"),
    ("reduce", "reduce_kernel_point", _never_past_xi,
     "FAIL reduce[0] reduce-past-xi: property reduce-past-xi violated: could not scale past xi"),
    ("solve", "proximity_report", _infeasible,
     "FAIL solve[0] feasible-instance: property feasible-instance violated: "
     "no feasible instance found"),
    ("proximity", "proximity_report", _infeasible,
     "FAIL proximity[0] feasible-instance: property feasible-instance violated: "
     "no feasible instance found"),
)
# det [[2, 0], [0, 2]] = 4 exceeds Hadamard's 1^4 * 2^2 for entries bounded by 1
HADAMARD_FAULT = ([Matrix.from_rows([[2, 0], [0, 2]])], 2, 1)


def run_verify_faults():
    """The FAIL line of each patched suite, then the name that the Hadamard
    check of lcm_abs_dets raises on an understated entry bound."""
    lines = []
    for suite, attr, fault, _ in VERIFY_FAULTS:
        real = getattr(verify, attr)
        setattr(verify, attr, fault(real))
        try:
            lines.append(verify._run_task((suite, 1, 0)))
        finally:
            setattr(verify, attr, real)
    try:
        lcm_abs_dets(*HADAMARD_FAULT)
    except PropertyViolation as exc:
        lines.append(exc.name)
    return lines


EXPECTED_FAULT_LINES = [line for *_, line in VERIFY_FAULTS] + ["hadamard-bound"]


def test_verify_bad_draw_checks_are_named():
    for suite, *_ in VERIFY_FAULTS:
        assert verify._run_task((suite, 1, 0)).startswith(f"ok {suite}[0] ")
    mats, s, _ = HADAMARD_FAULT
    assert lcm_abs_dets(mats, s, entry_bound=2) == 4
    assert run_verify_faults() == EXPECTED_FAULT_LINES


def test_verify_bad_draw_checks_survive_python_O():
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from test_verify import run_verify_faults\n"
            "print(*run_verify_faults(), sep='\\n')\n")
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(here.parent / "src"), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", code, str(here)], env=env,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert out.splitlines() == EXPECTED_FAULT_LINES


def _singlesum_calls(monkeypatch, attr, calls, alter=None):
    """Record the k of every call of verify.<attr> as (m, k), passing the
    result through alter(m, k, result) when given."""
    real = getattr(verify, attr)

    def recorded(fam, k, *args):
        calls.append((fam.length, k))
        out = real(fam, k, *args)
        return out if alter is None else alter(fam.length, k, out)
    monkeypatch.setattr(verify, attr, recorded)


@pytest.mark.parametrize("seed", [1, 10_001])
def test_singlesum_oracle_runs_once_per_pair(monkeypatch, seed):
    """floor(m/2) + 1 oracle calls per family, at k = 0..floor(m/2): the
    optimum at m - k is the one at k."""
    calls, picks = [], []
    _singlesum_calls(monkeypatch, "brute_single_sum", calls)
    _singlesum_calls(monkeypatch, "single_partial_sum", picks)
    for idx in range(verify.DEFAULT_COUNTS["singlesum"]):
        calls.clear()
        picks.clear()
        assert verify.suite_singlesum(seed, idx).startswith(f"ok singlesum[{idx}] ")
        m = picks[0][0]
        assert [k for _, k in picks] == list(range(m + 1))
        assert [k for _, k in calls] == list(range(m // 2 + 1))


def test_singlesum_oracle_checks_the_upper_half(monkeypatch):
    """A selection below the optimum at some k > m - k, where the oracle is
    not called, still fails the singlesum-oracle check."""
    picks = []

    def below_optimum(m, k, sel):
        return dataclasses.replace(sel, achieved=sel.achieved - 1) if k > m - k else sel
    _singlesum_calls(monkeypatch, "single_partial_sum", picks, below_optimum)
    line = verify._run_task(("singlesum", 1, 0))
    assert line == "FAIL singlesum[0] singlesum-oracle: property singlesum-oracle violated"
    m, k = picks[-1]
    assert k > m - k


def test_no_bare_assertion_error_in_src():
    """Every check in the library is a named PropertyViolation (or a typed
    error), never a bare AssertionError."""
    offenders = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
                 for n, line in enumerate(path.read_text().splitlines(), start=1)
                 if re.search(r"raise\s+AssertionError\b", line)]
    assert offenders == []


# names of removed code: the Fraction vertex map of a block basis and its
# wrappers, the unread A v0 integrality diagnostic, the second integer sum
# beside rearrange._run_sum, the process pool of run_suites, the colorful
# scalings that ColoredFamily.integer_form replaces (a whole word, so a
# definition and a call are both caught), the per-row scales of a BoxLP and
# the bound scaling that lp.over_lcm replaces, and names that nothing read
REMOVED_NAMES = ("vmap", "av0_integral", "_integral_image", "basis_vertex", "_int_sum",
                 "ProcessPoolExecutor", "_scaled_runs", "_scaled", "is_optimal", "vzero",
                 "_order_dim1", "distinct_offsets", "row_scales", "over_D")


def test_removed_names_stay_out_of_src():
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, REMOVED_NAMES)) + r")\b")
    offenders = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
                 for n, line in enumerate(path.read_text().splitlines(), start=1)
                 if pattern.search(line)]
    assert offenders == []
