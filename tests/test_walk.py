"""The vertex walk against its previous version, its work, and the named
checks of the walk and of its callers.

``reference_walk`` (walk_reference.py) is ``lp.walk_to_vertex`` as it was
when every step rescaled the whole point and a move that tightened more
than one column built the basis inverse again.  On every input below the
two must return the same (D, X), or raise the same exception with the same
message: the seeded LPs of test_purify_integer.py (through
``purify_to_vertex``), every walk of the chain of chain_reference.py that
walks at every step without a type to place and of its per-copy chain that
walks at every step, on ``_chain_cases()``, and every selection walk on
``_selection_families()``.  The library's rearrangement chain never walks.
The reference's log shows that the inputs reach the downdates, the steps
with a denominator and the columns tight at the start.
"""

import collections
import contextlib
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import steinitz.cli as cli
import steinitz.colorful as colorful
import steinitz.lp as lp
import steinitz.rearrange as rearrange
from steinitz.checks import PropertyViolation
from steinitz.colorful import ColoredFamily, single_partial_sum
from steinitz.generate import (gen_adversarial_scalar_family, gen_zero_sum_family,
                               gen_zero_sum_sequence)
from steinitz.linalg import _bareiss_step
from steinitz.lp import LPError, WalkCheckFailed, purify_to_vertex, walk_to_vertex
from steinitz.norms import L1_NORM, LINF_NORM
from steinitz.rearrange import rearrangement_order
from chain_reference import order_chain_walk_every_step, order_chain_walk_when_stuck
from test_purify_integer import LP_SETS, _chain_cases, _off_the_sum_row, _selection_families
from walk_reference import reference_walk


def _outcome(walk, cols, D, X, LO, HI, log=None):
    """(D, X) of the walk, or (exception type, message); the walk gets
    copies of the lists."""
    args = (cols, D, list(X), list(LO), list(HI)) + (() if log is None else (log,))
    try:
        return walk(*args)
    except LPError as exc:
        return type(exc), str(exc)


class _Differential:
    """A walk_to_vertex that runs both walks on each input, requires the
    same outcome and counts the events of the reference log, the walks, the
    walks with an open bound and the NonPointedCone outcomes."""

    def __init__(self):
        self.seen = collections.Counter()

    def __call__(self, cols, D, X, LO, HI):
        log = []
        want = _outcome(reference_walk, cols, D, X, LO, HI, log)
        got = _outcome(walk_to_vertex, cols, D, X, LO, HI)
        assert got[:2] == want, (cols, D, X, LO, HI)
        self.seen.update(log)
        self.seen["walks"] += 1
        self.seen["open bounds"] += None in LO or None in HI
        if isinstance(got[0], type):
            self.seen[got[0].__name__] += 1
            raise got[0](got[1])
        return got


@pytest.fixture
def differential(monkeypatch):
    walk = _Differential()
    for module in (lp, colorful):
        monkeypatch.setattr(module, "walk_to_vertex", walk)
    return walk


def test_walk_matches_reference_on_seeded_lps(differential):
    for make in LP_SETS.values():
        for box, x in make():
            try:
                purify_to_vertex(box, x)
            except LPError:
                pass
    seen = differential.seen
    assert seen["walks"] >= 3000, seen
    for event, floor in (("multi-leave", 50), ("tight-leave", 150), ("den", 2000),
                         ("start-tight", 1000), ("open bounds", 1000), ("NonPointedCone", 150)):
        assert seen[event] >= floor, (event, seen)


def test_walk_matches_reference_on_chain_steps(differential):
    # the library chain, which never walks; the reference chain that walks
    # at every step without a type to place (369 walks); and the per-copy
    # chain that walks at every one of its 975 steps
    for d, vectors in _chain_cases():
        rearrangement_order(vectors, d)
        order_chain_walk_when_stuck(rearrange._run_encode(vectors), d)
        order_chain_walk_every_step(vectors, d)
    seen = differential.seen
    assert seen["walks"] == 369 + 975
    for event, floor in (("multi-leave", 3), ("tight-leave", 100), ("den", 2000),
                         ("start-tight", 1000)):
        assert seen[event] >= floor, (event, seen)


def test_walk_matches_reference_on_selection_walks(differential):
    selections = 0
    for fam in _selection_families():
        for k in range(fam.length + 1):
            single_partial_sum(fam, k)
            selections += fam.colors * fam.length > 0
    seen = differential.seen
    assert seen["walks"] == selections
    for event, floor in (("multi-leave", 100), ("tight-leave", 50), ("den", 500),
                         ("start-tight", 500)):
        assert seen[event] >= floor, (event, seen)


# ---------------------------------------------------------------------------
# work: Bareiss steps are deterministic, so they gate where wall time cannot


def _count_steps(monkeypatch):
    calls = []

    def counted(T, t, p, delta):
        calls.append(p)
        return _bareiss_step(T, t, p, delta)

    monkeypatch.setattr(lp, "_bareiss_step", counted)
    monkeypatch.setattr(rearrange, "_bareiss_step", counted)
    return calls


def test_selection_bareiss_steps(monkeypatch):
    # 779 steps when every multi-column tightening rebuilt the basis inverse
    steps = _count_steps(monkeypatch)
    fam = gen_zero_sum_family(3, 6, 12, L1_NORM, 201, 16)
    for k in range(13):
        single_partial_sum(fam, k)
    assert len(steps) <= 623, len(steps)


def test_chain_bareiss_steps(monkeypatch):
    # 438 steps when every multi-column tightening rebuilt the basis inverse,
    # 437 with one walk column per copy (68 distinct vectors of 70), 447
    # when the chain dropped a copy of the first type with a unit gap without
    # preferring a type at zero, 404 when it walked at every step, and 316
    # when it walked at every step without a type to place, and 177 when it
    # walked once and pivoted on from the walk's basis (9 steps of the walk
    # and 168 of dual pivots and downdates); now 158 dual pivots and
    # downdates from the basis of unit columns, with no walk
    steps = _count_steps(monkeypatch)
    rearrangement_order(gen_zero_sum_sequence(2, 70, LINF_NORM, 7, 16).vectors, 2)
    assert len(steps) <= 158, len(steps)


# the inputs of one certify pass of the benchmark at seed 1: per round,
# steinitz_rearrange on REARRANGE_SPECS (d, m, norm, denominator),
# colorful_rearrange on the adversarial families COLORFUL_SPECS (n, m), and
# single_partial_sum for every k on four d = 3, n = 6, m = 12 families
REARRANGE_SPECS = ((2, 40, LINF_NORM, 16), (3, 60, L1_NORM, 1024), (5, 30, LINF_NORM, 1024),
                   (2, 70, L1_NORM, 1024), (3, 35, LINF_NORM, 16), (5, 50, L1_NORM, 16))
COLORFUL_SPECS = ((64, 3), (80, 3), (48, 4), (56, 3))


def test_certify_pass_walks(monkeypatch):
    # at one walk per chain step: rearrange 795 walks and 6,160 Bareiss steps,
    # colorful 950 and 4,879; at one walk per step without a type to place:
    # 391 and 3,531, 517 and 3,025; at one walk per chain and dual pivots on
    # from its basis: 18 and 2,209, 17 and 752; the selections walk once each
    kind, walks, steps = [None], collections.Counter(), collections.Counter()

    def walk(cols, D, X, LO, HI):
        walks[kind[0]] += 1
        return walk_to_vertex(cols, D, X, LO, HI)

    def counted(T, t, p, delta):
        steps[kind[0]] += 1
        return _bareiss_step(T, t, p, delta)

    for module in (lp, colorful):
        monkeypatch.setattr(module, "walk_to_vertex", walk)
    for module in (lp, rearrange):
        monkeypatch.setattr(module, "_bareiss_step", counted)
    for base in (10_000, 11_000, 12_000):
        for i, (d, m, norm, denom) in enumerate(REARRANGE_SPECS):
            kind[0] = "rearrange"
            rearrange.steinitz_rearrange(gen_zero_sum_sequence(d, m, norm, base + i, denom))
            if i < len(COLORFUL_SPECS):
                kind[0] = "colorful"
                colorful.colorful_rearrange(
                    gen_adversarial_scalar_family(*COLORFUL_SPECS[i], base + 100 + i))
        kind[0] = "singlesum"
        for i in range(4):
            fam = gen_zero_sum_family(3, 6, 12, (LINF_NORM, L1_NORM)[i % 2], base + 200 + i)
            for k in range(13):
                single_partial_sum(fam, k)
    # the chains never walk: their pivots start on the basis of unit columns,
    # which costs the rearrange chains more pivots than the walk's basis did,
    # but no walk with its per-column products
    assert walks["rearrange"] == 0 and walks["colorful"] == 0, walks
    assert walks["singlesum"] == 156, walks
    assert steps["rearrange"] <= 2505 and steps["colorful"] <= 706, steps


# ---------------------------------------------------------------------------
# the downdate's own check


# an LP whose walk, with every new delta doubled, downdates a row of T that
# the corrupted steps left zero
DOWNDATE_CASE = ([(-1, 0), (2, 3), (-1, 0), (1, 3), (1, 3)], 3, [1, 1, 1, 1, 2], [0] * 5, [3] * 5)


def test_downdate_of_a_zero_row_is_named(monkeypatch):
    assert walk_to_vertex(*DOWNDATE_CASE) == reference_walk(*DOWNDATE_CASE)
    monkeypatch.setattr(lp, "_bareiss_step",
                        lambda T, t, p, delta: 2 * _bareiss_step(T, t, p, delta))
    with pytest.raises(WalkCheckFailed, match="^basis downdate met a zero row$"):
        walk_to_vertex(*DOWNDATE_CASE)


# ---------------------------------------------------------------------------
# the named checks of the chain, the prefix bounds and the single sum


@contextlib.contextmanager
def _patched(module, name, value):
    """module.name = value for the block; a name the module did not have is
    removed again."""
    missing = object()
    old = getattr(module, name, missing)
    setattr(module, name, value)
    try:
        yield
    finally:
        if old is missing:
            delattr(module, name)
        else:
            setattr(module, name, old)


def _reversed_sorted(items, key=None):
    return sorted(items, key=key)[::-1]


def _walk_to(D, X):
    """A faulty walk that ends at X/D, wherever it starts."""
    return lambda cols, D0, X0, LO, HI: (D, list(X))


_closest = rearrange._closest


def _read_every_type_full(live, X, D, count, P, col):
    """A faulty read of the chain point: every type at its count, where no
    copy can leave."""
    return _closest(live, [count[t] * D for t in live], D, count, P, col)


def _place_a_full_type(live, X, D, count, P, col):
    """A faulty pick of the chain: the last type at its count, whose copy
    cannot leave; the next point would need more of it than is left."""
    full = [t for t, a in zip(live, X) if a == count[t] * D]
    return full[-1] if full else _closest(live, X, D, count, P, col)


_SEQ = gen_zero_sum_sequence(2, 8, LINF_NORM, 5, 16)
_SHORT = gen_zero_sum_sequence(2, 6, LINF_NORM, 0, 16)
# one color of the scalars 1, 1, -1, -1: its k = 2 walk starts at X = 2 over D = 4
_FAM = ColoredFamily(1, 1, 4, (((F(1),), (F(1),), (F(-1),), (F(-1),)),), LINF_NORM)

# (name, module, attribute, faulty value, call)
CALLER_FAULTS = (
    ("chain-zero-coordinate", rearrange, "_closest", _read_every_type_full,
     lambda: rearrangement_order(_SEQ.vectors, 2)),
    ("chain-start-point", rearrange, "_positive_step", _off_the_sum_row,
     lambda: rearrangement_order(_SEQ.vectors, 2)),
    ("chain-dual-infeasible", rearrange, "_closest", _place_a_full_type,
     lambda: rearrangement_order(_SHORT.vectors, 2)),
    # a prefix maximum, over the integer form, past any bound
    ("steinitz-prefix-bound", rearrange, "_max_prefix_runs",
     lambda runs, dim, norm, drift=None: 10 ** 9, lambda: rearrange.steinitz_rearrange(_SEQ)),
    ("subspace-prefix-bound", rearrange, "_max_prefix_runs",
     lambda runs, dim, norm, drift=None: 10 ** 9, lambda: rearrange.subspace_rearrange(_SEQ)),
    # the k smallest entries instead of the k largest: distance 4 > m/2
    ("rounding-distance", colorful, "sorted", _reversed_sorted,
     lambda: colorful.round_to_binary((1, 1, 0, 0), 2)),
    ("selection-fractional-support", colorful, "walk_to_vertex", _walk_to(4, [2, 2, 2, 2]),
     lambda: single_partial_sum(_FAM, 2)),
    ("selection-color-integral", colorful, "walk_to_vertex", _walk_to(4, [1, 0, 0, 0]),
     lambda: single_partial_sum(_FAM, 2)),
    ("selection-size", colorful, "walk_to_vertex", _walk_to(4, [4, 0, 0, 0]),
     lambda: single_partial_sum(_FAM, 2)),
    ("selection-sum-bound", colorful, "walk_to_vertex", _walk_to(4, [4, 4, 0, 0]),
     lambda: single_partial_sum(_FAM, 2)),
)


def run_caller_faults():
    """The name of the PropertyViolation that each fault raises."""
    names = []
    for _, module, attr, fault, call in CALLER_FAULTS:
        with _patched(module, attr, fault):
            try:
                call()
            except PropertyViolation as exc:
                names.append(exc.name)
    return names


def test_caller_checks_are_named():
    for name, module, attr, fault, call in CALLER_FAULTS:
        call()  # unpatched, every check holds
        with _patched(module, attr, fault):
            with pytest.raises(PropertyViolation, match=f"^property {name} violated: ") as err:
                call()
        assert err.value.name == name


def test_named_check_exits_with_one(tmp_path, capsys):
    path = str(tmp_path / "seq.txt")
    assert cli.main(["gen", "family", "--d", "2", "--n", "1", "--m", "8", "--seed", "5",
                     "--output", path]) == 0
    name, module, attr, fault, _ = CALLER_FAULTS[0]
    with _patched(module, attr, fault):
        assert cli.main(["rearrange", "--input", path]) == 1
    assert f"property violation [{name}]: property {name} violated: " in capsys.readouterr().err


def test_chain_dual_infeasible_exits_with_one(tmp_path, capsys):
    # a chain that places a copy of a type at its count has no point left to
    # pivot to: the named dual check, exit 1 (its -O twin runs with the
    # caller faults below)
    path = str(tmp_path / "seq.txt")
    assert cli.main(["gen", "family", "--d", "2", "--n", "1", "--m", "6", "--seed", "0",
                     "--output", path]) == 0
    assert cli.main(["rearrange", "--input", path]) == 0
    with _patched(rearrange, "_closest", _place_a_full_type):
        assert cli.main(["rearrange", "--input", path]) == 1
    assert "property violation [chain-dual-infeasible]: property chain-dual-infeasible " \
        "violated: " in capsys.readouterr().err


def test_walk_and_caller_checks_survive_python_O():
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import steinitz.lp as lp\n"
            "from test_walk import DOWNDATE_CASE, _patched, run_caller_faults\n"
            "print(*run_caller_faults(), sep='\\n')\n"
            "step = lp._bareiss_step\n"
            "with _patched(lp, '_bareiss_step', lambda T, t, p, d: 2 * step(T, t, p, d)):\n"
            "    try:\n"
            "        lp.walk_to_vertex(*DOWNDATE_CASE)\n"
            "    except lp.WalkCheckFailed as exc:\n"
            "        print(exc)\n")
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(here.parent / "src"), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", code, str(here)], env=env,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert out.splitlines() == [name for name, *_ in CALLER_FAULTS] + \
        ["basis downdate met a zero row"]
