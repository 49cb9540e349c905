import io
from contextlib import redirect_stdout

import pytest

from steinitz import fileio
from steinitz.cli import main
from steinitz.fileio import ParseError
from steinitz.generate import (gen_adversarial_scalar_family, gen_four_block, gen_unit_family,
                               gen_zero_sum_family)
from steinitz.norms import L1_NORM, LINF_NORM


def test_gen_family_single_vector_is_zero():
    fam = gen_zero_sum_family(3, 1, 1, LINF_NORM, 9)
    assert fam.vectors[0][0] == (0, 0, 0)


def test_gen_family_zero_sum_and_unit_ball():
    fam = gen_zero_sum_family(2, 3, 5, LINF_NORM, 42)
    assert all(x == 0 for x in fam.total())
    assert fam.max_norm() <= 1


def test_gen_family_determinism():
    a = gen_zero_sum_family(2, 3, 5, LINF_NORM, 42)
    b = gen_zero_sum_family(2, 3, 5, LINF_NORM, 42)
    assert a == b
    c = gen_zero_sum_family(2, 3, 5, LINF_NORM, 43)
    assert a != c


def test_gen_four_block_planted_point_in_kernel():
    inst, pt = gen_four_block(1, 1, 1, 1, 2, 1, 3)
    z = tuple(pt.x) + tuple(pt.y)
    assert all(v == 0 for v in inst.H_matrix().mul_vec(z))
    assert all(v >= 0 for v in z)


def test_gen_four_block_delta_zero_edge():
    inst, pt = gen_four_block(1, 1, 1, 1, 2, 0, 4, require_full_rank=False)
    assert inst.delta == 0
    z = tuple(pt.x) + tuple(pt.y)
    assert sum(z) == 2 * (inst.x_dim + inst.y_dim)  # any slice point qualifies


def test_gen_four_block_determinism():
    a = gen_four_block(1, 1, 1, 2, 2, 1, 11)
    b = gen_four_block(1, 1, 1, 2, 2, 1, 11)
    assert a[0] == b[0] and a[1] == b[1]


def test_family_roundtrip(tmp_path):
    fam = gen_zero_sum_family(2, 3, 4, LINF_NORM, 5)
    path = tmp_path / "fam.txt"
    fileio.write_family(fam, str(path))
    again = fileio.read_family(str(path))
    assert again == fam
    # and writing again is byte-identical
    path2 = tmp_path / "fam2.txt"
    fileio.write_family(again, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_fourblock_roundtrip(tmp_path):
    inst, pt = gen_four_block(2, 1, 2, 2, 2, 2, 6)
    path = tmp_path / "inst.4blk"
    fileio.write_fourblock(inst, str(path))
    again = fileio.read_fourblock(str(path))
    assert again == inst
    ppath = tmp_path / "pt.txt"
    fileio.write_point(pt, str(ppath))
    pt2 = fileio.read_point(str(ppath), inst)
    assert pt2 == pt


def test_malformed_rational_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("colorful 1 1 1 linf\n1/0\n")
    with pytest.raises(ParseError) as err:
        fileio.read_family(str(path))
    assert "denominator" in str(err.value)
    assert err.value.line == 2


def test_missing_section_named(tmp_path):
    inst, _ = gen_four_block(1, 1, 1, 1, 1, 1, 7)
    path = tmp_path / "inst.4blk"
    fileio.write_fourblock(inst, str(path))
    text = path.read_text().replace("\ncx\n", "\noops\n")
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        fileio.read_fourblock(str(path))
    assert "'cx'" in str(err.value)


def test_infinite_bounds_roundtrip(tmp_path):
    inst, _ = gen_four_block(1, 1, 1, 1, 1, 1, 8)
    from steinitz.blockip import FourBlockInstance
    open_inst = FourBlockInstance.make(
        inst.A0, list(inst.B), list(inst.A), list(inst.C), inst.b,
        inst.cx, inst.cy, (None,), inst.uy)
    path = tmp_path / "open.4blk"
    fileio.write_fourblock(open_inst, str(path))
    assert "inf" in path.read_text()
    assert fileio.read_fourblock(str(path)) == open_inst


# ---------------------------------------------------------------------------
# CLI


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_cli_gen_and_rearrange(tmp_path):
    fam = tmp_path / "f.txt"
    code, _ = _run(["gen", "family", "--d", "2", "--n", "1", "--m", "6",
                    "--seed", "3", "--output", str(fam)])
    assert code == 0
    code, out = _run(["rearrange", "--input", str(fam)])
    assert code == 0
    assert "certified_bound: 2" in out
    perm_line = [l for l in out.splitlines() if l.startswith("permutation:")][0]
    assert sorted(int(v) for v in perm_line.split(":")[1].split()) == [1, 2, 3, 4, 5, 6]


def test_cli_colorful_json(tmp_path):
    import json
    fam = tmp_path / "f.txt"
    _run(["gen", "family", "--d", "1", "--n", "3", "--m", "4",
          "--seed", "5", "--output", str(fam)])
    code, out = _run(["colorful", "--input", str(fam), "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["certified_bound"] == "3"
    assert len(data["permutations"]) == 3


def test_cli_singlesum(tmp_path):
    fam = tmp_path / "f.txt"
    _run(["gen", "family", "--d", "2", "--n", "2", "--m", "4",
          "--seed", "9", "--output", str(fam)])
    code, out = _run(["singlesum", "--input", str(fam), "--k", "2"])
    assert code == 0 and "achieved:" in out


def test_cli_fourblock_pipeline(tmp_path):
    inst = tmp_path / "i.4blk"
    pt = tmp_path / "p.txt"
    code, _ = _run(["gen", "fourblock", "--s0", "1", "--s", "1", "--t0", "1",
                    "--t", "1", "--n", "2", "--delta", "1", "--seed", "5",
                    "--output", str(inst), "--point-output", str(pt)])
    assert code == 0
    code, out = _run(["reduce", "--input", str(inst), "--point", str(pt)])
    assert code == 0 and "xi:" in out
    code, out = _run(["graver", "--input", str(inst), "--box", "3"])
    assert code == 0 and "size:" in out
    code, out = _run(["solve", "--input", str(inst), "--radius", "3"])
    assert code == 0 and "status:" in out
    code, out = _run(["proximity", "--input", str(inst)])
    assert code == 0 and "lp_status: optimal" in out
    code, out = _run(["oracle", "--kind", "ilp", "--input", str(inst)])
    assert code == 0 and "value:" in out


def test_cli_oracle_rearrange(tmp_path):
    fam = tmp_path / "f.txt"
    _run(["gen", "family", "--d", "1", "--n", "1", "--m", "5",
          "--seed", "8", "--output", str(fam)])
    code, out = _run(["oracle", "--kind", "rearrange", "--input", str(fam)])
    assert code == 0 and "value:" in out


def test_cli_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("colorful 1 1 1 linf\n1/0\n")
    code, _ = _run(["rearrange", "--input", str(bad)])
    assert code == 2


def test_cli_verify_single_suite(tmp_path):
    out_file = tmp_path / "report.txt"
    code, _ = _run(["verify", "--suite", "graver", "--count", "2",
                    "--output", str(out_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 2 and all(l.startswith("ok graver") for l in lines)


# --workers parses for older invocations, but verify runs in one process:
# 1 is the only accepted value
@pytest.mark.parametrize("extra,message", [
    (["--count", "0"], "must be at least 1"), (["--count", "-3"], "must be at least 1"),
    (["--workers", "0"], "verify runs in one process: --workers must be 1, got 0"),
    (["--workers", "2"], "verify runs in one process: --workers must be 1, got 2")],
    ids=["count0", "count-3", "workers0", "workers2"])
def test_cli_verify_rejects_empty_run(capsys, extra, message):
    err = _error_exit(["verify", "--suite", "steinitz", *extra], capsys)
    assert message in err


# sha256 of the `steinitz verify --suite all --seed 1` report, which must not
# change from one version of the program to the next unless the changed
# lines are listed and justified (the multiplicity-aware chain changed the
# colorful[7] achieved and the colorful-balanced[1] rowbound values; the
# chain that walks only when no type can be placed changed seven lines; the
# chain that keeps its vertex's basis changed 15 lines, 17 at seed 10001;
# the chain that starts its pivots from every type at its count, with no
# walk, changed 13 lines at each seed; the Caratheodory support of largest
# anchor weight changed the colorful-balanced[1] line at each seed; the
# greedy dual pivots of the chain and the single sum changed 21 lines at
# each seed)
VERIFY_ALL_SEED_1_SHA256 = "d5fe8e0af698484606d1e80a80fcb495f3a917cc0283ac071f3a4f132288e346"
# the same for `--seed 10001`, the benchmark's second verify seed
VERIFY_ALL_SEED_10001_SHA256 = "f4035110cf123adedb83a43fd5abcf7c13423986c0d694e8d23920ecd10462a0"


def _verify_all_sha256(python_flags, seed):
    import hashlib
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    argv = [sys.executable, *python_flags, "-m", "steinitz.cli", "verify", "--suite", "all",
            "--seed", str(seed)]
    out = subprocess.run(argv, env=env, capture_output=True, timeout=300, check=True).stdout
    return hashlib.sha256(out).hexdigest()


@pytest.mark.parametrize("python_flags", [[], ["-O"]], ids=["serial", "O"])
def test_verify_all_seed_1_golden(python_flags):
    assert _verify_all_sha256(python_flags, 1) == VERIFY_ALL_SEED_1_SHA256


def test_verify_all_seed_10001_golden():
    assert _verify_all_sha256([], 10001) == VERIFY_ALL_SEED_10001_SHA256


def test_cli_plotdata(tmp_path):
    fam = tmp_path / "f.txt"
    _run(["gen", "family", "--d", "2", "--n", "2", "--m", "3",
          "--seed", "4", "--output", str(fam)])
    code, out = _run(["plotdata", "--input", str(fam), "--mode", "colorful"])
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(rows) == 3  # one trace row per k


# seeded families per plotdata mode; the adversarial family takes the
# balanced route, the unit families have a nonzero affine drift
PLOTDATA_FAMILIES = {
    "single": [lambda: gen_zero_sum_family(2, 1, 7, LINF_NORM, 4),
               lambda: gen_zero_sum_family(3, 1, 6, L1_NORM, 5),
               lambda: gen_zero_sum_family(1, 1, 6, LINF_NORM, 6)],
    "colorful": [lambda: gen_zero_sum_family(2, 3, 5, LINF_NORM, 4),
                 lambda: gen_zero_sum_family(3, 4, 3, L1_NORM, 8),
                 lambda: gen_adversarial_scalar_family(100, 4, 7)],
    "affine": [lambda: gen_unit_family(2, 3, 5, LINF_NORM, 33),
               lambda: gen_unit_family(3, 2, 4, L1_NORM, 12),
               lambda: gen_adversarial_scalar_family(100, 4, 7)],
}

# sha256 of the concatenated `steinitz plotdata` outputs over PLOTDATA_FAMILIES,
# which must not change from one version of the program to the next unless
# the change is listed and justified (re-pinned when the chain kept its
# vertex's basis, when it started its pivots without a walk, when the
# balance took the Caratheodory support of largest anchor weight, which moved
# the n = 100 families of the colorful and affine modes, and when the dual
# pivots took the greedy rule)
PLOTDATA_SHA256 = {
    ("single", "text"): "940723bc09538080ca17d7511a6b4da5d40756d7484fde832054df1ada74a1f7",
    ("single", "json"): "0c9362a0d5beca3543b42da4801f4c62e10d832a6b77d7aad7b380c87b3db0bf",
    ("colorful", "text"): "248ead87c4fdfa13d5e2fb322299e72bd3efb539bbfb81fee6c0eb1454d22f89",
    ("colorful", "json"): "9625b969bc741924d4eaffddca7931cb7c1a81defad69d05a526b0d092a1c116",
    ("affine", "text"): "0e10cbde8047e8a8bb51c6a02ca0cd1cf8431fce0518ebbccdea8cee980d671c",
    ("affine", "json"): "b07335e6079a43a2c4c676d2dd330452034eef973faa52fc9daa46afc3efb371",
}


@pytest.mark.parametrize("mode,fmt", sorted(PLOTDATA_SHA256))
def test_cli_plotdata_golden(tmp_path, mode, fmt):
    import hashlib
    digest = hashlib.sha256()
    for k, make in enumerate(PLOTDATA_FAMILIES[mode]):
        path = tmp_path / f"f{k}.txt"
        fileio.write_family(make(), str(path))
        code, out = _run(["plotdata", "--input", str(path), "--mode", mode,
                          *(["--json"] if fmt == "json" else [])])
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == PLOTDATA_SHA256[mode, fmt]


# The write_fourblock bytes and the planted point of a seeded grid of
# gen_four_block draws: every PIPELINE_SHAPES entry with A0 zero and drawn,
# scale None and 24, and one degenerate delta = 0 draw.
GEN_FOUR_BLOCK_SHA256 = "6bc8c1cc5ae59d96d98b34da66e2cefd823c31bc0e8c0670949f9f92e7d694c3"


def test_gen_four_block_golden(tmp_path):
    import hashlib
    from steinitz.generate import GenerationError
    from steinitz.verify import PIPELINE_SHAPES
    draws = [(shape, 1 + k % 2, 31 * k + 7 * z + w, dict(zero_a0=bool(z), scale=scale))
             for k, shape in enumerate(PIPELINE_SHAPES) for z in (0, 1)
             for w, scale in enumerate((None, 24))]
    draws.append(((1, 1, 1, 1, 2), 0, 4, dict(require_full_rank=False)))
    digest = hashlib.sha256()
    inst_path, pt_path = tmp_path / "inst.4blk", tmp_path / "pt.txt"
    for shape, delta, seed, kw in draws:
        try:
            inst, pt = gen_four_block(*shape, delta, seed, **kw)
        except GenerationError as exc:
            digest.update(f"{exc}\n".encode())
            continue
        fileio.write_fourblock(inst, str(inst_path))
        fileio.write_point(pt, str(pt_path))
        digest.update(inst_path.read_bytes() + pt_path.read_bytes())
    assert digest.hexdigest() == GEN_FOUR_BLOCK_SHA256


def test_cli_output_determinism(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for target in (a, b):
        _run(["gen", "fourblock", "--s0", "1", "--s", "1", "--t0", "1", "--t", "2",
              "--n", "2", "--delta", "1", "--seed", "77", "--output", str(target)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("failure", ["generation", "infeasible"])
def test_verify_solve_and_proximity_stop_after_50_draws(monkeypatch, failure):
    """Both kinds of bad draw count against one budget of 50 draws; past
    60 the stub raises, so an uncapped loop fails instead of hanging."""
    from types import SimpleNamespace
    from steinitz import verify
    from steinitz.generate import GenerationError
    draws = []

    def draw(*args, **kwargs):
        draws.append(args)
        if len(draws) > 60:
            raise RuntimeError("uncapped retry loop")
        if failure == "generation":
            raise GenerationError("no instance")
        return None, None

    monkeypatch.setattr(verify, "gen_four_block", draw)
    monkeypatch.setattr(verify, "proximity_report",
                        lambda inst: SimpleNamespace(ip_feasible=False, lp_status="optimal"))
    for suite in ("solve", "proximity"):
        draws.clear()
        line = verify._run_task((suite, 1, 0))
        assert line == (f"FAIL {suite}[0] feasible-instance: property feasible-instance "
                        "violated: no feasible instance found")
        assert len(draws) == 50


def test_cli_reduce_scaled_point_end_to_end(tmp_path):
    import json
    import math
    from steinitz.generate import gen_four_block
    from steinitz.blockip import decompose_bundle
    from steinitz.linalg import linf_norm, vscale
    from steinitz.blockip import KernelPoint

    inst, pt = gen_four_block(1, 1, 1, 1, 2, 1, 61, zero_a0=True)
    _, consts = decompose_bundle(inst, pt)
    z = tuple(pt.x) + tuple(pt.y)
    c = math.ceil(consts.xi / linf_norm(z)) + 1
    big = KernelPoint(vscale(pt.x, c), vscale(pt.y, c))
    ipath, ppath = tmp_path / "i.4blk", tmp_path / "p.txt"
    fileio.write_fourblock(inst, str(ipath))
    fileio.write_point(big, str(ppath))
    code, out = _run(["reduce", "--input", str(ipath), "--point", str(ppath), "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["found"] is True
    found = [int(v) for v in data["x"]] + [int(v) for v in data["y"]]
    assert any(found)
    assert all(v == 0 for v in inst.H_matrix().mul_vec(tuple(found)))


@pytest.mark.parametrize("kind", ["family", "fourblock", "point"])
def test_trailing_input_rejected(tmp_path, kind):
    fam = gen_zero_sum_family(2, 1, 3, LINF_NORM, 5)
    inst, pt = gen_four_block(1, 1, 1, 1, 2, 1, 6)
    path = str(tmp_path / "in.txt")
    write, read = {
        "family": (lambda: fileio.write_family(fam, path), lambda: fileio.read_family(path)),
        "fourblock": (lambda: fileio.write_fourblock(inst, path),
                      lambda: fileio.read_fourblock(path)),
        "point": (lambda: fileio.write_point(pt, path), lambda: fileio.read_point(path, inst)),
    }[kind]
    write()
    read()
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:-1] + [lines[-1] + " junk"]) + "\n")
    with pytest.raises(ParseError) as err:
        read()
    assert (err.value.line, err.value.col) == (len(lines), len(lines[-1]) + 2)
    assert "'junk'" in str(err.value)


def test_cli_trailing_input_exit_2(tmp_path, capsys):
    fam = tmp_path / "f.txt"
    fam.write_text("colorful 2 1 2 linf\n1 2\n-1 -2\n7 8 junk\n")
    assert main(["rearrange", "--input", str(fam)]) == 2
    assert "line 4, column 1" in capsys.readouterr().err


def _error_exit(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_cli_budget_exceeded_exit_2(tmp_path, capsys):
    fam = tmp_path / "f.txt"
    fileio.write_family(gen_zero_sum_family(1, 1, 12, LINF_NORM, 3), str(fam))
    err = _error_exit(["oracle", "--kind", "rearrange", "--input", str(fam)], capsys)
    assert "exceeds budget" in err


def test_cli_oracle_singlesum_k_out_of_range_exit_2(tmp_path, capsys):
    fam = tmp_path / "f.txt"
    fileio.write_family(gen_zero_sum_family(2, 3, 5, LINF_NORM, 4), str(fam))
    err = _error_exit(["oracle", "--kind", "singlesum", "--input", str(fam), "--k", "9"], capsys)
    assert err == "error: k out of range\n"


def test_cli_generation_error_exit_2(tmp_path, capsys):
    # delta 0 draws zero diagonal blocks, which never reach full row rank
    _error_exit(["gen", "fourblock", "--s0", "1", "--s", "1", "--t0", "1", "--t", "1",
                 "--n", "1", "--delta", "0", "--seed", "1",
                 "--output", str(tmp_path / "i.4blk")], capsys)


@pytest.mark.parametrize("error", ["InfeasibleStart", "NonPointedCone"])
def test_cli_lp_error_exit_2(tmp_path, capsys, monkeypatch, error):
    import steinitz.cli
    import steinitz.lp
    inst = tmp_path / "i.4blk"
    fileio.write_fourblock(gen_four_block(1, 1, 1, 1, 2, 1, 5)[0], str(inst))

    def failing(*args, **kwargs):
        raise getattr(steinitz.lp, error)("no vertex")

    monkeypatch.setattr(steinitz.cli, "proximity_report", failing)
    assert _error_exit(["proximity", "--input", str(inst)], capsys) == "error: no vertex\n"


def _pivot_fault(monkeypatch, tmp_path):
    # every Bareiss step doubles delta: the point of the selection's dual
    # pivots leaves the selection polytope, and its color check names it
    import steinitz.linalg as linalg
    fileio.write_family(gen_zero_sum_family(2, 3, 6, LINF_NORM, 4), str(tmp_path / "f.txt"))
    step = linalg._bareiss_step
    monkeypatch.setattr(linalg, "_bareiss_step", lambda T, t, p, delta: 2 * step(T, t, p, delta))
    return ["singlesum", "--input", str(tmp_path / "f.txt"), "--k", "2"]


def _simplex_fault(monkeypatch, tmp_path):
    # the basic solution of the relaxation moves off its rows
    import steinitz.lp as lp
    fileio.write_fourblock(gen_four_block(1, 1, 1, 1, 3, 1, 2, zero_a0=True)[0],
                           str(tmp_path / "i.4blk"))
    solution = lp._Simplex.solution

    def moved(sx):
        den, X = solution(sx)
        return den, [X[0] + 1] + X[1:]

    monkeypatch.setattr(lp._Simplex, "solution", moved)
    return ["proximity", "--input", str(tmp_path / "i.4blk")]


def _ray_fault(monkeypatch, tmp_path):
    # every ray negated: a ray of the initial cone of K leaves it
    import steinitz.lp as lp
    inst, pt = gen_four_block(2, 2, 2, 3, 2, 1, 0, scale=24, zero_a0=True)
    fileio.write_fourblock(inst, str(tmp_path / "i.4blk"))
    fileio.write_point(pt, str(tmp_path / "p.txt"))
    primitive = lp.primitive_integer_vector
    monkeypatch.setattr(lp, "primitive_integer_vector", lambda v: tuple(-a for a in primitive(v)))
    return ["reduce", "--input", str(tmp_path / "i.4blk"), "--point", str(tmp_path / "p.txt")]


@pytest.mark.parametrize("error, message, fault", [
    ("selection-color-integral", "property selection-color-integral violated: fractional part "
     "of a color does not sum to an integer", _pivot_fault),
    ("SimplexCheckFailed", "simplex point is not feasible", _simplex_fault),
    ("RayCheckFailed", "double description produced an infeasible ray", _ray_fault)])
def test_cli_lp_check_failure_exit_1(tmp_path, capsys, monkeypatch, error, message, fault):
    """A self-check of the dual pivots' point, the simplex or the double
    description that fails is a property violation, named by the check or
    by its class: exit 1, not 2."""
    assert main(fault(monkeypatch, tmp_path)) == 1
    assert capsys.readouterr().err == f"property violation [{error}]: {message}\n"


def test_verify_checks_survive_python_O():
    import os
    import subprocess
    import sys
    from pathlib import Path
    # max_prefix_norm is patched to disagree with the certificate, so the
    # steinitz suite's achieved-maximum check must fail even under -O
    code = ("import steinitz.verify as v\n"
            "v.max_prefix_norm = lambda seq, perm: -1\n"
            "print('\\n'.join(v.run_suites(['steinitz'], 1, 1)[0]))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out == "FAIL steinitz[0] steinitz-achieved: property steinitz-achieved violated\n"


@pytest.mark.parametrize("argv", [["oracle", "--kind", "ilp", "--box", "-1"],
                                  ["proximity", "--box", "-2"]])
def test_cli_negative_box_exit_2(tmp_path, capsys, argv):
    inst = tmp_path / "i.4blk"
    fileio.write_fourblock(gen_four_block(1, 1, 1, 1, 2, 1, 5)[0], str(inst))
    err = _error_exit(argv + ["--input", str(inst)], capsys)
    assert "box_cap must be nonnegative" in err


@pytest.mark.parametrize("header,col,what", [
    ("colorful -2 1 2 linf", 10, "dimension d"),
    ("colorful 2 -1 2 linf", 12, "color count n"),
    ("colorful 2 1 -2 linf", 14, "length m"),
    ("fourblock 1 1 1 1 -2 1", 19, "n"),
    ("fourblock 1 1 1 1 1 -1", 21, "delta"),
])
def test_negative_count_rejected(tmp_path, header, col, what):
    path = tmp_path / "in.txt"
    path.write_text(header + "\n1 2\n")
    read = fileio.read_family if header.startswith("colorful") else fileio.read_fourblock
    with pytest.raises(ParseError) as err:
        read(str(path))
    assert (err.value.line, err.value.col) == (1, col)
    assert f"expected a nonnegative {what}, got '-" in str(err.value)


@pytest.mark.parametrize("header", ["colorful 2 0 3 linf", "colorful 2 2 0 linf"])
@pytest.mark.parametrize("argv", [["colorful", "--affine"], ["plotdata", "--mode", "affine"]],
                         ids=["colorful", "plotdata"])
def test_cli_affine_empty_family_exit_2(tmp_path, capsys, header, argv):
    fam = tmp_path / "f.txt"
    fam.write_text(header + "\n")
    err = _error_exit(argv + ["--input", str(fam)], capsys)
    assert "at least one vector" in err
    # the zero-sum certificate of a family without vectors stays trivial
    assert main(["colorful", "--input", str(fam)]) == 0


@pytest.mark.parametrize("scale", ["0", "-1"])
def test_cli_gen_fourblock_scale_below_one_exit_2(tmp_path, capsys, scale):
    with pytest.raises(ValueError, match="scale must be at least 1"):
        gen_four_block(1, 1, 1, 1, 2, 1, 3, scale=int(scale))
    point = tmp_path / "p.txt"
    err = _error_exit(["gen", "fourblock", "--s0", "1", "--s", "1", "--t0", "1", "--t", "1",
                       "--n", "2", "--delta", "1", "--seed", "3", "--scale", scale,
                       "--output", str(tmp_path / "i.4blk"), "--point-output", str(point)],
                      capsys)
    assert "scale must be at least 1" in err and not point.exists()
