"""Command-line interface.

Exit codes: 0 success, 1 property violation (the violated invariant is
named on stderr), 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .norms import norm_eval, norm_from_name, norm_name
from .rearrange import prefix_sums, steinitz_rearrange, subspace_rearrange
from .colorful import colorful_affine, colorful_rearrange, row_sums, single_partial_sum
from .oracles import (BudgetExceeded, brute_colorful_optimum, brute_ilp,
                      brute_rearrange_optimum, brute_single_sum)
from .generate import GenerationError, gen_four_block, gen_zero_sum_family
from .lp import LPError, RayCheckFailed, SimplexCheckFailed, WalkCheckFailed
from .checks import PropertyViolation
from .blockip import (UnboundedRelaxation, graver_enumerate, proximity_report,
                      reduce_kernel_point_signed, solve_four_block)
from . import fileio
from .fileio import ParseError, format_rat
from .verify import SUITES, run_suites


def _perm_str(perm) -> str:
    return " ".join(str(i + 1) for i in perm)


def _jsonable(value):
    if isinstance(value, Fraction):
        return format_rat(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _emit(args, lines, payload):
    text = "\n".join(lines) + "\n" if not args.json else \
        json.dumps(_jsonable(payload), sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args):
    if args.kind == "family":
        fam = gen_zero_sum_family(args.d, args.n, args.m, norm_from_name(args.norm),
                                  args.seed, args.denom)
        fileio.write_family(fam, args.output)
    else:
        inst, pt = gen_four_block(args.s0, args.s, args.t0, args.t, args.n,
                                  args.delta, args.seed, scale=args.scale,
                                  zero_a0=args.zero_a0)
        fileio.write_fourblock(inst, args.output)
        if args.point_output:
            fileio.write_point(pt, args.point_output)
    return 0


def _cmd_rearrange(args):
    fam = fileio.read_family(args.input)
    seq = fileio.family_as_sequence(fam)
    cert = subspace_rearrange(seq) if args.subspace else steinitz_rearrange(seq)
    lines = [
        f"kind: {'subspace' if args.subspace else 'steinitz'}",
        f"d: {seq.dim}",
        f"m: {len(seq)}",
        f"norm: {norm_name(seq.norm)}",
        f"radius: {format_rat(cert.radius)}",
        f"certified_bound: {format_rat(cert.certified_bound)}",
        f"achieved_max: {format_rat(cert.achieved_max)}",
        f"permutation: {_perm_str(cert.permutation)}",
    ]
    payload = {
        "kind": "subspace" if args.subspace else "steinitz",
        "d": seq.dim, "m": len(seq), "norm": norm_name(seq.norm),
        "radius": cert.radius, "certified_bound": cert.certified_bound,
        "achieved_max": cert.achieved_max,
        "permutation": [i + 1 for i in cert.permutation],
    }
    _emit(args, lines, payload)
    return 0


def _cmd_colorful(args):
    fam = fileio.read_family(args.input)
    cert = colorful_affine(fam) if args.affine else colorful_rearrange(fam)
    lines = [
        f"kind: {'colorful-affine' if args.affine else 'colorful'}",
        f"d: {fam.dim}", f"n: {fam.colors}", f"m: {fam.length}",
        f"route: {cert.route}",
        f"certified_bound: {format_rat(cert.certified_bound)}",
        f"achieved_max: {format_rat(cert.achieved_max)}",
    ]
    if cert.phase1_row_bound is not None:
        lines.append(f"phase1_row_bound: {format_rat(cert.phase1_row_bound)}")
    if cert.tight_bound_met is not None:
        lines.append(f"tight_bound_met: {'yes' if cert.tight_bound_met else 'no'}")
    for j, perm in enumerate(cert.permutations):
        lines.append(f"permutation {j + 1}: {_perm_str(perm)}")
    payload = {
        "kind": "colorful-affine" if args.affine else "colorful",
        "d": fam.dim, "n": fam.colors, "m": fam.length, "route": cert.route,
        "certified_bound": cert.certified_bound, "achieved_max": cert.achieved_max,
        "phase1_row_bound": cert.phase1_row_bound,
        "tight_bound_met": cert.tight_bound_met,
        "permutations": [[i + 1 for i in p] for p in cert.permutations],
    }
    _emit(args, lines, payload)
    return 0


def _cmd_singlesum(args):
    fam = fileio.read_family(args.input)
    sel = single_partial_sum(fam, args.k)
    lines = [f"kind: singlesum", f"k: {sel.k}", f"achieved: {format_rat(sel.achieved)}",
             f"certified_bound: {fam.dim}"]
    for j, I in enumerate(sel.index_sets):
        lines.append(f"set {j + 1}: {' '.join(str(i + 1) for i in I)}")
    payload = {"kind": "singlesum", "k": sel.k, "achieved": sel.achieved,
               "certified_bound": fam.dim,
               "sets": [[i + 1 for i in I] for I in sel.index_sets]}
    _emit(args, lines, payload)
    return 0


def _cmd_reduce(args):
    inst = fileio.read_fourblock(args.input)
    pt = fileio.read_point(args.point, inst)
    found, outcome = reduce_kernel_point_signed(inst, pt.x, pt.y)
    consts = outcome.constants
    lines = [
        f"kind: reduce",
        f"found: {'yes' if found is not None else 'no'}",
        f"xi: {format_rat(consts.xi)}",
        f"psi: {consts.psi}",
        f"dim_v: {consts.dim_v}",
        f"gamma: {consts.gamma}",
        f"omega1: {format_rat(consts.omega1)}",
        f"omega2: {format_rat(consts.omega2)}",
        f"omega3: {format_rat(consts.omega3)}",
        f"omega4: {format_rat(consts.omega4)}",
        f"omega5: {format_rat(consts.omega5)}",
    ]
    if found is not None:
        lines.append("x: " + " ".join(format_rat(v) for v in found[0]))
        lines.append("y: " + " ".join(format_rat(v) for v in found[1]))
    payload = {"kind": "reduce", "found": found is not None,
               "xi": consts.xi, "psi": consts.psi, "dim_v": consts.dim_v,
               "gamma": consts.gamma,
               "x": list(found[0]) if found else None,
               "y": list(found[1]) if found else None}
    _emit(args, lines, payload)
    return 0


def _cmd_graver(args):
    inst = fileio.read_fourblock(args.input)
    basis = graver_enumerate(inst, args.box)
    lines = [f"kind: graver", f"box: {args.box}", f"size: {len(basis)}"]
    for g in basis:
        lines.append("element: " + " ".join(str(v) for v in g))
    payload = {"kind": "graver", "box": args.box,
               "elements": [list(g) for g in basis]}
    _emit(args, lines, payload)
    return 0


def _cmd_solve(args):
    inst = fileio.read_fourblock(args.input)
    try:
        sol = solve_four_block(inst, args.radius)
    except UnboundedRelaxation:
        _emit(args, ["kind: solve", "status: unbounded"],
              {"kind": "solve", "status": "unbounded"})
        return 0
    if sol is None:
        _emit(args, ["kind: solve", "status: infeasible"],
              {"kind": "solve", "status": "infeasible"})
        return 0
    x, y, value = sol
    lines = ["kind: solve", "status: optimal", f"value: {format_rat(value)}",
             "x: " + " ".join(format_rat(v) for v in x),
             "y: " + " ".join(format_rat(v) for v in y)]
    payload = {"kind": "solve", "status": "optimal", "value": value,
               "x": list(x), "y": list(y)}
    _emit(args, lines, payload)
    return 0


def _cmd_proximity(args):
    inst = fileio.read_fourblock(args.input)
    rep = proximity_report(inst, box_cap=args.box)
    lines = [f"kind: proximity", f"lp_status: {rep.lp_status}",
             f"ip_feasible: {'yes' if rep.ip_feasible else 'no'}"]
    if rep.distance_inf is not None:
        lines.append("lp_vertex: " + " ".join(format_rat(v) for v in rep.lp_vertex))
        lines.append("nearest_optimal_ip: " +
                     " ".join(format_rat(v) for v in rep.nearest_optimal_ip))
        lines.append(f"distance_inf: {format_rat(rep.distance_inf)}")
        lines.append(f"xi: {format_rat(rep.xi)}")
    payload = {"kind": "proximity", "lp_status": rep.lp_status,
               "ip_feasible": rep.ip_feasible,
               "lp_vertex": list(rep.lp_vertex) if rep.lp_vertex else None,
               "nearest_optimal_ip":
                   list(rep.nearest_optimal_ip) if rep.nearest_optimal_ip else None,
               "distance_inf": rep.distance_inf, "xi": rep.xi}
    _emit(args, lines, payload)
    return 0


def _cmd_oracle(args):
    if args.kind == "ilp":
        inst = fileio.read_fourblock(args.input)
        res = brute_ilp(inst, box_cap=args.box)
        if res is None:
            _emit(args, ["kind: oracle-ilp", "status: infeasible"],
                  {"kind": "oracle-ilp", "status": "infeasible"})
        else:
            _emit(args, ["kind: oracle-ilp", "status: optimal",
                         f"value: {format_rat(res[1])}",
                         "z: " + " ".join(str(v) for v in res[0])],
                  {"kind": "oracle-ilp", "status": "optimal", "value": res[1],
                   "z": list(res[0])})
        return 0
    fam = fileio.read_family(args.input)
    if args.kind == "rearrange":
        value = brute_rearrange_optimum(fileio.family_as_sequence(fam), args.budget)
    elif args.kind == "colorful":
        value = brute_colorful_optimum(fam, args.budget)
    else:
        value = brute_single_sum(fam, args.k, args.budget)
    _emit(args, [f"kind: oracle-{args.kind}", f"value: {format_rat(value)}"],
          {"kind": f"oracle-{args.kind}", "value": value})
    return 0


def _cmd_verify(args):
    if args.workers != 1:
        raise ValueError(f"verify runs in one process: --workers must be 1, got {args.workers}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    lines, ok = run_suites(names, args.seed, args.count)
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if not ok:
        for line in lines:
            if line.startswith("FAIL"):
                print(line, file=sys.stderr)
        return 1
    return 0


def _cmd_plotdata(args):
    fam = fileio.read_family(args.input)
    lines = [f"# prefix-sum trace mode={args.mode} d={fam.dim} n={fam.colors} m={fam.length}",
             "# k coords... norm"]
    if args.mode == "single":
        seq = fileio.family_as_sequence(fam)
        vectors, order, drift = seq.vectors, steinitz_rearrange(seq).permutation, None
    else:
        cert = colorful_affine(fam) if args.mode == "affine" else colorful_rearrange(fam)
        order = range(fam.length)
        vectors, drift = row_sums(fam, cert.permutations, order), cert.drift
    rows = [(k, p, norm_eval(fam.norm, p))
            for k, p in enumerate(prefix_sums(vectors, order, fam.dim, drift), start=1)]
    for k, coords, nv in rows:
        lines.append(f"{k} " + " ".join(format_rat(c) for c in coords) +
                     f" {format_rat(nv)}")
    payload = {"mode": args.mode,
               "trace": [{"k": k, "coords": list(c), "norm": nv} for k, c, nv in rows]}
    _emit(args, lines, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="steinitz",
        description="Exact Steinitz rearrangements and 4-block integer programs")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, output_required=False):
        p.add_argument("--output", required=output_required,
                       help="output file (default: stdout)")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    g = sub.add_parser("gen", help="generate a seeded instance file")
    gsub = g.add_subparsers(dest="kind", required=True)
    gf = gsub.add_parser("family")
    gf.add_argument("--d", type=int, required=True)
    gf.add_argument("--n", type=int, required=True)
    gf.add_argument("--m", type=int, required=True)
    gf.add_argument("--norm", default="linf", choices=["l1", "linf"])
    gf.add_argument("--seed", type=int, required=True)
    gf.add_argument("--denom", type=int, default=16)
    gf.add_argument("--output", required=True)
    gf.set_defaults(func=_cmd_gen)
    gb = gsub.add_parser("fourblock")
    for name in ("s0", "s", "t0", "t", "n"):
        gb.add_argument(f"--{name}", type=int, required=True)
    gb.add_argument("--delta", type=int, required=True)
    gb.add_argument("--seed", type=int, required=True)
    gb.add_argument("--scale", type=int, default=None)
    gb.add_argument("--zero-a0", action="store_true")
    gb.add_argument("--output", required=True)
    gb.add_argument("--point-output", default=None)
    gb.set_defaults(func=_cmd_gen)

    p = sub.add_parser("rearrange", help="classical rearrangement of one sequence")
    p.add_argument("--input", required=True)
    p.add_argument("--subspace", action="store_true",
                   help="certify against the span dimension")
    common(p)
    p.set_defaults(func=_cmd_rearrange)

    p = sub.add_parser("colorful", help="joint rearrangement of n sequences")
    p.add_argument("--input", required=True)
    p.add_argument("--affine", action="store_true",
                   help="affine variant (no zero-sum requirement)")
    common(p)
    p.set_defaults(func=_cmd_colorful)

    p = sub.add_parser("singlesum", help="one bounded k-subset sum per color")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_singlesum)

    p = sub.add_parser("reduce", help="extract a dominated integer kernel vector")
    p.add_argument("--input", required=True)
    p.add_argument("--point", required=True, help="kernel point file")
    common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("graver", help="Graver basis restricted to a box")
    p.add_argument("--input", required=True)
    p.add_argument("--box", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_graver)

    p = sub.add_parser("solve", help="proximity-driven exact solver")
    p.add_argument("--input", required=True)
    p.add_argument("--radius", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("proximity", help="LP vertex vs nearest optimal integer point")
    p.add_argument("--input", required=True)
    p.add_argument("--box", type=int, default=None,
                   help="cap for coordinates with infinite upper bound")
    common(p)
    p.set_defaults(func=_cmd_proximity)

    p = sub.add_parser("oracle", help="brute-force reference values")
    p.add_argument("--kind", required=True,
                   choices=["rearrange", "colorful", "singlesum", "ilp"])
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--box", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="batch property verification")
    p.add_argument("--suite", default="all", choices=["all", *SUITES])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--workers", type=int, default=1,
                   help="kept so that older invocations parse; only 1 is accepted")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("plotdata", help="prefix-sum traces for external plotting")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", default="single", choices=["single", "colorful", "affine"])
    common(p)
    p.set_defaults(func=_cmd_plotdata)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (PropertyViolation, AssertionError) as exc:
        name = getattr(exc, "name", "assertion")
        print(f"property violation [{name}]: {exc}", file=sys.stderr)
        return 1
    except (WalkCheckFailed, SimplexCheckFailed, RayCheckFailed) as exc:
        print(f"property violation [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, BudgetExceeded, GenerationError, LPError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
