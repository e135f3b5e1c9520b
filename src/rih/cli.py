"""Command-line front end.  Results go to stdout as JSON; anything meant for
humans (progress, warnings, errors) goes to stderr."""

from __future__ import annotations

import argparse
import json
import sys

from rih import solver
from rih._blas import one_blas_thread
from rih.hamiltonian import _coefficients
from rih.instance import (
    TrialBudgetError,
    f_search,
    reduction,
    resolve_plug,
    verify_claims,
)
from rih.lattice import LatticeSpec
from rih.rules import (
    RuleSetError,
    check_tiling,
    enumerate_valid,
    lift_3x3,
    load_grid,
    load_ruleset,
)
from rih.tiling import Tiling, classical_energy, classify, rule_violations, striped_witness

KNOWN_ERRORS = (
    ValueError,
    RuleSetError,
    TrialBudgetError,
    solver.SolverConvergenceError,
    solver.BudgetExceeded,
    # an input path that cannot be read as a file; the message names the path
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    PermissionError,
)


def _emit(obj):
    json.dump(obj, sys.stdout, indent=1)
    sys.stdout.write("\n")


def _cmd_encode(args):
    enc = f_search(args.x, seed=args.seed, max_trials=args.budget)
    _emit(enc.to_json_dict())
    return 0


def _cmd_reduce(args):
    red = reduction(args.x, args.r, plug=args.plug, seed=args.seed)
    _emit(
        {
            "encoding": red.encoding.to_json_dict(),
            "lattice": red.lattice.to_json_dict(),
            "term_hash": red.term_hash(),
            "coefficients": red.term.coefficients,
        }
    )
    return 0


def _cmd_verify(args):
    overrides = {}
    for item in args.mutate or ():
        name, _, value = item.partition("=")
        if not _:
            raise ValueError(f"--mutate wants name=value, got {item!r}")
        overrides[name] = float(value)
    _coefficients(overrides)  # refuse a bad control before any criterion runs
    report = verify_claims(
        profile=args.profile,
        coefficient_overrides=overrides or None,
    )
    _emit(report)
    for row in report["criteria"]:
        status = "PASS" if row["passed"] else "FAIL"
        print(f"{row['id']} {status} {row['name']}", file=sys.stderr)
    return 0 if report["all_passed"] else 1


def _cmd_solve(args):
    spec = LatticeSpec(args.r, args.n, args.boundary)
    report = solver.ground_energy_search(spec, resolve_plug(args.plug))
    _emit(report.to_json_dict())
    return 0


def _cmd_witness(args):
    spec = LatticeSpec(args.r, args.n, args.boundary)
    w = striped_witness(spec)
    # the sector first: it refuses a plug whose sweep is over budget before
    # any of the output is built
    sector = None if args.plug is None else solver.tile_sector_energy(w, resolve_plug(args.plug))
    out = {
        "tiling": w.to_json_dict(),
        "classical": classical_energy(w).to_json_dict(),
        "flags": {
            "copy1": classify(w, 1).to_json_dict(),
            "copy2": classify(w, 2).to_json_dict(),
        },
    }
    if sector is not None:
        out["sector"] = sector.to_json_dict()
    _emit(out)
    return 0


def _cmd_classify(args):
    with open(args.tiling) as fh:
        t = Tiling.from_json_dict(json.load(fh))
    _emit(
        {
            "flags": {
                "copy1": classify(t, 1).to_json_dict(),
                "copy2": classify(t, 2).to_json_dict(),
            },
            "rule_violations": {
                "copy1": len(rule_violations(t, 1)),
                "copy2": len(rule_violations(t, 2)),
            },
            "classical": classical_energy(t).to_json_dict(),
        }
    )
    return 0


def _cmd_tiles_enumerate(args):
    rs = load_ruleset(args.rules)
    res = enumerate_valid(
        rs, args.n, limit=args.limit, require_present=args.require or None
    )
    _emit(
        {
            "count": len(res),
            "truncated": res.truncated,
            "valid_rows": res.valid_rows,
            "tilings": [g.to_json_dict() for g in res],
        }
    )
    return 0


def _cmd_tiles_check(args):
    rs = load_ruleset(args.rules)
    g = load_grid(args.grid)
    violations = check_tiling(rs, g)
    _emit(
        {
            "valid": not violations,
            "violations": [
                {"kind": kind, "at": list(pos), "pair": list(pair)}
                for kind, pos, pair in violations
            ],
        }
    )
    return 0


def _cmd_tiles_lift(args):
    _emit(lift_3x3(load_ruleset(args.rules)).to_json_dict())
    return 0


def build_parser():
    top = argparse.ArgumentParser(
        prog="rih",
        description="Translation-invariant lattice models: encoding, witnesses, "
        "certified ground-energy search, and tile rule tooling.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="find a prime-based side length spelling x")
    p.add_argument("--x", required=True, help="input bit string, leading 1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=200_000, help="max prime trials")
    p.set_defaults(fn=_cmd_encode)

    p = sub.add_parser("reduce", help="input string to lattice plus fixed term")
    p.add_argument("--x", required=True)
    p.add_argument("--r", required=True, type=int, help="lattice dimension")
    p.add_argument("--plug", default="zero")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--profile", choices=("fast", "full"), default="fast")
    p.add_argument(
        "--mutate",
        action="append",
        metavar="NAME=VALUE",
        help="override a term coefficient (negative-control hook)",
    )
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("solve", help="certified ground-energy search")
    p.add_argument("--r", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--plug", default="zero")
    p.add_argument("--boundary", choices=("periodic", "open"), default="periodic")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("witness", help="striped low-energy configuration")
    p.add_argument("--r", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--boundary", choices=("periodic", "open"), default="periodic")
    p.add_argument("--plug", default=None)
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("classify", help="flags and energies of a stored tiling")
    p.add_argument("tiling", help="tiling JSON file")
    p.set_defaults(fn=_cmd_classify)

    tiles = sub.add_parser("tiles", help="tile rule set tooling")
    tsub = tiles.add_subparsers(dest="tiles_command", required=True)

    p = tsub.add_parser("enumerate", help="all valid grids of a rule set")
    p.add_argument("--rules", required=True)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--require", action="append", metavar="TILE")
    p.set_defaults(fn=_cmd_tiles_enumerate)

    p = tsub.add_parser("check", help="violations of a grid against a rule set")
    p.add_argument("--rules", required=True)
    p.add_argument("--grid", required=True)
    p.set_defaults(fn=_cmd_tiles_check)

    p = tsub.add_parser("lift", help="blow each tile up into a 3x3 block")
    p.add_argument("--rules", required=True)
    p.set_defaults(fn=_cmd_tiles_lift)

    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with one_blas_thread():
            return args.fn(args)
    except KNOWN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
