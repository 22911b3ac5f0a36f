"""Command line interface: every subcommand prints one JSON report to stdout.

Exit codes: 0 success, 1 a verification failed, 2 parse/validation errors.
Reports are deterministic (sorted keys, integers only); wall-clock timing is
reported only with --timing, in whole milliseconds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache

from . import __version__
from .classes import MAX_RANK, ClassSpec, verify_class
from .cohomology import h1_cyclic, h1_halfsum, h1_oracle
from .conditions import check_conditions, orbits, project
from .enumeration import FULL_MODE_MAX_RANK, enumerate_wdn, verify_tables
from .groups import closure
from .picard import phi
from .signedperm import format_element, lambda_count, parse_element, sigma, signed_cycles

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
CLASS_PARAMETERS = ("n", "n1", "n2", "n3", "p", "r")

REPORT_SCHEMA = {
    "type": "object",
    "required": ["version", "command", "input", "result", "stats"],
    "properties": {
        "version": {"type": "string"},
        "command": {"type": "string"},
        "input": {"type": "object"},
        "result": {"type": ["object", "array"]},
        "stats": {"type": "object"},
    },
    "additionalProperties": False,
}


def _report(command: str, inputs: dict, result, stats: dict | None = None) -> dict:
    return {
        "version": __version__,
        "command": command,
        "input": inputs,
        "result": result,
        "stats": stats or {},
    }


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _parse_group(args) -> tuple:
    gens = [parse_element(text, args.n) for text in args.generators]
    return closure(gens, n=args.n), gens


def _h1_report_dict(rep) -> dict:
    return {k: v for k, v in rep._asdict().items() if v is not None}


def cmd_eval(args) -> int:
    g = parse_element(args.element, args.n)
    result = {
        "normal_form": format_element(g),
        "sigma": sigma(g),
        "lambda": lambda_count(g),
        "order": g.order(),
        "signed_cycles": [
            c._asdict() | {"minus_indices": sorted(c.minus_indices), "trivial": c.trivial} for c in signed_cycles(g)
        ],
    }
    if sigma(g) == 1:
        result["phi"] = phi(g).to_rows()
    _emit(_report("eval", {"n": args.n, "element": args.element}, result))
    return EXIT_OK


def cmd_h1(args) -> int:
    if args.method == "cyclic" and len(args.generators) != 1:
        raise ValueError("--method cyclic needs exactly one generator")
    G, gens = _parse_group(args)
    inputs = {"n": args.n, "generators": args.generators, "method": args.method}
    stats = {"group_order": G.order}
    if args.method == "cyclic":
        result = _h1_report_dict(h1_cyclic(gens[0]))
    elif args.method == "oracle":
        result = _h1_report_dict(h1_oracle(G))
    elif args.method == "halfsum":
        result = _h1_report_dict(h1_halfsum(G))
    else:  # cross
        oracle = h1_oracle(G)
        halfsum = h1_halfsum(G)
        agree = oracle.f2_rank == halfsum.f2_rank
        result = {
            "oracle": _h1_report_dict(oracle),
            "halfsum": _h1_report_dict(halfsum),
            "agree": agree,
            "h1_rank": oracle.f2_rank,
        }
        if not agree:
            _emit(_report("h1", inputs, result, stats))
            print("oracle and half-sum disagree", file=sys.stderr)
            return EXIT_FAILED
    _emit(_report("h1", inputs, result, stats))
    return EXIT_OK


def cmd_check(args) -> int:
    G, _ = _parse_group(args)
    rep = check_conditions(G)
    ok = rep.h1_ok and rep.relatively_minimal and rep.fiber_pairs_joined and rep.at_most_three_orbits
    result = rep._asdict() | {"orbits": orbits(G).orbits, "all_conditions": ok}
    _emit(_report("check", {"n": args.n, "generators": args.generators}, result))
    return EXIT_OK if ok else EXIT_FAILED


def cmd_class(args) -> int:
    params = {k: getattr(args, k) for k in CLASS_PARAMETERS if getattr(args, k) is not None}
    rep = verify_class(ClassSpec(args.id, params))
    result = rep._asdict() | {"class_id": args.id, "params": params, "verified": rep.all_ok}
    del result["spec"]
    _emit(_report("class", {"id": args.id, "params": params}, result))
    return EXIT_OK if rep.all_ok else EXIT_FAILED


def cmd_project(args) -> int:
    G, _ = _parse_group(args)
    orbit = next((o for o in orbits(G).orbits if args.orbit in o), None)
    if orbit is None:
        raise ValueError(f"index {args.orbit} is out of range 1..{args.n}")
    proj = project(G, orbit)
    result = proj._asdict() | {
        "order": proj.group.order,
        "generators": [format_element(g) for g in proj.group.generators],
        "conditions": check_conditions(proj.group)._asdict(),
    }
    del result["group"]
    _emit(_report("project", {"n": args.n, "generators": args.generators, "orbit": args.orbit}, result))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    mode = args.mode or ("full" if args.n <= FULL_MODE_MAX_RANK else "generator_guided")
    t0 = time.monotonic()
    res = enumerate_wdn(args.n, mode)
    result = res._asdict() | {
        "count": len(res.entries),
        "entries": [e._asdict() | {"canonical_key": _key_json(e.canonical_key)} for e in res.entries],
    }
    stats = dict(result.pop("stats"))
    if args.timing:
        stats["elapsed_ms"] = int((time.monotonic() - t0) * 1000)
    _emit(_report("enumerate", {"n": args.n, "mode": mode}, result, stats))
    return EXIT_OK


def _key_json(key):
    return None if key is None else {"n": key[0], "rows": key[1]}


def cmd_verify_tables(args) -> int:
    t0 = time.monotonic()
    rep = verify_tables(args.n)
    stats = {}
    if args.timing:
        stats["elapsed_ms"] = int((time.monotonic() - t0) * 1000)
    result = rep._asdict() | {"rows": [r._asdict() | {"all_ok": r.all_ok} for r in rep.rows], "all_ok": rep.all_ok}
    _emit(_report("verify-tables", {"n": args.n}, result, stats))
    return EXIT_OK if rep.all_ok else EXIT_FAILED


def rank(text: str) -> int:
    """The -n argument: an integer rank 1 <= n <= MAX_RANK."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"rank n must be at least 1, got {n}")
    if n > MAX_RANK:
        raise argparse.ArgumentTypeError(f"rank n must be at most {MAX_RANK}, got {n}")
    return n


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by later ones."""
    ap = argparse.ArgumentParser(prog="conich1", description=__doc__)
    ap.add_argument("--timing", action="store_true", help="include elapsed milliseconds in stats")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("eval", help="parse an element, print its normal form and matrix")
    p.add_argument("-n", type=rank, required=True)
    p.add_argument("element")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("h1", help="H^1 of the group generated by the given elements")
    p.add_argument("-n", type=rank, required=True)
    p.add_argument("generators", nargs="+")
    p.add_argument("--method", choices=["oracle", "halfsum", "cyclic", "cross"], default="cross")
    p.set_defaults(func=cmd_h1)

    p = sub.add_parser("check", help="(H1) condition, minimality and orbit panel")
    p.add_argument("-n", type=rank, required=True)
    p.add_argument("generators", nargs="+")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("class", help="build and verify one of the 24 parametric families")
    p.add_argument("--id", type=int, required=True)
    for key in CLASS_PARAMETERS:
        p.add_argument(f"--{key}", type=int)
    p.set_defaults(func=cmd_class)

    p = sub.add_parser("project", help="project the group onto the orbit containing an index")
    p.add_argument("-n", type=rank, required=True)
    p.add_argument("--orbit", type=int, required=True, help="any index inside the orbit")
    p.add_argument("generators", nargs="+")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("enumerate", help="filtered subgroup classes of W(D_n)")
    p.add_argument("-n", type=rank, required=True)
    p.add_argument("--mode", choices=["full", "generator_guided"])
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify-tables", help="re-verify the bundled table rows for W(D_n)")
    p.add_argument("-n", type=rank, required=True)
    p.set_defaults(func=cmd_verify_tables)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as ex:
        return EXIT_USAGE if ex.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, KeyError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as ex:
        print(f"verification failure: {ex}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
