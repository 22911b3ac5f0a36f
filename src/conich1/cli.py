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
from dataclasses import asdict
from functools import cache

from . import __version__
from .classes import ClassSpec, PARAM_KINDS, verify_class
from .cohomology import h1_cyclic, h1_halfsum, h1_oracle
from .conditions import check_conditions, orbits, project
from .enumeration import enumerate_wdn, verify_tables
from .groups import closure
from .picard import phi
from .signedperm import format_element, lambda_count, parse_element, sigma, signed_cycles

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
MAX_RANK = 64  # well above every rank the tables (<= 9) and the families' smallest instances (<= 15) use

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
    out = {
        "invariant_factors": list(rep.invariant_factors),
        "f2_rank": rep.f2_rank,
        "method": rep.method,
    }
    if rep.witnesses is not None:
        out["witnesses"] = [list(w) for w in rep.witnesses]
    if rep.z1_mod_f_rank is not None:
        out["z1_mod_f_rank"] = rep.z1_mod_f_rank
    if rep.f_minus1_in_span is not None:
        out["f_minus1_in_span"] = rep.f_minus1_in_span
    return out


def cmd_eval(args) -> int:
    g = parse_element(args.element, args.n)
    result = {
        "normal_form": format_element(g),
        "sigma": sigma(g),
        "lambda": lambda_count(g),
        "order": g.order(),
        "signed_cycles": [
            {"support": list(c.support), "minus_indices": sorted(c.minus_indices), "trivial": c.trivial}
            for c in signed_cycles(g)
        ],
    }
    if sigma(g) == 1:
        result["phi"] = phi(g).to_rows()
    _emit(_report("eval", {"n": args.n, "element": args.element}, result))
    return EXIT_OK


def cmd_h1(args) -> int:
    G, gens = _parse_group(args)
    inputs = {"n": args.n, "generators": list(args.generators), "method": args.method}
    stats = {"group_order": G.order}
    if args.method == "cyclic":
        if len(gens) != 1:
            raise ValueError("--method cyclic needs exactly one generator")
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
    dec = orbits(G)
    result = asdict(rep) | {
        "orbit_profile": list(rep.orbit_profile),
        "orbits": [list(o) for o in dec.orbits],
    }
    ok = rep.h1_ok and rep.relatively_minimal and rep.fiber_pairs_joined and rep.at_most_three_orbits
    result["all_conditions"] = ok
    _emit(_report("check", {"n": args.n, "generators": list(args.generators)}, result))
    return EXIT_OK if ok else EXIT_FAILED


def cmd_class(args) -> int:
    params = {k: getattr(args, k) for k in PARAM_KINDS.get(args.id, ()) if getattr(args, k) is not None}
    for key, val in params.items():
        # every family's rank exceeds each of its parameters
        if val > MAX_RANK:
            raise ValueError(f"parameter {key} must be at most MAX_RANK = {MAX_RANK}, got {val}")
    spec = ClassSpec(args.id, params)
    if spec.rank > MAX_RANK:
        raise ValueError(f"rank n must be at most {MAX_RANK}, got {spec.rank}")
    rep = verify_class(spec)
    result = {
        "class_id": args.id,
        "params": params,
        "rank": rep.rank,
        "order": rep.order,
        "orbit_profile": list(rep.orbit_profile),
        "expected_profile": list(rep.expected_profile),
        "orbit_profile_ok": rep.orbit_profile_ok,
        "h1_ok": rep.h1_ok,
        "relmin_ok": rep.relmin_ok,
        "sylow2_order": rep.sylow2_order,
        "verified": rep.all_ok,
    }
    _emit(_report("class", {"id": args.id, "params": params}, result))
    return EXIT_OK if rep.all_ok else EXIT_FAILED


def cmd_project(args) -> int:
    G, _ = _parse_group(args)
    dec = orbits(G)
    orbit = next((o for o in dec.orbits if args.orbit in o), None)
    if orbit is None:
        raise ValueError(f"index {args.orbit} is out of range 1..{args.n}")
    proj = project(G, orbit)
    cond = check_conditions(proj.group)
    result = {
        "source_orbit": list(proj.source_orbit),
        "rank": proj.rank,
        "appended_flag": proj.appended_flag,
        "order": proj.group.order,
        "generators": [format_element(g) for g in proj.group.generators],
        "conditions": asdict(cond) | {"orbit_profile": list(cond.orbit_profile)},
    }
    _emit(_report("project", {"n": args.n, "generators": list(args.generators), "orbit": args.orbit}, result))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    mode = args.mode or ("full" if args.n <= 5 else "generator_guided")
    t0 = time.monotonic()
    res = enumerate_wdn(args.n, mode)
    stats = dict(res.stats)
    if args.timing:
        stats["elapsed_ms"] = int((time.monotonic() - t0) * 1000)
    result = {
        "n": args.n,
        "mode": mode,
        "count": len(res.entries),
        "entries": [
            {
                "order": e.order,
                "orbit_profile": list(e.orbit_profile),
                "abelian_invariants": list(e.abelian_invariants),
                "name": e.name,
                "class_id": e.class_id,
                "class_params": e.class_params,
                "generators": list(e.generators),
                "canonical_key": _key_json(e.canonical_key),
            }
            for e in res.entries
        ],
    }
    _emit(_report("enumerate", {"n": args.n, "mode": mode}, result, stats))
    return EXIT_OK


def _key_json(key):
    if key is None:
        return None
    n, rows = key
    return {"n": n, "rows": [list(r) for r in rows]}


def cmd_verify_tables(args) -> int:
    t0 = time.monotonic()
    rep = verify_tables(args.n)
    stats = {}
    if args.timing:
        stats["elapsed_ms"] = int((time.monotonic() - t0) * 1000)
    result = {
        "n": args.n,
        "rows": [asdict(r) | {"all_ok": r.all_ok} for r in rep.rows],
        "pairwise_distinct": rep.pairwise_distinct,
        "all_ok": rep.all_ok,
    }
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
    for key in ("n", "n1", "n2", "n3", "p", "r"):
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
