"""One benchmark round in a fresh interpreter.

Started by run.py, which writes the round's job as JSON on stdin: workload,
seed, round index, the generated items and whether to trace.  The worker
imports conich1 first thing (set-up is the time from the launch until that
import returns, less the speed probe run just before it), runs the items one
after another, checks every answer after the timed body, and prints one JSON
line with its measurements on stdout.  Untraced rounds report times in the
reference seconds of speed.py; traced rounds report real seconds.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
ENTERED = time.monotonic()

import speed  # noqa: E402

PROBE_0 = speed.probe()
PROBED = time.monotonic()
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import conich1  # noqa: E402,F401  (set-up ends when this returns)

IMPORTED = time.monotonic()
PROBE_1 = speed.probe()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

from conich1 import classes, cli, cohomology, conditions, enumeration, groups, signedperm  # noqa: E402
from inputs import CATALOG_TUPLES  # noqa: E402

TABLE_SIZES = {4: 1, 5: 3, 6: 15, 7: 10, 8: 4, 9: 13}
ENUM_ARGS = {"enum-full": (4, "full"), "enum-guided": (5, "generator_guided")}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _spec(item: dict):
    return classes.smallest_param_tuples(item["family"], count=CATALOG_TUPLES)[item["tuple"]]


def run_item(workload: str, item: dict):
    """The timed work of one item; returns what the answer check needs."""
    if workload in ENUM_ARGS:
        res = enumeration.enumerate_wdn(*ENUM_ARGS[workload])
        entries = [[e.name, e.canonical_key[0], [list(r) for r in e.canonical_key[1]]] for e in res.entries]
        return {"entries": entries, "stats": res.stats}
    if workload == "catalog":
        kind = item["kind"]
        if kind == "verify_class":
            return classes.verify_class(_spec(item)).all_ok
        if kind == "project":
            G = classes.build_group(_spec(item))
            orbs = conditions.orbits(G).orbits
            if len(orbs) != item["orbit_count"]:
                return f"{len(orbs)} orbits, expected {item['orbit_count']}"
            P = conditions.project(G, orbs[item["orbit"]])
            return cohomology.h1_condition(P.group).ok is True and conditions.relative_minimality(P.group)
        rep = enumeration.verify_tables(item["n"])
        return rep.all_ok and len(rep.rows) == TABLE_SIZES[item["n"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(item["argv"])
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def check_cli(item: dict, got: dict, frozen_digest: str | None) -> str | None:
    """None when the query's report is right, else what is wrong."""
    command, rc = item["command"], got["rc"]
    if rc not in ((0, 1) if command == "check" else (0,)):
        return f"exit {rc}: {got['stderr'].strip()}"
    try:
        report = json.loads(got["stdout"])
    except json.JSONDecodeError:
        return "report is not JSON"
    result, stats, argv = report["result"], report["stats"], item["argv"]
    n = int(argv[2])
    if command == "eval":
        if result["normal_form"] != argv[-1] or result["order"] != item["order"]:
            return "eval normal form or order differs from the generated element"
    elif command == "h1-cyclic":
        if stats["group_order"] != item["order"]:
            return "group order differs"
        g = signedperm.parse_element(argv[-1], n)
        oracle = cohomology.h1_oracle(groups.closure([g], n=n))
        if result["invariant_factors"] != list(oracle.invariant_factors):
            return "cyclic closed form differs from the oracle"
    elif command == "h1-cross":
        if stats["group_order"] != item["order"] or result["agree"] is not True:
            return "oracle and half-sum disagree, or group order differs"
    elif command == "check":
        if (rc == 0) != result["all_conditions"]:
            return "exit code contradicts the verdict"
    elif item["order"] % result["order"]:
        return "projected order does not divide the group order"
    if frozen_digest is not None and digest(got["stdout"]) != frozen_digest:
        return "report differs from the frozen default-seed report"
    return None


def check(workload: str, job: dict, items: list, outputs: list, expected: dict) -> list:
    """Answer checks, after the timed body; one entry per failed item."""
    failures = []
    digests = None
    if workload == "cli-queries" and job["seed"] == 0:
        rounds = expected["cli_digests_seed0"]
        digests = rounds[job["round"]] if job["round"] < len(rounds) else None
        if digests is not None and len(digests) != len(items):
            return [{"item": item, "why": "the frozen seed-0 reports are for another query mix"} for item in items]
    for i, (item, got) in enumerate(zip(items, outputs)):
        if isinstance(got, BaseException):
            why = "".join(traceback.format_exception_only(type(got), got)).strip()
        elif workload in ENUM_ARGS:
            why = None if got["entries"] == expected[workload]["entries"] else f"entries {got['entries']} are not the frozen ones"
        elif workload == "catalog":
            why = None if got is True else f"check failed: {got!r}"
        else:
            why = check_cli(item, got, digests[i] if digests else None)
        if why is not None:
            failures.append({"item": item, "why": why})
    return failures


def main() -> int:
    job = json.load(sys.stdin)
    workload, items = job["workload"], job["items"]
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)

    # Traced rounds only give per-layer numbers and the tracing overhead,
    # both in real seconds, so they run without speed probes.
    tracer = clock = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        clock = speed.SpeedClock()
        clock.start()
    outputs, spans = [], []
    now = time.perf_counter
    t_body = now()
    for item in items:
        t0 = now()
        try:
            outputs.append(run_item(workload, item))
        except Exception as ex:  # an item failure is counted, never fatal
            outputs.append(ex)
        spans.append((t0, now()))
    t_end = now()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        wall_s, item_ms = t_end - t_body, [(b - a) * 1000.0 for a, b in spans]
        cpu_s = time.process_time() - PROBE_0 - PROBE_1
        slowdown = setup_slowdown = None
    else:
        clock.stop()
        slowdown = clock.slowdown()
        # the two probes around the import and the first ones of the body
        setup_probes = [PROBE_0, PROBE_1] + clock.durations[:3]
        setup_slowdown = statistics.median(setup_probes) / speed.PROBE_REFERENCE_S
        wall_s = clock.reference_seconds(t_body, t_end)
        item_ms = [clock.reference_seconds(a, b) * 1000.0 for a, b in spans]
        cpu_before = clock.cpu_starts[0] - PROBE_0 - PROBE_1
        cpu_s = cpu_before / setup_slowdown + clock.reference_cpu_seconds()

    failures = check(workload, job, items, outputs, expected)
    result = {
        "entered": ENTERED,
        "setup_tail_s": IMPORTED - PROBED,
        "setup_slowdown": setup_slowdown,
        "slowdown": slowdown,
        "wall_s": wall_s,
        "wall_raw_s": t_end - t_body - (clock.probe_seconds(t_body, t_end) if clock else 0.0),
        "cpu_s": cpu_s,
        "peak_rss_mib": peak_rss_mib,
        "item_ms": item_ms,
        "attempted": len(items),
        "failed": len(failures),
        "failures": failures[:20],
    }
    if workload in ENUM_ARGS and isinstance(outputs[0], dict):
        result["enum_stats"] = outputs[0]["stats"]
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
