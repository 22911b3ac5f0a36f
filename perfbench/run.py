"""conich1 benchmark runner.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steady K [--workload W ...] [--seconds S]

Run from the repository root.  A run is one closed-loop client: it starts a
fresh worker interpreter (perfbench/worker.py) per round, one at a time, each
a single process and a single thread that issues its next item only after
the previous one finished.  Rounds repeat until ``--seconds`` have passed
(at least MIN_ROUNDS of them), and the run reports medians over rounds and
percentiles over all items.  A fresh interpreter per round means nothing one
round computes is reused by the next.

Times in the end-to-end metrics are reference seconds (see speed.py): real
time divided by how much slower than its quiet speed the shared machine ran
at that moment, as a fixed probe measured it.  The real-time medians are
printed next to them.

Workloads (the why of each is also in BENCHMARK.json):

* enum-full     enumerate_wdn(4, "full"): the H^1 filter side.
* enum-guided   enumerate_wdn(5, "generator_guided"): the subgroup walker.
* catalog       verify_class, orbit projections and verify_tables; every
                group passes, so h1_condition never exits early.
* cli-queries   stratified in-process cli.main queries on random subgroups.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of perfbench/tracer.py; a traced run
alternates untraced and traced rounds on the same inputs, and
trace.overhead_ratio is their median wall-time ratio.  Earlier stdout lines
give the run environment and every metric with its unit and sample count,
fail_ratio included.  The full record, and in traced runs the spans of the
last traced round, go to .perfbench-out/.

``--steady K`` runs each workload K times with seeds 1..K and prints each
end-to-end metric's median, its quartile spread as a share of the median,
and the bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("enum-full", "enum-guided", "catalog", "cli-queries")
MIN_ROUNDS = 3
RUN_LIMIT_S = 170.0
UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p95_ms": "ms",
}


# copied from EnumerationResult.stats; each mode sets only some of them
ENUM_STATS = ("closures", "aborted_closures", "conjugacy_tests", "subgroup_classes", "clean_subgroup_classes")


class RunError(Exception):
    pass


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def round_items(workload: str, seed: int, round_index: int, expected: dict) -> list[dict]:
    if workload == "cli-queries":
        return inputs.cli_queries(seed, round_index)
    if workload == "catalog":
        return inputs.catalog_items(seed, round_index, expected["catalog_orbits"])
    return [{"enumerate": workload}]


def run_round(job: dict, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=max(1.0, deadline - launched),
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"round {job['round']} ran past the {RUN_LIMIT_S:.0f} s run limit") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_raw_s"] = out["entered"] - launched + out["setup_tail_s"]
    if out["setup_slowdown"] is not None:
        out["setup_s"] = out["setup_raw_s"] / out["setup_slowdown"]
    return out


def run_rounds(workload: str, seed: int, seconds: int, trace: bool, expected: dict) -> list[dict]:
    """Rounds until ``seconds`` have passed; traced runs do untraced/traced pairs."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    os.makedirs(OUT, exist_ok=True)
    rounds: list[dict] = []
    r = 0
    while r < (1 if trace else MIN_ROUNDS) or time.monotonic() - start < seconds:
        items = round_items(workload, seed, r, expected)
        for traced in (False, True) if trace else (False,):
            job = {"workload": workload, "seed": seed, "round": r, "trace": traced, "items": items}
            if traced:
                job["spans_path"] = os.path.join(OUT, f"{workload}-seed{seed}.spans.gz")
            rounds.append(run_round(job, deadline) | {"traced": traced, "round": r})
        r += 1
    return rounds


def end_to_end(rounds: list[dict]) -> tuple[dict, dict]:
    """Metric values and the sample count behind each; times in reference seconds."""
    plain = [r for r in rounds if not r["traced"]]
    items = [ms for r in plain for ms in r["item_ms"]]
    values = {k: statistics.median(r[k] for r in plain) for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mib")}
    values["items_per_s"] = len(items) / sum(r["wall_s"] for r in plain)
    values["item_p50_ms"] = statistics.median(items)
    values["item_p95_ms"] = statistics.quantiles(items, n=20, method="inclusive")[18]
    samples = dict.fromkeys(("setup_s", "wall_s", "cpu_s", "peak_rss_mib"), len(plain))
    samples |= dict.fromkeys(("items_per_s", "item_p50_ms", "item_p95_ms"), len(items))
    return values, samples


def per_layer(rounds: list[dict]) -> dict:
    """Counts and ratios from the first traced round, times as medians."""
    traced = [r for r in rounds if r["traced"]]
    first = traced[0]["layers"]
    values = {}
    for name in tracer.metric_names():
        if name.endswith("_s"):
            values[name] = statistics.median(r["layers"][name] for r in traced)
        else:
            values[name] = first[name]
    stats = traced[0].get("enum_stats", {})
    for key in ENUM_STATS:
        values[f"enumeration.stats.{key}"] = stats.get(key, 0)
    plain_wall = statistics.median(r["wall_raw_s"] for r in rounds if not r["traced"])
    values["trace.overhead_ratio"] = statistics.median(r["wall_raw_s"] for r in traced) / plain_wall
    return values


def per_layer_names() -> list[str]:
    return tracer.metric_names() + [f"enumeration.stats.{k}" for k in ENUM_STATS] + ["trace.overhead_ratio"]


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def environment() -> dict:
    sha = ""
    if os.path.exists(os.path.join(ROOT, ".git")):  # never let git search the directories above ROOT
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": sha or "unknown (not a git checkout)",
        "nproc": os.cpu_count(),
        "processes_per_round": 1,
        "threads_per_round": 1,
        "client": "closed loop, one worker at a time",
        "machine": platform.machine(),
    }


def run(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "conich1", "__init__.py")):
        print("error: src/conich1 not found; run from the repository root of a full checkout", file=sys.stderr)
        return 2
    expected = load_expected()
    try:
        rounds = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace), expected)
    except RunError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} rounds {len(rounds)} items {attempted}")
    print(f"fail_ratio {failed / attempted:.6f} ratio (failed {failed} of {attempted} items)")
    for r in rounds:
        for f in r["failures"]:
            print(f"FAILED round {r['round']}: {f['why']} -- {json.dumps(f['item'])}")
    if args.trace:
        values = per_layer(rounds)
        metrics = {k: {"value": values[k], "unit": layer_unit(k)} for k in per_layer_names()}
        for k, m in metrics.items():
            print(f"{k} {m['value']:.6g} {m['unit']}")
    else:
        values, samples = end_to_end(rounds)
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}
        for k, m in metrics.items():
            print(f"{k} {m['value']:.6g} {m['unit']} (n={samples[k]})")
        plain = [r for r in rounds if not r["traced"]]
        raw = {k: statistics.median(r[k] for r in plain) for k in ("setup_raw_s", "wall_raw_s", "slowdown")}
        print("real seconds, not in reference seconds: " + " ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    record = {"env": env, "args": vars(args), "metrics": metrics, "rounds": rounds}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def steady(args) -> int:
    """Repeat each workload with seeds 1..K and print spread against bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    ok = True
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in range(1, args.steady + 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"== {workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread <= bound / 3 else ("WITHIN BOUND" if spread <= bound else "TOO WIDE")
            if name != "setup_s" and spread > bound:
                ok = False
            print(f"  {name:14s} median {med:11.5g}  spread {spread:7.2%}  bound {bound:.0%}  {flag}")
        with open(os.path.join(OUT, f"steady-{workload}.json"), "w") as fh:
            json.dump(runs, fh)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, action="append")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="K", help="repeat each workload K times and print spreads")
    args = ap.parse_args(argv)
    if args.steady:
        os.makedirs(OUT, exist_ok=True)
        return steady(args)
    if not args.workload or len(args.workload) != 1:
        ap.error("give exactly one --workload")
    args.workload = args.workload[0]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
