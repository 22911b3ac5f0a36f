"""Record the frozen answers in perfbench/expected.json.

    python3 perfbench/freeze.py

Run once at the commit whose answers are the reference.  It stores the
enumeration entries (table names and canonical keys), the orbit counts of
the catalog instances that get projected, and a digest of every
cli-queries report for seed 0, rounds 0..FROZEN_ROUNDS-1.  A performance
change must leave all of them unchanged, so rerunning this is only right
when a change of output is intended.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402  (imports conich1 from src/)
import inputs  # noqa: E402
from conich1 import classes, conditions  # noqa: E402

FROZEN_ROUNDS = 10


def main() -> None:
    expected = {}
    for workload in worker.ENUM_ARGS:
        expected[workload] = {"entries": worker.run_item(workload, {})["entries"]}
    orbit_counts = {}
    for cid in range(1, 25):
        for t, spec in enumerate(classes.smallest_param_tuples(cid, count=inputs.CATALOG_TUPLES)):
            G = classes.build_group(spec)
            if G.order <= inputs.CATALOG_PROJECT_MAX_ORDER:
                orbit_counts[f"{cid}:{t}"] = len(conditions.orbits(G).orbits)
    expected["catalog_orbits"] = orbit_counts
    digests = []
    for r in range(FROZEN_ROUNDS):
        queries = inputs.cli_queries(0, r)
        outputs = [worker.run_item("cli-queries", q) for q in queries]
        bad = [(q, why) for q, o in zip(queries, outputs) if (why := worker.check_cli(q, o, None))]
        if bad:
            raise SystemExit(f"round {r}: {len(bad)} queries fail their checks, first {bad[0]}")
        digests.append([worker.digest(o["stdout"]) for o in outputs])
    expected["cli_digests_seed0"] = digests
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
