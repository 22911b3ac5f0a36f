"""The benchmark's own checks: its work counters repeat exactly.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs one traced round twice with the same seed; every count
the tracer and the enumeration report must come out the same both times,
so a later change that moves a count really changed the work done.
"""

import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

EXACT_SUFFIXES = (".calls", "_out", "_in", ".subgroups_checked")


def traced_round(workload: str, seed: int) -> dict:
    items = run.round_items(workload, seed, 0, run.load_expected())
    job = {"workload": workload, "seed": seed, "round": 0, "trace": True, "items": items}
    return run.run_round(job, time.monotonic() + run.RUN_LIMIT_S)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_for_the_same_seed(workload):
    first, second = traced_round(workload, 5), traced_round(workload, 5)
    assert first["failed"] == 0 and second["failed"] == 0, first["failures"] + second["failures"]
    counts = [name for name in run.per_layer_names() if name.endswith(EXACT_SUFFIXES)]
    for name in counts:
        assert first["layers"][name] == second["layers"][name], name
    assert first.get("enum_stats") == second.get("enum_stats")
    if workload.startswith("enum-"):
        assert first["enum_stats"]["closures"] > 0


def test_seed_changes_cli_inputs_only():
    expected = run.load_expected()
    for workload in run.WORKLOADS:
        a = run.round_items(workload, 1, 0, expected)
        b = run.round_items(workload, 2, 0, expected)
        if workload == "cli-queries":
            assert a != b
        elif workload.startswith("enum-"):
            assert a == b
        else:  # catalog: the same items, in another order
            assert a != b and sorted(map(str, a)) == sorted(map(str, b))
