"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with -s to see the per-criterion lines; the heavy rank-6/7 enumerations
are behind the 'heavy' marker (pytest -m heavy).
"""

import random
import resource
import time

import pytest

from conich1 import enumeration
from conich1.classes import smallest_param_tuples, verify_class
from conich1.cohomology import h1_condition, h1_halfsum, h1_oracle
from conich1.conditions import orbits, project, relative_minimality
from conich1.enumeration import TABLE_ROWS, enumerate_wdn, verify_tables
from conich1.groups import closure
from conich1.picard import phi, verify_aut0
from conich1.signedperm import SignedPerm, lambda_count, parse_element
from helpers import h1_condition_direct, random_subgroup

TORSION_LEDGER: list[tuple[int, ...]] = []


def _record(report):
    TORSION_LEDGER.append(report.invariant_factors)
    return report


def _rand_wdn(rng, n):
    img = list(range(1, n + 1))
    rng.shuffle(img)
    while True:
        minus = [j for j in range(1, n + 1) if rng.random() < 0.4]
        if len(minus) % 2 == 0:
            return SignedPerm(n, img, minus)


def G(n, *texts):
    return closure([parse_element(t, n) for t in texts], n=n)


def test_criterion_1_cyclic_formula_equivalence():
    rng = random.Random(20260810)
    t0 = time.monotonic()
    for i in range(1000):
        n = 4 + i % 5  # n in {4..8}
        g = _rand_wdn(rng, n)
        rep = _record(h1_oracle(closure([g])))
        assert rep.f2_rank == max(lambda_count(g) - 2, 0), (n, g)
        assert rep.invariant_factors == (2,) * rep.f2_rank
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\nPASS criterion 1: 1000 cyclic oracle==formula checks in {elapsed:.1f}s")


def test_criterion_2_worked_examples():
    t0 = time.monotonic()
    expected = [
        (("c1 c2 (1,2)(3,4)", "c1 c3", "c5 c6"), 1),
        (("c1 c2 c3 c4 c5 c6 (1,2)(3,4)(5,6)", "c1 c2 (1,2,3,4)"), 0),
        (("c1 c2 c3 c4 c5 c6 (2,3,5,4)", "(1,2,3,4,5)"), 0),
    ]
    for texts, rank in expected:
        grp = G(6, *texts)
        assert _record(h1_oracle(grp)).f2_rank == rank
        assert _record(h1_halfsum(grp)).f2_rank == rank
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"\nPASS criterion 2: three worked examples (oracle and halfsum) in {elapsed:.1f}s")


def test_criterion_4_all_24_classes():
    t0 = time.monotonic()
    failures = []
    for cid in range(1, 25):
        for spec in smallest_param_tuples(cid, count=2):
            rep = verify_class(spec)
            if not rep.all_ok:
                failures.append((cid, spec.params, rep))
    elapsed = time.monotonic() - t0
    assert not failures, failures
    assert elapsed < 600.0
    print(f"\nPASS criterion 4: 24 classes x 2 parameter tuples all verified in {elapsed:.1f}s")


def test_criterion_5_tables(full_lattice, monkeypatch):
    monkeypatch.setattr(enumeration, "_enumerate_full", full_lattice)
    t0 = time.monotonic()
    full4 = enumerate_wdn(4, "full")
    guided4 = enumerate_wdn(4, "generator_guided")
    full5 = enumerate_wdn(5, "full")
    guided5 = enumerate_wdn(5, "generator_guided")
    assert len(full4.entries) == 1 and len(full5.entries) == 3
    # row-for-row: every entry is a class instantiation from the tables
    assert all(e.class_id is not None for e in full4.entries + full5.entries)
    assert {e.name for e in full5.entries} == {r.name for r in TABLE_ROWS[5]}
    assert {e.canonical_key for e in full4.entries} == {e.canonical_key for e in guided4.entries}
    assert {e.canonical_key for e in full5.entries} == {e.canonical_key for e in guided5.entries}
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    for n, count in ((8, 4), (9, 13)):
        rep = verify_tables(n)
        assert rep.all_ok and len(rep.rows) == count
    print(f"\nPASS criterion 5: enumerate(4)=1, enumerate(5)=3 (both modes, {elapsed:.1f}s); tables n=8,9 verified")


def walk_summary(res):
    # the guided walk's work counters and this process's peak resident set
    s = res.stats
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return (
        f"closures {s['closures']}, aborted {s['aborted_closures']}, capped {s['capped_closures']}, "
        f"conjugacy tests {s['conjugacy_tests']}, ru_maxrss {rss} KiB"
    )


@pytest.mark.heavy
def test_criterion_5_heavy_rank_6(guided_enumeration):
    res = guided_enumeration(6)
    assert len(res.entries) == 15
    assert res.stats["capped_closures"] == 0  # below rank 7 every clean subgroup is under the cap
    print(f"\nPASS criterion 5 (heavy): enumerate(6) = 15 classes; {walk_summary(res)}")


@pytest.mark.heavy
def test_criterion_5_heavy_rank_7(guided_enumeration):
    res = guided_enumeration(7)
    assert len(res.entries) == 10
    print(f"\nPASS criterion 5 (heavy): enumerate(7) = 10 classes; {walk_summary(res)}")


def test_criterion_6_projection_lemma():
    t0 = time.monotonic()
    count = 0
    for cid in range(1, 25):
        for spec in smallest_param_tuples(cid, count=2):
            from conich1.classes import build_group

            grp = build_group(spec)
            for orb in orbits(grp).orbits:
                proj = project(grp, orb)
                assert h1_condition(proj.group).ok is True, (cid, spec.params, orb)
                assert relative_minimality(proj.group), (cid, spec.params, orb)
                count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    print(f"\nPASS criterion 6: {count} orbit projections all pass both conditions in {elapsed:.1f}s")


def test_criterion_7_representation_integrity():
    rng = random.Random(7)
    t0 = time.monotonic()
    for _ in range(10000):
        n = rng.choice([4, 5, 6, 7, 8, 9])
        a, b = _rand_wdn(rng, n), _rand_wdn(rng, n)
        M = phi(a * b)
        assert M == phi(a) @ phi(b)
        assert verify_aut0(M) and verify_aut0(phi(a)) and verify_aut0(phi(b))
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 7: 10^4 homomorphism + aut0 checks in {elapsed:.1f}s")


def test_criterion_8_sylow_reduction():
    rng = random.Random(8)
    fixtures = [
        G(6, "c1 c2 (1,2)(3,4)", "c1 c3", "c5 c6"),
        G(6, "c1 c2 c3 c4 c5 c6 (1,2)(3,4)(5,6)", "c1 c2 (1,2,3,4)"),
        G(6, "c1 c2 c3 c4 c5 c6 (2,3,5,4)", "(1,2,3,4,5)"),
        G(4, "c1 c2 c3 c4 (2,3)", "(1,2,3)"),
        G(8, "c1 c2 c3 c4 c5 c6 c7 c8 (1,3,2,6,4,5)", "(1,2,3,4,5,6,7)"),
    ]
    t0 = time.monotonic()
    checked = 0
    i = 0
    while checked < 100:
        grp = fixtures[i % len(fixtures)]
        i += 1
        H = random_subgroup(grp, rng, max_gens=2)
        via_sylow = h1_condition(H)
        direct = h1_condition_direct(H)
        assert via_sylow.ok == direct.ok, (H.n, H.order)
        checked += 1
    elapsed = time.monotonic() - t0
    print(f"\nPASS criterion 8: 100 random subgroups, Sylow-2 route == direct route in {elapsed:.1f}s")


def test_criterion_3_two_torsion_ledger():
    # run after the computations above have populated the ledger
    assert TORSION_LEDGER, "no H^1 computations recorded"
    for factors in TORSION_LEDGER:
        assert all(d == 2 for d in factors)
    print(f"\nPASS criterion 3: {len(TORSION_LEDGER)} H^1 computations, every invariant factor equals 2")
