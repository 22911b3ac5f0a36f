import hashlib
import json

import pytest

from conich1 import enumeration, groups
from conich1.cohomology import h1_condition_cyclic
from conich1.conditions import fiber_pair_condition
from conich1.enumeration import (
    CLEAN_SUBGROUP_CAP,
    D6_FIXTURES,
    TABLE_ROWS,
    _enumerate_full,
    _enumerate_guided,
    _orbit_and_normalizer,
    _row,
    clean_elements,
    enumerate_wdn,
    match_table_row,
    right_regular_table,
    verify_tables,
)
from conich1.groups import (
    ConjugationLabels,
    are_conjugate,
    canonical_form,
    closure,
    conjugacy_orbit,
    enc_closure,
    enc_mul,
    ordered_subgroups,
    sylow2,
    wdn_generators,
)
from conich1.signedperm import SignedPerm, enc_inv, identity_enc, parse_element, wdn_order
from helpers import as_tuple, clean_elements_by_closure, iter_wdn


def test_table_row_counts():
    assert {n: len(rows) for n, rows in TABLE_ROWS.items()} == {4: 1, 5: 3, 6: 15, 7: 10, 8: 4, 9: 13}


def test_d6_fixture_rows_present():
    assert sorted(D6_FIXTURES) == [
        "D6(10)", "D6(12)", "D6(13)", "D6(14)", "D6(15)", "D6(4)", "D6(7)", "D6(8)", "D6(9)",
    ]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
def test_verify_tables(n):
    rep = verify_tables(n)
    assert rep.all_ok, [r.row_id for r in rep.rows if not r.all_ok]
    assert rep.pairwise_distinct


def test_verify_tables_needs_no_conjugacy_search(monkeypatch):
    # the rows of each rank differ in fingerprint, W(D_n)-class key
    # included, so proving them pairwise distinct runs no backtrack
    calls = []
    search = groups.conjugating_element
    monkeypatch.setattr(groups, "conjugating_element", lambda *pair: calls.append(pair) or search(*pair))
    for n in range(4, 10):
        assert verify_tables(n).pairwise_distinct
    assert calls == []


def test_verify_tables_unknown_rank():
    with pytest.raises(ValueError):
        verify_tables(11)


def test_clean_elements_small():
    clean = clean_elements(4)
    # the Klein-type flip c1c2c3c4 has Lambda = 4, so it is not clean
    assert parse_element("c1 c2 c3 c4", 4).enc not in clean
    assert parse_element("c1 c2", 4).enc in clean
    assert parse_element("(1,2,3)", 4).enc in clean


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_clean_elements_match_per_element_evaluation(n):
    # clean_elements evaluates one element per signed cycle type
    assert clean_elements(n) == {g.enc for g in iter_wdn(n) if h1_condition_cyclic(g)[0]}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_clean_elements_match_the_closure_route(n):
    # the lazy walk over permutations and even flip sets keeps the same
    # elements as filtering W(D_n) closed from its generators
    assert clean_elements(n) == clean_elements_by_closure(n)


def test_enumerate_4_both_modes():
    full = enumerate_wdn(4, "full")
    guided = enumerate_wdn(4, "generator_guided")
    assert len(full.entries) == len(guided.entries) == 1
    assert full.entries[0].class_id == 1 and full.entries[0].name == "S_3"
    assert {e.canonical_key for e in full.entries} == {e.canonical_key for e in guided.entries}


FULL_SEARCH_STATS = {
    4: {"subgroup_classes": 98, "subgroups_total": 605, "closures": 2036, "prime_power_cyclics": 101},
    5: {"subgroup_classes": 197, "subgroups_total": 6697, "closures": 11902, "prime_power_cyclics": 601},
}


def class_digest(reps):
    classes = [(sorted(map(as_tuple, G.enc_set)), list(map(as_tuple, G.spanning_encs))) for G in reps]
    return hashlib.sha256(repr(classes).encode()).hexdigest()


def test_full_search_is_pinned(full_lattice):
    # the full-mode search is deterministic; a change here is a change of the search
    reps, stats = _enumerate_full(4)
    assert stats == FULL_SEARCH_STATS[4]
    assert class_digest(reps) == "7decb22f234c348757a2ccfae9b2e1c5ac8234bb19cc1214e4261b1bccfe60ce"
    reps, stats = full_lattice(5)
    assert stats == FULL_SEARCH_STATS[5]
    assert class_digest(reps) == "01a9f6183972e238bdc705995f30d7660717628057fcff265995f79ff597293f"


def test_guided_walks_and_the_subgroup_stream_are_pinned(guided_walk):
    # the classes with their generators of the guided rank-4/5 walks, and
    # the subgroup stream of a Sylow 2-subgroup of W(D_4), as recorded before
    # the walker stopped re-closing prime-index siblings: the skip changes
    # the closure counts and nothing the walks return
    assert class_digest(guided_walk(4)[0]) == "28ab3e9522186e8b7c7a2e8e3a40bd554c17d68ace992b2be1aba1c1217c1dd2"
    assert class_digest(guided_walk(5)[0]) == "c15311a9653f33384a815fdfd1225466df692f4aba7e0a05c9bc6d0ef630f588"
    wdn4 = closure([SignedPerm.from_enc(4, e) for e in wdn_generators(4)])
    stream = ordered_subgroups(sylow2(wdn4))
    assert class_digest(stream) == "36fb55ad914cd7b2d9e7966ecc21fd34086afe227b548deeb4efb6965917e31b"


def _full_mode_table(n):
    """What full mode's orbit walk reads: the right-regular table of W(D_n),
    the identity's index and the moves (w, w^-1, q -> w q w^-1) for the
    generators w, here by encoding arithmetic; and conjugation on indices."""
    encs, index, right = right_regular_table(n)

    def conjugate(g, k):
        return index[enc_mul(enc_mul(encs[g], encs[k]), enc_inv(encs[g]))]

    ws = [index[w] for w in wdn_generators(n)]
    moves = [(w, index[enc_inv(encs[w])], tuple(conjugate(w, q) for q in range(len(encs)))) for w in ws]
    return encs, index, right, index[identity_enc(n)], moves, conjugate


def test_full_mode_normalizers(full_lattice):
    # every normalizer generator full mode traces candidates with maps K onto
    # itself, and they generate a group of order |W| / |orbit(K)|, which is
    # |N_W(K)| by the orbit-stabilizer theorem
    n = 4
    encs, index, right, ident, moves, conjugate = _full_mode_table(n)
    reps, _ = full_lattice(n)
    for G in reps:
        K = frozenset(index[e] for e in G.enc_set)
        orbit, n_gens = _orbit_and_normalizer(K, [index[e] for e in G.spanning_encs], right, ident, moves)
        assert orbit[0] == K and len(set(orbit)) == len(orbit)
        for g in n_gens:
            assert {conjugate(g, k) for k in K} == K
        assert len(enc_closure([encs[g] for g in n_gens], n)) * len(orbit) == wdn_order(n)


@pytest.mark.parametrize("n", [4, 5])
def test_full_mode_orbit_walk_matches_conjugacy_orbit(n, full_lattice):
    # full mode's walk on the right-regular table and groups.conjugacy_orbit
    # labelled over all of W(D_n), whose labels are the table's indices, give
    # the same orbit in the same order and the same normalizer on every class
    encs, index, right, ident, moves, _ = _full_mode_table(n)
    labels = ConjugationLabels(n, encs)
    assert list(labels.encs) == encs
    reps, _ = full_lattice(n)
    for G in reps:
        K = frozenset(index[e] for e in G.enc_set)
        orbit, n_gens = _orbit_and_normalizer(K, [index[e] for e in G.spanning_encs], right, ident, moves)
        labelled_orbit, gens = conjugacy_orbit(labels, G.enc_set, G.spanning_encs)
        assert labelled_orbit == orbit, G
        assert enc_closure(gens, n) == enc_closure([encs[g] for g in n_gens], n), G


@pytest.mark.parametrize("n", [2, 3, 4])
def test_right_regular_table(n):
    # right[y][h] is the index of h*y, for every pair
    encs, index, right = right_regular_table(n)
    assert encs == sorted(index) and len(right) == len(encs)
    for y, row in enumerate(right):
        assert row == tuple(index[enc_mul(h, encs[y])] for h in encs)


def test_enumerate_rejects_bad_modes():
    with pytest.raises(ValueError):
        enumerate_wdn(6, "full")
    with pytest.raises(ValueError):
        enumerate_wdn(8, "generator_guided")
    with pytest.raises(ValueError):
        enumerate_wdn(5, "nope")


def test_match_table_row():
    grp = closure([parse_element(t, 4) for t in ("c1 c2 c3 c4 (2,3)", "(1,2,3)")])
    name, cid, params = match_table_row(grp)
    assert name == "S_3" and cid == 1 and params == {"n": 1}
    # a plain dict, not the row's read-only spec params, so reports serialize
    assert type(params) is dict and json.dumps(params) == '{"n": 1}'
    params["n"] = 2
    assert match_table_row(grp)[2] == {"n": 1}
    unknown = closure([parse_element("c1 c2", 4)])
    name, cid, params = match_table_row(unknown)
    assert cid is None and "order 2" in name


def test_match_table_row_raises_on_a_broken_row(monkeypatch):
    # a row of the right order that cannot be built (no class, no fixture)
    # is an error in the table, not a reason to fall back to a generic name
    grp = closure([parse_element(t, 4) for t in ("c1 c2 c3 c4 (2,3)", "(1,2,3)")])
    monkeypatch.setitem(TABLE_ROWS, 4, [_row("D4(broken)", "S_3", 6)])
    with pytest.raises(ValueError, match="missing fixture generators"):
        match_table_row(grp)


def test_enumerate_5_guided_matches_table(guided_enumeration):
    res = guided_enumeration(5)
    rows = TABLE_ROWS[5]
    assert sorted(e.name for e in res.entries) == sorted(row.name for row in rows)
    assert {e.canonical_key for e in res.entries} == {canonical_form(row.build(5)) for row in rows}
    # the walk's work is deterministic; a change here is a change of the search
    keys = ("closures", "aborted_closures", "capped_closures", "conjugacy_tests", "clean_subgroup_classes")
    stats = {k: res.stats[k] for k in keys}
    assert stats == {
        "closures": 650, "aborted_closures": 178, "capped_closures": 0, "conjugacy_tests": 81, "clean_subgroup_classes": 60,
    }


@pytest.mark.parametrize("n, count", [(4, 41), (5, 60)])
def test_guided_classes_are_the_clean_classes_of_full_mode(n, count, full_lattice, guided_walk):
    # guided mode extends each class once per normalizer orbit; full mode,
    # which dedups by literal conjugation orbits, is the completeness
    # reference: its clean classes are those of clean elements only, within
    # guided mode's order cap
    clean = clean_elements(n)
    reference, _ = full_lattice(n)
    expected = {
        canonical_form(H)
        for H in reference
        if H.order <= CLEAN_SUBGROUP_CAP and H.enc_set <= clean
    }
    groups, stats = guided_walk(n)
    keys = [canonical_form(H) for H in groups]
    assert stats["clean_subgroup_classes"] == count
    assert len(keys) == len(set(keys)) == count + 1  # the trivial group is walked, not stored
    assert set(keys) == expected


@pytest.mark.parametrize(
    "n, histogram", [(4, {1: 28, 2: 8, 4: 6}), (5, {1: 27, 2: 22, 4: 12}), (6, {1: 186, 2: 65, 4: 31})]
)
def test_guided_classes_meet_the_sign_changes_in_at_most_a_triangle(n, histogram, guided_walk):
    # the kernel bound: a clean sign change flips exactly two indices, so
    # for every clean class G the sign changes in G are trivial, one pair
    # c_i c_j, or the three pairs of a triangle
    groups, _ = guided_walk(n)
    orders = {}
    for G in groups:
        kernel = [e for e in G.enc_set if all(s >> 1 == j for j, s in enumerate(e[::2]))]
        pairs = {frozenset(j for j, s in enumerate(e[::2]) if s & 1) for e in kernel} - {frozenset()}
        assert all(len(p) == 2 for p in pairs), G
        assert len(pairs) in (0, 1, 3) and len(frozenset().union(*pairs)) in (0, 2, 3), G
        orders[len(kernel)] = orders.get(len(kernel), 0) + 1
    assert orders == histogram


@pytest.mark.heavy
def test_enumerate_5_both_modes_heavy():
    full = enumerate_wdn(5, "full")
    guided = enumerate_wdn(5, "generator_guided")
    assert len(full.entries) == len(guided.entries) == 3
    assert {e.canonical_key for e in full.entries} == {e.canonical_key for e in guided.entries}


def test_enumerate_6_guided_matches_table(guided_enumeration):
    res = guided_enumeration(6)
    assert [(e.name, e.order) for e in res.entries] == [(row.name, row.order) for row in TABLE_ROWS[6]]
    # the walk's work is deterministic; a change here is a change of the search
    keys = ("closures", "aborted_closures", "capped_closures", "conjugacy_tests", "clean_subgroup_classes")
    stats = {k: res.stats[k] for k in keys}
    assert stats == {
        "closures": 7585, "aborted_closures": 2076, "capped_closures": 0, "conjugacy_tests": 1076,
        "clean_subgroup_classes": 281,
    }


@pytest.mark.heavy
def test_enumerate_6_matches_table(guided_enumeration):
    res = guided_enumeration(6)
    assert len(res.entries) == 15
    # row-for-row: every enumerated class is conjugate to exactly one table row
    rows = [(row, row.build(6)) for row in TABLE_ROWS[6]]
    matched = set()
    for e in res.entries:
        grp = closure([parse_element(t, 6) for t in e.generators], n=6)
        hits = [row.row_id for row, R in rows if R.order == grp.order and are_conjugate(grp, R)]
        assert len(hits) == 1, (e.order, hits)
        matched.add(hits[0])
    assert len(matched) == 15


@pytest.mark.heavy
def test_rank_7_order_cap_hides_no_passing_class(monkeypatch):
    # the guided walk at rank 7 with no order cap: exactly two clean classes
    # lie above CLEAN_SUBGROUP_CAP, the flip-free A_7 and S_7, and both fail
    # the fiber-pair condition, so the capped walk misses no passing class
    monkeypatch.setattr(enumeration, "CLEAN_SUBGROUP_CAP", wdn_order(7))
    classes, stats = _enumerate_guided(7)
    above = sorted((H for H in classes if H.order > CLEAN_SUBGROUP_CAP), key=lambda H: H.order)
    assert [H.order for H in above] == [2520, 5040]
    for H in above:
        assert not any(s & 1 for e in H.enc_set for s in e[::2])  # flip-free
        assert not fiber_pair_condition(H)
    keys = ("clean_subgroup_classes", "closures", "aborted_closures", "conjugacy_tests", "orbit_points")
    assert {k: stats[k] for k in keys} == {
        "clean_subgroup_classes": 475, "closures": 21691, "aborted_closures": 4917, "conjugacy_tests": 2159,
        "orbit_points": 1055702,
    }


@pytest.mark.heavy
def test_enumerate_7_matches_table(guided_enumeration):
    res = guided_enumeration(7)
    assert len(res.entries) == 10
    rows = [(row, row.build(7)) for row in TABLE_ROWS[7]]
    matched = set()
    for e in res.entries:
        grp = closure([parse_element(t, 7) for t in e.generators], n=7)
        hits = [row.row_id for row, R in rows if R.order == grp.order and are_conjugate(grp, R)]
        assert len(hits) == 1, (e.order, hits)
        matched.add(hits[0])
    assert len(matched) == 10
