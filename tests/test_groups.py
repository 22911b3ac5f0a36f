import hashlib
import random
from functools import reduce
from itertools import combinations, permutations
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from conich1 import groups
from conich1.classes import build_group, smallest_param_tuples
from conich1.enumeration import CLEAN_SUBGROUP_CAP, TABLE_ROWS, _enumerate_full, clean_elements
from conich1.groups import (
    ClassStore,
    ConjugationLabels,
    FiniteGroup,
    _walk_levels,
    abelian_invariants,
    all_subgroups,
    are_conjugate,
    canonical_form,
    closure,
    conjugacy_orbit,
    conjugating_element,
    enc_closure,
    enc_conjugation,
    enc_cycle_type,
    enc_inv,
    enc_mul,
    enc_order,
    fingerprint,
    ordered_subgroups,
    prime_power_cyclics,
    subgroup_walk,
    identity_enc,
    sylow2,
    wdn_generators,
)
from conich1.signedperm import SignedPerm, enc_dn_class, paired_enc, parse_element, wdn_order
from helpers import (
    abelian_invariants_by_counting,
    as_tuple,
    catalog_and_table_groups,
    conjugacy_orbit_by_bfs,
    conjugate_group,
    iter_wdn,
)


def G(n, *texts):
    return closure([parse_element(t, n) for t in texts], n=n)


WDN4 = frozenset(g.enc for g in iter_wdn(4))  # a store's walk labels its orbits over ``within``


def d41():
    return G(4, "c1 c2 c3 c4 (2,3)", "(1,2,3)")


def f7():
    return G(8, "c1 c2 c3 c4 c5 c6 c7 c8 (1,3,2,6,4,5)", "(1,2,3,4,5,6,7)")


def rand_wdn(rng, n):
    img = list(range(1, n + 1))
    rng.shuffle(img)
    while True:
        minus = [j for j in range(1, n + 1) if rng.random() < 0.4]
        if len(minus) % 2 == 0:
            return SignedPerm(n, img, minus)


@st.composite
def wdn_encs(draw, n):
    img = draw(st.permutations(range(n)))
    flips = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    flips[0] ^= sum(flips) % 2  # an even number of flips: inside W(D_n)
    return paired_enc(bytes(2 * i ^ f for i, f in zip(img, flips)))


@pytest.mark.parametrize("n", range(2, 7))
def test_wdn_generators(n):
    # (1,2), c1 c2 and, for n > 2, the n-cycle, closing to all of W(D_n)
    want = [parse_element(t, n).enc for t in ("(1,2)", "c1 c2")]
    if n > 2:
        want.append(parse_element("(" + ",".join(map(str, range(1, n + 1))) + ")", n).enc)
    assert wdn_generators(n) == want
    assert len(enc_closure(wdn_generators(n), n, cap=wdn_order(n))) == wdn_order(n)


def test_wdn_generators_need_rank_2():
    with pytest.raises(ValueError):
        wdn_generators(1)


def test_closure_examples():
    assert d41().order == 6
    assert closure([], n=4).order == 1
    assert f7().order == 42


def test_closure_generator_order_independent():
    gens = [parse_element(t, 6) for t in ("c1 c2 (1,2)(3,4)", "c1 c3", "c5 c6")]
    sets = set()
    for perm in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
        sets.add(closure([gens[i] for i in perm]).enc_set)
    assert len(sets) == 1


def test_closure_errors(monkeypatch):
    with pytest.raises(ValueError):
        closure([parse_element("c1", 4)])  # sigma = -1
    monkeypatch.setattr(groups, "DEFAULT_CLOSURE_CAP", 3)
    with pytest.raises(ValueError, match="cap of 3"):
        closure([parse_element("(1,2,3,4,5)", 5)])
    with pytest.raises(ValueError):
        closure([parse_element("c1 c2", 4), parse_element("c1 c2", 5)])


def test_all_subgroups_s3():
    subs = all_subgroups(d41()).subgroups
    assert len(subs) == 6
    assert sorted(H.order for H in subs) == [1, 2, 2, 2, 3, 6]


def test_all_subgroups_trivial_and_prime():
    assert len(all_subgroups(closure([], n=3)).subgroups) == 1
    assert len(all_subgroups(G(4, "c1 c2 c3 c4")).subgroups) == 2


def test_all_subgroups_bound(monkeypatch):
    monkeypatch.setattr(groups, "DEFAULT_SUBGROUP_BOUND", 10)
    with pytest.raises(ValueError, match="bound 10"):
        all_subgroups(f7())


def euler_phi(k):
    return sum(1 for i in range(1, k + 1) if gcd(i, k) == 1)


@pytest.mark.parametrize("build", [d41, f7, lambda: G(5, "c1 c2 c3 c4 (2,3) (4,5)", "(1,2,3)")])
def test_cyclic_subgroup_phi_identity(build):
    # sum of phi(|H|) over cyclic subgroups H counts each element once
    grp = build()
    subs = all_subgroups(grp).subgroups
    cyclic_total = 0
    for H in subs:
        if any(enc_order(e) == H.order for e in H.enc_set):
            cyclic_total += euler_phi(H.order)
    assert cyclic_total == grp.order


def test_sylow2_examples():
    assert sylow2(d41()).order == 2
    grp = f7()
    P = sylow2(grp)
    assert P.order == 2
    # the Sylow 2-subgroups sit inside <g1>: the 2-part of <g1> is one of
    # them, hence conjugate to the deterministic representative
    g1 = parse_element("c1 c2 c3 c4 c5 c6 c7 c8 (1,3,2,6,4,5)", 8)
    two_part = closure([reduce(mul, [g1] * (g1.order() // 2))])
    assert two_part.order == P.order == 2
    assert are_conjugate(P, two_part)
    two = G(4, "c1 c2", "c3 c4")
    assert sylow2(two).enc_set == two.enc_set


def test_sylow2_order_times_odd_part():
    rng = random.Random(2)
    for build in (d41, f7):
        grp = build()
        P = sylow2(grp)
        odd = grp.order // P.order
        assert P.order * odd == grp.order and odd % 2 == 1
        assert P.order & (P.order - 1) == 0


def least_sylow2_by_brute_force(grp):
    # conjugate one Sylow 2-subgroup by every element of G and keep the least
    P = sylow2(grp).enc_set
    return min(tuple(sorted(map(enc_conjugation(t), P))) for t in grp.enc_set)


def test_sylow2_is_the_least_conjugate():
    reps, _ = _enumerate_full(4)
    families = [build_group(spec) for cid in (3, 13, 18, 20, 22, 23) for spec in smallest_param_tuples(cid, count=1)]
    cases = [H for H in reps if H.order <= 96] + families
    assert len(cases) > 90 and all(grp.order // (grp.order & -grp.order) > 1 for grp in families)
    for grp in cases:
        P = sylow2(grp)
        assert P.order == grp.order & -grp.order and P.enc_set <= grp.enc_set
        assert closure(P.generators, n=grp.n).enc_set == P.enc_set
        assert tuple(sorted(P.enc_set)) == least_sylow2_by_brute_force(grp)


def test_sylow2_is_frozen(full_lattice):
    # the element set and the generators of the Sylow 2-subgroup the climb
    # lands on, for the 48 smallest family instances, the 46 table rows and
    # the full-mode classes at ranks 4 and 5; recorded when each candidate
    # was tested against every element of P rather than its generators
    cases = catalog_and_table_groups() + full_lattice(4)[0] + full_lattice(5)[0]
    assert len(cases) == 94 + 98 + 197
    climbed = [(sorted(map(as_tuple, P.enc_set)), tuple(map(as_tuple, P.spanning_encs))) for P in map(sylow2, cases)]
    assert hashlib.sha256(repr(climbed).encode()).hexdigest() == "5a4477c9bde7f788de0ccfd7b7dcc6ec2d422afe6196df36a024add1da5c9506"


def test_canonical_form_conjugation_invariance():
    rng = random.Random(3)
    grp = d41()
    key = canonical_form(grp)
    for _ in range(100):
        t = rand_wdn(rng, 4)
        assert canonical_form(conjugate_group(grp, t)) == key


def test_canonical_form_distinguishes():
    a = G(4, "c1 c2")
    b = G(4, "c3 c4")
    c = G(4, "c1 c2 (1,2)")
    assert canonical_form(a) == canonical_form(b)
    assert canonical_form(a) != canonical_form(c)


def test_canonical_form_bounds():
    # f7 has rank 8, and |W(D_8)| = 5,160,960 exceeds MAX_CONJUGATORS
    with pytest.raises(ValueError, match="MAX_CONJUGATORS"):
        canonical_form(f7())


def canonical_form_by_scan(grp):
    # the reference: the least sorted image of the element set over all
    # |W(D_n)| conjugators, each built from an image of 1..n and an even
    # set of sign flips at the target indices
    n = grp.n
    best = None
    even_subsets = [c for k in range(0, n + 1, 2) for c in combinations(range(n), k)]
    for img in permutations(range(1, n + 1)):
        base = [2 * (img[j] - 1) for j in range(n)]
        for minus in even_subsets:
            tvec = list(base)
            for j in minus:
                tvec[j] ^= 1
            T = [0] * (2 * n)
            Tinv = [0] * (2 * n)
            for j in range(n):
                s = tvec[j]
                T[2 * j] = s
                T[2 * j + 1] = s ^ 1
                Tinv[s] = 2 * j
                Tinv[s ^ 1] = 2 * j + 1
            key = tuple(
                sorted(
                    tuple(T[h[Tinv[2 * j]]] for j in range(n))
                    for h in grp.enc_set
                )
            )
            if best is None or key < best:
                best = key
    return (n, best)


def test_canonical_form_is_the_scan_minimum(full_lattice):
    reps, _ = full_lattice(4)
    assert len(reps) == 98
    cases = reps + [row.build(5) for row in TABLE_ROWS[5]]
    for grp in cases:
        assert canonical_form(grp) == canonical_form_by_scan(grp), grp


@settings(max_examples=25, deadline=None)
@given(st.lists(wdn_encs(5), min_size=1, max_size=3))
def test_canonical_form_is_the_scan_minimum_on_drawn_subgroups(gens):
    # the scan costs |W(D_5)| |K|, so generators are dropped from the end
    # until the closure is small; one element always closes within the cap
    while (K := enc_closure(gens, 5, cap=64)) is None:
        gens.pop()
    grp = FiniteGroup.from_enc_set(5, K, gens)
    assert canonical_form(grp) == canonical_form_by_scan(grp)


def normalizer_by_brute_force(grp):
    gens = grp.spanning_encs
    return frozenset(
        t for t in (g.enc for g in iter_wdn(grp.n))
        if all(enc_mul(enc_mul(t, g), enc_inv(t)) in grp.enc_set for g in gens)
    )


def orbit_cases(n, full_lattice, count):
    """Every class of W(D_4), and the clean classes of W(D_5) that guided
    mode walks (60 and the trivial group), with the clean elements'
    ConjugationLabels at n = 5."""
    reps, _ = full_lattice(n)
    clean_labels = None
    if n == 5:
        clean = clean_elements(5)
        clean_labels = ConjugationLabels(5, clean)
        reps = [H for H in reps if H.order <= CLEAN_SUBGROUP_CAP and H.enc_set <= clean]
    assert len(reps) == count
    return reps, clean_labels


@pytest.mark.parametrize("n, count", [(4, 98), (5, 61)])
def test_normalizer_matches_brute_force(n, count, full_lattice):
    # each group labelled over its own conjugation closure, as
    # canonical_form labels: the generators close to the normalizer of a
    # brute-force scan of W(D_n), and orbit-stabilizer holds
    reps, _ = orbit_cases(n, full_lattice, count)
    for H in reps:
        labels = ConjugationLabels(n, H.enc_set)
        orbit, gens = conjugacy_orbit(labels, H.enc_set, H.spanning_encs)
        N = enc_closure(gens, n)
        assert N == normalizer_by_brute_force(H), H
        assert len(N) * len(orbit) == wdn_order(n)


@pytest.mark.parametrize("n, count", [(4, 98), (5, 61)])
def test_labelled_orbit_matches_encoding_bfs(n, count, full_lattice):
    # the labelled orbit against the encoding BFS: the same points in the
    # same order; labelled over each group's own conjugation closure at
    # n = 4, as canonical_form labels, and over the clean elements at
    # n = 5, as guided mode does
    reps, clean_labels = orbit_cases(n, full_lattice, count)
    for H in reps:
        labels = ConjugationLabels(n, H.enc_set) if n == 4 else clean_labels
        orbit, _ = conjugacy_orbit(labels, H.enc_set, H.spanning_encs)
        assert [frozenset(labels.encs[i] for i in P) for P in orbit] == conjugacy_orbit_by_bfs(n, H.enc_set)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_normal_subgroups_give_the_wdn_generators_without_closure(n, monkeypatch):
    # the trivial group, the even sign changes and W(D_n) itself are normal,
    # so their orbit is one point and N_W is W(D_n), read off no closure
    ident = identity_enc(n)
    sign_changes = [paired_enc(bytes(2 * j + (j in (i, i + 1)) for j in range(n))) for i in range(n - 1)]
    normal = [
        (frozenset([ident]), []),
        (enc_closure(sign_changes, n), sign_changes),
        (enc_closure(wdn_generators(n), n), wdn_generators(n)),
    ]
    assert [len(H) for H, _ in normal] == [1, 2 ** (n - 1), wdn_order(n)]

    def fail(*args, **kw):
        raise AssertionError("a normal subgroup closed its normalizer")

    monkeypatch.setattr(groups, "enc_closure", fail)
    for H, gens in normal:
        labels = ConjugationLabels(n, H)
        assert conjugacy_orbit(labels, H, gens) == ([labels.of(H)], wdn_generators(n))


def test_conjugation_labels():
    # the closure of a set under W(D_n)-conjugation, sorted, with each
    # generator's conjugation as a permutation of the sort positions
    wdn = [g.enc for g in iter_wdn(4)]
    grp = d41()
    labels = ConjugationLabels(4, grp.enc_set)
    closure_by_scan = {enc_mul(enc_mul(t, h), enc_inv(t)) for t in wdn for h in grp.enc_set}
    assert labels.encs == tuple(sorted(closure_by_scan))
    assert all(labels.index[e] == i for i, e in enumerate(labels.encs))
    for w, perm in zip(wdn_generators(4), labels.perms):
        assert perm == tuple(labels.index[enc_conjugation(w)(e)] for e in labels.encs)
    assert labels.of(grp.enc_set) == frozenset(labels.index[e] for e in grp.enc_set)


@pytest.mark.parametrize("n", [4, 5])
def test_dropped_candidates_give_unclean_extensions(n, monkeypatch):
    # every candidate the guided walk does not extend a kept class by, in
    # its live orbits, closes with that class to a group that leaves the
    # clean elements or exceeds the cap
    clean = clean_elements(n)
    cyclic = prime_power_cyclics(clean)
    candidates = list(dict.fromkeys(cyclic.values()))
    traced = []

    def recording_live_orbits(H, *args, real=groups._live_orbits):
        orbits = real(H, *args)
        traced.append((frozenset(H), {y for orbit in orbits for y in orbit}))
        return orbits

    monkeypatch.setattr(groups, "_live_orbits", recording_live_orbits)
    walk = subgroup_walk(n, cyclic, CLEAN_SUBGROUP_CAP, within=clean, store=ClassStore())
    gens_of = {H.enc_set: list(H.spanning_encs) for H in walk.subgroups}
    assert len(traced) == len(gens_of)  # every kept class, the trivial group too
    dropped = 0
    for H, live in traced:
        for x in candidates:
            if x in H or x in live:
                continue
            dropped += 1
            K = enc_closure(gens_of[H] + [x], n, cap=CLEAN_SUBGROUP_CAP, within=clean, subgroup=H)
            assert K is None, (H, x)
    assert dropped > walk.closures


def test_conjugating_element_roundtrip():
    rng = random.Random(4)
    grp = G(5, "c1 c2 c3 c4 (2,3) (4,5)", "(1,2,3)")
    for _ in range(20):
        t = rand_wdn(rng, 5)
        other = conjugate_group(grp, t)
        s = conjugating_element(grp, other)
        assert s is not None
        assert conjugate_group(grp, s).enc_set == other.enc_set
    assert not are_conjugate(G(4, "c1 c2"), G(4, "c1 c2 (1,2)"))


def test_conjugating_element_checks_the_whole_group(monkeypatch):
    # the search prunes with the stored generators, and an accepted
    # conjugator is still checked on every element: stored generators that
    # generate only a subgroup cannot make it report a false conjugacy.
    # The pair is one of the equal-fingerprint refutations of guided rank 6.
    A, B = G(6, "(3,4) (5,6)", "(1,2) (5,6)"), G(6, "(3,4) (5,6)", "c1 c2 (1,2) (5,6)")
    assert fingerprint(A) == fingerprint(B) and not are_conjugate(A, B)
    first_only = [FiniteGroup.from_enc_set(6, H.enc_set, [H.generators[0].enc]) for H in (A, B)]
    assert fingerprint(first_only[0]) == fingerprint(first_only[1])
    leaves = []  # conjugators that pass the generator and parity checks
    conjugation = groups.enc_conjugation
    monkeypatch.setattr(groups, "enc_conjugation", lambda t: leaves.append(t) or conjugation(t))
    assert conjugating_element(*first_only) is None
    assert leaves
    # the rank-4 pair this test used before is a c1 twin, which the
    # W(D_n)-class key now tells apart before any search
    old = G(4, "(3,4)", "(1,2)"), G(4, "(3,4)", "c1 c2 (1,2)")
    assert are_conjugate(conjugate_group(old[0], parse_element("c1", 4)), old[1])
    assert fingerprint(old[0]) != fingerprint(old[1])


def test_constructors_store_generators_that_generate():
    # fingerprint, the orbit computations and conjugating_element read the
    # stored generators as a generating set of the group
    from conich1.conditions import orbits, project

    wdn4 = closure(list(iter_wdn(4)), n=4)
    families = [build_group(spec) for cid in range(1, 25) for spec in smallest_param_tuples(cid, count=2)]
    small = [grp for grp in families if grp.order <= 400]
    wdn4_cyclic = prime_power_cyclics(wdn4.enc_set)
    made_by = {
        "closure": [closure([], n=3), d41(), f7(), wdn4],
        "walker": list(all_subgroups(sylow2(wdn4)).subgroups)
        + list(subgroup_walk(4, wdn4_cyclic, cap=wdn4.order, within=wdn4.enc_set, store=ClassStore()).subgroups),
        "build_group": families,
        "sylow2": [sylow2(grp) for grp in families + [d41(), f7(), wdn4]],
        "project": [project(grp, orb).group for grp in small for orb in orbits(grp).orbits],
        "full mode": _enumerate_full(4)[0],
    }
    for how, made in made_by.items():
        assert made, how
        for grp in made:
            gens = [g.enc for g in grp.generators]
            assert enc_closure(gens, grp.n, cap=grp.order) == grp.enc_set, (how, grp)


def test_fingerprint_is_conjugation_invariant():
    # also on the rank-6 table rows, whose elements fill split W(D_6)-classes
    rng = random.Random(5)
    for grp in [d41()] + [row.build(6) for row in TABLE_ROWS[6]]:
        fp = fingerprint(grp)
        for _ in range(20):
            assert fingerprint(conjugate_group(grp, rand_wdn(rng, grp.n))) == fp, grp


@pytest.mark.parametrize("n, count", [(2, 4), (3, 5), (4, 13), (5, 18), (6, 37)])
def test_dn_class_key_is_exact(n, count):
    # enc_dn_class is constant on each W(D_n)-class and has one value per
    # class: as many keys as classes, counted by brute force
    wdn = enc_closure(wdn_generators(n), n, cap=wdn_order(n))
    conjugations = [enc_conjugation(w) for w in wdn_generators(n)]
    for e in wdn:
        assert all(enc_dn_class(conj(e)) == enc_dn_class(e) for conj in conjugations)
    left, classes = set(wdn), 0
    while left:
        cls = [left.pop()]
        for e in cls:  # cls grows while it is read
            for conj in conjugations:
                f = conj(e)
                if f in left:
                    left.remove(f)
                    cls.append(f)
        classes += 1
    assert classes == count == len(set(map(enc_dn_class, wdn)))


def test_fingerprint_separates_the_rank6_twins():
    # each pair is W(B_6)- but not W(D_6)-conjugate: c1 maps one row into
    # the other's W(D_6)-class, and the rows differ in fingerprint
    rows = {row.row_id: row.build(6) for row in TABLE_ROWS[6]}
    c1 = parse_element("c1", 6)
    for a, b in [("D6(3)", "D6(4)"), ("D6(7)", "D6(8)"), ("D6(9)", "D6(10)"), ("D6(12)", "D6(13)"), ("D6(14)", "D6(15)")]:
        A, B = rows[a], rows[b]
        assert are_conjugate(conjugate_group(A, c1), B), (a, b)
        assert fingerprint(A) != fingerprint(B), (a, b)


def test_abelian_invariants():
    assert abelian_invariants(G(4, "c1 c2", "c3 c4")) == (2, 2)
    assert abelian_invariants(d41()) == (2,)
    assert abelian_invariants(G(6, "c1 c2 (1,2) (3,4,5)")) == (6,)
    assert abelian_invariants(closure([], n=3)) == ()


def test_abelian_invariants_match_counting(full_lattice):
    # the Smith form of the Schreier relations against p-power counting on
    # every class of W(D_4) and W(D_5), every table row and the two
    # smallest instances of each family
    classes = full_lattice(4)[0] + full_lattice(5)[0]
    tables = [row.build(n) for n in range(4, 10) for row in TABLE_ROWS[n]]
    families = [build_group(spec) for cid in range(1, 25) for spec in smallest_param_tuples(cid, count=2)]
    assert (len(classes), len(tables), len(families)) == (98 + 197, 46, 48)
    seen = set()
    for grp in classes + tables + families:
        inv = abelian_invariants(grp)
        assert inv == abelian_invariants_by_counting(grp), grp
        seen.add(inv)
    assert {(), (2,), (2, 2), (4,), (6,)} <= seen


@pytest.mark.parametrize("n, count", [(4, 101), (5, 496)])
def test_prime_power_cyclics_match_a_scan(n, count):
    # on W(D_4) and the rank-5 clean set: every generator of each cyclic
    # subgroup of prime-power order maps to the subgroup's least generator,
    # and the values first appear in ascending order
    encs = [g.enc for g in iter_wdn(4)] if n == 4 else clean_elements(5)
    by_subgroup = {}
    for e in encs:
        k = enc_order(e)
        primes = {p for p in range(2, k + 1) if k % p == 0 and all(p % q for q in range(2, p))}
        if len(primes) == 1:
            powers = frozenset(enc_closure([e], n))
            by_subgroup.setdefault(powers, []).append(e)
    table = prime_power_cyclics(encs)
    assert table == {x: min(gens) for gens in by_subgroup.values() for x in gens}
    candidates = list(dict.fromkeys(table.values()))
    assert candidates == sorted(min(gens) for gens in by_subgroup.values())
    assert len(candidates) == count


def test_subgroup_walk_s3():
    grp = d41()
    cyclic = prime_power_cyclics(grp.enc_set)
    walk = subgroup_walk(4, cyclic, cap=grp.order)
    assert len(walk.subgroups) == 6 and walk.aborted == 0
    # S_3: the three reflection subgroups fuse under W(D_4)-conjugation
    classes = subgroup_walk(4, cyclic, cap=grp.order, within=WDN4, store=ClassStore())
    assert sorted(H.order for H in classes.subgroups) == [1, 2, 3, 6]


def test_subgroup_walk_matches_full_lattice_wdn4():
    # fingerprint + backtracking dedup against the int-table orbit dedup
    walk = subgroup_walk(4, prime_power_cyclics(WDN4), cap=len(WDN4), within=WDN4, store=ClassStore())
    reference, stats = _enumerate_full(4)
    assert len(walk.subgroups) == len(reference) == stats["subgroup_classes"] == 98
    assert {canonical_form(H) for H in walk.subgroups} == {canonical_form(H) for H in reference}


def test_walk_levels_complete_below_next_power_of_two():
    # after level d every subgroup of order < 2^(d+1) has been yielded,
    # which is what lets ordered_subgroups yield in order without walking
    # the whole lattice first
    wdn = closure(list(iter_wdn(4)), n=4)
    for base in (sylow2(wdn), d41()):
        subgroups = {H.enc_set for H in all_subgroups(base).subgroups}
        found: set = set()
        levels = _walk_levels(4, prime_power_cyclics(base.enc_set), cap=base.order)
        for d, (level, _, aborted) in enumerate(levels):
            assert aborted == 0
            assert all(len(K) >= 2**d for K, _, _ in level)
            found.update(K for K, _, _ in level)
            assert {K for K in subgroups if len(K) < 2 ** (d + 1)} <= found
        assert found == subgroups


def test_ordered_subgroups_is_the_sorted_walk(monkeypatch):
    # the stream is subgroup_walk's lattice sorted by (order, sorted
    # encodings), each subgroup with the generators the walk reached it by
    wdn = closure(list(iter_wdn(4)), n=4)
    for base in (sylow2(wdn), d41()):
        walk = subgroup_walk(4, prime_power_cyclics(base.enc_set), cap=base.order)
        want = sorted((H.order, sorted(H.enc_set), H.spanning_encs) for H in walk.subgroups)
        assert [(H.order, sorted(H.enc_set), H.spanning_encs) for H in ordered_subgroups(base)] == want
    # it walks a level only when the next subgroup asks for it: the trivial
    # group needs no closure, and the subgroups of order 2 and 3 need one
    # per prime-power cyclic candidate, 101 in W(D_4)
    closures = []
    real = groups.enc_closure
    monkeypatch.setattr(groups, "enc_closure", lambda *args, **kw: closures.append(1) or real(*args, **kw))
    stream = ordered_subgroups(wdn)
    assert next(stream).order == 1 and closures == []
    assert next(stream).order == 2 and len(closures) == 101


def test_canonical_form_invariance_rank5_fixture():
    rng = random.Random(13)
    grp = G(5, "c1 c2 c3 c4 (2,3) (4,5)", "(1,2,3)")  # C_3 : C_4 shape
    key = canonical_form(grp)
    for _ in range(30):
        t = rand_wdn(rng, 5)
        assert canonical_form(conjugate_group(grp, t)) == key


BFS_LIMIT = 2000  # the largest cap drawn


def bfs_closure(gens, n, limit=None):
    # the reference: plain breadth-first products from the identity, cut
    # off once it holds more than ``limit`` elements
    seen = {identity_enc(n)}
    frontier = list(seen)
    while frontier and (limit is None or len(seen) <= limit):
        frontier = [y for y in {enc_mul(x, g) for x in frontier for g in gens} if y not in seen]
        seen.update(frontier)
    return frozenset(seen)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_coset_closure_matches_bfs(data):
    n = data.draw(st.integers(2, 7))
    gens = data.draw(st.lists(wdn_encs(n), min_size=1, max_size=3))
    cap = data.draw(st.integers(1, BFS_LIMIT))
    K = bfs_closure(gens, n, limit=BFS_LIMIT)
    whole = len(K) <= BFS_LIMIT  # otherwise K is cut off and <gens> outgrows every cap
    # keep the closure inside W(D_n) without a few elements, drawn from K or
    # from all of W(D_n), or without their cycle types, as guided mode keeps
    # it inside the clean elements.  within is written down on K alone, as
    # no closure of gens leaves <gens>; a cut-off K gives None either way
    bad = set(data.draw(st.lists(st.sampled_from(sorted(K)) | wdn_encs(n), max_size=2)))
    if data.draw(st.booleans()):
        bad_types = set(map(enc_cycle_type, bad))
        within = frozenset(e for e in K if enc_cycle_type(e) not in bad_types)
    else:
        within = K.difference(bad)
    if not bad:
        within = None
    expected = None if len(K) > cap or (within is not None and not K <= within) else K
    capped = []
    assert enc_closure(gens, n, cap=cap, within=within, on_cap=lambda: capped.append(cap)) == expected
    if within is None or (whole and K <= within) or len(K) <= cap:  # otherwise either check may stop it first
        assert bool(capped) == (len(K) > cap)
    H = bfs_closure(gens[:-1], n, limit=BFS_LIMIT)
    if len(H) <= BFS_LIMIT and (within is None or H <= within):  # the walker's H always lies inside within
        assert enc_closure(gens, n, cap=cap, within=within, subgroup=H) == expected


def test_closure_extension_work_is_linear(monkeypatch):
    # K = <H, x> from a known H = <gens>: one padded table per coset
    # representative r, whose products r*s look up the k + 1 generators in
    # it, and one per coset product h*y, |H| per added coset; so
    # |K| - |H| + |K|/|H| tables, against |K| for a closure from scratch
    padded = [0]

    class CountingPad:
        """A translate pad that counts the tables padded with it."""

        def __init__(self, pad):
            self.pad = pad

        def __radd__(self, table):
            padded[0] += 1
            return table + self.pad

    monkeypatch.setattr(groups, "_PAD", [CountingPad(pad) for pad in groups._PAD])
    cases = [build_group(spec) for cid in (3, 13, 18, 20, 22, 23) for spec in smallest_param_tuples(cid, count=1)]
    cases += [f7(), closure([SignedPerm.from_enc(5, e) for e in wdn_generators(5)])]  # W(D_5)
    extensions = 0
    for grp in cases:
        gens = [g.enc for g in grp.generators]
        H = enc_closure(gens[:-1], grp.n)
        if len(H) == grp.order:
            continue  # the last generator is redundant: nothing to extend
        extensions += 1
        padded[0] = 0
        K = enc_closure(gens, grp.n, subgroup=H)
        assert K == grp.enc_set
        assert padded[0] == len(K) - len(H) + len(K) // len(H)
    assert extensions == 7
    # the walker extends each H it holds by handing it to enc_closure, and
    # every element outside H comes from one coset product
    base = sylow2(closure([SignedPerm.from_enc(4, e) for e in wdn_generators(4)]))
    walked = []

    def recording_closure(gens, n, cap, within=None, subgroup=None, on_cap=None, real=groups.enc_closure):
        padded[0] = 0
        K = real(gens, n, cap=cap, within=within, subgroup=subgroup, on_cap=on_cap)
        walked.append((subgroup, K, padded[0]))
        return K

    monkeypatch.setattr(groups, "enc_closure", recording_closure)
    walk = subgroup_walk(4, prime_power_cyclics(base.enc_set), cap=base.order)
    assert len(walked) == walk.closures > 100
    for H, K, tables in walked:
        assert K is not None and H < K
        assert tables == len(K) - len(H) + len(K) // len(H)
