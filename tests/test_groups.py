import random
from math import gcd

import pytest

from conich1.enumeration import _enumerate_full
from conich1.groups import (
    ClassStore,
    _walk_levels,
    abelian_invariants,
    all_subgroups,
    are_conjugate,
    canonical_form,
    closure,
    conjugating_element,
    enc_order,
    fingerprint,
    prime_power_cyclic_generators,
    subgroup_walk,
    sylow2,
)
from conich1.signedperm import SignedPerm, iter_wdn, parse_element


def G(n, *texts):
    return closure([parse_element(t, n) for t in texts], n=n)


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


def test_closure_errors():
    with pytest.raises(ValueError):
        closure([parse_element("c1", 4)])  # sigma = -1
    with pytest.raises(ValueError):
        closure([parse_element("(1,2,3,4,5)", 5)], cap=3)
    with pytest.raises(ValueError):
        closure([parse_element("c1 c2", 4), parse_element("c1 c2", 5)])


def test_all_subgroups_s3():
    subs = all_subgroups(d41()).subgroups
    assert len(subs) == 6
    assert sorted(H.order for H in subs) == [1, 2, 2, 2, 3, 6]


def test_all_subgroups_trivial_and_prime():
    assert len(all_subgroups(closure([], n=3)).subgroups) == 1
    assert len(all_subgroups(G(4, "c1 c2 c3 c4")).subgroups) == 2


def test_all_subgroups_bound():
    with pytest.raises(ValueError):
        all_subgroups(f7(), bound=10)


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
    two_part = closure([g1 ** (g1.order() // 2)])
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


def test_canonical_form_conjugation_invariance():
    rng = random.Random(3)
    grp = d41()
    key = canonical_form(grp)
    for _ in range(100):
        t = rand_wdn(rng, 4)
        assert canonical_form(grp.conjugate_by(t)) == key


def test_canonical_form_distinguishes():
    a = G(4, "c1 c2")
    b = G(4, "c3 c4")
    c = G(4, "c1 c2 (1,2)")
    assert canonical_form(a) == canonical_form(b)
    assert canonical_form(a) != canonical_form(c)


def test_canonical_form_bounds():
    with pytest.raises(ValueError):
        canonical_form(d41(), bound=2)
    with pytest.raises(ValueError):
        canonical_form(f7(), max_conjugators=10)


def test_conjugating_element_roundtrip():
    rng = random.Random(4)
    grp = G(5, "c1 c2 c3 c4 (2,3) (4,5)", "(1,2,3)")
    for _ in range(20):
        t = rand_wdn(rng, 5)
        other = grp.conjugate_by(t)
        s = conjugating_element(grp, other)
        assert s is not None
        assert grp.conjugate_by(s).enc_set == other.enc_set
    assert not are_conjugate(G(4, "c1 c2"), G(4, "c1 c2 (1,2)"))


def test_fingerprint_is_conjugation_invariant():
    rng = random.Random(5)
    grp = d41()
    fp = fingerprint(grp)
    for _ in range(20):
        assert fingerprint(grp.conjugate_by(rand_wdn(rng, 4))) == fp


def test_abelian_invariants():
    assert abelian_invariants(G(4, "c1 c2", "c3 c4")) == (2, 2)
    assert abelian_invariants(d41()) == (2,)
    assert abelian_invariants(G(6, "c1 c2 (1,2) (3,4,5)")) == (6,)
    assert abelian_invariants(closure([], n=3)) == ()


def test_subgroup_walk_s3():
    grp = d41()
    cands = prime_power_cyclic_generators(grp.enc_set)
    walk = subgroup_walk(4, cands, cap=grp.order)
    assert len(walk.subgroups) == 6 and walk.aborted == 0
    # S_3: the three reflection subgroups fuse under W(D_4)-conjugation
    classes = subgroup_walk(4, cands, cap=grp.order, store=ClassStore())
    assert sorted(H.order for H in classes.subgroups) == [1, 2, 3, 6]


def test_subgroup_walk_matches_full_lattice_wdn4():
    # fingerprint + backtracking dedup against the int-table orbit dedup
    wdn = [g.enc for g in iter_wdn(4)]
    walk = subgroup_walk(4, prime_power_cyclic_generators(wdn), cap=len(wdn), store=ClassStore())
    reference, stats = _enumerate_full(4)
    assert len(walk.subgroups) == len(reference) == stats["subgroup_classes"] == 98
    assert {canonical_form(H) for H in walk.subgroups} == {canonical_form(H) for H in reference}


def test_walk_levels_complete_below_next_power_of_two():
    # after level d every subgroup of order < 2^(d+1) has been yielded,
    # which is what lets h1_condition stop the walk at its witness
    wdn = closure(list(iter_wdn(4)), n=4)
    for base in (sylow2(wdn), d41()):
        subgroups = {H.enc_set for H in all_subgroups(base).subgroups}
        found: set = set()
        levels = _walk_levels(4, prime_power_cyclic_generators(base.enc_set), cap=base.order)
        for d, (level, _, aborted) in enumerate(levels):
            assert aborted == 0
            assert all(len(K) >= 2**d for K, _, _ in level)
            found.update(K for K, _, _ in level)
            assert {K for K in subgroups if len(K) < 2 ** (d + 1)} <= found
        assert found == subgroups


def test_canonical_form_invariance_rank5_fixture():
    rng = random.Random(13)
    grp = G(5, "c1 c2 c3 c4 (2,3) (4,5)", "(1,2,3)")  # C_3 : C_4 shape
    key = canonical_form(grp)
    for _ in range(30):
        t = rand_wdn(rng, 5)
        assert canonical_form(grp.conjugate_by(t)) == key
