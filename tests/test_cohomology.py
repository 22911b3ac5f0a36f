import random

import pytest

from conich1.cohomology import (
    TorsionError,
    coboundary_columns,
    h1_condition,
    h1_condition_cyclic,
    h1_cross_check,
    h1_cyclic,
    h1_halfsum,
    h1_oracle,
)
from conich1.enumeration import _enumerate_full
from conich1.groups import all_subgroups, closure, random_subgroup, sylow2
from conich1.signedperm import SignedPerm, lambda_count, parse_element

Gcache = {}


def G(n, *texts):
    key = (n, texts)
    if key not in Gcache:
        Gcache[key] = closure([parse_element(t, n) for t in texts], n=n)
    return Gcache[key]


def example1():
    return G(6, "c1 c2 (1,2)(3,4)", "c1 c3", "c5 c6")


def example2():
    return G(6, "c1 c2 c3 c4 c5 c6 (1,2)(3,4)(5,6)", "c1 c2 (1,2,3,4)")


def example3():
    return G(6, "c1 c2 c3 c4 c5 c6 (2,3,5,4)", "(1,2,3,4,5)")


def rand_wdn(rng, n):
    img = list(range(1, n + 1))
    rng.shuffle(img)
    while True:
        minus = [j for j in range(1, n + 1) if rng.random() < 0.4]
        if len(minus) % 2 == 0:
            return SignedPerm(n, img, minus)


def test_oracle_trivial_group():
    rep = h1_oracle(closure([], n=4))
    assert rep.f2_rank == 0 and rep.invariant_factors == ()


def test_oracle_c1c2c3c4_is_klein():
    rep = h1_oracle(G(4, "c1 c2 c3 c4"))
    assert rep.invariant_factors == (2, 2)
    assert rep.f2_rank == 2


def test_oracle_worked_example_1():
    rep = h1_oracle(example1())
    assert rep.invariant_factors == (2,)


def test_oracle_bound():
    with pytest.raises(ValueError):
        h1_oracle(example2(), bound=8)


def test_cyclic_formula_examples():
    assert h1_cyclic(parse_element("c1 c2 (1,2)", 4)).f2_rank == 0
    assert h1_cyclic(parse_element("c1 c2", 4)).f2_rank == 0
    assert h1_cyclic(parse_element("c1 c2 c3 c4 c5 c6", 6)).f2_rank == 4
    with pytest.raises(ValueError):
        h1_cyclic(parse_element("c1", 4))


def test_oracle_matches_cyclic_formula():
    rng = random.Random(0)
    for _ in range(150):
        n = rng.choice([4, 5, 6, 7, 8])
        g = rand_wdn(rng, n)
        assert h1_oracle(closure([g])).f2_rank == max(lambda_count(g) - 2, 0)


def test_condition_cyclic_examples():
    ok, typ = h1_condition_cyclic(parse_element("c1 (1,2) c3 (3,4)", 4))
    assert not ok and typ is None
    ok, typ = h1_condition_cyclic(parse_element("c1 c2 (2,3) (4,5,6)", 6))
    assert ok and typ == 2
    ok, typ = h1_condition_cyclic(parse_element("(1,2,3)", 4))
    assert ok and typ == 3
    ok, typ = h1_condition_cyclic(parse_element("c1 c2 (3,4,5)", 5))
    assert ok and typ == 1


def test_coboundary_columns_identity_and_display():
    cc = coboundary_columns([SignedPerm.identity(4)], 4)
    assert all(not any(v) for v in cc.columns.values())
    # the one-generator display for c1c2: f_1 has entries 1 at l_0 and -2 at l_1
    cc = coboundary_columns([parse_element("c1 c2", 4)])
    assert cc.columns[1] == (0, 1, -2, 0, 0, 0)
    assert cc.columns[2] == (0, 1, 0, -2, 0, 0)
    assert cc.columns[3] == cc.columns[4] == (0, 0, 0, 0, 0, 0)
    assert cc.columns[-1] == (0, 1, -1, -1, 0, 0)


def test_halfsum_identity_holds_for_random_generators():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.choice([4, 5, 6])
        gens = [rand_wdn(rng, n) for _ in range(rng.randint(1, 3))]
        coboundary_columns(gens)  # asserts f_-1 = half the column sum internally


def test_halfsum_worked_example_1():
    rep = h1_halfsum(example1())
    assert rep.f2_rank == 1
    assert set(rep.witnesses) == {(1, 2, 3, 4), (5, 6)}
    assert rep.f_minus1_in_span is False
    assert rep.z1_mod_f_rank == 2


def test_halfsum_worked_example_2():
    rep = h1_halfsum(example2())
    assert rep.f2_rank == 0
    assert (1, 2, 3, 4) in rep.witnesses and (5, 6) not in rep.witnesses
    assert rep.f_minus1_in_span is False


def test_halfsum_worked_example_3():
    rep = h1_halfsum(example3())
    assert rep.f2_rank == 0
    assert rep.witnesses == ((1, 2, 3, 4, 5, 6),)
    assert rep.f_minus1_in_span is False


def test_witnesses_are_orbit_unions_without_minus_one():
    from conich1.groups import index_orbits

    for build in (example1, example2, example3):
        grp = build()
        rep = h1_halfsum(grp)
        orbits = index_orbits(grp.n, grp.enc_set)
        for I in rep.witnesses:
            assert -1 not in I
            assert all(set(o) <= set(I) or not (set(o) & set(I)) for o in orbits)


def test_oracle_halfsum_agree_on_fixtures_and_random_subgroups():
    fixtures = [example1(), example2(), example3(), G(4, "c1 c2 c3 c4 (2,3)", "(1,2,3)")]
    for grp in fixtures:
        h1_cross_check(grp)
    rng = random.Random(2)
    checked = 0
    while checked < 200:
        n = rng.choice([4, 5, 6, 7])
        gens = [rand_wdn(rng, n) for _ in range(rng.randint(1, 2))]
        try:
            grp = closure(gens, n=n, cap=384)
        except ValueError:
            continue
        h1_cross_check(grp)
        checked += 1


def test_generating_set_independence():
    for build in (example1, example3):
        grp = build()
        by_gens = h1_oracle(grp)
        by_all = h1_oracle(grp, use_all_elements=True)
        assert by_gens.invariant_factors == by_all.invariant_factors
        hs_gens = h1_halfsum(grp)
        hs_all = h1_halfsum(grp, generators=list(grp.elements))
        assert hs_gens.f2_rank == hs_all.f2_rank


def test_conjugation_invariance():
    rng = random.Random(3)
    for build in (example1, example2):
        grp = build()
        want = h1_oracle(grp).f2_rank
        for _ in range(5):
            t = rand_wdn(rng, grp.n)
            assert h1_oracle(grp.conjugate_by(t)).f2_rank == want


def test_h1_condition_examples():
    assert h1_condition(G(4, "c1 c2 c3 c4 (2,3)", "(1,2,3)")).ok is True
    res = h1_condition(G(4, "c1 c2 c3 c4"))
    assert res.ok is False
    assert res.witness is not None and res.witness.enc_set == G(4, "c1 c2 c3 c4").enc_set
    # class 11 at n=1 has Sylow 2-subgroup D_4 with trivial H^1
    from conich1.classes import ClassSpec, build_group

    grp = build_group(ClassSpec(11, {"n": 1}))
    P = sylow2(grp)
    assert P.order == 8
    assert h1_oracle(P).f2_rank == 0
    assert h1_condition(grp).ok is True


def test_h1_condition_routes_agree():
    rng = random.Random(4)
    fixtures = [example1(), example3(), G(4, "c1 c2 c3 c4 (2,3)", "(1,2,3)")]
    checked = 0
    for grp in fixtures:
        assert h1_condition(grp, route="sylow2").ok == h1_condition(grp, route="direct").ok
        while checked < 12:
            H = random_subgroup(grp, rng, max_gens=2)
            assert h1_condition(H, route="sylow2").ok == h1_condition(H, route="direct").ok
            checked += 1


def _full_scan(base):
    # the whole subgroup list of the base, in all_subgroups order, checked
    # with the oracle up to the first failure
    checked = 0
    for H in all_subgroups(base).subgroups:
        if H.order == 1:
            continue
        checked += 1
        if h1_oracle(H).f2_rank:
            return False, H.enc_set, checked
    return True, None, checked


def test_h1_condition_matches_full_scan_wdn4_classes():
    # one representative of each of the 98 subgroup classes of W(D_4)
    reps, _ = _enumerate_full(4)
    assert len(reps) == 98
    scans = {}  # a full scan depends only on the element set of its base
    compared = noncyclic_witnesses = 0
    for grp in reps:
        for route in ("sylow2", "direct"):
            if route == "direct" and grp.order > 64:
                continue
            base = sylow2(grp) if route == "sylow2" else grp
            if base.enc_set not in scans:
                scans[base.enc_set] = _full_scan(base)
            res = h1_condition(grp, route=route)
            witness = res.witness.enc_set if res.witness is not None else None
            assert (res.ok, witness, res.subgroups_checked) == scans[base.enc_set], (grp, route)
            compared += 1
            if res.witness is not None and res.witness.order == 4:
                noncyclic_witnesses += all(h1_cyclic(g).f2_rank == 0 for g in res.witness.elements)
    assert compared > 98
    # witnesses of order 4 with no failing cyclic subgroup: the Klein four-groups
    assert noncyclic_witnesses > 0


def test_h1_condition_unknown_on_bound():
    # example 2 fails (H1) on a subgroup; past the bound the sampling scan
    # still finds that witness, so the verdict is a definitive False
    res = h1_condition(example2(), subgroup_bound=4)
    assert res.ok is False and res.note


def test_abelian_shortcut():
    # abelian 2-groups whose every element has Lambda in {0, 2} satisfy (H1)
    rng = random.Random(5)
    found = 0
    for build in (example1, example2):
        P = sylow2(build())
        for H in all_subgroups(P).subgroups:
            if H.order == 1 or not H.is_abelian():
                continue
            if all(lambda_count(g) in (0, 2) for g in H.elements):
                assert h1_condition(H).ok is True
                found += 1
    assert found >= 3


def test_two_torsion_enforced():
    # every oracle/halfsum report in this module had factors all equal to 2;
    # the enforcement itself raises TorsionError on anything else
    rep = h1_oracle(example1())
    assert set(rep.invariant_factors) <= {2}
    with pytest.raises(TorsionError):
        from conich1.cohomology import _check_torsion

        _check_torsion((2, 4))


def test_h1_condition_sampling_fallback():
    # with a tiny bound the Klein-type failure is still found by the scan
    bad = G(4, "c1 c2 c3 c4", "(1,2) (3,4)")
    res = h1_condition(bad, subgroup_bound=2)
    assert res.ok is False and res.note
    # a group that does satisfy (H1) stays undecided past the bound,
    # never a clean True
    good = G(4, "c1 c2 c3 c4 (2,3)", "(1,2,3)")
    res = h1_condition(good, subgroup_bound=1)
    assert res.ok is None and "bound" in res.note
