import pytest

from conich1 import conditions, groups
from conich1.classes import ClassSpec, build_group, smallest_param_tuples
from conich1.cohomology import h1_condition
from conich1.conditions import (
    _check_homomorphism,
    _orbit_images,
    check_conditions,
    fiber_pair_condition,
    orbit_count_filter,
    orbits,
    project,
    relative_minimality,
)
from conich1.enumeration import TABLE_ROWS, _enumerate_full
from conich1.groups import closure, enc_mul, identity_enc, index_orbits, pair_orbits
from conich1.intlinalg import LatticeBasis
from conich1.picard import fixed_sublattice, phi_of_enc
from conich1.signedperm import SignedPerm, parse_element
from helpers import act_symbol, elements, lattice_equal, minimal_lattice


def G(n, *texts):
    return closure([parse_element(t, n) for t in texts], n=n)


def d41():
    return G(4, "c1 c2 c3 c4 (2,3)", "(1,2,3)")


def test_orbits_worked_example():
    dec = orbits(G(6, "c1 c2 (1,2)(3,4)", "c1 c3", "c5 c6"))
    assert dec.orbits == ((1, 2), (3, 4), (5,), (6,))
    assert dec.profile == (2, 2, 1, 1)


def test_orbits_trivial_group():
    dec = orbits(closure([], n=4))
    assert dec.orbits == ((1,), (2,), (3,), (4,))
    assert len(dec.pair_orbits) == 8


def test_orbits_f7():
    grp = G(8, "c1 c2 c3 c4 c5 c6 c7 c8 (1,3,2,6,4,5)", "(1,2,3,4,5,6,7)")
    dec = orbits(grp)
    assert dec.profile == (7, 1)
    assert dec.pair_profile == (14, 2)


def test_fiber_pair_condition_examples():
    assert not fiber_pair_condition(G(4, "(1,2,3)"))
    assert fiber_pair_condition(d41())
    assert not fiber_pair_condition(G(4, "c1 c2"))  # pair 3 never joined


def test_fiber_pair_condition_by_symbol_trace():
    # independent check on D4(1): walk the 2n-symbol action directly
    grp = d41()
    for j in range(1, 5):
        orbit = {(j, 1)}
        frontier = [(j, 1)]
        while frontier:
            s = frontier.pop()
            for g in grp.generators:
                t = act_symbol(g, s)
                if t not in orbit:
                    orbit.add(t)
                    frontier.append(t)
        assert (j, -1) in orbit


def test_relative_minimality_examples():
    assert relative_minimality(d41())
    assert not relative_minimality(closure([], n=4))
    for cid in (1, 2, 9, 11, 18, 24):
        from conich1.classes import smallest_param_tuples

        spec = smallest_param_tuples(cid, count=1)[0]
        assert relative_minimality(build_group(spec))


def test_relative_minimality_is_the_lattice_equality(full_lattice):
    # the fiber-pair verdict against Pic^G = Z l_0 + Z K_X, on every class
    # of W(D_2) .. W(D_5), every reference table row, three instances of
    # each family and every orbit projection of those instances
    cases = [grp for n in range(2, 6) for grp in full_lattice(n)[0]]
    cases += [row.build(n) for n, rows in TABLE_ROWS.items() for row in rows]
    families = [build_group(spec) for cid in range(1, 25) for spec in smallest_param_tuples(cid, count=3)]
    cases += families + [project(grp, orb).group for grp in families for orb in orbits(grp).orbits]
    assert len(cases) == 576
    verdicts = []
    for grp in cases:
        mats = [phi_of_enc(e) for e in grp.spanning_encs]
        fixed = fixed_sublattice(mats) if mats else LatticeBasis.full(grp.n + 2)
        verdicts.append(relative_minimality(grp))
        assert verdicts[-1] == lattice_equal(fixed, minimal_lattice(grp.n)), grp
    assert 0 < sum(verdicts) < len(cases)


def test_orbit_count_filter_examples():
    assert orbit_count_filter(G(6, "c1 c2 c3 c4 c5 c6 (2,3,5,4)", "(1,2,3,4,5)"))
    assert not orbit_count_filter(closure([], n=4))
    assert orbit_count_filter(build_group(ClassSpec(20, {"n1": 1, "n2": 1, "n3": 1})))


def test_project_d41_orbit_123():
    grp = d41()
    proj = project(grp, (1, 2, 3))
    assert proj.rank == 4 and proj.appended_flag
    assert proj.group.order == 6
    # g1 restricts to c1c2c3(2,3), sigma = -1, so it gains c_4
    imgs = proj.group.enc_set
    assert parse_element("c1 c2 c3 c4 (2,3)", 4).enc in imgs


def test_project_pointwise_fixed_orbit():
    grp = G(4, "c1 c2")
    proj = project(grp, (3,))
    assert proj.rank == 1 and not proj.appended_flag
    assert proj.group.order == 1


def test_project_rejects_non_orbit():
    with pytest.raises(ValueError):
        project(d41(), (1, 2))


def test_project_class3_first_orbit():
    grp = build_group(ClassSpec(3, {"n1": 1, "n2": 1}))
    dec = orbits(grp)
    first = next(o for o in dec.orbits if len(o) == 3)
    proj = project(grp, first)
    assert h1_condition(proj.group).ok is True
    assert relative_minimality(proj.group)


def test_projection_preserves_conditions_small():
    for cid, params in [(1, {"n": 1}), (9, {"n": 1}), (14, {"p": 3, "r": 1})]:
        grp = build_group(ClassSpec(cid, params))
        for orb in orbits(grp).orbits:
            proj = project(grp, orb)
            assert h1_condition(proj.group).ok is True
            assert relative_minimality(proj.group)


def test_at_most_three_orbits_property():
    # no group passing (H1) + joined pairs shows four or more symbol orbits
    fixtures = [
        d41(),
        build_group(ClassSpec(2, {"p": 5, "r": 1})),
        build_group(ClassSpec(11, {"n": 1})),
        build_group(ClassSpec(20, {"n1": 1, "n2": 1, "n3": 1})),
    ]
    for grp in fixtures:
        if h1_condition(grp).ok and fiber_pair_condition(grp):
            assert len(orbits(grp).pair_orbits) <= 3


def test_check_conditions_panel():
    rep = check_conditions(d41())
    assert rep.h1_ok and rep.relatively_minimal and rep.fiber_pairs_joined
    assert rep.degree == 4 and rep.order == 6
    assert rep.orbit_profile == (3, 1)
    assert rep.at_most_three_orbits


def test_degree_rule_agreement_low_degree():
    # at degree <= 2 the reference table groups pass or fail the two
    # minimality-flavoured conditions together
    from conich1.enumeration import TABLE_ROWS

    for n in (6, 7):
        for row in TABLE_ROWS[n]:
            grp = row.build(n)
            assert fiber_pair_condition(grp) == relative_minimality(grp)


def test_pair_orbits_refine_index_orbits():
    # forgetting signs maps each symbol orbit into exactly one index orbit
    for grp in (d41(), G(6, "c1 c2 (1,2)(3,4)", "c1 c3", "c5 c6"), closure([], n=5)):
        dec = orbits(grp)
        index_of = {}
        for k, orb in enumerate(dec.orbits):
            for j in orb:
                index_of[j] = k
        for porb in dec.pair_orbits:
            assert len({index_of[j] for j, _ in porb}) == 1


def test_orbits_from_generators_equal_orbits_from_elements():
    # the orbits of <S> are the orbits generated by S, so the orbit
    # computations read the generators, not all |G| elements
    reps, _ = _enumerate_full(4)
    families = [build_group(spec) for cid in range(1, 25) for spec in smallest_param_tuples(cid, count=1)]
    cases = reps + [grp for grp in families if grp.order <= 400]
    assert len(cases) == 98 + 23
    for grp in cases:
        assert index_orbits(grp.n, grp.spanning_encs) == index_orbits(grp.n, grp.enc_set)
        assert pair_orbits(grp.n, grp.spanning_encs) == pair_orbits(grp.n, grp.enc_set)


def restrict_by_hand(g, orbit, rank):
    # P_O from the definition: relabel the orbit to 1..n', keep the flips
    # landing on it, and flip index n'+1 too when those are odd
    relabel = {a: i + 1 for i, a in enumerate(orbit)}
    image = [relabel[(g.enc[2 * a - 2] >> 1) + 1] for a in orbit] + [rank] * (rank - len(orbit))
    minus = {relabel[k] for k in g.minus if k in relabel}
    if len(minus) % 2:
        minus.add(rank)
    return SignedPerm(rank, image, minus)


def test_projection_images_are_homomorphisms_on_all_pairs():
    # the generator check in project must imply the identity on all |G|^2 pairs
    checked = 0
    for cid in range(1, 25):
        grp = build_group(smallest_param_tuples(cid, count=1)[0])
        if grp.order > 400:
            continue
        encs = list(grp.enc_set)
        for orb in orbits(grp).orbits:
            images, appended = _orbit_images(grp, orb)
            proj = project(grp, orb)
            assert proj.group.enc_set == set(images.values())
            assert appended == proj.appended_flag and len(orb) + appended == proj.rank
            for g in elements(grp):
                assert images[g.enc] == restrict_by_hand(g, orb, proj.rank).enc
            for a in encs:
                fa = images[a]
                for b in encs:
                    assert images[enc_mul(a, b)] == enc_mul(fa, images[b])
            checked += 1
    assert checked == 48  # every orbit of the 23 smallest instances of order <= 400


def test_projection_rejects_a_corrupted_image_table(monkeypatch):
    grp = d41()
    gens = [g.enc for g in grp.generators]
    images, _ = _orbit_images(grp, (1, 2, 3))
    _check_homomorphism(images, gens)
    for corrupt in (
        {gens[0]: images[gens[1]], gens[1]: images[gens[0]]},  # two images swapped
        {gens[1]: identity_enc(4)},  # an order-3 element sent to the identity
    ):
        with pytest.raises(RuntimeError):
            _check_homomorphism(images | corrupt, gens)

        def corrupted(G, O, corrupt=corrupt, real=conditions._orbit_images):
            table, appended = real(G, O)
            return table | corrupt, appended

        # project must run the check on the table it builds
        monkeypatch.setattr(conditions, "_orbit_images", corrupted)
        with pytest.raises(RuntimeError, match="homomorphism"):
            project(grp, (1, 2, 3))
        monkeypatch.undo()


def test_project_work_is_linear_in_the_group_order(monkeypatch):
    # counts the products project makes, so an all-pairs check (|G|^2 = 5184
    # here) cannot come back unnoticed
    grp = build_group(ClassSpec(18, {"n": 1}))
    assert grp.order == 72
    counts = {"SignedPerm": 0, "enc": 0}

    def counting(kind, f):
        def wrapped(*args):
            counts[kind] += 1
            return f(*args)

        return wrapped

    monkeypatch.setattr(SignedPerm, "__mul__", counting("SignedPerm", SignedPerm.__mul__))
    monkeypatch.setattr(conditions, "enc_mul", counting("enc", conditions.enc_mul))
    monkeypatch.setattr(groups, "enc_mul", counting("enc", groups.enc_mul))
    order, S = grp.order, len(grp.generators)
    for orb in orbits(grp).orbits:
        counts.update(SignedPerm=0, enc=0)
        project(grp, orb)
        assert counts["SignedPerm"] <= order * (S + 2)
        # the generator check (2 per pair) and the closure of the image
        assert counts["enc"] <= 3 * order * S
