import hashlib
import random
import sys
from itertools import combinations

import pytest

from conich1 import cohomology
from conich1.classes import build_group, smallest_param_tuples
from conich1.cli import EXIT_OK, main
from conich1.cohomology import (
    TorsionError,
    _coboundary_rows,
    _generating_set,
    cyclic_h1_fails,
    h1_condition,
    h1_condition_cyclic,
    h1_cyclic,
    h1_halfsum,
    h1_oracle,
)
from conich1.enumeration import _enumerate_full
from conich1.groups import (
    FiniteGroup,
    _cyclic_encs,
    all_subgroups,
    closure,
    enc_conjugation,
    enc_cycle_type,
    enc_mul,
    enc_order,
    prime_power_cyclics,
    subgroup_walk,
    sylow2,
    wdn_generators,
)
from conich1.intlinalg import IntMatrix, LatticeBasis, unit_pivot_torsion
from conich1.picard import phi_of_enc
from conich1.signedperm import SignedPerm, lambda_count, paired_enc, parse_element
from helpers import (
    CHECKED_CLASS_MAX_ORDER,
    _finite_quotient,
    bounded_closure,
    catalog_and_table_groups,
    coboundary_columns,
    conjugate_group,
    elements,
    h1_by_cocycle_system,
    h1_condition_direct,
    h1_halfsum_by_hermite,
    h1_oracle_by_hermite,
    iter_wdn,
    random_subgroup,
)

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


def test_oracle_has_no_order_bound(capsys):
    # the oracle's cost does not grow with |G|: W(D_5) (1920 elements) and
    # W(D_6) (23,040) are answered, and agree with the half-sum method
    for n, rank in ((5, 0), (6, 0)):
        wdn = closure([SignedPerm.from_enc(n, e) for e in wdn_generators(n)])
        assert h1_oracle(wdn).f2_rank == h1_halfsum(wdn).f2_rank == rank
    assert main(["h1", "-n", "5", "(1,2)", "c1 c2", "(1,2,3,4,5)"]) == EXIT_OK
    assert '"group_order": 1920' in capsys.readouterr().out


def test_sign_change_is_clean_iff_it_flips_at_most_two():
    # the kernel bound: an even sign change flipping k indices has k signed
    # cycles with an odd number of flips, so H^1(<x>, Pic) = 0 iff k <= 2
    for n in range(2, 10):
        for k in range(0, n + 1, 2):
            for flips in combinations(range(n), k):
                x = paired_enc(bytes(2 * j + (j in flips) for j in range(n)))
                assert cyclic_h1_fails(x) == (k > 2), (n, flips)


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


def _signed_cycle_types(n, largest=None):
    # every multiset of (cycle length, flip parity) covering n indices,
    # as a non-increasing tuple
    if n == 0:
        yield ()
        return
    for part in sorted(((w, f) for w in range(1, n + 1) for f in (0, 1)), reverse=True):
        if largest is None or part <= largest:
            for rest in _signed_cycle_types(n - part[0], part):
                yield (part,) + rest


def _element_of_type(n, ctype):
    # the symbol table of consecutive cycles (a, a+1, ..., a+w-1), each
    # carrying its flip parity on the step back to a
    images, start = [0] * n, 0
    for w, f in ctype:
        for k in range(w - 1):
            images[start + k] = 2 * (start + k + 1)
        images[start + w - 1] = 2 * start ^ f
        start += w
    return paired_enc(bytes(images))


def test_cyclic_closed_form_on_every_signed_cycle_type():
    # the verdict h1_condition takes for a cyclic subgroup <x>, from the
    # encoding alone, against the oracle on one element of every signed
    # cycle type of W(D_2) .. W(D_7)
    for n in range(2, 8):
        types = [t for t in _signed_cycle_types(n) if sum(f for _, f in t) % 2 == 0]
        if n <= 5:
            assert {tuple(sorted(t)) for t in types} == {enc_cycle_type(g.enc) for g in iter_wdn(n)}
        for ctype in types:
            e = _element_of_type(n, ctype)
            assert enc_cycle_type(e) == tuple(sorted(ctype))
            g = SignedPerm.from_enc(n, e)
            rank = h1_oracle(closure([g])).f2_rank
            assert rank == max(lambda_count(g) - 2, 0), (n, ctype)
            assert cyclic_h1_fails(e) == (rank > 0), (n, ctype)


def test_condition_cyclic_examples():
    ok, typ = h1_condition_cyclic(parse_element("c1 (1,2) c3 (3,4)", 4))
    assert not ok and typ is None
    ok, typ = h1_condition_cyclic(parse_element("c1 c2 (2,3) (4,5,6)", 6))
    assert ok and typ == 2
    ok, typ = h1_condition_cyclic(parse_element("(1,2,3)", 4))
    assert ok and typ == 3
    ok, typ = h1_condition_cyclic(parse_element("c1 c2 (3,4,5)", 5))
    assert ok and typ == 1


def _nonzero_rows(cols):
    """The nonzero rows, as {i: entry} dicts, of the matrix with the dense
    columns ``cols`` (helpers.coboundary_columns)."""
    rows = ({i: col[r] for i, col in cols.items() if col[r]} for r in range(len(cols[-1])))
    return [row for row in rows if row]


def test_coboundary_columns_identity_and_display():
    assert _coboundary_rows([SignedPerm.identity(4).enc], 4) == []
    # the one-generator display for c1c2: f_1 has entries 1 at l_0 and -2 at
    # l_1, so the rows at l_0, l_1 and l_2 are the only nonzero ones
    c1c2 = [parse_element("c1 c2", 4).enc]
    rows = _coboundary_rows(c1c2, 4)
    assert rows == [{-1: 1, 1: 1, 2: 1}, {-1: -1, 1: -2}, {-1: -1, 2: -2}]
    cols = coboundary_columns(c1c2, 4)
    assert cols[1] == (0, 1, -2, 0, 0, 0)
    assert cols[2] == (0, 1, 0, -2, 0, 0)
    assert cols[3] == cols[4] == (0, 0, 0, 0, 0, 0)
    assert cols[-1] == (0, 1, -1, -1, 0, 0)
    assert rows == _nonzero_rows(cols)


def test_halfsum_identity_holds_for_random_generators(monkeypatch):
    # the sparse rows are the nonzero rows of the dense columns, and both
    # readers check f_-1 = half the column sum on every row
    rng = random.Random(1)
    for _ in range(50):
        n = rng.choice([4, 5, 6])
        gens = [rand_wdn(rng, n).enc for _ in range(rng.randint(1, 3))]
        assert _coboundary_rows(gens, n) == _nonzero_rows(coboundary_columns(gens, n)), gens
    # a matrix off by one in the l_1 entry of row l_0 breaks the identity
    m = list(phi_of_enc(gens[0]).entries)
    m[n + 2 + 2] += 1
    monkeypatch.setattr(cohomology, "phi_of_enc", lambda e: IntMatrix(n + 2, n + 2, m))
    with pytest.raises(RuntimeError, match="half-sum identity"):
        _coboundary_rows(gens[:1], n)


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


def _sparse_wdn(rng, n):
    """An element of W(D_n) moving a random set of indices among themselves,
    flipping an even subset of them, so that many indices are fixed."""
    moved = rng.sample(range(1, n + 1), rng.randint(1, n))
    img = list(range(1, n + 1))
    for j, k in zip(moved, rng.sample(moved, len(moved))):
        img[j - 1] = k
    while True:
        minus = [j for j in moved if rng.random() < 0.5]
        if len(minus) % 2 == 0:
            return SignedPerm(n, img, minus)


def _halfsum_frozen_groups():
    """40 seeded groups at each rank 2..9, the 48 smallest family instances
    and every reference-table row: 414 groups, 191 with an index orbit of
    zero column sum."""
    rng = random.Random(22)
    drawn = []
    for n in range(2, 10):
        while len(drawn) < 40 * (n - 1):
            grp = bounded_closure([_sparse_wdn(rng, n) for _ in range(rng.randint(1, 3))], n, cap=1024)
            if grp is not None:
                drawn.append(grp)
    return drawn + catalog_and_table_groups()


def test_halfsum_reports_are_frozen():
    # the digest was recorded before the half-sum search left the orbits of
    # zero column sum out and skipped an empty span
    reports = [h1_halfsum(grp) for grp in _halfsum_frozen_groups()]
    data = [(r.f2_rank, r.witnesses, r.z1_mod_f_rank, r.f_minus1_in_span) for r in reports]
    assert len(data) == 414
    assert hashlib.sha256(repr(data).encode()).hexdigest() == "5fe8b74383ac3ac8f9fc231522b5e313bfca0e91805b97d0f8f418a238afad13"


def test_halfsum_span_dimension_matches_the_quotient(monkeypatch, full_lattice):
    # h1_halfsum reads dim W/F over F_2 off the relations among f_1..f_n;
    # the Smith form of W's coordinates in F's basis gives it from the
    # lattices.  The first two Hermite bases the checker
    # h1_halfsum_by_hermite builds are F and W = F + <xi_I>
    groups = full_lattice(4)[0] + full_lattice(5)[0] + catalog_and_table_groups()
    assert len(groups) == 389
    built = []
    from_vectors = LatticeBasis.from_vectors
    monkeypatch.setattr(LatticeBasis, "from_vectors", classmethod(lambda cls, d, vs: built.append(from_vectors(d, vs)) or built[-1]))
    spans = 0
    for grp in groups:
        built.clear()
        h1_halfsum_by_hermite(grp)
        rep = h1_halfsum(grp)
        if not _generating_set(grp):
            assert rep.z1_mod_f_rank == 0 and built == []
            continue
        F, W = built[:2]
        assert rep.z1_mod_f_rank == len(_finite_quotient(W, F)), grp
        spans += rep.z1_mod_f_rank > 0
    assert spans > 0


def test_halfsum_matches_hermite_route(full_lattice):
    # the F_2 decision on the relations against the Hermite lattices F,
    # W and F + <witnesses>, field by field, on the 389 groups of
    # test_reduced_lattices_are_frozen, the 414 of
    # test_halfsum_reports_are_frozen and seeded random groups at ranks 2..9
    groups = full_lattice(4)[0] + full_lattice(5)[0] + catalog_and_table_groups()
    frozen = _halfsum_frozen_groups()
    rng = random.Random(30)
    drawn = []
    for n in range(2, 10):
        while len(drawn) < 40 * (n - 1):
            grp = bounded_closure([rng.choice((_sparse_wdn, rand_wdn))(rng, n) for _ in range(rng.randint(1, 3))], n, cap=512)
            if grp is not None:
                drawn.append(grp)
    counts = []
    for batch in (groups, frozen, drawn):
        outside_f = nonzero = 0
        for grp in batch:
            rep = h1_halfsum(grp)
            assert rep == h1_halfsum_by_hermite(grp), grp
            outside_f += rep.f_minus1_in_span is False
            nonzero += rep.f2_rank > 0
        counts.append((len(batch), nonzero, outside_f))
    # (groups, nonzero H^1, f_-1 outside F) per batch
    assert counts == [(389, 57, 352), (414, 8, 245), (320, 4, 154)]


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
        assert h1_oracle(grp).f2_rank == h1_halfsum(grp).f2_rank
    rng = random.Random(2)
    checked = 0
    while checked < 200:
        n = rng.choice([4, 5, 6, 7])
        gens = [rand_wdn(rng, n) for _ in range(rng.randint(1, 2))]
        grp = bounded_closure(gens, n, cap=384)
        if grp is None:
            continue
        assert h1_oracle(grp).f2_rank == h1_halfsum(grp).f2_rank
        checked += 1


@pytest.mark.parametrize("n, count, cyclic", [(4, 98, 13), (5, 195, 18)])
def test_oracle_halfsum_cyclic_agree_on_every_class(n, count, cyclic, full_lattice):
    # every subgroup class of W(D_4), and every class of W(D_5) of order at
    # most CHECKED_CLASS_MAX_ORDER (195 of 197); on cyclic classes the
    # closed form of a generator gives the same rank
    reps, _ = full_lattice(n)
    reps = [H for H in reps if H.order <= CHECKED_CLASS_MAX_ORDER]
    assert len(reps) == count
    cyclic_seen = 0
    for H in reps:
        rank = h1_oracle(H).f2_rank
        assert h1_halfsum(H).f2_rank == rank, H
        gen = next((e for e in H.enc_set if enc_order(e) == H.order), None)
        if gen is not None:
            assert h1_cyclic(SignedPerm.from_enc(n, gen)).f2_rank == rank, H
            cyclic_seen += 1
    assert cyclic_seen == cyclic


def _h1_data(rep):
    return rep.invariant_factors, rep.z1_mod_f_rank, rep.f_minus1_in_span


@pytest.mark.parametrize("n, count", [(4, 98), (5, 195)])
def test_oracle_matches_cocycle_system_on_every_class(n, count, full_lattice):
    # the oracle reads Z^1 as the saturation of B^1; the cocycle system
    # solves for Z^1 over the whole Cayley graph
    reps, _ = full_lattice(n)
    reps = [H for H in reps if H.order <= CHECKED_CLASS_MAX_ORDER]
    assert len(reps) == count
    for H in reps:
        assert _h1_data(h1_oracle(H)) == _h1_data(h1_by_cocycle_system(H)), H


def test_oracle_matches_cocycle_system_on_examples_and_all_elements(full_lattice):
    # S = every element of G gives the literal |G|^2 constraint system
    fixtures = [example1(), example2(), example3(), G(4, "c1 c2 c3 c4"), G(4, "c1 c2 c3 c4 (2,3)", "(1,2,3)")]
    for grp in fixtures:
        assert _h1_data(h1_oracle(grp)) == _h1_data(h1_by_cocycle_system(grp)), grp
    reps, _ = full_lattice(4)
    small = [H for H in reps if H.order <= 16] + [grp for grp in fixtures if grp.order <= 24]
    assert len(small) == 79
    for H in small:
        every = elements(H)
        want = _h1_data(h1_by_cocycle_system(H, generators=every))
        assert _h1_data(h1_oracle(_generated_by_all(H))) == want == _h1_data(h1_oracle(H)), H


def test_oracle_matches_cocycle_system_on_random_subgroups():
    # 2- and 3-generated subgroups of order <= 192 of the even sign changes
    # extended by (1,2)(3,4) and (1,3,5)(2,4,6), at ranks 6..9
    bases = []
    for n in (6, 7, 8, 9):
        flips = [f"c{i} c{i + 1}" for i in range(1, n)]
        bases.append(G(n, *flips, "(1,2)(3,4)", "(1,3,5)(2,4,6)"))
    perms = {base.n: elements(base) for base in bases}
    rng = random.Random(12)
    drawn = []
    while len(drawn) < 100:
        base = rng.choice(bases)
        gens = [perms[base.n][rng.randrange(base.order)] for _ in range(rng.choice([2, 3]))]
        H = bounded_closure(gens, base.n, cap=192)
        if H is not None:
            drawn.append((len(gens), H))
    ranks = set()
    for k, H in drawn:
        rep = h1_oracle(H)
        assert _h1_data(rep) == _h1_data(h1_by_cocycle_system(H)), H
        ranks.add(rep.f2_rank)
    assert sum(k == 3 for k, _ in drawn) >= 10
    assert ranks >= {0, 1, 2}


def test_oracle_matches_hermite_route(full_lattice):
    # the unit-pivot elimination against the Hermite bases of F and B, field
    # by field, on the 389 groups of test_reduced_lattices_are_frozen and on
    # seeded random groups at ranks 2..9
    groups = full_lattice(4)[0] + full_lattice(5)[0] + catalog_and_table_groups()
    assert len(groups) == 389
    rng = random.Random(29)
    for n in range(2, 10):
        drawn = 0
        while drawn < 40:
            grp = bounded_closure([_sparse_wdn(rng, n) for _ in range(rng.randint(1, 3))], n, cap=512)
            if grp is not None:
                groups.append(grp)
                drawn += 1
    outside_f = nonzero = 0
    for grp in groups:
        rep = h1_oracle(grp)
        assert rep == h1_oracle_by_hermite(grp), grp
        outside_f += rep.f_minus1_in_span is False
        nonzero += rep.f2_rank > 0
    assert (len(groups), outside_f, nonzero) == (389 + 8 * 40, 490, 61)


def test_oracle_evaluates_phi_once_per_generator(monkeypatch):
    # a guard against per-element work in the oracle: phi is evaluated on
    # the stored generators only, no element product is formed and no
    # Hermite basis is built
    grp = G(6, "c1 c2 c3 c4", "(1,2)(3,4,5)")
    assert grp.order == 48 and len(grp.spanning_encs) == 2
    phi_calls, mul_calls, hnf_calls = [], [], []
    monkeypatch.setattr(cohomology, "phi_of_enc", lambda e: phi_calls.append(e) or phi_of_enc(e))
    from_vectors = LatticeBasis.from_vectors
    monkeypatch.setattr(LatticeBasis, "from_vectors", classmethod(lambda cls, d, vs: hnf_calls.append(1) or from_vectors(d, vs)))
    for name, module in list(sys.modules.items()):
        if name.startswith("conich1") and hasattr(module, "enc_mul"):
            orig = module.enc_mul
            monkeypatch.setattr(module, "enc_mul", lambda a, b, orig=orig: mul_calls.append(1) or orig(a, b))
    rep = h1_oracle(grp)
    assert phi_calls == list(grp.spanning_encs)
    assert mul_calls == hnf_calls == []
    assert rep.invariant_factors == (2,) == h1_halfsum(grp).invariant_factors
    assert hnf_calls == []  # nor does the half-sum method


def _generated_by_all(grp):
    # the same group, with every element as a stored generator
    return FiniteGroup.from_enc_set(grp.n, grp.enc_set, sorted(grp.enc_set))


def test_generating_set_independence():
    for build in (example1, example3):
        grp = build()
        every = _generated_by_all(grp)
        assert h1_oracle(grp).invariant_factors == h1_oracle(every).invariant_factors
        assert h1_halfsum(grp).f2_rank == h1_halfsum(every).f2_rank


def test_conjugation_invariance():
    rng = random.Random(3)
    for build in (example1, example2):
        grp = build()
        want = h1_oracle(grp).f2_rank
        for _ in range(5):
            t = rand_wdn(rng, grp.n)
            assert h1_oracle(conjugate_group(grp, t)).f2_rank == want


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


def test_h1_condition_truth_is_its_verdict():
    # the README's group fails (H1); the truth of a result must read its verdict
    readme = G(6, "c1 c2 (1,2)(3,4)", "c1 c3", "c5 c6")
    for grp, ok in ((readme, False), (G(4, "c1 c2 c3 c4 (2,3)", "(1,2,3)"), True)):
        res = h1_condition(grp)
        assert res.ok is ok and bool(res) is ok


def test_h1_condition_routes_agree():
    rng = random.Random(4)
    fixtures = [example1(), example3(), G(4, "c1 c2 c3 c4 (2,3)", "(1,2,3)")]
    checked = 0
    for grp in fixtures:
        assert h1_condition(grp).ok == h1_condition_direct(grp).ok
        while checked < 12:
            H = random_subgroup(grp, rng, max_gens=2)
            assert h1_condition(H).ok == h1_condition_direct(H).ok
            checked += 1


def test_h1_verdict_is_the_same_on_every_sylow2_conjugate(full_lattice):
    # sylow2 may return any Sylow 2-subgroup; the Sylow-2 route relies on
    # every G-conjugate Q of it giving the same verdict and witness order
    reps, _ = full_lattice(4)
    families = [build_group(spec) for cid in range(1, 25) for spec in smallest_param_tuples(cid, count=2)]
    groups = reps + [grp for grp in families if grp.order <= 400]
    assert len(reps) == 98 and len(groups) > 130
    several = 0
    for grp in groups:
        P = sylow2(grp)
        conjugates = {}
        for t in grp.enc_set:
            conj = enc_conjugation(t)
            Q = frozenset(map(conj, P.enc_set))
            if Q not in conjugates:
                conjugates[Q] = FiniteGroup.from_enc_set(grp.n, Q, [conj(e) for e in P.spanning_encs])
        verdicts = set()
        for Q in conjugates.values():
            res = h1_condition_direct(Q)
            verdicts.add((res.ok, res.witness.order if res.witness is not None else None))
        assert len(verdicts) == 1, grp
        several += len(conjugates) > 1
    assert several > 50


_subgroup_lists = {}
_full_scans = {}


def _checked_in_order(base):
    # the nontrivial subgroups of the base, walked whole and then sorted by
    # (order, sorted encodings), the order h1_condition checks them in
    if base.enc_set not in _subgroup_lists:
        walk = subgroup_walk(base.n, prime_power_cyclics(base.enc_set), cap=base.order)
        subs = sorted(walk.subgroups, key=lambda H: (H.order, sorted(H.enc_set)))
        _subgroup_lists[base.enc_set] = [H for H in subs if H.order > 1]
    return _subgroup_lists[base.enc_set]


def _full_scan(base):
    # the whole subgroup list of the base checked with the oracle up to the
    # first failure; it depends only on the element set of the base
    if base.enc_set not in _full_scans:
        result = None
        for checked, H in enumerate(_checked_in_order(base), start=1):
            if h1_oracle(H).f2_rank:
                result = (False, H.enc_set, checked)
                break
        _full_scans[base.enc_set] = result or (True, None, len(_checked_in_order(base)))
    return _full_scans[base.enc_set]


def _matches_full_scan(grp, direct=False, memo=None):
    # direct: the decision on the subgroups of grp itself, else on sylow2(grp)
    if direct:
        base, res = grp, h1_condition_direct(grp, memo=memo)
    else:
        base, res = sylow2(grp), h1_condition(grp, memo=memo)
    witness = res.witness.enc_set if res.witness is not None else None
    assert (res.ok, witness, res.subgroups_checked) == _full_scan(base), (grp, direct)
    return res


def test_h1_condition_matches_full_scan_wdn4_classes():
    # one representative of each of the 98 subgroup classes of W(D_4),
    # without a memo and with one memo shared by all calls
    reps, _ = _enumerate_full(4)
    assert len(reps) == 98
    for memo in (None, {}):
        compared = noncyclic_witnesses = 0
        for grp in reps:
            for direct in (False, True):
                if direct and grp.order > 64:
                    continue
                res = _matches_full_scan(grp, direct, memo)
                compared += 1
                if res.witness is not None and res.witness.order == 4:
                    noncyclic_witnesses += all(h1_cyclic(g).f2_rank == 0 for g in elements(res.witness))
        assert compared > 98
        # witnesses of order 4 with no failing cyclic subgroup: the Klein four-groups
        assert noncyclic_witnesses > 0
        assert memo is None or False in memo.values() and True in memo.values()


def test_h1_condition_matches_full_scan_catalog_and_tables():
    # the 48 smallest family instances and every reference-table row, all of
    # which pass, so every subgroup of their Sylow 2-subgroups is checked
    groups = catalog_and_table_groups()
    for memo in (None, {}):
        for grp in groups:
            assert _matches_full_scan(grp, memo=memo).ok is True


def _is_cyclic(H):
    return any(enc_order(e) == H.order for e in H.enc_set)


def test_h1_condition_oracle_calls_are_the_undecided_noncyclic_subgroups(monkeypatch):
    # the oracle runs on exactly the checked non-cyclic subgroups whose
    # element set is not in the memo yet, in check order; cyclic ones are
    # decided by the closed form
    calls = []
    oracle = cohomology.h1_oracle
    monkeypatch.setattr(cohomology, "h1_oracle", lambda H, **kw: calls.append(H.enc_set) or oracle(H, **kw))
    reps, _ = _enumerate_full(4)
    groups = reps + catalog_and_table_groups()
    for memo in (None, {}):
        decided = set()
        total_checked = total_calls = 0
        for grp in groups:
            calls.clear()
            res = h1_condition(grp, memo=memo)
            checked = _checked_in_order(sylow2(grp))[: res.subgroups_checked]
            noncyclic = [H.enc_set for H in checked if not _is_cyclic(H)]
            assert calls == (noncyclic if memo is None else [K for K in noncyclic if K not in decided]), grp
            decided.update(noncyclic)
            total_checked += res.subgroups_checked
            total_calls += len(calls)
        assert memo is None or set(memo) == decided
        assert total_calls < total_checked / 2


def test_h1_condition_unknown_on_bound(monkeypatch):
    # example 2 has an element with Lambda = 4; past the bound the cyclic
    # scan finds it, so the verdict is a definitive False with a cyclic witness
    monkeypatch.setattr(cohomology, "DEFAULT_SUBGROUP_BOUND", 4)
    res = h1_condition(example2())
    assert res.ok is False and res.subgroups_checked == 0
    (gen,) = res.witness.spanning_encs
    assert cyclic_h1_fails(gen) and res.witness.enc_set == frozenset(_cyclic_encs(gen))


def test_abelian_shortcut():
    # abelian 2-groups whose every element has Lambda in {0, 2} satisfy (H1)
    rng = random.Random(5)
    found = 0
    for build in (example1, example2):
        P = sylow2(build())
        for H in all_subgroups(P).subgroups:
            gens = H.spanning_encs
            if H.order == 1 or any(enc_mul(a, b) != enc_mul(b, a) for a in gens for b in gens):
                continue
            if all(lambda_count(g) in (0, 2) for g in elements(H)):
                assert h1_condition(H).ok is True
                found += 1
    assert found >= 3


def test_two_torsion_enforced():
    # every oracle/halfsum report in this module had factors all equal to 2;
    # the enforcement itself raises TorsionError on anything else
    rep = h1_oracle(example1())
    assert set(rep.invariant_factors) <= {2}
    assert cohomology._two_torsion(unit_pivot_torsion([{0: 2}, {1: 1}])[1]) == (2,)
    with pytest.raises(TorsionError, match=r"\(4,\) are not all 2"):
        cohomology._two_torsion(unit_pivot_torsion([{0: 4}])[1])


def test_h1_condition_sampling_fallback(monkeypatch):
    # with a tiny bound the Klein-type failure is still found by the scan,
    # as the first failing element in sorted order
    bad = G(4, "c1 c2 c3 c4", "(1,2) (3,4)")
    monkeypatch.setattr(cohomology, "DEFAULT_SUBGROUP_BOUND", 2)
    res = h1_condition(bad)
    first = next(e for e in sorted(sylow2(bad).enc_set) if cyclic_h1_fails(e))
    assert res.ok is False and res.witness.enc_set == frozenset(_cyclic_encs(first))
    # a group that does satisfy (H1) is refused past the bound, never
    # given a clean True
    good = G(4, "c1 c2 c3 c4 (2,3)", "(1,2,3)")
    monkeypatch.setattr(cohomology, "DEFAULT_SUBGROUP_BOUND", 1)
    with pytest.raises(ValueError, match="not decided above the subgroup bound 1"):
        h1_condition(good)


def test_refusal_scan_above_the_bound_builds_no_signed_perm(monkeypatch):
    # the 2-group of order 16,384 that `check -n 8` pins: sylow2 returns it
    # whole, and the scan above the bound runs on encodings alone, its
    # witness generated by the least failing encoding
    grp = G(8, "(1,2)", "(1,3)(2,4)", "(1,5)(2,6)(3,7)(4,8)", "c1 c2", "c3 c4", "c5 c6", "c7 c8", "c1 c3", "c1 c5")
    assert grp.order == 16384 and sylow2(grp) is grp
    calls = []
    from_enc = SignedPerm.from_enc
    monkeypatch.setattr(SignedPerm, "from_enc", classmethod(lambda cls, n, e: calls.append(e) or from_enc(n, e)))
    monkeypatch.setattr(cohomology, "DEFAULT_SUBGROUP_BOUND", 2)
    res = h1_condition(grp)
    assert calls == []
    least = min(e for e in grp.enc_set if cyclic_h1_fails(e))
    assert res.ok is False and res.subgroups_checked == 0
    assert res.witness.spanning_encs == (least,) and res.witness.order == 2
