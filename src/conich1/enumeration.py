"""Subgroup enumeration of W(D_n) under the obstruction filters, and
verification of the bundled per-rank reference tables.

Two modes:

* full (n <= 5): the complete subgroup lattice up to W(D_n)-conjugacy,
  grown by the candidates of groups.prime_power_cyclics, one coset step
  each, over the right-regular table of W(D_n), with conjugation-orbit
  dedup, then filtered.  Each class is extended once per orbit of its
  normalizer on the candidates, and the normalizer is read off the walk
  of the class's conjugation orbit, so no conjugacy test is run.  It is
  the independent reference that guided mode is tested against.
* generator_guided (n <= 7): groups.subgroup_walk, the walker behind
  groups.ordered_subgroups, over groups.prime_power_cyclics of the "clean"
  elements (those whose cyclic group has trivial H^1), with the
  clean set as its ``within``: a closure that meets an unclean element
  aborts, and a candidate x is dropped before its orbit is traced when
  the coset Hx meets one.  It keeps one subgroup per W(D_n)-class in a
  ClassStore and extends it once per orbit of its normalizer on the
  candidate cyclic subgroups, read off a conjugacy orbit labelled over
  the clean set; that set is closed under conjugation, so every class is
  still reached.  Any group passing the filters is clean, so the search
  is complete for the target set below the order cap (capped_closures
  counts the closures the cap stopped).  At rank 7 the cap hides no
  passing class: without it the walk finds exactly two more, the
  flip-free A_7 and S_7, and both fail the fiber-pair condition
  (test_rank_7_order_cap_hides_no_passing_class, a heavy test).
  Partial groups are never pruned by orbit counts: that would lose D4(1),
  both of whose one-generator partials already have four symbol orbits.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations, product
from operator import itemgetter, or_
from typing import NamedTuple

from .classes import ClassSpec, build_group
from .cohomology import h1_condition, h1_condition_cyclic
from .conditions import fiber_pair_condition, orbit_count_filter
from .groups import (
    ClassStore,
    Enc,
    FiniteGroup,
    abelian_invariants,
    are_conjugate,
    canonical_form,
    closure,
    enc_cycle_type,
    enc_mul,
    identity_enc,
    index_orbits,
    prime_power_cyclics,
    subgroup_walk,
    wdn_generators,
)
from .signedperm import SignedPerm, format_element, parse_element, wdn_order

FULL_MODE_MAX_RANK = 5
GUIDED_MODE_MAX_RANK = 7
CLEAN_SUBGROUP_CAP = 1024
CANONICAL_KEY_MAX_RANK = 5


def clean_elements(n: int) -> frozenset[Enc]:
    """Elements whose cyclic group satisfies (H1); only they can occur in a
    group passing the (H1) condition.

    Whether <g> passes depends only on the Lambda counts of the powers of
    g, which depend only on its signed cycle type, so the condition is
    evaluated once per cycle type.  W(D_n) is walked lazily, every
    permutation with every even set of sign flips, and only the clean
    elements are kept.
    """
    verdicts: dict[tuple, bool] = {}
    even_flips = [f for f in product((0, 1), repeat=n) if not sum(f) % 2]
    out = []
    for perm in permutations(range(0, 2 * n, 2)):
        for flips in even_flips:
            e = tuple(map(or_, perm, flips))
            t = enc_cycle_type(e)
            if t not in verdicts:
                verdicts[t] = h1_condition_cyclic(SignedPerm.from_enc(n, e))[0]
            if verdicts[t]:
                out.append(e)
    return frozenset(out)


class EnumEntry(NamedTuple):
    """One conjugacy class in the filtered output."""

    order: int
    orbit_profile: tuple[int, ...]
    abelian_invariants: tuple[int, ...]
    name: str
    class_id: int | None
    class_params: dict | None
    generators: tuple[str, ...]
    canonical_key: tuple | None


class EnumerationResult(NamedTuple):
    n: int
    mode: str
    entries: list[EnumEntry]
    stats: dict


def _passes_filters(G: FiniteGroup, h1_memo: dict[frozenset[Enc], bool]) -> bool:
    # relative minimality is the fiber-pair condition (conditions.relative_minimality)
    if not fiber_pair_condition(G):
        return False
    if not orbit_count_filter(G):
        return False
    return h1_condition(G, memo=h1_memo).ok


def right_regular_table(n: int) -> tuple[list[Enc], dict[Enc, int], list[tuple[int, ...]]]:
    """W(D_n) as its sorted encodings, their index, and right[y], the tuple
    h -> index(h*y) of the right-regular representation.

    A breadth-first search of the Cayley graph of wdn_generators(n) makes
    the 3|W| products p*w.  Along its spanning tree, right[p*w] is right[p]
    gathered through right_w, the tuple h -> index(h*w).
    """
    gens = wdn_generators(n)
    order = [identity_enc(n)]
    tree: dict[Enc, tuple[Enc, int] | None] = {order[0]: None}
    products: dict[Enc, list[Enc]] = {}
    for p in order:  # order grows while it is read
        products[p] = [enc_mul(p, w) for w in gens]
        for k, c in enumerate(products[p]):
            if c not in tree:
                tree[c] = (p, k)
                order.append(c)
    if len(order) != wdn_order(n):
        raise RuntimeError(f"the generators of W(D_{n}) do not close to {wdn_order(n)} elements")
    encs = sorted(order)
    index = {e: i for i, e in enumerate(encs)}
    right_w = [tuple(index[products[e][k]] for e in encs) for k in range(len(gens))]
    right = [tuple(range(len(encs)))] * len(encs)  # the identity's row; the loop sets the others
    for c in order[1:]:
        p, k = tree[c]
        right[index[c]] = itemgetter(*right[index[p]])(right_w[k])
    return encs, index, right


def _coset_closure(H: frozenset[int], S: list[int], right: list[tuple[int, ...]], ident: int) -> frozenset[int]:
    """<H, S> for a subgroup H and a list S that holds generators of H, as
    the union of right cosets Hr that enc_closure(..., subgroup=H) builds:
    from r = 1, each rs not yet reached adds the coset H(rs)."""
    K = set(H)
    coset_of = itemgetter(ident, *H)  # ident is in H; repeating it keeps a tuple when H is trivial
    reps = [ident]
    right_S = [right[s] for s in S]
    for r in reps:  # reps grows while it is read
        for right_s in right_S:
            y = right_s[r]
            if y not in K:
                K.update(coset_of(right[y]))
                reps.append(y)
    return frozenset(K)


def _orbit_and_normalizer(
    K: frozenset[int],
    gens: list[int],
    right: list[tuple[int, ...]],
    ident: int,
    moves: list[tuple[int, int, tuple[int, ...]]],
) -> tuple[list[frozenset[int]], list[int]]:
    """The literal W(D_n)-orbit of K = <gens> and generators of N_W(K).

    ``moves`` holds (w, w^-1, q -> w q w^-1) for generators w of W(D_n).
    The breadth-first search of the orbit records for each point Q a
    transversal t_Q with t_Q K t_Q^-1 = Q, and its inverse.  An edge
    Q --w--> R onto a point already reached gives the Schreier element
    t_R^-1 w t_Q, which maps K onto itself; by Schreier's lemma these
    elements generate N_W(K).  N grows from K by one coset step for each
    one not yet in it, so the generators are gens and those elements.  It
    stops once |orbit| |N| = |W(D_n)|, which needs both to be complete.
    """
    transversal = {K: (ident, ident)}
    orbit = [K]
    N, n_gens = K, list(gens)
    for Q in orbit:  # orbit grows while it is read
        take = itemgetter(ident, *Q)  # ident is in Q; repeating it keeps a tuple when Q is trivial
        t, t_inv = transversal[Q]
        for w, w_inv, conj in moves:
            R = frozenset(take(conj))
            if R not in transversal:
                transversal[R] = (right[t][w], right[w_inv][t_inv])
                orbit.append(R)
            else:
                s = right[t][right[w][transversal[R][1]]]
                if s not in N:
                    n_gens.append(s)
                    N = _coset_closure(N, n_gens, right, ident)
            if len(orbit) * len(N) == len(right):
                return orbit, n_gens
    raise RuntimeError(f"the orbit ({len(orbit)}) and normalizer ({len(N)}) fall short of |W(D_n)| = {len(right)}")


def _enumerate_full(n: int) -> tuple[list[FiniteGroup], dict]:
    """Classes of subgroups of W(D_n), grown by prime-power cyclic
    extensions over the right-regular table, with W(D_n)-orbit dedup.

    Each new class K is listed with its literal W(D_n)-orbit, so no
    conjugacy test is run, and the walk of that orbit also yields
    generators of N_W(K) (_orbit_and_normalizer).  K is then extended once
    per N_W(K)-orbit of candidates, by the orbit's least member x'.  Closing
    every candidate in sorted order would reach x' first, and any other
    member x gives <K, x>, conjugate to <K, x'> by N_W(K), whose whole
    W(D_n)-orbit is then already in ``seen``; so the same classes are kept.
    """
    encs, index, right = right_regular_table(n)
    ident = index[identity_enc(n)]

    @cache
    def conjugation(g: int) -> tuple[int, ...]:
        left_g = tuple(map(itemgetter(g), right))  # z -> g*z, column g of the table
        return itemgetter(*right[right[g].index(ident)])(left_g)  # q -> g*(q*g^-1)

    moves = [(w, right[w].index(ident), conjugation(w)) for w in map(index.get, wdn_generators(n))]
    ppow = [index[e] for e in dict.fromkeys(prime_power_cyclics(encs).values())]
    seen: set[frozenset[int]] = set()
    class_reps: list[tuple[frozenset[int], list[int], list[int]]] = []
    queue = []

    def keep(K: frozenset[int], gens: list[int]) -> None:
        orbit, n_gens = _orbit_and_normalizer(K, gens, right, ident, moves)
        seen.update(orbit)
        class_reps.append((K, gens, n_gens))
        queue.append(len(class_reps) - 1)

    keep(frozenset({ident}), [])
    closures = 0
    while queue:
        H, gens, n_gens = class_reps[queue.pop()]
        # N_W(H)-conjugate candidates give conjugate extensions <H, x>; keep
        # the least element of each N_W(H)-conjugation orbit
        n_conjugations = [conjugation(g) for g in n_gens]
        traced: set[int] = set()
        orbit_reps = []
        for x in ppow:
            if x in H or x in traced:
                continue
            traced.add(x)
            orbit = [x]
            for y in orbit:  # orbit grows while it is read
                for c in n_conjugations:
                    z = c[y]
                    if z not in traced:
                        traced.add(z)
                        orbit.append(z)
            orbit_reps.append(min(orbit))
        for x in sorted(orbit_reps):
            S = gens + [x]
            closures += 1
            K = _coset_closure(H, S, right, ident)
            if K not in seen:
                keep(K, S)

    groups = [
        FiniteGroup.from_enc_set(n, (encs[i] for i in H), [encs[i] for i in gens])
        for H, gens, _ in class_reps
    ]
    stats = {
        "subgroup_classes": len(class_reps),
        "subgroups_total": len(seen),
        "closures": closures,
        "prime_power_cyclics": len(ppow),
    }
    return groups, stats


def _enumerate_guided(n: int) -> tuple[list[FiniteGroup], dict]:
    """Classes of clean subgroups of order <= CLEAN_SUBGROUP_CAP.

    Complete: every finite group is generated by its elements of
    prime-power order, and the clean set is closed under powers and
    conjugation, so every clean subgroup is reached through clean
    intermediate subgroups by the walker's prime-power extensions.
    """
    clean = clean_elements(n)
    cyclic = prime_power_cyclics(clean)
    store = ClassStore()
    walk = subgroup_walk(n, cyclic, CLEAN_SUBGROUP_CAP, within=clean, store=store)
    stats = {
        "clean_elements": len(clean),
        "clean_cyclic_candidates": len(set(cyclic.values())),
        "clean_subgroup_classes": store.count,
        "closures": walk.closures,
        "aborted_closures": walk.aborted,
        "capped_closures": store.capped,
        "conjugacy_tests": store.tests,
        "orbit_points": store.orbit_points,
    }
    return list(walk.subgroups), stats


def enumerate_wdn(n: int, mode: str = "full") -> EnumerationResult:
    """Conjugacy classes of subgroups passing all three filters, with
    canonical keys up to rank CANONICAL_KEY_MAX_RANK."""
    if mode == "full":
        if not 2 <= n <= FULL_MODE_MAX_RANK:
            raise ValueError(f"full mode supports 2 <= n <= {FULL_MODE_MAX_RANK}")
        groups, stats = _enumerate_full(n)
    elif mode == "generator_guided":
        if not 2 <= n <= GUIDED_MODE_MAX_RANK:
            raise ValueError(f"generator_guided mode supports 2 <= n <= {GUIDED_MODE_MAX_RANK}")
        groups, stats = _enumerate_guided(n)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    h1_memo: dict[frozenset[Enc], bool] = {}
    passing = [G for G in groups if _passes_filters(G, h1_memo)]
    entries = []
    for G in passing:
        name, cls_id, cls_params = match_table_row(G)
        key = canonical_form(G) if n <= CANONICAL_KEY_MAX_RANK else None
        entries.append(
            EnumEntry(
                order=G.order,
                orbit_profile=tuple(sorted((len(o) for o in index_orbits(n, G.spanning_encs)), reverse=True)),
                abelian_invariants=abelian_invariants(G),
                name=name,
                class_id=cls_id,
                class_params=cls_params,
                generators=tuple(format_element(g) for g in G.generators),
                canonical_key=key,
            )
        )
    entries.sort(key=lambda e: (e.order, e.orbit_profile, e.name, e.generators))
    stats["passing"] = len(entries)
    return EnumerationResult(n=n, mode=mode, entries=entries, stats=stats)


# ---------------------------------------------------------------------------
# reference tables
# ---------------------------------------------------------------------------


class TableRow(NamedTuple):
    row_id: str
    name: str
    order: int
    spec: ClassSpec | None = None
    fixture_generators: tuple[str, ...] | None = None
    note: str = ""

    def build(self, n: int) -> FiniteGroup:
        if self.spec is not None:
            G = build_group(self.spec)
            if G.n != n:
                raise ValueError(f"{self.row_id}: class instance has rank {G.n}, table is for rank {n}")
            return G
        if self.fixture_generators is None:
            raise ValueError(f"{self.row_id}: missing fixture generators")
        return closure([parse_element(t, n) for t in self.fixture_generators], n=n)


def _row(row_id, name, order, cls=None, note="", fixture=None, **params) -> TableRow:
    spec = ClassSpec(cls, params) if cls is not None else None
    return TableRow(row_id, name, order, spec, fixture, note)


# Fixture generators for the rows carrying no class number were found
# once by the generator-guided enumeration at n=6 and frozen here; they are
# re-verified (conditions, orders, pairwise non-conjugacy) by verify_tables.
# The assignment of same-name rows (the four S_4's etc.) to row ids follows
# the deterministic enumeration order.
D6_FIXTURES: dict[str, tuple[str, ...]] = {
    "D6(4)": ("c1 c2 (3,4) (5,6)", "(1,3) (2,5) (4,6)"),
    "D6(7)": ("c1 c2 (3,4) (5,6)", "c1 c2 (1,3,2,5) (4,6)"),
    "D6(8)": ("c1 c2 (3,4) (5,6)", "c4 c6 (1,3,2,5) (4,6)"),
    "D6(9)": ("c1 c2 (3,4,5,6)", "c2 c4 c5 c6 (1,3) (2,5) (4,6)"),
    "D6(10)": ("c1 c2 (3,4,5,6)", "c4 c6 (1,3) (2,5) (4,6)"),
    "D6(12)": ("c1 c2 (3,4) (5,6)", "c1 c2 c4 c6 (1,3,2,5)"),
    "D6(13)": ("c1 c2 (3,4) (5,6)", "c4 c6 (1,3,2,5)"),
    "D6(14)": ("(3,4) (5,6)", "c1 c2 c4 c6 (1,2,3,4,5,6)"),
    "D6(15)": ("(3,4) (5,6)", "c4 c6 (1,2,3,4,5,6)"),
}

TABLE_ROWS: dict[int, list[TableRow]] = {
    4: [_row("D4(1)", "S_3", 6, cls=1, n=1)],
    5: [
        _row("D5(1)", "D_6", 12, cls=9, n=1),
        _row("D5(2)", "C_3 : C_4", 12, cls=10, n=1),
        _row("D5(3)", "C_3 : D_4", 24, cls=11, n=1),
    ],
    6: [
        _row("D6(1)", "S_3", 6, cls=7, n1=1, n2=1),
        _row("D6(2)", "D_5", 10, cls=1, n=2),
        _row("D6(3)", "D_6", 12, cls=12, n=1, note="catalog stores n=1: class 12 has rank 4n+2"),
        _row("D6(4)", "D_6", 12, fixture=D6_FIXTURES.get("D6(4)")),
        _row("D6(5)", "C_3 : S_3", 18, cls=5, n1=1, n2=1),
        _row("D6(6)", "F_5", 20, cls=2, p=5, r=1),
        _row("D6(7)", "S_4", 24, fixture=D6_FIXTURES.get("D6(7)")),
        _row("D6(8)", "S_4", 24, fixture=D6_FIXTURES.get("D6(8)")),
        _row("D6(9)", "S_4", 24, fixture=D6_FIXTURES.get("D6(9)")),
        _row("D6(10)", "S_4", 24, fixture=D6_FIXTURES.get("D6(10)")),
        _row("D6(11)", "S_3^2", 36, cls=13, n=1),
        _row("D6(12)", "C_2 x S_4", 48, fixture=D6_FIXTURES.get("D6(12)")),
        _row("D6(13)", "C_2 x S_4", 48, fixture=D6_FIXTURES.get("D6(13)")),
        _row("D6(14)", "S_5", 120, fixture=D6_FIXTURES.get("D6(14)")),
        _row("D6(15)", "S_5", 120, fixture=D6_FIXTURES.get("D6(15)")),
    ],
    7: [
        _row("D7(1)", "C_5 : C_4", 20, cls=10, n=2),
        _row("D7(2)", "D_10", 20, cls=9, n=2),
        _row("D7(3)", "F_5", 20, cls=14, p=5, r=1),
        _row("D7(4)", "S_3^2", 36, cls=3, n1=1, n2=1),
        _row("D7(5)", "(C_3 : S_3) : C_2", 36, cls=15, n=1),
        _row("D7(6)", "C_2 x F_5", 40, cls=17, p=5, r=1),
        _row("D7(7)", "C_5 : D_4", 40, cls=11, n=2),
        _row("D7(8)", "C_2 x F_5", 40, cls=16, p=5, r=1, note="class 14 at p=5 closes to F_5 itself, so this row is the class 16 form"),
        _row("D7(9)", "S_3 wr C_2", 72, cls=18, n=1),
        _row("D7(10)", "C_2^2 : F_5", 80, cls=19, p=5, r=1),
    ],
    8: [
        _row("D8(1)", "F_7", 42, cls=2, p=7, r=1),
        _row("D8(2)", "D_15", 30, cls=5, n1=1, n2=2, note="class 7 at coprime block sizes closes to the same group"),
        _row("D8(3)", "D_7", 14, cls=1, n=3),
        _row("D8(4)", "C_3 : F_5", 60, cls=6, n=1, p=5, r=1, note="class 8 at coprime parameters closes to the same group"),
    ],
    9: [
        _row("D9(1)", "C_7 : C_4", 28, cls=10, n=3),
        _row("D9(2)", "D_14", 28, cls=9, n=3),
        _row("D9(3)", "D_14 : C_2", 56, cls=11, n=3),
        _row("D9(4)", "S_3 x D_5", 60, cls=3, n1=1, n2=2),
        _row("D9(5)", "C_7 : C_12", 84, cls=16, p=7, r=1),
        _row("D9(6)", "C_2 x F_7", 84, cls=17, p=7, r=1),
        _row("D9(7)", "C_3^3 : C_2^2", 108, cls=20, n1=1, n2=1, n3=1),
        _row("D9(8)", "C_3^2 : (C_3 : C_4)", 108, cls=21, n1=1, n2=1),
        _row("D9(9)", "S_3 x F_5", 120, cls=4, n=1, p=5, r=1),
        _row("D9(10)", "C_2^2 : F_7", 168, cls=19, p=7, r=1),
        _row("D9(11)", "S_3^2 : S_3", 216, cls=22, n1=1, n2=1),
        _row("D9(12)", "C_3^3 : C_2^2 : C_3", 324, cls=23, n=1),
        _row("D9(13)", "C_3^3 . S_4", 648, cls=24, n=1),
    ],
}


def match_table_row(G: FiniteGroup) -> tuple[str, int | None, dict | None]:
    """Name an enumerated group by matching it against the reference rows."""
    rows = TABLE_ROWS.get(G.n, [])
    for row in rows:
        if row.order != G.order:
            continue
        if are_conjugate(G, row.build(G.n)):
            if row.spec is None:
                return row.name, None, None
            return row.name, row.spec.id, dict(row.spec.params)
    inv = abelian_invariants(G)
    ab = "x".join(f"C_{d}" for d in inv) if inv else "1"
    return f"order {G.order} (ab {ab})", None, None


class TableRowReport(NamedTuple):
    row_id: str
    name: str
    order_ok: bool
    h1_ok: bool
    relmin_ok: bool
    fiber_pairs_ok: bool
    orbit_count_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.order_ok and self.h1_ok and self.relmin_ok and self.fiber_pairs_ok and self.orbit_count_ok


class TablesReport(NamedTuple):
    n: int
    rows: list[TableRowReport]
    pairwise_distinct: bool

    @property
    def all_ok(self) -> bool:
        return self.pairwise_distinct and all(r.all_ok for r in self.rows)


def verify_tables(n: int) -> TablesReport:
    """Rebuild every reference row for W(D_n) and re-check all conditions."""
    if n not in TABLE_ROWS:
        raise ValueError(f"no reference table for n = {n}")
    rows = TABLE_ROWS[n]
    built = []
    reports = []
    h1_memo: dict[frozenset[Enc], bool] = {}
    for row in rows:
        G = row.build(n)
        built.append(G)
        cond = h1_condition(G, memo=h1_memo)
        joined = fiber_pair_condition(G)  # relative_minimality is this condition
        reports.append(
            TableRowReport(
                row_id=row.row_id,
                name=row.name,
                order_ok=G.order == row.order,
                h1_ok=cond.ok,
                relmin_ok=joined,
                fiber_pairs_ok=joined,
                orbit_count_ok=orbit_count_filter(G),
            )
        )
    store = ClassStore()
    return TablesReport(n=n, rows=reports, pairwise_distinct=all(map(store.add, built)))
