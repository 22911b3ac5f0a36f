"""Finite subgroups of W(D_n): closure, subgroup lattice, Sylow-2, conjugacy,
and the conjugacy orbit of a subgroup (its normalizer and canonical form).

Everything here runs on element encodings (SignedPerm.enc), the bytes
symbol tables of signedperm, with its primitives (enc_mul, enc_inv,
enc_order, enc_cycle_type, enc_dn_class), which this module re-exports,
and orders elements as their tables order.  A right coset Hy is one
translate call per element, [y.translate(h + pad) for h in H].
SignedPerm objects are the public value type and are built only on
request (FiniteGroup.generators).
Conjugacy orbits of subgroups run on labels instead, the sort positions
of a conjugation-closed set of encodings (ConjugationLabels).
"""

from __future__ import annotations

from math import isqrt
from operator import itemgetter
from typing import AbstractSet, Callable, Iterable, Iterator, NamedTuple, Sequence

from .intlinalg import unit_pivot_torsion
from .signedperm import (
    _PAD,
    Enc,
    SignedPerm,
    enc_cycle_type,
    enc_dn_class,
    enc_inv,
    enc_mul,
    enc_order,
    identity_enc,
    sigma,
    wdn_order,
)

DEFAULT_CLOSURE_CAP = 100000
DEFAULT_SUBGROUP_BOUND = 2000
MAX_CONJUGATORS = 50000  # the largest |W(D_n)| canonical_form walks


def wdn_generators(n: int) -> list[Enc]:
    """Generators of W(D_n), n >= 2: (1,2), c1 c2 and, for n > 2, (1,2,...,n)."""
    if n < 2:
        raise ValueError(f"W(D_n) generators need n >= 2, got {n}")
    rest = identity_enc(n)[4:]
    gens = [bytes((2, 3, 0, 1)) + rest, bytes((1, 0, 3, 2)) + rest]
    if n > 2:
        gens.append(bytes((s + 2) % (2 * n) for s in range(2 * n)))
    return gens


def enc_conjugation(t: Enc) -> Callable[[Enc], Enc]:
    """q -> t q t^-1: entry s is t(q(t^-1(s))), so q is gathered at
    t^-1's entries and the result looked up in t, two translate calls."""
    pad = _PAD[len(t)]
    t_inv, t_table = enc_inv(t), t + pad
    return lambda q: t_inv.translate(q + pad).translate(t_table)


def enc_closure(
    gens: Iterable[Enc],
    n: int,
    cap: int = DEFAULT_CLOSURE_CAP,
    within: AbstractSet[Enc] | None = None,
    subgroup: Iterable[Enc] | None = None,
    on_cap: Callable[[], None] | None = None,
) -> frozenset[Enc] | None:
    """The group generated by ``gens``, grown as a union of right cosets.

    Each step extends a closed subgroup H to K = <H, S> for a generator
    list S with H inside <S>: for each coset representative r, starting
    from the identity, and each s in S, the coset H(rs) is added when rs
    is not in K yet.  Every added coset is disjoint from K, and the union
    is closed under right multiplication by S, so it is <S>.  Without
    ``subgroup`` the group grows from the trivial group one generator at a
    time (Dimino's algorithm); ``subgroup``, a closed subgroup of <gens>
    inside ``within`` (the walker passes <gens[:-1]>), is the start of a
    single step.  A coset Hy is one translate call per element of H:
    h*y is y's entries looked up in h's table.

    Returns None as soon as the closure exceeds ``cap`` or leaves the set
    ``within`` (used as an early abort by enumeration); both are checked as
    each coset is added, ``within`` first.  ``on_cap`` is called when the
    cap stops the closure.
    """
    gens = list(gens)
    ident = identity_enc(n)
    pad = _PAD[2 * n]
    if subgroup is not None:
        K = set(subgroup)
        if len(K) > cap:
            if on_cap is not None:
                on_cap()
            return None
        steps = [len(gens)]
    else:
        if within is not None and ident not in within:
            return None
        K = {ident}
        steps = range(1, len(gens) + 1)
    for k in steps:
        S = gens[:k]
        if subgroup is None and S[-1] in K:
            continue  # K = <S[:-1]> already holds S[-1]
        H = list(K)
        reps = [ident]
        for r in reps:  # reps grows while it is read
            r_table = r + pad
            for s in S:
                y = s.translate(r_table)  # r*s
                if y in K:
                    continue
                coset = [y.translate(h + pad) for h in H]
                if within is not None and not within.issuperset(coset):
                    return None
                K.update(coset)
                if len(K) > cap:
                    if on_cap is not None:
                        on_cap()
                    return None
                reps.append(y)
    return frozenset(K)


def _orbits(size: int, links: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The classes of {0..size-1} joined by ``links``, by union-find; each
    class ascending, the classes sorted by least member."""
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        a, b = find(a), find(b)
        if a != b:
            parent[a] = b
    classes: dict[int, list[int]] = {}
    for x in range(size):
        classes.setdefault(find(x), []).append(x)
    return sorted(classes.values())


def index_orbits(n: int, encs: Iterable[Enc]) -> list[tuple[int, ...]]:
    """Orbits of the projected permutation group on {1..n}, sorted by min."""
    links = ((j, s >> 1) for e in encs for j, s in enumerate(e[::2]))
    return [tuple(j + 1 for j in o) for o in _orbits(n, links)]


def pair_orbits(n: int, encs: Iterable[Enc]) -> list[tuple[int, ...]]:
    """Orbits on the 2n symbols; symbols are 2(j-1) for j^+ and 2(j-1)+1 for j^-."""
    links = (link for e in encs for link in enumerate(e))
    return [tuple(o) for o in _orbits(2 * n, links)]


class FiniteGroup:
    """Closed set of W(D_n) elements with generators that generate it.

    ``enc_set`` is the group and the encodings ``spanning_encs`` generate
    it.  The one constructor, from_enc_set, is called only with an element
    set closed from (or conjugated along with) the generators it gets, so
    nothing re-derives or re-checks them; the trivial group may have none.
    The SignedPerm tuple ``generators`` is built on each access, the
    fingerprint on the first.
    """

    __slots__ = ("n", "spanning_encs", "enc_set", "order", "_fingerprint", "_pair_size", "_by_type")

    @classmethod
    def from_enc_set(cls, n: int, encs: Iterable[Enc], gens_enc: Sequence[Enc]) -> "FiniteGroup":
        """The group with element set ``encs``, generated by ``gens_enc``."""
        G = cls.__new__(cls)
        G.n = n
        G.spanning_encs = tuple(gens_enc)
        G.enc_set = frozenset(encs)
        G.order = len(G.enc_set)
        G._fingerprint = None
        G._pair_size = None
        G._by_type = None
        return G

    @property
    def generators(self) -> tuple[SignedPerm, ...]:
        return tuple(SignedPerm.from_enc(self.n, e) for e in self.spanning_encs)

    def __len__(self) -> int:
        return self.order

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteGroup) and self.n == other.n and self.enc_set == other.enc_set

    def __hash__(self) -> int:
        return hash((self.n, self.enc_set))

    def __repr__(self) -> str:
        return f"FiniteGroup(n={self.n}, order={self.order}, gens={len(self.spanning_encs)})"


def closure(gens: Sequence[SignedPerm], n: int | None = None) -> FiniteGroup:
    """Group generated by the given W(D_n) elements, grown as a union of right
    cosets by enc_closure; one of more than DEFAULT_CLOSURE_CAP elements
    raises ValueError."""
    if not gens:
        if n is None:
            raise ValueError("empty generator list needs an explicit rank n")
        return FiniteGroup.from_enc_set(n, [identity_enc(n)], [])
    n0 = gens[0].n
    if n is not None and n != n0:
        raise ValueError("rank mismatch")
    for g in gens:
        if g.n != n0:
            raise ValueError("rank mismatch among generators")
        if sigma(g) != 1:
            raise ValueError("generator with sigma = -1 is outside W(D_n)")
    encs = enc_closure([g.enc for g in gens], n0, cap=DEFAULT_CLOSURE_CAP)
    if encs is None:
        raise ValueError(f"closure exceeded cap of {DEFAULT_CLOSURE_CAP} elements")
    return FiniteGroup.from_enc_set(n0, encs, [g.enc for g in gens])


class SubgroupList(NamedTuple):
    parent: FiniteGroup
    subgroups: tuple[FiniteGroup, ...]


def prime_power_cyclics(encs: Iterable[Enc]) -> dict[Enc, Enc]:
    """Each generator of a cyclic subgroup of prime-power order generated by
    an element of ``encs`` -> the least element of ``encs`` generating it.

    One pass over ``encs`` in sorted order: an element not yet mapped is
    the least generator of its cyclic group, whose powers are computed
    once.  The values, in the order they first appear, are one generator
    per such subgroup.
    """
    table: dict[Enc, Enc] = {}
    for e in sorted(encs):
        if e in table or (k := enc_order(e)) == 1:
            continue
        p = next(q for q in range(2, k + 1) if k % q == 0)  # the least prime factor
        while k % p == 0:
            k //= p
        if k != 1:
            continue  # not of prime-power order
        powers = _cyclic_encs(e)
        table.update((powers[i], e) for i in range(1, len(powers)) if i % p)
    return table


def _cyclic_encs(e: Enc) -> list[Enc]:
    out = [identity_enc(len(e) >> 1)]
    x = e
    while x != out[0]:
        out.append(x)
        x = enc_mul(x, e)
    return out


class ClassStore:
    """Conjugacy-class dedup by order, fingerprint and exact backtracking.

    The first stored group of each order waits in ``first`` with no
    fingerprint, since a group whose order no other stored group shares
    meets no test.  When a second group of that order arrives, both go to
    the buckets, which hold the stored groups of one fingerprint; the
    fingerprint counts elements per W(D_n)-class (enc_dn_class), so twins
    that only an odd element of W(B_n) conjugates, such as H and c1 H c1
    when the key splits them (Carter, Compositio Math. 25, 1972), meet no
    test.  ``count`` is the number of classes stored and ``tests`` the
    number of conjugacy tests made, one per stored group of an equal
    fingerprint.  A walker given a store extends each stored class once
    per orbit of its normalizer, adds the size of each conjugacy orbit it
    traced for those normalizers to ``orbit_points``, and counts in
    ``capped`` the closures its order cap stopped.
    """

    def __init__(self) -> None:
        # order -> its one stored group, or None once that order has buckets
        self.first: dict[int, FiniteGroup | None] = {}
        self.buckets: dict[tuple, list[FiniteGroup]] = {}
        self.count = 0
        self.tests = 0
        self.orbit_points = 0
        self.capped = 0

    def add(self, G: FiniteGroup) -> bool:
        """Store G and return True unless it is W(D_n)-conjugate to a stored group."""
        if G.order not in self.first:
            self.first[G.order] = G
            self.count += 1
            return True
        alone = self.first[G.order]
        if alone is not None:
            self.first[G.order] = None
            self.buckets[fingerprint(alone)] = [alone]
        bucket = self.buckets.setdefault(fingerprint(G), [])
        for rep in bucket:
            self.tests += 1
            if are_conjugate(rep, G):
                return False
        bucket.append(G)
        self.count += 1
        return True


# one subgroup of a walk level: element set, generators, and the FiniteGroup
# built for a ClassStore (None without one)
_LevelEntry = tuple[frozenset[Enc], list[Enc], FiniteGroup | None]


class SubgroupWalk(NamedTuple):
    subgroups: tuple[FiniteGroup, ...]  # in discovery order, the trivial group first
    closures: int
    aborted: int


def subgroup_walk(
    n: int,
    cyclic: dict[Enc, Enc],
    cap: int,
    within: AbstractSet[Enc] | None = None,
    store: ClassStore | None = None,
) -> SubgroupWalk:
    """Breadth-first cyclic-extension walk of a subgroup lattice.

    ``cyclic`` maps each generator of a candidate cyclic subgroup to the
    candidate that stands for it, as prime_power_cyclics does; the
    candidates are its values.  Starting from the trivial group, each kept
    subgroup H = <gens> is extended to <gens, x>, closed by enc_closure
    under ``cap`` and inside ``within``, for one candidate x per orbit of
    candidate cyclic subgroups, the least candidate of the orbit.  The
    orbits are traced by conjugating with gens: if <h x h^-1> = <y> for h
    in H, then <H, x> = <H, y>.  Literal element sets are kept once.

    Given ``within``, a candidate x is dropped before its orbit is traced
    when the coset Hx leaves ``within``, for then so does <H, x>, and an
    orbit that reaches a dropped candidate is dropped whole.  Each kept
    subgroup K = <H, x> inherits H's live candidates, those not dropped and
    whose orbit's closure did not abort (<H, y> inside <K, y> would stop it
    too), and tests only the new cosets: k y for k in K outside H.

    A candidate x inside an earlier closure K = <H, x0> of the same H with
    [K:H] prime is not closed: H < <H, x> <= K and [<H, x>:H] divides the
    prime [K:H], so <H, x> = K.

    Given a ClassStore, only the first subgroup of each W(D_n)-class is
    kept and extended (the trivial group is not stored), and the orbits
    are traced under generators of the normalizer N_W(H) instead: for t
    in N_W(H), <H, t x t^-1> = t <H, x> t^-1 lies in the class of <H, x>.
    A conjugate that generates no candidate's cyclic subgroup is not
    followed, which can only split orbits.  ``cap`` and ``within`` must
    then be invariant under W(D_n)-conjugation, as guided enumeration's
    are, and ``within`` is required: the normalizers are read off
    conjugacy orbits labelled over it.

    The walk reaches every subgroup, or class, generated by candidates
    whose intermediate closures stay under ``cap`` and inside ``within``.
    This is the cyclic extension method (Holt, Eick and O'Brien, Handbook
    of Computational Group Theory, 2005).
    """
    kept: list[FiniteGroup] = []
    closures = aborted = 0
    for level, closures, aborted in _walk_levels(n, cyclic, cap, within, store):
        kept.extend(G if G is not None else FiniteGroup.from_enc_set(n, K, gens) for K, gens, G in level)
    return SubgroupWalk(tuple(kept), closures, aborted)


def _walk_levels(
    n: int,
    cyclic: dict[Enc, Enc],
    cap: int,
    within: AbstractSet[Enc] | None = None,
    store: ClassStore | None = None,
) -> Iterator[tuple[list[_LevelEntry], int, int]]:
    """The loop of subgroup_walk, one breadth-first level at a time.

    Yields (level, closures, aborted) for levels 0, 1, 2, ...: the
    subgroups first kept at that level, then the running counts of
    closures and aborted closures; the last level yielded is empty.
    Level 0 is the trivial group.  Every extension at least doubles the
    order, so a subgroup kept at level d has order >= 2^d, and once level
    d is yielded every reachable subgroup of order < 2^(d+1) has been.
    """
    trivial = frozenset({identity_enc(n)})
    level: list[_LevelEntry] = [(trivial, [], None)]
    seen = {trivial}
    closures = aborted = 0
    on_cap = None
    if store is not None:
        labels = ConjugationLabels(n, within)

        def on_cap() -> None:
            store.capped += 1

    # each subgroup waiting to be extended -> its parent and the parent's live candidates
    inherited: dict[frozenset[Enc], tuple[frozenset[Enc], list[Enc]]] = {trivial: (trivial, list(dict.fromkeys(cyclic.values())))}
    yield level, closures, aborted
    while level:
        nxt: list[_LevelEntry] = []
        for H, gens, _ in level:
            if store is None:
                conjugators = gens
            else:
                orbit, conjugators = conjugacy_orbit(labels, H, gens)
                store.orbit_points += len(orbit)
            parent, candidates_left = inherited.pop(H)
            conjugations = [enc_conjugation(g) for g in conjugators]
            orbits = _live_orbits(H, parent, candidates_left, within, conjugations, cyclic)
            live: list[Enc] = []  # the members of orbits whose closure did not abort
            children = []
            covered: set[Enc] = set()  # the elements of the closures K so far with [K:H] prime
            for x, orbit in sorted((min(orbit), orbit) for orbit in orbits):
                if x in covered:
                    live += orbit  # <H, x> is such a K, already closed
                    continue
                closures += 1
                K = enc_closure(gens + [x], n, cap=cap, within=within, subgroup=H, on_cap=on_cap)
                if K is None:
                    aborted += 1
                    continue
                live += orbit
                index = len(K) // len(H)  # at least 2
                if index < 4 or all(index % q for q in range(2, isqrt(index) + 1)):
                    covered.update(K)
                if K in seen:
                    continue
                seen.add(K)
                G = None
                if store is not None:
                    G = FiniteGroup.from_enc_set(n, K, gens + [x])
                    if not store.add(G):
                        continue
                nxt.append((K, gens + [x], G))
                children.append(K)
            for K in children:
                inherited[K] = (H, live)
        level = nxt
        yield level, closures, aborted


def _live_orbits(
    H: frozenset[Enc],
    parent: frozenset[Enc],
    inherited: Sequence[Enc],
    within: AbstractSet[Enc] | None,
    conjugations: Sequence[Callable[[Enc], Enc]],
    cyclic: dict[Enc, Enc],
) -> list[list[Enc]]:
    """The orbits, under ``conjugations``, of the candidates that may still
    extend H, each in tracing order.

    ``inherited`` are the live candidates of ``parent``, the subgroup P
    that H extends (H itself for the trivial group).  A candidate in H
    drops, and, given ``within``, so does an x with h x outside it for
    some h in H outside P: P x was tested at P, so H x leaves ``within``.
    Each h x is one translate call, x looked up in h's table.  An orbit that
    reaches a dropped candidate z drops whole, as each of its members y
    gives a subgroup <H, y> conjugate to <H, z>.
    """
    live = {x for x in inherited if x not in H}
    if within is not None:
        fresh = [h + _PAD[len(h)] for h in H if h not in parent]
        if fresh:
            live = {x for x in live if within.issuperset(map(x.translate, fresh))}  # every h x in within
    traced: set[Enc] = set()
    orbits = []
    for x in inherited:
        if x in traced or x not in live:
            continue
        traced.add(x)
        orbit = [x]
        dead = False
        for y in orbit:  # orbit grows while it is read
            for conj in conjugations:
                z = cyclic.get(conj(y))
                if z is None:
                    continue
                if z not in live:
                    dead = True
                elif z not in traced:
                    traced.add(z)
                    orbit.append(z)
        if dead:
            live.difference_update(orbit)  # a later orbit reaching these drops too
        else:
            orbits.append(orbit)
    return orbits


def ordered_subgroups(G: FiniteGroup) -> Iterator[FiniteGroup]:
    """Every subgroup of G, the trivial group first, in (order, sorted
    element encodings) order, walked lazily one level at a time.

    The walk is _walk_levels over G's prime-power cyclic subgroups.  Every
    walk step at least doubles the order, so after level d all subgroups
    of order < 2^(d+1) are known and are yielded, in order, before the
    walk goes on; a caller that stops early walks no further.  Each
    subgroup keeps the generators the walk reached it by, so one with a
    single stored generator is cyclic.
    """
    pending: list[tuple[int, tuple[Enc, ...], frozenset[Enc], list[Enc]]] = []
    levels = _walk_levels(G.n, prime_power_cyclics(G.enc_set), cap=G.order)
    for d, (level, _, aborted) in enumerate(levels):
        if aborted:
            raise RuntimeError(f"a closure inside a group of order {G.order} outgrew it")
        pending.extend((len(K), tuple(sorted(K)), K, gens) for K, gens, _ in level)
        pending.sort(reverse=True)  # the least subgroup last
        while pending and (not level or pending[-1][0] < 2 ** (d + 1)):
            _, _, K, gens = pending.pop()
            yield FiniteGroup.from_enc_set(G.n, K, gens)


def all_subgroups(G: FiniteGroup) -> SubgroupList:
    """Every subgroup of G, as ordered_subgroups yields them; G may have at
    most DEFAULT_SUBGROUP_BOUND elements."""
    if G.order > DEFAULT_SUBGROUP_BOUND:
        raise ValueError(f"group order {G.order} exceeds subgroup enumeration bound {DEFAULT_SUBGROUP_BOUND}")
    return SubgroupList(G, tuple(ordered_subgroups(G)))


def sylow2(G: FiniteGroup) -> FiniteGroup:
    """A Sylow 2-subgroup of G: G itself when its order is a power of 2,
    else the subgroup climbed to, with the generators it was climbed with.

    Each step adds the least 2-element of G, in encoding order, that
    normalizes P without lying in it, and grows P by one coset step of
    enc_closure, so the result depends only on G's element set.
    Which conjugate comes back is otherwise unspecified: callers may rely
    only on conjugation-invariant facts, such as the order and H^1 verdicts
    (phi(t) maps the H-module Pic to the tHt^-1-module).
    """
    two_part = G.order & -G.order
    if two_part == G.order:
        return G
    n = G.n
    P: frozenset[Enc] = frozenset({identity_enc(n)})
    gens: list[Enc] = []
    elems = sorted(G.enc_set)
    while len(P) < two_part:
        # normalizer scan; P < Sylow guarantees a 2-element of N outside P.
        # P = <gens>, so e normalizes P iff it conjugates every generator into P
        candidate = None
        for e in elems:
            if e in P:
                continue
            k = enc_order(e)
            if k & (k - 1):
                continue  # not a 2-power
            if all(q in P for q in map(enc_conjugation(e), gens)):
                candidate = e
                break
        if candidate is None:
            raise RuntimeError(f"Sylow climb stalled at order {len(P)} below {two_part}")
        gens.append(candidate)
        closed = enc_closure(gens, n, cap=two_part, subgroup=P)
        if closed is None:
            raise RuntimeError(f"Sylow climb outgrew the 2-part {two_part}")
        P = closed
    return FiniteGroup.from_enc_set(n, P, gens)


def abelian_invariants(G: FiniteGroup) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of the abelianization G/[G,G].

    A breadth-first search over G along the stored generators s_1..s_k
    gives each element c the word v_c in Z^k of its search-tree path.  Each
    edge c --s--> cs gives the relation v_c + e_s - v_cs (zero on tree
    edges); by Schreier's lemma these generate the relations of G on the
    s_i, so G/[G,G] is Z^k modulo them, and its invariant factors are the
    torsion factors of that cokernel, read by intlinalg.unit_pivot_torsion
    on the relations as sparse rows.
    """
    gens = G.spanning_encs
    reps = [identity_enc(G.n)]
    index = {reps[0]: 0}
    words = [[0] * len(gens)]
    relations = set()
    for c, r in enumerate(reps):  # reps grows while it is read
        for i, s in enumerate(gens):
            x = enc_mul(r, s)
            step = words[c][:]
            step[i] += 1
            d = index.setdefault(x, len(reps))
            if d == len(reps):
                reps.append(x)
                words.append(step)
            else:
                relations.add(tuple([a - b for a, b in zip(step, words[d])]))
    return unit_pivot_torsion({i: x for i, x in enumerate(r) if x} for r in relations)[1]


def fingerprint(G: FiniteGroup) -> tuple:
    """Cheap W(D_n)-conjugation invariant used to bucket groups before
    exact tests: the order, the index and pair orbit sizes, and the number
    of elements in each W(D_n)-class.

    The classes are told apart by enc_dn_class, which refines the signed
    cycle type (the W(B_n)-class) where W(D_n) splits it (Carter,
    "Conjugacy classes in the Weyl group", Compositio Math. 25, 1972).
    Computed once per group, together with what conjugating_element reads
    on every test: the size of each symbol's pair orbit (G._pair_size) and
    the elements bucketed by W(D_n)-class (G._by_type).
    """
    if G._fingerprint is None:
        by_type: dict[tuple, list[Enc]] = {}
        for e in G.enc_set:
            by_type.setdefault(enc_dn_class(e), []).append(e)
        span = G.spanning_encs
        porbs = pair_orbits(G.n, span)
        pair_size = [0] * (2 * G.n)
        for o in porbs:
            for s in o:
                pair_size[s] = len(o)
        idx_profile = tuple(sorted((len(o) for o in index_orbits(G.n, span)), reverse=True))
        pair_profile = tuple(sorted((len(o) for o in porbs), reverse=True))
        types = tuple(sorted((t, len(v)) for t, v in by_type.items()))
        G._fingerprint = (G.n, G.order, idx_profile, pair_profile, types)
        G._pair_size = pair_size
        G._by_type = by_type
    return G._fingerprint


def conjugating_element(H1: FiniteGroup, H2: FiniteGroup) -> SignedPerm | None:
    """Some t in W(D_n) with t H1 t^{-1} = H2, or None.

    Backtracking over the images of 1^+..n^+, pruning with per-generator
    candidate sets in H2 and pair-orbit size compatibility.  A generator's
    candidates are the elements of H2 in its W(D_n)-class (enc_dn_class;
    Carter, Compositio Math. 25, 1972), so an image of the wrong half of a
    split W(B_n)-class is never tried.  The pruning reads H1's stored
    generators (every constructor stores generators that generate), and an
    accepted t is checked for parity and on all of H1.
    """
    if H1.n != H2.n or H1.order != H2.order:
        return None
    if fingerprint(H1) != fingerprint(H2):
        return None
    n = H1.n
    if H1.order == 1:
        return SignedPerm.identity(n)
    gens = H1.spanning_encs
    size1, size2 = H1._pair_size, H2._pair_size
    h2_by_type = H2._by_type

    # assign indices in an order that activates generator constraints early
    order_idx: list[int] = []
    seen_idx = [False] * n
    for start in range(n):
        if seen_idx[start]:
            continue
        queue = [start]
        seen_idx[start] = True
        while queue:
            j = queue.pop()
            order_idx.append(j)
            for g in gens:
                k = g[2 * j] >> 1
                if not seen_idx[k]:
                    seen_idx[k] = True
                    queue.append(k)

    timage: dict[int, int] = {}  # symbol -> symbol, closed under pairing
    assigned: list[int] = []  # indices j (0-based) already placed
    cands = [h2_by_type.get(t, []) for t in map(enc_dn_class, gens)]

    def filter_cands(cand: list[Enc], g: Enc) -> list[Enc]:
        # keep h with h(t(j^+)) = t(g(j^+)) wherever both sides are known
        checks = [(timage[2 * j], timage[g[2 * j]]) for j in assigned if g[2 * j] in timage]
        if not checks:
            return cand
        return [h for h in cand if all(h[y] == tgt for y, tgt in checks)]

    used_targets: set[int] = set()
    result: list[SignedPerm | None] = [None]

    def assign(depth: int, cands_now: list[list[Enc]]) -> bool:
        if depth == len(order_idx):
            enc_t = bytes(map(timage.__getitem__, range(2 * n)))
            if sum(enc_t[::2]) % 2:
                return False  # odd conjugator lies outside W(D_n)
            # t H1 t^-1 lies in H2, a group of the same order, so equals it
            conj = enc_conjugation(enc_t)
            if not all(conj(h) in H2.enc_set for h in H1.enc_set):
                return False
            result[0] = SignedPerm.from_enc(n, enc_t)
            return True
        j = order_idx[depth]
        want = size1[2 * j]
        for y in range(2 * n):
            if y in used_targets or (y ^ 1) in used_targets:
                continue
            if size2[y] != want:
                continue
            timage[2 * j] = y
            timage[2 * j + 1] = y ^ 1
            used_targets.add(y)
            assigned.append(j)
            new_cands = [filter_cands(c, g) for c, g in zip(cands_now, gens)]
            if all(new_cands) and assign(depth + 1, new_cands):
                return True
            assigned.pop()
            used_targets.discard(y)
            del timage[2 * j]
            del timage[2 * j + 1]
        return False

    assign(0, cands)
    return result[0]


def are_conjugate(H1: FiniteGroup, H2: FiniteGroup) -> bool:
    return conjugating_element(H1, H2) is not None


class ConjugationLabels:
    """The closure of a set of W(D_n) elements under W(D_n)-conjugation,
    with each element labelled by its position in sorted order.

    ``encs`` is the closure, sorted, so labels order as their elements do,
    and ``index`` maps an element to its label.  ``perms[k]`` is
    conjugation by ``generators[k]`` (wdn_generators(n)) on labels: label
    i goes to the label of g encs[i] g^-1.  The closure search conjugates
    each element once by each generator and keeps the images, held as the
    stored equal elements, for the permutations.
    """

    def __init__(self, n: int, encs: Iterable[Enc]) -> None:
        self.n = n
        self.generators = wdn_generators(n)
        conjugations = [enc_conjugation(w) for w in self.generators]
        found = {e: e for e in encs}
        queue = list(found)
        images: list[list[Enc]] = [[] for _ in conjugations]
        for e in queue:  # queue grows while it is read
            for conj, out in zip(conjugations, images):
                f = conj(e)
                out.append(found.setdefault(f, f))
                if len(found) > len(queue):
                    queue.append(f)
        by_label = sorted(range(len(queue)), key=queue.__getitem__)
        self.encs = tuple(map(queue.__getitem__, by_label))
        self.index = {e: i for i, e in enumerate(self.encs)}
        self.perms = [tuple([self.index[out[i]] for i in by_label]) for out in images]

    def of(self, encs: Iterable[Enc]) -> frozenset[int]:
        """The labels of a set of elements of the closure."""
        return frozenset(map(self.index.__getitem__, encs))


def conjugacy_orbit(labels: ConjugationLabels, H: frozenset[Enc], gens: Sequence[Enc]) -> tuple[list[frozenset[int]], list[Enc]]:
    """The W(D_n)-conjugates of H = <gens>, as label sets of ``labels`` in
    discovery order, H's first, and generators of N_W(H), from one search.

    A breadth-first search under the label permutations of
    wdn_generators(n) keeps per point Q a transversal t_Q (t_Q H t_Q^-1 =
    Q) and its inverse.  Each edge Q --w--> R onto a point already reached
    gives the Schreier element t_R^-1 w t_Q; these generate N_W(H)
    (Schreier's lemma), and N grows from H by enc_closure with each one not
    in it yet.  By orbit-stabilizer (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 2005, section 4.1) the orbit has at most
    |W(D_n)| / 2|N| points unless N = N_W(H), so past that the rest is
    walked with no products; the search stops once |orbit| |N| = |W(D_n)|.
    A normal H gives W(D_n)'s generators.
    """
    n = labels.n
    start = labels.of(H)
    take = itemgetter(next(iter(start)), *start)  # a repeated label keeps a tuple when |H| = 1
    if all(frozenset(take(perm)) == start for perm in labels.perms):
        return [start], list(labels.generators)
    total = wdn_order(n)
    ident = identity_enc(n)
    moves = [(w, enc_inv(w), perm) for w, perm in zip(labels.generators, labels.perms)]
    transversal = {start: (ident, ident)}  # Q -> (t_Q, t_Q^-1), or None once N = N_W(H)
    orbit = [start]
    N, n_gens = H, list(gens)
    for Q in orbit:  # orbit grows while it is read
        take = itemgetter(next(iter(Q)), *Q)
        if 2 * len(orbit) * len(N) <= total:
            t, t_inv = transversal[Q]
            for w, w_inv, perm in moves:
                R = frozenset(take(perm))
                if R not in transversal:
                    transversal[R] = (enc_mul(w, t), enc_mul(t_inv, w_inv))
                    orbit.append(R)
                elif (s := enc_mul(transversal[R][1], enc_mul(w, t))) not in N:
                    n_gens.append(s)
                    N = enc_closure(n_gens, n, cap=total, subgroup=N)
        else:
            for perm in labels.perms:
                R = frozenset(take(perm))
                if R not in transversal:
                    transversal[R] = None
                    orbit.append(R)
        if len(orbit) * len(N) == total:
            return orbit, n_gens
    raise RuntimeError(f"the orbit ({len(orbit)}) and normalizer ({len(N)}) fall short of |W(D_{n})| = {total}")


def canonical_form(G: FiniteGroup) -> tuple:
    """Minimal image of the sorted element-set encoding over W(D_n)-conjugation,
    each element given as the int tuple of its images of 1^+..n^+.

    The least tuple(sorted(P)) over the conjugacy orbit of G's element
    set, which takes |W(D_n)| / |N_W(G)| conjugates rather than one per
    element of W(D_n).  The orbit is labelled over the conjugation closure
    of G's elements, and labels order as their elements do, so the least
    sorted label tuple is the least sorted element tuple.  The walk reads
    |G| |W(D_n)| / |N_W(G)| <= |W(D_n)| labels, so MAX_CONJUGATORS,
    which caps |W(D_n)| and raises ValueError when exceeded, bounds it.
    """
    n = G.n
    total = wdn_order(n)
    if total > MAX_CONJUGATORS:
        raise ValueError(
            f"|W(D_{n})| = {total} conjugators exceed MAX_CONJUGATORS={MAX_CONJUGATORS}"
        )
    labels = ConjugationLabels(n, G.enc_set)
    orbit, _ = conjugacy_orbit(labels, G.enc_set, G.spanning_encs)
    least = min(tuple(sorted(P)) for P in orbit)
    return (n, tuple(tuple(labels.encs[i][::2]) for i in least))
