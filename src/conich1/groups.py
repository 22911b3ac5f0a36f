"""Finite subgroups of W(D_n): closure, subgroup lattice, Sylow-2, conjugacy.

Hot paths run on the integer encoding of elements (tuple of images of the
symbols 1^+..n^+, see SignedPerm.enc); SignedPerm objects are the public
value type.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable, Iterable, Iterator, Sequence

from .signedperm import SignedPerm, sigma, wdn_order

Enc = tuple[int, ...]

DEFAULT_CLOSURE_CAP = 100000
DEFAULT_SUBGROUP_BOUND = 2000
DEFAULT_CANONICAL_BOUND = 512


def identity_enc(n: int) -> Enc:
    return tuple(2 * j for j in range(n))


def enc_mul(a: Enc, b: Enc) -> Enc:
    """Product with b applied first (matches SignedPerm.__mul__)."""
    return tuple(a[s >> 1] ^ (s & 1) for s in b)


def enc_inv(a: Enc) -> Enc:
    out = [0] * len(a)
    for j, s in enumerate(a):
        out[s >> 1] = 2 * j ^ (s & 1)
    return tuple(out)


def enc_conj(t: Enc, a: Enc, tinv: Enc | None = None) -> Enc:
    """t a t^{-1}."""
    if tinv is None:
        tinv = enc_inv(t)
    return enc_mul(enc_mul(t, a), tinv)


def enc_order(a: Enc) -> int:
    from math import lcm

    n = len(a)
    seen = [False] * n
    order = 1
    for start in range(n):
        if seen[start]:
            continue
        w = 0
        flips = 0
        j = start
        while not seen[j]:
            seen[j] = True
            s = a[j]
            flips += s & 1
            j = s >> 1
            w += 1
        order = lcm(order, 2 * w if flips % 2 else w)
    return order


def enc_cycle_type(a: Enc) -> tuple[tuple[int, int], ...]:
    """Conjugation invariant: sorted (length, flip parity) over signed cycles."""
    n = len(a)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        w = 0
        flips = 0
        j = start
        while not seen[j]:
            seen[j] = True
            s = a[j]
            flips += s & 1
            j = s >> 1
            w += 1
        out.append((w, flips % 2))
    return tuple(sorted(out))


def enc_closure(
    gens: Iterable[Enc],
    n: int,
    cap: int = DEFAULT_CLOSURE_CAP,
    reject: Callable[[Enc], bool] | None = None,
) -> frozenset[Enc] | None:
    """Breadth-first product saturation of a generator list.

    Returns None as soon as the closure exceeds ``cap`` or contains an
    element matched by ``reject`` (used as an early abort by enumeration).
    """
    gens = [g for g in gens]
    ident = identity_enc(n)
    seen = {ident}
    if reject is not None and reject(ident):
        return None
    frontier = [ident]
    for g in gens:
        if g not in seen:
            if reject is not None and reject(g):
                return None
            seen.add(g)
            frontier.append(g)
            if len(seen) > cap:
                return None
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = enc_mul(x, g)
                if y not in seen:
                    if reject is not None and reject(y):
                        return None
                    seen.add(y)
                    if len(seen) > cap:
                        return None
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def index_orbits(n: int, encs: Iterable[Enc]) -> list[tuple[int, ...]]:
    """Orbits of the projected permutation group on {1..n}, sorted by min."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in encs:
        for j, s in enumerate(e):
            a, b = find(j), find(s >> 1)
            if a != b:
                parent[a] = b
    groups: dict[int, list[int]] = {}
    for j in range(n):
        groups.setdefault(find(j), []).append(j + 1)
    return sorted((tuple(sorted(v)) for v in groups.values()), key=lambda t: t[0])


def pair_orbits(n: int, encs: Iterable[Enc]) -> list[tuple[int, ...]]:
    """Orbits on the 2n symbols; symbols are 2(j-1) for j^+ and 2(j-1)+1 for j^-."""
    parent = list(range(2 * n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in encs:
        for j, s in enumerate(e):
            for bit in (0, 1):
                a, b = find(2 * j + bit), find(s ^ bit)
                if a != b:
                    parent[a] = b
    groups: dict[int, list[int]] = {}
    for x in range(2 * n):
        groups.setdefault(find(x), []).append(x)
    return sorted((tuple(sorted(v)) for v in groups.values()), key=lambda t: t[0])


class FiniteGroup:
    """Closed set of W(D_n) elements with a distinguished generator list.

    ``enc_set`` is the group; ``elements``, the SignedPerm tuple sorted by
    SignedPerm.sort_key, is built on first access.
    """

    __slots__ = ("n", "generators", "enc_set", "order", "_elements", "_enc_sorted")

    def __init__(self, n: int, generators: Sequence[SignedPerm], elements: Iterable[SignedPerm]):
        self.n = n
        self.generators = tuple(generators)
        self._elements: tuple[SignedPerm, ...] | None = tuple(sorted(set(elements), key=SignedPerm.sort_key))
        self.enc_set = frozenset(e.enc for e in self._elements)
        self.order = len(self._elements)
        self._enc_sorted: tuple[Enc, ...] | None = None
        if len(self.enc_set) != self.order:
            raise ValueError("duplicate elements")

    @classmethod
    def from_enc_set(cls, n: int, encs: Iterable[Enc], gens_enc: Sequence[Enc] = ()) -> "FiniteGroup":
        G = cls.__new__(cls)
        G.n = n
        G.generators = tuple(SignedPerm.from_enc(n, e) for e in gens_enc)
        G.enc_set = frozenset(encs)
        G.order = len(G.enc_set)
        G._elements = None
        G._enc_sorted = None
        return G

    @property
    def elements(self) -> tuple[SignedPerm, ...]:
        if self._elements is None:
            perms = (SignedPerm.from_enc(self.n, e) for e in self.enc_set)
            self._elements = tuple(sorted(perms, key=SignedPerm.sort_key))
        return self._elements

    @property
    def enc_sorted(self) -> tuple[Enc, ...]:
        if self._enc_sorted is None:
            self._enc_sorted = tuple(sorted(self.enc_set))
        return self._enc_sorted

    def __contains__(self, g: SignedPerm) -> bool:
        return g.enc in self.enc_set

    def __len__(self) -> int:
        return self.order

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteGroup) and self.n == other.n and self.enc_set == other.enc_set

    def __hash__(self) -> int:
        return hash((self.n, self.enc_set))

    def __repr__(self) -> str:
        return f"FiniteGroup(n={self.n}, order={self.order}, gens={len(self.generators)})"

    def identity(self) -> SignedPerm:
        return SignedPerm.identity(self.n)

    def conjugate_by(self, t: SignedPerm) -> "FiniteGroup":
        tinv = t.inverse()
        gens = [t * g * tinv for g in self.generators]
        elems = [t * g * tinv for g in self.elements]
        return FiniteGroup(self.n, gens, elems)

    def generating_sequence(self) -> list[SignedPerm]:
        """Small generating list: the stored generators if they generate, else greedy."""
        if self.generators:
            closed = enc_closure([g.enc for g in self.generators], self.n, cap=self.order + 1)
            if closed is not None and len(closed) == self.order:
                return list(self.generators)
        gens_enc: list[Enc] = []
        span: frozenset[Enc] = frozenset({identity_enc(self.n)})
        for e in self.enc_sorted:
            if e not in span:
                gens_enc.append(e)
                span = enc_closure(gens_enc, self.n, cap=self.order + 1)  # type: ignore[assignment]
                if len(span) == self.order:
                    break
        return [SignedPerm.from_enc(self.n, e) for e in gens_enc]

    def is_abelian(self) -> bool:
        gens = [g.enc for g in self.generating_sequence()]
        return all(enc_mul(a, b) == enc_mul(b, a) for a in gens for b in gens)

    def center_encs(self) -> frozenset[Enc]:
        gens = [g.enc for g in self.generating_sequence()]
        return frozenset(
            e for e in self.enc_set if all(enc_mul(e, g) == enc_mul(g, e) for g in gens)
        )

    def derived_subgroup_encs(self) -> frozenset[Enc]:
        gens = [g.enc for g in self.generating_sequence()]
        elems = self.enc_sorted
        comms = set()
        for a in elems:
            ainv = enc_inv(a)
            for b in gens:
                comms.add(enc_mul(enc_mul(a, b), enc_mul(ainv, enc_inv(b))))
        out = enc_closure(sorted(comms), self.n, cap=self.order + 1)
        if out is None:
            raise RuntimeError(f"derived subgroup outgrew its group of order {self.order}")
        return out


def closure(gens: Sequence[SignedPerm], n: int | None = None, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """Group generated by the given W(D_n) elements (breadth-first saturation)."""
    if not gens:
        if n is None:
            raise ValueError("empty generator list needs an explicit rank n")
        return FiniteGroup(n, (), [SignedPerm.identity(n)])
    n0 = gens[0].n
    if n is not None and n != n0:
        raise ValueError("rank mismatch")
    for g in gens:
        if g.n != n0:
            raise ValueError("rank mismatch among generators")
        if sigma(g) != 1:
            raise ValueError("generator with sigma = -1 is outside W(D_n)")
    encs = enc_closure([g.enc for g in gens], n0, cap=cap)
    if encs is None:
        raise ValueError(f"closure exceeded cap of {cap} elements")
    return FiniteGroup.from_enc_set(n0, encs, [g.enc for g in gens])


@dataclass(frozen=True)
class SubgroupList:
    parent: FiniteGroup
    subgroups: tuple[FiniteGroup, ...]


def prime_power_cyclic_generators(encs: Iterable[Enc]) -> list[Enc]:
    """One generator per cyclic subgroup of prime-power order: the least
    element of ``encs`` that generates it."""
    seen: set[frozenset[Enc]] = set()
    out: list[Enc] = []
    for e in sorted(encs):
        k = enc_order(e)
        if k == 1:
            continue
        # prime power orders only
        p = min(q for q in range(2, k + 1) if k % q == 0)
        kk = k
        while kk % p == 0:
            kk //= p
        if kk != 1:
            continue
        cyc = frozenset(_cyclic_encs(e))
        if cyc not in seen:
            seen.add(cyc)
            out.append(e)
    return out


def _cyclic_encs(e: Enc) -> list[Enc]:
    out = [identity_enc(len(e))]
    x = e
    while x != out[0]:
        out.append(x)
        x = enc_mul(x, e)
    return out


class ClassStore:
    """Conjugacy-class dedup via fingerprint buckets + exact backtracking."""

    def __init__(self) -> None:
        self.buckets: dict[tuple, list[FiniteGroup]] = {}
        self.count = 0
        self.tests = 0

    def add(self, G: FiniteGroup) -> bool:
        """Store G and return True unless it is W(D_n)-conjugate to a stored group."""
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


@dataclass(frozen=True)
class SubgroupWalk:
    subgroups: tuple[FiniteGroup, ...]  # in discovery order, the trivial group first
    closures: int
    aborted: int


def subgroup_walk(
    n: int,
    candidates: Sequence[Enc],
    cap: int,
    reject: Callable[[Enc], bool] | None = None,
    store: ClassStore | None = None,
) -> SubgroupWalk:
    """Breadth-first cyclic-extension walk of a subgroup lattice.

    Starting from the trivial group, each kept subgroup H = <gens> is
    extended to <gens, x> for one candidate x per H-conjugation orbit, the
    least h x h^-1 over h in H (every element of the orbit gives the same
    <H, x>; the orbit is traced by conjugating with gens), closed by
    enc_closure under ``cap`` and ``reject``.  Literal element sets are
    kept once; given a ClassStore, only the first subgroup of each
    W(D_n)-class is kept and extended (the trivial group is not stored).
    The walk reaches every subgroup, or class, generated by candidates
    whose intermediate closures pass ``cap`` and ``reject``.  This is the
    cyclic extension method (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 2005).
    """
    kept: list[FiniteGroup] = []
    closures = aborted = 0
    for level, closures, aborted in _walk_levels(n, candidates, cap, reject, store):
        kept.extend(G if G is not None else FiniteGroup.from_enc_set(n, K, gens) for K, gens, G in level)
    return SubgroupWalk(tuple(kept), closures, aborted)


def _walk_levels(
    n: int,
    candidates: Sequence[Enc],
    cap: int,
    reject: Callable[[Enc], bool] | None = None,
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
    yield level, closures, aborted
    while level:
        nxt: list[_LevelEntry] = []
        for H, gens, _ in level:
            conj = [(g, enc_inv(g)) for g in gens]
            rep_of: dict[Enc, Enc] = {}
            for x in candidates:
                if x in H or x in rep_of:
                    continue
                rep_of[x] = x
                orbit = [x]
                for y in orbit:  # orbit grows while it is read
                    for t, ti in conj:
                        z = enc_conj(t, y, ti)
                        if z not in rep_of:
                            rep_of[z] = z
                            orbit.append(z)
                least = min(orbit)
                for y in orbit:
                    rep_of[y] = least
            for x in sorted(set(rep_of.values())):
                closures += 1
                K = enc_closure(gens + [x], n, cap=cap, reject=reject)
                if K is None:
                    aborted += 1
                    continue
                if K in seen:
                    continue
                seen.add(K)
                G = None
                if store is not None:
                    G = FiniteGroup.from_enc_set(n, K, gens + [x])
                    if not store.add(G):
                        continue
                nxt.append((K, gens + [x], G))
        level = nxt
        yield level, closures, aborted


def all_subgroups(G: FiniteGroup, bound: int = DEFAULT_SUBGROUP_BOUND) -> SubgroupList:
    """Every subgroup of G, by subgroup_walk over its prime-power cyclic
    generators, sorted by order and then by sorted element encodings."""
    if G.order > bound:
        raise ValueError(f"group order {G.order} exceeds subgroup enumeration bound {bound}")
    walk = subgroup_walk(G.n, prime_power_cyclic_generators(G.enc_set), cap=G.order)
    if walk.aborted:
        raise RuntimeError(f"a closure inside a group of order {G.order} outgrew it")
    subs = sorted(walk.subgroups, key=lambda H: (H.order, H.enc_sorted))
    return SubgroupList(G, tuple(subs))


def sylow2(G: FiniteGroup) -> FiniteGroup:
    """A Sylow 2-subgroup; deterministically the lex-least one as an element set."""
    two_part = G.order & -G.order
    n = G.n

    def conjugation(t: Enc) -> Callable[[Enc], Enc]:
        # q -> t q t^-1 in one pass: entry j is t applied to the symbol q(t^-1(j^+))
        T = [t[x >> 1] ^ (x & 1) for x in range(2 * n)]
        ti = [(s >> 1, s & 1) for s in enc_inv(t)]
        return lambda q: tuple([T[q[k]] ^ f for k, f in ti])

    P: frozenset[Enc] = frozenset({identity_enc(n)})
    gens: list[Enc] = []
    elems = G.enc_sorted
    while len(P) < two_part:
        # normalizer scan; P < Sylow guarantees a 2-element of N outside P
        candidate = None
        for e in elems:
            if e in P:
                continue
            k = enc_order(e)
            if k & (k - 1):
                continue  # not a 2-power
            if all(q in P for q in map(conjugation(e), P)):
                candidate = e
                break
        if candidate is None:
            raise RuntimeError(f"Sylow climb stalled at order {len(P)} below {two_part}")
        gens.append(candidate)
        closed = enc_closure(gens, n, cap=two_part)
        if closed is None:
            raise RuntimeError(f"Sylow climb outgrew the 2-part {two_part}")
        P = closed
    # deterministic representative: least conjugate under the element ordering
    best = tuple(sorted(P))
    best_gens = list(gens)
    seen = {P}
    frontier = [(P, gens)]
    conjugations = [conjugation(g.enc) for g in G.generators]
    while frontier:
        nxt = []
        for Q, Q_gens in frontier:
            for conj in conjugations:
                img = frozenset(map(conj, Q))
                if img not in seen:
                    seen.add(img)
                    img_gens = list(map(conj, Q_gens))
                    nxt.append((img, img_gens))
                    key = tuple(sorted(img))
                    if key < best:
                        best = key
                        best_gens = img_gens
        frontier = nxt
    return FiniteGroup.from_enc_set(n, best, best_gens)


def _prime_factors(m: int) -> list[int]:
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def abelian_invariants(G: FiniteGroup) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of the abelianization G/[G,G]."""
    derived = G.derived_subgroup_encs()
    rep: dict[Enc, Enc] = {}
    for e in G.enc_sorted:
        if e in rep:
            continue
        coset = sorted(enc_mul(e, d) for d in derived)
        for c in coset:
            rep[c] = coset[0]
    cosets = sorted(set(rep.values()))
    order = len(cosets)
    if order == 1:
        return ()
    ident = identity_enc(G.n)

    def cpow(a: Enc, k: int) -> Enc:
        out = ident
        base = a
        while k:
            if k & 1:
                out = rep[enc_mul(out, base)]
            base = rep[enc_mul(base, base)]
            k >>= 1
        return out

    def exact_plog(x: int, p: int) -> int:
        e = 0
        while x > 1:
            if x % p:
                raise RuntimeError(f"{x} is not a power of {p}")
            x //= p
            e += 1
        return e

    ppowers: dict[int, list[int]] = {}
    for p in _prime_factors(order):
        # m_k = log_p #{a : a^(p^k) = 1} = sum_i min(k, e_i) over the p-exponents e_i
        ms = [0]
        k = 1
        while True:
            cnt = sum(1 for c in cosets if cpow(c, p**k) == ident)
            mk = exact_plog(cnt, p)
            if mk == ms[-1]:
                break
            ms.append(mk)
            k += 1
        ge = [ms[i] - ms[i - 1] for i in range(1, len(ms))]  # #factors with exponent >= i
        exps: list[int] = []
        for i, cnt in enumerate(ge, start=1):
            nxt = ge[i] if i < len(ge) else 0
            exps.extend([i] * (cnt - nxt))
        ppowers[p] = sorted((p**e for e in exps), reverse=True)
    width = max(len(v) for v in ppowers.values())
    factors = []
    for i in range(width):
        f = 1
        for vals in ppowers.values():
            if i < len(vals):
                f *= vals[i]
        factors.append(f)
    return tuple(sorted(factors))


def fingerprint(G: FiniteGroup) -> tuple:
    """Cheap conjugation invariant used to bucket groups before exact tests."""
    types: dict[tuple, int] = {}
    for e in G.enc_sorted:
        t = enc_cycle_type(e)
        types[t] = types.get(t, 0) + 1
    idx_profile = tuple(sorted((len(o) for o in index_orbits(G.n, G.enc_set)), reverse=True))
    pair_profile = tuple(sorted((len(o) for o in pair_orbits(G.n, G.enc_set)), reverse=True))
    return (G.n, G.order, idx_profile, pair_profile, tuple(sorted(types.items())))


def conjugating_element(H1: FiniteGroup, H2: FiniteGroup) -> SignedPerm | None:
    """Some t in W(D_n) with t H1 t^{-1} = H2, or None.

    Backtracking over the images of 1^+..n^+, pruning with per-generator
    candidate sets in H2 and pair-orbit size compatibility.
    """
    if H1.n != H2.n or H1.order != H2.order:
        return None
    if fingerprint(H1) != fingerprint(H2):
        return None
    n = H1.n
    gens = [g.enc for g in H1.generating_sequence()]
    if not gens:
        return SignedPerm.identity(n)
    h2_elems = H2.enc_sorted
    h2_types = {e: enc_cycle_type(e) for e in h2_elems}

    orb1 = pair_orbits(n, H1.enc_set)
    orb2 = pair_orbits(n, H2.enc_set)
    size1 = {}
    for o in orb1:
        for s in o:
            size1[s] = len(o)
    size2 = {}
    for o in orb2:
        for s in o:
            size2[s] = len(o)

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
                k = g[j] >> 1
                if not seen_idx[k]:
                    seen_idx[k] = True
                    queue.append(k)

    timage: dict[int, int] = {}  # symbol -> symbol, closed under pairing
    assigned: list[int] = []  # indices j (0-based) already placed
    cands = [{e for e in h2_elems if h2_types[e] == enc_cycle_type(g)} for g in gens]

    def filter_cands(cand: set[Enc], g: Enc) -> set[Enc]:
        # keep h with h(t(j^+)) = t(g(j^+)) wherever both sides are known
        checks = []
        for j in assigned:
            s = g[j]
            if (s >> 1) << 1 in timage:
                checks.append((timage[2 * j], timage[s & ~1] ^ (s & 1)))
        if not checks:
            return cand
        return {h for h in cand if all(h[y >> 1] ^ (y & 1) == tgt for y, tgt in checks)}

    used_targets: set[int] = set()
    result: list[SignedPerm | None] = [None]

    def assign(depth: int, cands_now: list[set[Enc]]) -> bool:
        if depth == len(order_idx):
            enc_t = tuple(timage[2 * j] for j in range(n))
            if sum(s & 1 for s in enc_t) % 2:
                return False  # odd conjugator lies outside W(D_n)
            tinv = enc_inv(enc_t)
            for g in gens:
                if enc_conj(enc_t, g, tinv) not in H2.enc_set:
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


def canonical_form(
    G: FiniteGroup,
    bound: int = DEFAULT_CANONICAL_BOUND,
    max_conjugators: int = 50000,
) -> tuple:
    """Minimal image of the sorted element-set encoding over W(D_n)-conjugation.

    Exact but exhaustive: |W(D_n)| conjugators are scanned, so this is for
    small rank (n <= 5 routinely; 6..7 only when max_conjugators allows).
    """
    if G.order > bound:
        raise ValueError(f"group order {G.order} exceeds canonical_form bound {bound}")
    n = G.n
    total = wdn_order(n)
    if total > max_conjugators:
        raise ValueError(
            f"|W(D_{n})| = {total} conjugators exceed max_conjugators={max_conjugators}"
        )
    elems = G.enc_sorted
    best: tuple | None = None
    indices = list(range(1, n + 1))
    even_subsets = [c for k in range(0, n + 1, 2) for c in combinations(range(n), k)]
    for img in permutations(indices):
        base = [2 * (img[j] - 1) for j in range(n)]
        for minus in even_subsets:
            tvec = list(base)
            for j in minus:
                # flip the sign at the *target* index img[j]
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
                    tuple(T[h[Tinv[2 * j] >> 1] ^ (Tinv[2 * j] & 1)] for j in range(n))
                    for h in elems
                )
            )
            if best is None or key < best:
                best = key
    if best is None:
        raise RuntimeError("no conjugator was scanned")
    return (n, best)


def random_element(G: FiniteGroup, rng) -> SignedPerm:
    return G.elements[rng.randrange(G.order)]


def random_subgroup(G: FiniteGroup, rng, max_gens: int = 2, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    k = rng.randint(1, max_gens)
    gens = [random_element(G, rng) for _ in range(k)]
    return closure(gens, n=G.n, cap=cap)
