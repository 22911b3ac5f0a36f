"""H^1(G, Pic) three ways: a cocycle-system oracle, the cyclic closed form,
and the half-sum/orbit criterion.  The oracle is ground truth; the other two
are validated against it by the test suite.

All three express everything in the coordinates of a generating set S: a
cocycle is the stacked vector (f(s))_{s in S} of length |S|(n+2), and the
coboundary columns are f_i = ((phi(s) - I) e_i)_{s in S}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import (
    Enc,
    FiniteGroup,
    _walk_levels,
    closure,
    enc_mul,
    identity_enc,
    index_orbits,
    prime_power_cyclic_generators,
    sylow2,
)
from .intlinalg import LatticeBasis, kernel_of_rows, quotient_invariants
from .picard import phi
from .signedperm import SignedPerm, lambda_count, sigma, signed_cycles

DEFAULT_ORACLE_BOUND = 512


class TorsionError(RuntimeError):
    """An H^1 invariant factor other than 2 appeared; something is badly wrong."""


@dataclass(frozen=True)
class H1Report:
    """Outcome of one H^1 computation."""

    invariant_factors: tuple[int, ...]
    f2_rank: int
    method: str  # oracle | cyclic_formula | halfsum
    witnesses: tuple[tuple[int, ...], ...] | None = None
    z1_mod_f_rank: int | None = None
    f_minus1_in_span: bool | None = None

    def is_trivial(self) -> bool:
        return self.f2_rank == 0


@dataclass(frozen=True)
class CoboundaryColumns:
    """Stacked columns f_i = ((g_1 - I)e_i, ..., (g_m - I)e_i), i in {-1, 1..n}."""

    n: int
    generators: tuple[SignedPerm, ...]
    columns: dict[int, tuple[int, ...]]

    @property
    def length(self) -> int:
        return len(self.generators) * (self.n + 2)


def _check_torsion(factors: tuple[int, ...]) -> None:
    if any(d != 2 for d in factors):
        raise TorsionError(f"H^1 invariant factors {factors} are not all 2")


def _finite_quotient(lattice: LatticeBasis, sub: LatticeBasis) -> tuple[int, ...]:
    """Invariant factors of lattice/sub, which must be finite and 2-torsion."""
    factors, free = quotient_invariants(lattice, sub)
    if free:
        raise RuntimeError(f"the quotient has free rank {free}; H^1 of a finite group must be finite")
    _check_torsion(factors)
    return factors


def _generating_set(G: FiniteGroup, generators, use_all_elements: bool) -> list[SignedPerm]:
    if use_all_elements:
        return list(G.elements)
    if generators is not None:
        gens = list(generators)
        closed = closure(gens, n=G.n) if gens else closure([], n=G.n)
        if closed.enc_set != G.enc_set:
            raise ValueError("supplied generators do not generate the group")
        return gens
    gens = [g for g in G.generators if not g.is_identity()]
    if gens:
        closed = closure(gens, n=G.n)
        if closed.enc_set == G.enc_set:
            return gens
    return G.generating_sequence()


def coboundary_columns(gens: list[SignedPerm], n: int | None = None) -> CoboundaryColumns:
    """The f_i vectors over a generator list, with the half-sum identity checked."""
    if gens:
        n = gens[0].n
    elif n is None:
        raise ValueError("empty generator list needs an explicit rank n")
    for g in gens:
        if sigma(g) != 1:
            raise ValueError("generator outside W(D_n)")
    dim = n + 2
    cols: dict[int, list[int]] = {i: [] for i in [-1] + list(range(1, n + 1))}
    for g in gens:
        M = phi(g)
        for i in cols:
            pos = i + 1
            col = [M[r, pos] - (1 if r == pos else 0) for r in range(dim)]
            cols[i].extend(col)
    total = [0] * (len(gens) * dim)
    for i in range(1, n + 1):
        for k, x in enumerate(cols[i]):
            total[k] += x
    if any(x % 2 for x in total) or [x // 2 for x in total] != cols[-1]:
        raise RuntimeError("half-sum identity f_-1 = (1/2) sum f_i failed")
    return CoboundaryColumns(n, tuple(gens), {i: tuple(v) for i, v in cols.items()})


def h1_oracle(
    G: FiniteGroup,
    generators: list[SignedPerm] | None = None,
    use_all_elements: bool = False,
    bound: int = DEFAULT_ORACLE_BOUND,
) -> H1Report:
    """Z^1/B^1 from the full multiplication table.

    Unknowns are f(s) for s in the generating set S; every pair (x, s) with
    x in G contributes the cocycle constraint f(xs) = f(x) + phi(x) f(s),
    consumed either as the definition of f(xs) (spanning-tree edge of the
    Cayley graph) or as a relation row.  With S = the full element list
    (use_all_elements=True) this is literally the |G|^2 constraint system.
    """
    if G.order > bound:
        raise ValueError(f"group order {G.order} exceeds oracle bound {bound}")
    n = G.n
    dim = n + 2
    S = _generating_set(G, generators, use_all_elements)
    m = len(S)
    D = m * dim
    if m == 0:
        return H1Report((), 0, "oracle", None, 0, True)

    phi_rows_of = {}
    for g in G.elements:
        M = phi(g)
        phi_rows_of[g.enc] = [list(M.row(r)) for r in range(dim)]

    s_encs = [s.enc for s in S]
    ident = identity_enc(n)
    E: dict[tuple, list[list[int]]] = {ident: [[0] * D for _ in range(dim)]}
    queue = [ident]
    relation_rows: set[tuple[int, ...]] = set()
    qi = 0
    while qi < len(queue):
        x = queue[qi]
        qi += 1
        Ex = E[x]
        Px = phi_rows_of[x]
        for idx, s in enumerate(s_encs):
            y = enc_mul(x, s)
            off = idx * dim
            if y not in E:
                Ey = [row[:] for row in Ex]
                for r in range(dim):
                    Pr = Px[r]
                    Eyr = Ey[r]
                    for c in range(dim):
                        if Pr[c]:
                            Eyr[off + c] += Pr[c]
                E[y] = Ey
                queue.append(y)
            else:
                Ey = E[y]
                for r in range(dim):
                    row = [a - b for a, b in zip(Ey[r], Ex[r])]
                    Pr = Px[r]
                    for c in range(dim):
                        if Pr[c]:
                            row[off + c] -= Pr[c]
                    if any(row):
                        relation_rows.add(tuple(row))
    if len(E) != G.order:
        raise RuntimeError(f"the Cayley graph reached {len(E)} of {G.order} elements")

    kernel = kernel_of_rows(sorted(relation_rows), D)
    Z = LatticeBasis.from_vectors(D, kernel)

    cob: dict[int, tuple[int, ...]] = {}
    for i in range(-1, n + 1):
        pos = i + 1
        vec: list[int] = []
        for s in S:
            M = phi_rows_of[s.enc]
            vec.extend(M[r][pos] - (1 if r == pos else 0) for r in range(dim))
        cob[i] = tuple(vec)
    B = LatticeBasis.from_vectors(D, [cob[i] for i in range(-1, n + 1)])
    F = LatticeBasis.from_vectors(D, [cob[i] for i in range(1, n + 1)])

    for i in (-1, 0, 1):
        if not Z.member(cob[i]):
            raise RuntimeError("coboundary is not a cocycle; oracle is inconsistent")

    factors = _finite_quotient(Z, B)
    f_factors = _finite_quotient(Z, F)
    f_minus1_in_f = F.member(cob[-1])
    if len(f_factors) != len(factors) + (0 if f_minus1_in_f else 1):
        raise RuntimeError("Z^1/F and Z^1/B^1 disagree on whether f_-1 lies in F")

    return H1Report(
        invariant_factors=factors,
        f2_rank=len(factors),
        method="oracle",
        witnesses=None,
        z1_mod_f_rank=len(f_factors),
        f_minus1_in_span=f_minus1_in_f,
    )


def h1_cyclic(g: SignedPerm) -> H1Report:
    """Closed form for the cyclic group <g>: rank max(Lambda - 2, 0)."""
    if sigma(g) != 1:
        raise ValueError("element outside W(D_n)")
    lam = lambda_count(g)
    rank = max(lam - 2, 0)
    return H1Report((2,) * rank, rank, "cyclic_formula")


def h1_condition_cyclic(g: SignedPerm) -> tuple[bool, int | None]:
    """(H1) for <g>: every power must have Lambda in {0, 2}.

    When the condition holds, also reports which of the three generator
    shapes applies: (1) two single flips, (2) a flipped transposition plus
    a single flip, (3) no odd cycles at all.
    """
    if sigma(g) != 1:
        raise ValueError("element outside W(D_n)")
    x = g
    ident = SignedPerm.identity(g.n)
    while True:
        if lambda_count(x) not in (0, 2):
            return False, None
        if x == ident:
            break
        x = x * g
    odd_lens = sorted(len(c.support) for c in signed_cycles(g) if len(c.minus_indices) % 2)
    if not odd_lens:
        return True, 3
    if odd_lens == [1, 1]:
        return True, 1
    if odd_lens != [1, 2]:
        raise RuntimeError(f"unexpected odd-cycle shape {odd_lens} passed the power check")
    return True, 2


def h1_halfsum(G: FiniteGroup, generators: list[SignedPerm] | None = None) -> H1Report:
    """The orbit/half-sum method of the cocycle-quotient reduction.

    Candidate classes are xi_I = (1/2) sum_{i in I} f_i for I a union of
    index orbits with even column sum; I -> [xi_I] is GF(2)-linear in I, so
    a nullspace basis of the parity condition spans everything.
    """
    n = G.n
    dim = n + 2
    S = _generating_set(G, generators, use_all_elements=False)
    if not S:
        return H1Report((), 0, "halfsum", (), 0, True)
    cc = coboundary_columns(S, n)
    D = cc.length
    orbits = index_orbits(n, [s.enc for s in S])
    k = len(orbits)

    orbit_sums: list[list[int]] = []
    for orb in orbits:
        v = [0] * D
        for i in orb:
            for c, x in enumerate(cc.columns[i]):
                v[c] += x
        orbit_sums.append(v)

    # GF(2) nullspace of T -> sum of orbit columns (mod 2)
    def bits(v: list[int]) -> int:
        out = 0
        for c, x in enumerate(v):
            if x & 1:
                out |= 1 << c
        return out

    basis: list[tuple[int, int]] = []  # (bitmask, combo over orbits)
    null_combos: list[int] = []
    for t in range(k):
        cur = bits(orbit_sums[t])
        combo = 1 << t
        for bm, cm in basis:
            low = bm & -bm
            if cur & low:
                cur ^= bm
                combo ^= cm
        if cur == 0:
            null_combos.append(combo)
        else:
            basis.append((cur, combo))

    F = LatticeBasis.from_vectors(D, [cc.columns[i] for i in range(1, n + 1)])

    def xi_of(combo: int) -> tuple[int, ...]:
        v = [0] * D
        for t in range(k):
            if combo >> t & 1:
                for c, x in enumerate(orbit_sums[t]):
                    v[c] += x
        if any(x % 2 for x in v):
            raise RuntimeError("an orbit combination in the parity nullspace has an odd column sum")
        return tuple(x // 2 for x in v)

    xis = [xi_of(cm) for cm in null_combos]
    W = F.sum_with(xis)
    dim_span = len(_finite_quotient(W, F))

    f_minus1 = cc.columns[-1]
    in_f = F.member(f_minus1)
    rank = dim_span - (0 if in_f else 1)
    if rank < 0:
        raise RuntimeError("f_-1 lies outside F although the half-sum span adds nothing")

    # minimal-cardinality independent witnesses, ties broken lexicographically
    candidates = []
    for mask in range(1, 1 << len(null_combos)):
        combo = 0
        for b in range(len(null_combos)):
            if mask >> b & 1:
                combo ^= null_combos[b]
        if combo == 0:
            continue
        I = tuple(sorted(i for t in range(k) if combo >> t & 1 for i in orbits[t]))
        candidates.append((len(I), I, combo))
    candidates.sort()
    witnesses: list[tuple[int, ...]] = []
    grown = F
    seen_I = set()
    for _, I, combo in candidates:
        if I in seen_I or len(witnesses) == dim_span:
            continue
        seen_I.add(I)
        xi = xi_of(combo)
        if not grown.member(xi):
            witnesses.append(I)
            grown = grown.sum_with([xi])

    return H1Report(
        invariant_factors=(2,) * rank,
        f2_rank=rank,
        method="halfsum",
        witnesses=tuple(witnesses),
        z1_mod_f_rank=dim_span,
        f_minus1_in_span=in_f,
    )


@dataclass(frozen=True)
class H1ConditionResult:
    """Verdict of the all-subgroups (H1) check; ok=None means 'not decided'."""

    ok: bool | None
    witness: FiniteGroup | None
    route: str
    subgroups_checked: int
    note: str = ""

    def __bool__(self) -> bool:
        return self.ok is True


def h1_condition(
    G: FiniteGroup,
    route: str = "sylow2",
    subgroup_bound: int = 2000,
    oracle_bound: int = DEFAULT_ORACLE_BOUND,
    samples: int = 64,
    seed: int = 0,
) -> H1ConditionResult:
    """(H1): H^1(H, Pic) = 0 for every subgroup H.

    The default route checks the subgroups of one Sylow 2-subgroup, which
    is equivalent; route='direct' enumerates all subgroups of G itself.
    Past the enumeration bound only sampling runs: a failure is definitive,
    anything else is reported as undecided, never as a clean verdict.

    Within the bound the subgroups are checked in (order, sorted element
    encodings) order, and the witness of a failure is the least failing
    one; ``subgroups_checked`` counts the nontrivial subgroups up to it.
    The subgroup walk is read one breadth-first level at a time and stops
    at the witness: every walk step at least doubles the order, so after
    level d all subgroups of order < 2^(d+1) are known and can be checked
    in that order before the walk goes on.
    """
    if route == "sylow2":
        base = sylow2(G)
    elif route == "direct":
        base = G
    else:
        raise ValueError(f"unknown route {route!r}")
    if base.order > subgroup_bound:
        import random

        rng = random.Random(seed)
        for g in base.elements:
            if not g.is_identity() and h1_cyclic(g).f2_rank:
                return H1ConditionResult(False, closure([g], n=G.n), route, 0, "found by cyclic scan")
        for i in range(samples):
            gens = [base.elements[rng.randrange(base.order)] for _ in range(2)]
            try:
                H = closure(gens, n=G.n, cap=oracle_bound)
            except ValueError:
                continue
            if h1_oracle(H, bound=oracle_bound).f2_rank:
                return H1ConditionResult(False, H, route, i + 1, "found by sampling")
        return H1ConditionResult(None, None, route, samples, "subgroup enumeration bound exceeded")
    pending: list[tuple[int, tuple[Enc, ...], frozenset[Enc], list[Enc]]] = []
    checked = 0
    levels = _walk_levels(base.n, prime_power_cyclic_generators(base.enc_set), cap=base.order)
    for d, (level, _, aborted) in enumerate(levels):
        if aborted:
            raise RuntimeError(f"a closure inside a group of order {base.order} outgrew it")
        pending.extend((len(K), tuple(sorted(K)), K, gens) for K, gens, _ in level)
        pending.sort(reverse=True)  # the least subgroup last
        while pending and (not level or pending[-1][0] < 2 ** (d + 1)):
            order, _, K, gens = pending.pop()
            if order == 1:
                continue
            checked += 1
            H = FiniteGroup.from_enc_set(base.n, K, gens)
            if h1_oracle(H, bound=oracle_bound).f2_rank:
                return H1ConditionResult(False, H, route, checked)
    return H1ConditionResult(True, None, route, checked)


def h1_cross_check(G: FiniteGroup) -> H1Report:
    """Oracle and half-sum must agree; returns the oracle report."""
    oracle = h1_oracle(G)
    halfsum = h1_halfsum(G)
    if oracle.f2_rank != halfsum.f2_rank:
        raise RuntimeError(
            f"oracle/half-sum disagreement: {oracle.f2_rank} vs {halfsum.f2_rank} "
            f"for group of order {G.order} at rank {G.n}"
        )
    return oracle
