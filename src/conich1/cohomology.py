"""H^1(G, Pic) three ways: the coboundary-lattice oracle, the cyclic closed
form, and the half-sum/orbit criterion.  Production decides H^1 with the
oracle; the other two are checked against it by the test suite.

All three express everything in the coordinates of a generating set S: a
cocycle is the stacked vector (f(s))_{s in S} of length D = |S|(n+2), and
the coboundary columns are f_i = ((phi(s) - I) e_i)_{s in S}.  The oracle
takes Z^1/B^1 as the torsion of Z^D/B^1.  That is exact because Z^1 is
saturated in Z^D and |G| annihilates H^1 (Brown, Cohomology of Groups,
GTM 87, 1982, Cor. III.10.2), so Z^1 is the saturation of B^1.  It reads
that torsion, and the torsion of Z^D/F for F = <f_1..f_n>, off one
unit-pivot elimination of the nonzero rows of the phi(s) - I
(intlinalg.unit_pivot_torsion), with no Hermite basis.  The full cocycle
system over the Cayley graph of G, the slow ground truth, and the Hermite
route the oracle replaced live in tests/helpers.py as h1_by_cocycle_system
and h1_oracle_by_hermite.
"""

from __future__ import annotations

from itertools import compress
from typing import NamedTuple

from .groups import (
    DEFAULT_SUBGROUP_BOUND,
    Enc,
    FiniteGroup,
    _cyclic_encs,
    enc_cycle_type,
    identity_enc,
    index_orbits,
    ordered_subgroups,
    sylow2,
)
from .intlinalg import LatticeBasis, unit_pivot_torsion
from .picard import phi_of_enc
from .signedperm import SignedPerm, sigma

MAX_HALFSUM_NULLITY = 16  # h1_halfsum searches 2^k orbit combinations for k up to this


class TorsionError(RuntimeError):
    """An H^1 invariant factor other than 2 appeared; something is badly wrong."""


class H1Report(NamedTuple):
    """Outcome of one H^1 computation."""

    invariant_factors: tuple[int, ...]
    f2_rank: int
    method: str  # oracle | cyclic_formula | halfsum
    witnesses: tuple[tuple[int, ...], ...] | None = None
    z1_mod_f_rank: int | None = None
    f_minus1_in_span: bool | None = None


def _two_torsion(factors: tuple[int, ...]) -> tuple[int, ...]:
    """``factors``, after checking that they are all 2, as H^1 is 2-torsion."""
    if any(d != 2 for d in factors):
        raise TorsionError(f"H^1 invariant factors {factors} are not all 2")
    return factors


def _torsion(sub: LatticeBasis) -> tuple[int, ...]:
    """Invariant factors of the torsion of Z^D/sub, which must be 2-torsion."""
    return _two_torsion(sub.torsion())


def _generating_set(G: FiniteGroup) -> list[Enc]:
    """S, as encodings: G's stored non-identity generators, which generate
    it by construction."""
    ident = identity_enc(G.n)
    return [e for e in G.spanning_encs if e != ident]


def coboundary_columns(gens: list[Enc], n: int) -> dict[int, tuple[int, ...]]:
    """The stacked columns f_i = ((phi(s_1) - I)e_i, ..., (phi(s_m) - I)e_i),
    i in {-1, 1..n}, over the W(D_n) encodings ``gens``, with the half-sum
    identity f_-1 = (1/2) sum f_i checked."""
    dim = n + 2
    cols: dict[int, list[int]] = {i: [] for i in [-1] + list(range(1, n + 1))}
    for e in gens:
        entries = phi_of_enc(e).entries
        for i, col in cols.items():
            pos = i + 1
            c = list(entries[pos::dim])  # column pos of the row-major matrix
            c[pos] -= 1
            col.extend(c)
    total = [0] * (len(gens) * dim)
    for i in range(1, n + 1):
        for k, x in enumerate(cols[i]):
            total[k] += x
    if any(x % 2 for x in total) or [x // 2 for x in total] != cols[-1]:
        raise RuntimeError("half-sum identity f_-1 = (1/2) sum f_i failed")
    return {i: tuple(v) for i, v in cols.items()}


def h1_oracle(G: FiniteGroup) -> H1Report:
    """Z^1/B^1 as the torsion of Z^D/B^1, read off the coboundaries alone.

    In the coordinates (f(s))_{s in S}, D = |S|(n+2), Z^1 is the integer
    kernel of the cocycle relations, so it is saturated in Z^D.  |G|
    annihilates H^1(G, Pic) (Brown, Cohomology of Groups, GTM 87, 1982,
    Cor. III.10.2), so B^1 has finite index in Z^1, and Z^1 = sat(B^1).
    Hence Z^1/B^1 is the torsion of Z^D/B^1, and likewise Z^1/F is the
    torsion of Z^D/F for F = <f_1..f_n>.  f_0 = 0, since phi fixes l_0.

    Both are read off one matrix: the D x (n+1) matrix with columns f_-1,
    f_1..f_n, whose row (s, r) is row r of phi(s) - I.  Its zero rows add
    no torsion and are skipped, and each nonzero row is checked against
    the half-sum identity f_-1 = (1/2) sum f_i, coordinate by coordinate.
    intlinalg.unit_pivot_torsion eliminates the unit entries in the
    f_1..f_n columns, which are invariant factors 1 of F and B alike, and
    gives the torsion of Z^D/F off those columns and of Z^D/B^1 off all.

    The identity puts 2 f_-1 in F, so rank B = rank F and [B:F] <= 2, and
    |tors Z^D/F| = [B:F] |tors Z^D/B^1|.  Every factor is 2 (TorsionError
    otherwise), so the two factor counts differ by 0 or 1 (RuntimeError
    otherwise), and f_-1 lies in F exactly when they are equal.  Nothing
    walks G: phi is evaluated once per generator.  tests/helpers.py keeps
    the full cocycle system over the Cayley graph as the slow ground truth.
    The cost does not grow with |G|, so no order bound applies.
    """
    n = G.n
    S = _generating_set(G)
    if not S:
        return H1Report((), 0, "oracle", None, 0, True)
    dim = n + 2

    # column k of a row is l_{k-1}; column 0 is l_-1, the one side column
    rows = []
    for e in S:
        m = phi_of_enc(e).entries
        by_row: list[dict[int, int]] = [{} for _ in range(dim)]
        for k in compress(range(dim * dim), m):
            by_row[k // dim][k % dim] = m[k]
        for r, row in enumerate(by_row):
            x = row.pop(r, 0) - 1
            if x:
                row[r] = x
            row.pop(1, None)  # f_0 = 0
            if row:
                minus1 = row.get(0, 0)
                if 2 * minus1 != sum(row.values()) - minus1:
                    raise RuntimeError("half-sum identity f_-1 = (1/2) sum f_i failed")
                rows.append(row)
    f_factors, factors = unit_pivot_torsion(rows, side=(0,))
    _two_torsion(factors)
    _two_torsion(f_factors)
    gap = len(f_factors) - len(factors)
    if gap not in (0, 1):
        raise RuntimeError("Z^1/F and Z^1/B^1 disagree on whether f_-1 lies in F")

    return H1Report(
        invariant_factors=factors,
        f2_rank=len(factors),
        method="oracle",
        witnesses=None,
        z1_mod_f_rank=len(f_factors),
        f_minus1_in_span=gap == 0,
    )


def _cyclic_rank(x: Enc) -> int:
    """The F_2-rank of H^1(<x>, Pic) by the closed form max(Lambda - 2, 0),
    Lambda(x) the number of signed cycles with an odd number of flips."""
    return max(sum(odd for _, odd in enc_cycle_type(x)) - 2, 0)


def h1_cyclic(g: SignedPerm) -> H1Report:
    """Closed form for the cyclic group <g>: rank max(Lambda - 2, 0)."""
    if sigma(g) != 1:
        raise ValueError("element outside W(D_n)")
    rank = _cyclic_rank(g.enc)
    return H1Report((2,) * rank, rank, "cyclic_formula")


def cyclic_h1_fails(x: Enc) -> bool:
    """Whether H^1(<x>, Pic) != 0, by the closed form on the encoding."""
    return _cyclic_rank(x) > 0


def h1_condition_cyclic(g: SignedPerm) -> tuple[bool, int | None]:
    """(H1) for <g>: every power must have Lambda in {0, 2}.

    When the condition holds, also reports which of the three generator
    shapes applies: (1) two single flips, (2) a flipped transposition plus
    a single flip, (3) no odd cycles at all.
    """
    if sigma(g) != 1:
        raise ValueError("element outside W(D_n)")
    # Lambda is even on W(D_n), so Lambda in {0, 2} means a closed-form rank of 0
    if any(map(_cyclic_rank, _cyclic_encs(g.enc))):
        return False, None
    odd_lens = [w for w, odd in enc_cycle_type(g.enc) if odd]
    if not odd_lens:
        return True, 3
    if odd_lens == [1, 1]:
        return True, 1
    if odd_lens != [1, 2]:
        raise RuntimeError(f"unexpected odd-cycle shape {odd_lens} passed the power check")
    return True, 2


def h1_halfsum(G: FiniteGroup) -> H1Report:
    """The orbit/half-sum method of the cocycle-quotient reduction.

    Candidate classes are xi_I = (1/2) sum_{i in I} f_i for I a union of
    index orbits with even column sum; I -> [xi_I] is GF(2)-linear in I, so
    a nullspace basis of the parity condition spans everything.  Orbits of
    zero column sum add nothing to xi_I and are left out; the witness search
    over the 2^k basis combinations refuses k > MAX_HALFSUM_NULLITY.
    Each 2 xi_I lies in F, so F <= W = F + <xi_I> <= sat(F), and dim W/F
    is how many torsion factors, all 2, Z^D/W has fewer than Z^D/F.
    """
    n = G.n
    dim = n + 2
    S = _generating_set(G)
    if not S:
        return H1Report((), 0, "halfsum", (), 0, True)
    cols = coboundary_columns(S, n)
    D = len(S) * dim
    orbits: list[tuple[int, ...]] = []
    orbit_sums: list[list[int]] = []
    for orb in index_orbits(n, S):
        v = [0] * D
        for i in orb:
            for c, x in enumerate(cols[i]):
                v[c] += x
        if any(v):
            orbits.append(orb)
            orbit_sums.append(v)
    k = len(orbits)

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

    F = LatticeBasis.from_vectors(D, [cols[i] for i in range(1, n + 1)])

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
    if W.rank != F.rank:
        raise RuntimeError("the half-sum span outgrew the saturation of F")
    dim_span = len(_torsion(F)) - len(_torsion(W))

    f_minus1 = cols[-1]
    in_f = F.member(f_minus1)
    rank = dim_span - (0 if in_f else 1)
    if rank < 0:
        raise RuntimeError("f_-1 lies outside F although the half-sum span adds nothing")

    # minimal-cardinality independent witnesses, ties broken lexicographically
    witnesses: list[tuple[int, ...]] = []
    if dim_span:
        if len(null_combos) > MAX_HALFSUM_NULLITY:
            raise ValueError(
                f"the half-sum search needs 2^{len(null_combos)} > 2^{MAX_HALFSUM_NULLITY} orbit combinations; use --method oracle"
            )
        candidates = []
        for mask in range(1, 1 << len(null_combos)):
            combo = 0
            for b in range(len(null_combos)):
                if mask >> b & 1:
                    combo ^= null_combos[b]  # never 0: each basis vector has its own highest orbit
            I = tuple(sorted(i for t in range(k) if combo >> t & 1 for i in orbits[t]))
            candidates.append((len(I), I, combo))
        candidates.sort()
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


class H1ConditionResult(NamedTuple):
    """Verdict of the all-subgroups (H1) check."""

    ok: bool
    witness: FiniteGroup | None
    subgroups_checked: int

    # a tuple of three fields is always true; the verdict must read False
    def __bool__(self) -> bool:
        return self.ok


def h1_condition(G: FiniteGroup, memo: dict[frozenset[Enc], bool] | None = None) -> H1ConditionResult:
    """(H1): H^1(H, Pic) = 0 for every subgroup H.

    It is decided on the subgroups of one Sylow 2-subgroup P = sylow2(G),
    which is equivalent; the tests check that against the subgroups of G
    itself.  When P has more than groups.DEFAULT_SUBGROUP_BOUND elements,
    its subgroups are not enumerated: its cyclic subgroups are scanned, and
    a failing one is a definitive False verdict with that subgroup,
    generated by the least failing encoding, as the witness.  If none
    fails, (H1) is not decided above the bound, and ValueError is raised.

    Within the bound the subgroups are checked in the order of
    groups.ordered_subgroups, (order, sorted element encodings), and the
    witness of a failure is the least failing one; ``subgroups_checked``
    counts the nontrivial subgroups up to it.  The stream is lazy, so the
    subgroup walk stops at the witness.

    A subgroup the walk reached through a single generator x is cyclic and
    is decided by the closed form (cyclic_h1_fails: Lambda(x) > 2), with no
    oracle call; in a 2-group that is every cyclic subgroup.  The others go
    to h1_oracle.  ``memo``, when given, is owned by the caller
    and maps the element set of each subgroup the oracle decided to whether
    it fails; a set found there is not decided again, so one memo can be
    shared by the calls of one verify_tables or enumerate_wdn run.  The
    verdicts, the witness and ``subgroups_checked`` do not depend on it.
    """
    base = sylow2(G)
    if base.order > DEFAULT_SUBGROUP_BOUND:
        e = min(filter(cyclic_h1_fails, base.enc_set), default=None)
        if e is not None:
            return H1ConditionResult(False, FiniteGroup.from_enc_set(G.n, _cyclic_encs(e), [e]), 0)
        raise ValueError(
            f"(H1) is not decided above the subgroup bound {DEFAULT_SUBGROUP_BOUND}: "
            f"no cyclic subgroup fails in the Sylow 2-subgroup of order {base.order}"
        )
    if memo is None:
        memo = {}
    checked = 0
    for H in ordered_subgroups(base):
        if H.order == 1:
            continue
        checked += 1
        if len(H.spanning_encs) == 1:
            fails = cyclic_h1_fails(H.spanning_encs[0])
        else:
            fails = memo.get(H.enc_set)
            if fails is None:
                fails = memo[H.enc_set] = h1_oracle(H).f2_rank > 0
        if fails:
            return H1ConditionResult(False, H, checked)
    return H1ConditionResult(True, None, checked)
