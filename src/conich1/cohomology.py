"""H^1(G, Pic) three ways: the coboundary-lattice oracle, the cyclic closed
form, and the half-sum/orbit criterion.  Production decides H^1 with the
oracle; the other two are checked against it by the test suite.

All three express everything in the coordinates of a generating set S: a
cocycle is the stacked vector (f(s))_{s in S} of length D = |S|(n+2), and
the coboundary columns are f_i = ((phi(s) - I) e_i)_{s in S}.  One reader,
_coboundary_rows, gives the nonzero rows of the matrix with columns f_-1,
f_1..f_n as sparse dicts; the oracle and the half-sum method each call it.
The oracle takes Z^1/B^1 as the torsion of Z^D/B^1.  That is exact because
Z^1 is saturated in Z^D and |G| annihilates H^1 (Brown, Cohomology of
Groups, GTM 87, 1982, Cor. III.10.2), so Z^1 is the saturation of B^1.  It
reads that torsion, and the torsion of Z^D/F for F = <f_1..f_n>, off one
unit-pivot elimination of the rows (intlinalg.unit_pivot_torsion).  The
half-sum method decides over F_2 which half-sums of index-orbit columns lie
in F, on the integer relations among f_1..f_n (intlinalg.kernel_of_rows).
Neither builds a Hermite basis.  The full cocycle system over the Cayley
graph of G, the slow ground truth, and the Hermite routes the two replaced
live in tests/helpers.py as h1_by_cocycle_system, h1_oracle_by_hermite and
h1_halfsum_by_hermite.
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
from .intlinalg import kernel_of_rows, unit_pivot_torsion
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


def _generating_set(G: FiniteGroup) -> list[Enc]:
    """S, as encodings: G's stored non-identity generators, which generate
    it by construction."""
    ident = identity_enc(G.n)
    return [e for e in G.spanning_encs if e != ident]


def _coboundary_rows(S: list[Enc], n: int) -> list[dict[int, int]]:
    """The nonzero rows of the stacked phi(s) - I, s in S, as sparse dicts
    {i: entry} over the columns f_-1, f_1..f_n: row (s, r) is row r of
    phi(s) - I, and its entry i sits at l_i.  f_0 = 0, since phi fixes l_0,
    so column 0 is left out.  Each row is checked against the half-sum
    identity f_-1 = (1/2) sum f_i, coordinate by coordinate."""
    dim = n + 2
    rows = []
    for e in S:
        m = phi_of_enc(e).entries
        by_row: list[dict[int, int]] = [{} for _ in range(dim)]
        for k in compress(range(dim * dim), m):
            by_row[k // dim][k % dim - 1] = m[k]
        for i, row in enumerate(by_row, -1):
            x = row.pop(i, 0) - 1
            if x:
                row[i] = x
            row.pop(0, None)
            if row:
                minus1 = row.get(-1, 0)
                if 2 * minus1 != sum(row.values()) - minus1:
                    raise RuntimeError("half-sum identity f_-1 = (1/2) sum f_i failed")
                rows.append(row)
    return rows


def h1_oracle(G: FiniteGroup) -> H1Report:
    """Z^1/B^1 as the torsion of Z^D/B^1, read off the coboundaries alone.

    In the coordinates (f(s))_{s in S}, D = |S|(n+2), Z^1 is the integer
    kernel of the cocycle relations, so it is saturated in Z^D.  |G|
    annihilates H^1(G, Pic) (Brown, Cohomology of Groups, GTM 87, 1982,
    Cor. III.10.2), so B^1 has finite index in Z^1, and Z^1 = sat(B^1).
    Hence Z^1/B^1 is the torsion of Z^D/B^1, and likewise Z^1/F is the
    torsion of Z^D/F for F = <f_1..f_n>.  f_0 = 0, since phi fixes l_0.

    Both are read off one matrix: the D x (n+1) matrix with columns f_-1,
    f_1..f_n, whose nonzero rows _coboundary_rows gives; its zero rows add
    no torsion.  intlinalg.unit_pivot_torsion eliminates the unit entries
    in the f_1..f_n columns, which are invariant factors 1 of F and B
    alike, and gives the torsion of Z^D/F off those columns and of Z^D/B^1
    off all.

    The half-sum identity f_-1 = (1/2) sum f_i puts 2 f_-1 in F, so
    rank B = rank F and [B:F] <= 2, and |tors Z^D/F| = [B:F] |tors Z^D/B^1|.
    Every factor is 2 (TorsionError otherwise), so the two factor counts
    differ by 0 or 1 (RuntimeError otherwise), and f_-1 lies in F exactly
    when they are equal.  Nothing
    walks G: phi is evaluated once per generator.  tests/helpers.py keeps
    the full cocycle system over the Cayley graph as the slow ground truth.
    The cost does not grow with |G|, so no order bound applies.
    """
    S = _generating_set(G)
    if not S:
        return H1Report((), 0, "oracle", None, 0, True)
    f_factors, factors = unit_pivot_torsion(_coboundary_rows(S, G.n), side=(-1,))
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


def _f2_reduce(basis: dict[int, int], v: int) -> int:
    """The bitmask v reduced by the F_2 echelon ``basis``, which maps each
    row's lowest set bit to the row.  A nonzero remainder joins the basis.
    Returns the remainder: 0 exactly when v lay in the span."""
    while v:
        low = v & -v
        if low not in basis:
            basis[low] = v
            break
        v ^= basis[low]
    return v


def h1_halfsum(G: FiniteGroup) -> H1Report:
    """The orbit/half-sum method of the cocycle-quotient reduction.

    Candidate classes are xi_I = (1/2) sum_{i in I} f_i for I a union of
    index orbits with even column sum; I -> [xi_I] is GF(2)-linear in I, so
    a nullspace basis of the parity condition spans everything.  Orbits of
    zero column sum add nothing to xi_I and are left out; the witness search
    over the 2^k basis combinations refuses k > MAX_HALFSUM_NULLITY.
    Each 2 xi_I lies in F = <f_1..f_n>, so F <= W = F + <xi_I> <= sat(F).

    Membership in F is decided over F_2.  Take c in {0,1}^n with
    sum c_i f_i even.  Then (1/2) sum c_i f_i lies in F exactly when
    c = k (mod 2) for an integer relation k, sum k_i f_i = 0: if the
    half-sum is sum d_i f_i, then c - 2d is a relation; if c - 2d is a
    relation, the half-sum is sum d_i f_i.  So with K the relations mod 2
    (intlinalg.kernel_of_rows over the f_1..f_n columns), dim W/F is the
    rank of the indicator vectors 1_I over K, f_-1 = xi_{1..n} lies in F
    exactly when 1_{1..n} lies in K, and a witness I is independent of the
    earlier ones exactly when 1_I lies outside K + <their indicators>.
    The column sums and their parities are read off _coboundary_rows.
    """
    n = G.n
    S = _generating_set(G)
    if not S:
        return H1Report((), 0, "halfsum", (), 0, True)
    rows = _coboundary_rows(S, n)

    # each index orbit's column sum, row by row: whether it is zero, and its parity bits
    orbits = index_orbits(n, S)
    nonzero = [False] * len(orbits)
    parity = [0] * len(orbits)
    for r, row in enumerate(rows):
        for t, orb in enumerate(orbits):
            x = sum(row.get(i, 0) for i in orb)
            nonzero[t] = nonzero[t] or x != 0
            parity[t] |= (x & 1) << r

    # GF(2) nullspace of I -> sum of the columns in I (mod 2), I a union of
    # nonzero orbits: each orbit enters as its parity bits with its
    # indicator above them, and the echelon rows left with no parity bit
    # hold a basis of the nullspace's indicators 1_I in their high bits.
    # Bit i - 1 of an indicator stands for f_i
    R = len(rows)
    echelon: dict[int, int] = {}
    for orb, bits in compress(zip(orbits, parity), nonzero):
        _f2_reduce(echelon, bits | sum(1 << (R + i - 1) for i in orb))
    null_basis = [v >> R for v in echelon.values() if not v & ((1 << R) - 1)]

    relations: dict[int, int] = {}  # the relations mod 2
    for rel in kernel_of_rows([[row.get(i, 0) for i in range(1, n + 1)] for row in rows], n):
        _f2_reduce(relations, sum((x & 1) << i for i, x in enumerate(rel)))
    spanned = dict(relations)
    for v in null_basis:
        _f2_reduce(spanned, v)
    dim_span = len(spanned) - len(relations)

    in_f = not _f2_reduce(dict(relations), (1 << n) - 1)
    rank = dim_span - (0 if in_f else 1)
    if rank < 0:
        raise RuntimeError("f_-1 lies outside F although the half-sum span adds nothing")

    # minimal-cardinality independent witnesses, ties broken lexicographically
    witnesses: list[tuple[int, ...]] = []
    if dim_span:
        if len(null_basis) > MAX_HALFSUM_NULLITY:
            raise ValueError(
                f"the half-sum search needs 2^{len(null_basis)} > 2^{MAX_HALFSUM_NULLITY} orbit combinations; use --method oracle"
            )
        candidates = []
        for mask in range(1, 1 << len(null_basis)):
            v = 0
            for b, u in enumerate(null_basis):
                if mask >> b & 1:
                    v ^= u  # never 0: the basis is independent
            I = tuple(i for i in range(1, v.bit_length() + 1) if v >> (i - 1) & 1)
            candidates.append((len(I), I, v))
        candidates.sort()
        grown = dict(relations)
        for _, I, v in candidates:
            if _f2_reduce(grown, v):
                witnesses.append(I)
                if len(witnesses) == dim_span:
                    break

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
