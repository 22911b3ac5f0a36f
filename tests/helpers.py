"""Test-only helpers: independent constructions the library itself does not need."""

from functools import reduce
from itertools import combinations, permutations
from math import lcm
from operator import mul

import pytest

from conich1 import cohomology
from conich1.classes import build_group, smallest_param_tuples
from conich1.cohomology import MAX_HALFSUM_NULLITY, H1Report, TorsionError, _generating_set, _two_torsion, h1_condition_cyclic
from conich1.enumeration import TABLE_ROWS
from conich1.groups import FiniteGroup, closure, enc_closure, enc_conjugation, enc_cycle_type, index_orbits, wdn_generators
from conich1.intlinalg import IntMatrix, LatticeBasis, invariant_factors, kernel_of_rows, quotient_invariants
from conich1.picard import PicLattice, phi_of_enc
from conich1.signedperm import _CYCLE_INT, _TOKEN, SignedPerm, enc_inv, enc_mul, identity_enc, wdn_order


# The tuple encoding: entry j is the image of the symbol (j+1)^+, where
# symbol k^+ is 2(k-1) and k^- is 2(k-1)+1, so it is the even entries of a
# symbol table (SignedPerm.enc), and tuples sort as their tables do.  The
# library once ran on it; its kernels stay here as the slow reference the
# bytes-table kernels are checked against, and pinned digests hash it.


def as_tuple(table):
    """The tuple encoding of a symbol table; signedperm.paired_enc(bytes(t))
    turns a tuple encoding t back into the table."""
    return tuple(table[::2])


def tuple_mul(a, b):
    """Product of tuple encodings, b applied first."""
    return tuple([a[s >> 1] ^ (s & 1) for s in b])


def tuple_inv(a):
    out = [0] * len(a)
    for j, s in enumerate(a):
        out[s >> 1] = 2 * j ^ (s & 1)
    return tuple(out)


def tuple_conjugation(t):
    """q -> t q t^-1 on tuple encodings, from a symbol table of t and the
    pairs of t^-1: entry j is t applied to the symbol q(t^-1(j^+))."""
    T = [t[x >> 1] ^ (x & 1) for x in range(2 * len(t))]
    ti = [(s >> 1, s & 1) for s in tuple_inv(t)]
    return lambda q: tuple([T[q[k]] ^ f for k, f in ti])


def tuple_cycle_type(a):
    """Sorted (length, flip parity) over the signed cycles of a tuple encoding."""
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


def tuple_dn_class(a):
    """The signed cycle type, plus (0, the parity of the minus count of a
    fixed sign vector) when every signed cycle has even length and an even
    number of flips, so that W(D_n) splits the class."""
    ctype = tuple_cycle_type(a)
    if not all(w % 2 == 0 and not odd for w, odd in ctype):
        return ctype
    seen = [False] * len(a)
    minus = 0
    for start in range(len(a)):
        sign = 0
        j = start
        while not seen[j]:
            seen[j] = True
            minus += sign
            s = a[j]
            sign ^= s & 1
            j = s >> 1
    return ctype + ((0, minus & 1),)


def tuple_order(a):
    order = 1
    for w, odd in tuple_cycle_type(a):
        order = lcm(order, 2 * w if odd else w)
    return order


# the classes of W(D_4) and W(D_5) the H^1 cross-checks run on: all 98 of
# W(D_4), and the 195 of W(D_5) of order at most 512, which leaves out the
# two largest (960 and 1920) and keeps the Cayley-graph checker quick
CHECKED_CLASS_MAX_ORDER = 512


def minimal_lattice(n):
    """The checker's input for conditions.relative_minimality: the lattice
    Z l_0 + Z K_X inside Pic, which Pic^G must equal."""
    lat = PicLattice(n)
    return LatticeBasis.from_vectors(lat.dim, [lat.l0, lat.K])


def lattice_equal(L1, L2):
    """Whether two lattices are equal, by their stored canonical HNF rows."""
    if L1.ambient_dim != L2.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return L1.rows == L2.rows


def bounded_closure(gens, n, cap):
    """The FiniteGroup generated by the SignedPerms ``gens``, or None when
    it has more than ``cap`` elements."""
    encs = enc_closure([g.enc for g in gens], n, cap=cap)
    return None if encs is None else FiniteGroup.from_enc_set(n, encs, [g.enc for g in gens])


def parse_element_by_factors(text, n):
    """The checker for signedperm.parse_element, on the same grammar: each
    factor built as a SignedPerm, c<j> as the flip SignedPerm(n, 1..n, (j,))
    and (i,j,...) by SignedPerm.from_cycles, and the factors multiplied
    right-first through SignedPerm.__mul__.  Raises the same ValueError
    messages."""
    pos = 0
    factors = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"syntax error at position {pos}: {text[pos:]!r}")
        tok = m.group(1)
        if tok.startswith("c"):
            j = int(m.group(2))
            if not 1 <= j <= n:
                raise ValueError(f"index {j} out of range 1..{n}")
            factors.append(SignedPerm(n, range(1, n + 1), (j,)))
        else:
            idx = [int(s) for s in _CYCLE_INT.findall(tok)]
            for j in idx:
                if not 1 <= j <= n:
                    raise ValueError(f"index {j} out of range 1..{n}")
            if len(set(idx)) != len(idx):
                raise ValueError(f"repeated index inside cycle {tok}")
            factors.append(SignedPerm.from_cycles(n, [idx]))
        pos = m.end()
    return reduce(mul, factors, SignedPerm.identity(n))


def iter_wdn(n):
    """All elements of W(D_n), lazily (2^(n-1) n! of them): every permutation
    with every even set of sign flips, independent of wdn_generators."""
    indices = list(range(1, n + 1))
    evens = [c for k in range(0, n + 1, 2) for c in combinations(indices, k)]
    for img in permutations(indices):
        for minus in evens:
            yield SignedPerm(n, img, minus)


def clean_elements_by_closure(n):
    """The checker for enumeration.clean_elements: W(D_n) closed from its
    generators, each element kept when its cyclic group satisfies (H1),
    decided once per signed cycle type."""
    verdicts = {}
    out = set()
    for e in enc_closure(wdn_generators(n), n, cap=wdn_order(n)):
        t = enc_cycle_type(e)
        if t not in verdicts:
            verdicts[t] = h1_condition_cyclic(SignedPerm.from_enc(n, e))[0]
        if verdicts[t]:
            out.add(e)
    return frozenset(out)


def conjugacy_orbit_by_bfs(n, encs):
    """The checker for the points of groups.conjugacy_orbit: the same
    breadth-first search under conjugation by wdn_generators(n), on element
    sets instead of labels, walked to the end.  The conjugates of
    set(encs), in discovery order."""
    conjugations = [enc_conjugation(w) for w in wdn_generators(n)]
    orbit = [frozenset(encs)]
    seen = set(orbit)
    for P in orbit:  # orbit grows while it is read
        for conj in conjugations:
            Q = frozenset(map(conj, P))
            if Q not in seen:
                seen.add(Q)
                orbit.append(Q)
    return orbit


def elements(G):
    """The elements of G as SignedPerms, sorted by sign vector (flipped
    indices first) and then by the image of 1..n, so that seeded draws by
    position stay fixed."""
    def key(e):
        signs = [1] * G.n
        for s in e[::2]:
            if s & 1:
                signs[s >> 1] = -1
        return (signs, [s >> 1 for s in e[::2]])

    return [SignedPerm.from_enc(G.n, e) for e in sorted(G.enc_set, key=key)]


def conjugate_group(G, t):
    """t G t^-1 for a SignedPerm t, with the conjugated generators."""
    conj = enc_conjugation(t.enc)
    return FiniteGroup.from_enc_set(G.n, map(conj, G.enc_set), [conj(e) for e in G.spanning_encs])


def act_symbol(g, symbol):
    """The image of the symbol j^+ = (j, 1) or j^- = (j, -1) under the
    SignedPerm g, read off its symbol table."""
    j, sign = symbol
    s = g.enc[2 * j - 2 + (sign < 0)]
    return ((s >> 1) + 1, -1 if s & 1 else 1)


def random_subgroup(G, rng, max_gens=2):
    """The subgroup generated by one to ``max_gens`` elements of G drawn by ``rng``."""
    k = rng.randint(1, max_gens)
    perms = elements(G)
    gens = [perms[rng.randrange(G.order)] for _ in range(k)]
    return closure(gens, n=G.n)


def h1_condition_direct(G, memo=None):
    """The checker for cohomology.h1_condition's Sylow 2-reduction: the same
    decision run on the subgroups of G itself instead of a Sylow
    2-subgroup's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cohomology, "sylow2", lambda grp: grp)
        return cohomology.h1_condition(G, memo=memo)


def _finite_quotient(lattice, sub):
    """Invariant factors of lattice/sub, which must be finite and 2-torsion,
    by quotient_invariants: coordinates of sub's rows in lattice's basis and
    one Smith form, independent of the torsion counts the library reads."""
    factors, free = quotient_invariants(lattice, sub)
    if free:
        raise RuntimeError(f"the quotient has free rank {free}; H^1 of a finite group must be finite")
    if any(d != 2 for d in factors):
        raise TorsionError(f"H^1 invariant factors {factors} are not all 2")
    return factors


def coboundary_columns(gens, n):
    """The stacked columns f_i = ((phi(s_1) - I)e_i, ..., (phi(s_m) - I)e_i),
    i in {-1, 1..n}, over the W(D_n) encodings ``gens``, as dense tuples of
    length m(n+2), with the half-sum identity f_-1 = (1/2) sum f_i checked:
    the checkers' input, against cohomology._coboundary_rows' sparse rows."""
    dim = n + 2
    cols = {i: [] for i in [-1] + list(range(1, n + 1))}
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


def h1_by_cocycle_system(G, generators=None):
    """Z^1/B^1 from the full multiplication table: the slow ground truth
    for cohomology.h1_oracle, which works from the coboundaries alone.

    Unknowns are f(s) for s in the generating set S; every pair (x, s) with
    x in G contributes the cocycle constraint f(xs) = f(x) + phi(x) f(s),
    consumed either as the definition of f(xs) (spanning-tree edge of the
    Cayley graph) or as a relation row.  With S = the full element list
    (generators=elements(G)) this is literally the |G|^2 constraint
    system.  Returns an H1Report with method "cocycle_system".
    """
    n = G.n
    dim = n + 2
    S = _generating_set(G) if generators is None else [g.enc for g in generators]
    m = len(S)
    D = m * dim
    if m == 0:
        return H1Report((), 0, "cocycle_system", None, 0, True)

    phi_rows_of = {e: phi_of_enc(e).to_rows() for e in G.enc_set}

    ident = identity_enc(n)
    E = {ident: [[0] * D for _ in range(dim)]}
    queue = [ident]
    relation_rows = set()
    qi = 0
    while qi < len(queue):
        x = queue[qi]
        qi += 1
        Ex = E[x]
        Px = phi_rows_of[x]
        for idx, s in enumerate(S):
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

    # f_0 = 0 because phi fixes l_0, so B^1 is spanned by f_-1 and f_1..f_n
    cob = coboundary_columns(S, n)
    f = [cob[i] for i in range(1, n + 1)]
    B = LatticeBasis.from_vectors(D, [cob[-1]] + f)
    F = LatticeBasis.from_vectors(D, f)

    for i in (-1, 1):
        if not Z.member(cob[i]):
            raise RuntimeError("coboundary is not a cocycle; the cocycle system is inconsistent")

    factors = _finite_quotient(Z, B)
    f_factors = _finite_quotient(Z, F)
    f_minus1_in_f = F.member(cob[-1])
    if len(f_factors) != len(factors) + (0 if f_minus1_in_f else 1):
        raise RuntimeError("Z^1/F and Z^1/B^1 disagree on whether f_-1 lies in F")

    return H1Report(
        invariant_factors=factors,
        f2_rank=len(factors),
        method="cocycle_system",
        witnesses=None,
        z1_mod_f_rank=len(f_factors),
        f_minus1_in_span=f_minus1_in_f,
    )


def _hermite_torsion(L):
    """Invariant factors > 1 of Z^d/L: the Smith form of all of L's Hermite
    rows, with no unit entry dropped first."""
    if not L.rows:
        return ()
    return tuple(d for d in invariant_factors(IntMatrix.from_rows(L.rows)) if d > 1)


def h1_oracle_by_hermite(G):
    """The checker for cohomology.h1_oracle: the route it replaced.  The
    coboundary columns are reduced to the Hermite bases of F = <f_1..f_n>
    and B = F + <f_-1>, the torsion of Z^D/F and Z^D/B^1 is read off their
    Smith forms, and f_-1 lies in F exactly when B == F, as Hermite forms
    are canonical.  Returns the oracle's H1Report."""
    n = G.n
    S = _generating_set(G)
    if not S:
        return H1Report((), 0, "oracle", None, 0, True)
    D = len(S) * (n + 2)
    cob = coboundary_columns(S, n)
    F = LatticeBasis.from_vectors(D, [cob[i] for i in range(1, n + 1)])
    B = LatticeBasis.from_vectors(D, F.rows + (cob[-1],))
    factors = _two_torsion(_hermite_torsion(B))
    f_factors = _two_torsion(_hermite_torsion(F))
    f_minus1_in_f = B == F
    if len(f_factors) != len(factors) + (0 if f_minus1_in_f else 1):
        raise RuntimeError("Z^1/F and Z^1/B^1 disagree on whether f_-1 lies in F")
    return H1Report(factors, len(factors), "oracle", None, len(f_factors), f_minus1_in_f)


def h1_halfsum_by_hermite(G):
    """The checker for cohomology.h1_halfsum: the Hermite route it replaced,
    with the same refusal above MAX_HALFSUM_NULLITY.  Returns the same
    H1Report.

    The orbit/half-sum method of the cocycle-quotient reduction.

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
    W = LatticeBasis.from_vectors(D, F.rows + tuple(xis))
    if W.rank != F.rank:
        raise RuntimeError("the half-sum span outgrew the saturation of F")
    dim_span = len(_two_torsion(_hermite_torsion(F))) - len(_two_torsion(_hermite_torsion(W)))

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
                grown = LatticeBasis.from_vectors(D, grown.rows + (xi,))

    return H1Report(
        invariant_factors=(2,) * rank,
        f2_rank=rank,
        method="halfsum",
        witnesses=tuple(witnesses),
        z1_mod_f_rank=dim_span,
        f_minus1_in_span=in_f,
    )


def determinant(A):
    """Exact determinant of a square IntMatrix by fraction-free (Bareiss) elimination."""
    if A.rows != A.cols:
        raise ValueError("determinant of non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    m = A.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_diagonal(A):
    return all(A[i, j] == 0 for i in range(A.rows) for j in range(A.cols) if i != j)


def _pivot_min_abs(m, k, rows, cols):
    """Smallest-magnitude nonzero entry in the trailing submatrix.

    Scans column by column, so ties break leftmost-topmost; this fixes the
    order of the elimination deterministically.
    """
    best = None
    best_abs = None
    for j in range(k, cols):
        for i in range(k, rows):
            v = m[i][j]
            if v:
                a = -v if v < 0 else v
                if best_abs is None or a < best_abs:
                    best, best_abs = (i, j), a
                    if a == 1:
                        return best
    return best


def smith_normal_form_with_transforms(A):
    """The checker for intlinalg.smith_normal_form: an independent
    elimination that pivots on the smallest entry and fixes divisibility as
    it goes, applied to identity matrices alongside A.  Returns (S, U, V)
    after asserting U A V = S, |det U| = |det V| = 1, S diagonal and
    d_1 | d_2 | ... on its nonzero diagonal."""
    rows, cols = A.rows, A.cols
    m = A.to_rows()
    u = IntMatrix.identity(rows).to_rows()
    v = IntMatrix.identity(cols).to_rows()

    def row_op(i, j, q):
        # row_i -= q * row_j, on m and u
        for mat, width in ((m, cols), (u, rows)):
            for c in range(width):
                mat[i][c] -= q * mat[j][c]

    def col_op(i, j, q):
        # col_i -= q * col_j, on m and v
        for mat in (m, v):
            for r in mat:
                r[i] -= q * r[j]

    k = 0
    while k < min(rows, cols):
        loc = _pivot_min_abs(m, k, rows, cols)
        if loc is None:
            break
        i, j = loc
        m[k], m[i] = m[i], m[k]
        u[k], u[i] = u[i], u[k]
        for mat in (m, v):
            for r in mat:
                r[k], r[j] = r[j], r[k]
        if m[k][k] < 0:
            m[k] = [-x for x in m[k]]
            u[k] = [-x for x in u[k]]
        dirty = False
        for i in range(k + 1, rows):
            if m[i][k]:
                row_op(i, k, m[i][k] // m[k][k])
                dirty = dirty or m[i][k] != 0
        for j in range(k + 1, cols):
            if m[k][j]:
                col_op(j, k, m[k][j] // m[k][k])
                dirty = dirty or m[k][j] != 0
        if dirty:
            continue
        fix = next((i for i in range(k + 1, rows) if any(x % m[k][k] for x in m[i][k + 1 :])), None)
        if fix is not None:
            row_op(k, fix, -1)
            continue
        k += 1

    S = IntMatrix(rows, cols, [x for r in m for x in r])
    U = IntMatrix(rows, rows, [x for r in u for x in r])
    V = IntMatrix(cols, cols, [x for r in v for x in r])
    assert U @ A @ V == S
    assert abs(determinant(U)) == 1 and abs(determinant(V)) == 1
    assert is_diagonal(S)
    diag = [d for d in S.diagonal() if d]
    assert all(d > 0 for d in diag)
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
    return S, U, V


def catalog_and_table_groups():
    """The 48 smallest family instances (two per class) and the 46 rows of
    the reference tables for W(D_4)..W(D_9)."""
    families = [build_group(spec) for cid in range(1, 25) for spec in smallest_param_tuples(cid, count=2)]
    tables = [row.build(n) for n in range(4, 10) for row in TABLE_ROWS[n]]
    assert len(families) == 48 and len(tables) == 46
    return families + tables


def abelian_invariants_by_counting(G):
    """The checker for groups.abelian_invariants: the invariant factors of
    G/[G,G] from counting, for each prime p, the cosets a with a^(p^k) = 1.
    [G,G] is the closure of the commutators [a, s] for every element a of G
    and stored generator s, which generate it with no normal-closure
    argument."""
    comms = {
        enc_mul(enc_mul(a, b), enc_mul(enc_inv(a), enc_inv(b))) for a in G.enc_set for b in G.spanning_encs
    }
    derived = enc_closure(sorted(comms), G.n, cap=G.order)
    assert derived is not None, f"derived subgroup outgrew its group of order {G.order}"
    rep = {}
    for e in sorted(G.enc_set):
        if e not in rep:
            coset = sorted(enc_mul(e, d) for d in derived)
            rep.update(dict.fromkeys(coset, coset[0]))
    cosets = sorted(set(rep.values()))
    order = len(cosets)
    ident = identity_enc(G.n)

    def cpow(a, k):
        out, base = ident, a
        while k:
            if k & 1:
                out = rep[enc_mul(out, base)]
            base = rep[enc_mul(base, base)]
            k >>= 1
        return out

    def exact_plog(x, p):
        e = 0
        while x > 1:
            assert x % p == 0, f"{x} is not a power of {p}"
            x //= p
            e += 1
        return e

    primes = [p for p in range(2, order + 1) if order % p == 0 and all(p % q for q in range(2, p))]
    ppowers = {}
    for p in primes:
        # m_k = log_p #{a : a^(p^k) = 1} = sum_i min(k, e_i) over the p-exponents e_i
        ms = [0]
        while True:
            mk = exact_plog(sum(1 for c in cosets if cpow(c, p ** len(ms)) == ident), p)
            if mk == ms[-1]:
                break
            ms.append(mk)
        ge = [ms[i] - ms[i - 1] for i in range(1, len(ms))]  # #factors with exponent >= i
        exps = []
        for i, cnt in enumerate(ge, start=1):
            exps.extend([i] * (cnt - (ge[i] if i < len(ge) else 0)))
        ppowers[p] = sorted((p**e for e in exps), reverse=True)
    factors = []
    for i in range(max((len(v) for v in ppowers.values()), default=0)):
        f = 1
        for vals in ppowers.values():
            if i < len(vals):
                f *= vals[i]
        factors.append(f)
    return tuple(sorted(factors))


def addition_cycles_by_walk(L):
    """The checker for FieldLabeling.addition_cycles: the successor map
    x -> x + 1 on labels, the polynomials added coefficientwise mod p,
    walked into cycles from each least unvisited label."""
    succ = {}
    for label in range(1, L.q + 1):
        succ[label] = L.lab(tuple((x + y) % L.p for x, y in zip(L.elem(label), L.one)))
    seen = set()
    cycles = []
    for start in sorted(succ):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        j = succ[start]
        while j != start:
            cyc.append(j)
            seen.add(j)
            j = succ[j]
        cycles.append(cyc)
    return cycles


def least_generator_by_prime_divisors(L):
    """The checker for field_labeling's gamma: the least label g with
    g^((q-1)/d) != 1 for every prime d dividing q - 1, the powers taken by
    square-and-multiply."""
    q = L.q
    prime_divs = [d for d in range(2, q) if (q - 1) % d == 0 and all(d % e for e in range(2, d))]

    def fpow(a, k):
        out, base = L.one, a
        while k:
            if k & 1:
                out = L.mul(out, base)
            base = L.mul(base, base)
            k >>= 1
        return out

    for label in range(1, q):
        g = L.elem(label)
        if all(fpow(g, (q - 1) // d) != L.one for d in prime_divs):
            return g
    raise AssertionError(f"F_{q}^* has no generator")
