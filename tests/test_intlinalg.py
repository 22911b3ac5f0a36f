"""Exact integer linear algebra kernel tests.

Expected values marked as derived were computed against independent oracles
in this file: brute-force kernel scans and coset counting by BFS; the
Smith form is checked against tests/helpers.py's elimination with transforms.
"""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conich1 import intlinalg
from conich1.cohomology import _generating_set, h1_halfsum, h1_oracle
from conich1.groups import abelian_invariants
from conich1.intlinalg import (
    IntMatrix,
    LatticeBasis,
    integer_kernel,
    kernel_of_rows,
    quotient_invariants,
    smith_normal_form,
    unit_pivot_torsion,
)
from helpers import (
    CHECKED_CLASS_MAX_ORDER,
    catalog_and_table_groups,
    coboundary_columns,
    lattice_equal,
    smith_normal_form_with_transforms,
)


def snf_postconditions(A):
    # the checker asserts U A V = S with U, V unimodular, S diagonal and
    # d_1 | d_2 | ...; production must give the same S without U and V
    S, _, _ = smith_normal_form_with_transforms(A)
    assert smith_normal_form(A) == S
    return S


def test_snf_zero_1x1():
    A = IntMatrix.from_rows([[0]])
    assert smith_normal_form(A).to_rows() == [[0]]
    S, U, V = smith_normal_form_with_transforms(A)
    assert (S.to_rows(), U.to_rows(), V.to_rows()) == ([[0]], [[1]], [[1]])


def test_snf_builds_one_intmatrix(monkeypatch):
    # the transforms are not built: S is the only matrix a call constructs
    A = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    W = IntMatrix(3, 12, [(5 * i + 7 * j) % 11 - 5 for i in range(3) for j in range(12)])
    built = []
    init = IntMatrix.__init__
    monkeypatch.setattr(IntMatrix, "__init__", lambda self, *args: built.append(args[:2]) or init(self, *args))
    assert smith_normal_form(A).diagonal() == (2, 6, 12)
    assert built == [(3, 3)]
    smith_normal_form(W)
    assert built == [(3, 3), (3, 12)]


@pytest.mark.parametrize("n, count", [(4, 98), (5, 195)])
def test_snf_matches_checker_on_oracle_lattices(n, count, full_lattice):
    # the HNF rows of F = <f_1..f_n> and B = F + <f_-1> that the Hermite
    # route (helpers.h1_oracle_by_hermite) reduces, for every class of
    # order at most CHECKED_CLASS_MAX_ORDER; unit_pivot_torsion on those
    # rows reads the same torsion
    reps, _ = full_lattice(n)
    reps = [H for H in reps if H.order <= CHECKED_CLASS_MAX_ORDER]
    assert len(reps) == count
    for H in reps:
        S = _generating_set(H)
        if not S:
            continue
        cob = coboundary_columns(S, n)
        D = len(S) * (n + 2)
        F = LatticeBasis.from_vectors(D, [cob[i] for i in range(1, n + 1)])
        for lattice in (F, LatticeBasis.from_vectors(D, F.rows + (cob[-1],))):
            A = IntMatrix.from_rows(lattice.rows)
            S = smith_normal_form_with_transforms(A)[0]
            assert smith_normal_form(A) == S, H
            assert unit_pivot_torsion(_sparse(lattice.rows))[1] == tuple(d for d in S.diagonal() if d > 1), H


def _sparse(rows):
    """The dense rows as {column: entry} dicts, zeros left out."""
    return [{c: x for c, x in enumerate(r) if x} for r in rows]


def test_torsion_matches_checker_on_random_hermite_bases():
    # unit_pivot_torsion on a lattice's Hermite rows eliminates the unit
    # entries before the Smith form, the checker eliminates the whole
    # matrix: both give the torsion of Z^d/L
    seen = set()
    for L in _random_hermite_bases(random.Random(11), 400):
        assert unit_pivot_torsion(_sparse(L.rows))[1] == _checker_torsion(L.rows or [[0] * L.ambient_dim]), L
        seen |= _shapes(L)
    assert seen == {"zero", "full", "unit pivot with tail", "negative"}


def _random_sparse_matrices(rng, count):
    """Seeded sparse integer matrices, entries drawn from units only, from
    no units or from both, among them zero rows."""
    pools = [(-1, 1), (-4, -2, 2, 3, 6), (-3, -2, -1, 1, 2, 3)]
    cases = []
    for _ in range(count):
        pool = rng.choice(pools)
        m, w = rng.randint(1, 7), rng.randint(2, 6)
        density = rng.choice([0.2, 0.4, 0.7])
        cases.append([[rng.choice(pool) if rng.random() < density else 0 for _ in range(w)] for _ in range(m)])
    return cases


def _sparse_shapes(rows, reduced):
    """Which shapes of a sparse matrix with side column 0 these rows show."""
    entries = [x for r in rows for x in r if x]
    seen = set()
    if not any(abs(x) == 1 for x in entries):
        seen.add("no unit")
    if entries and all(abs(x) == 1 for x in entries):
        seen.add("only units")
    if -1 in entries:
        seen.add("negative unit")
    if any(not any(r) for r in rows):
        seen.add("zero row")
    if any(abs(r[0]) == 1 and all(abs(x) != 1 for x in r[1:]) for r in rows):
        seen.add("unit only in the side column")
    if reduced:
        seen.add("remainder for the Smith form")
    return seen


def _checker_torsion(rows):
    S = smith_normal_form_with_transforms(IntMatrix.from_rows(rows))[0]
    return tuple(d for d in S.diagonal() if d > 1)


def test_unit_pivot_torsion_matches_checker_on_sparse_matrices(monkeypatch):
    # the torsion without and with side column 0 against the checker's
    # Smith forms of the matrix without and with that column
    snf_calls = []
    snf = intlinalg.smith_normal_form
    monkeypatch.setattr(intlinalg, "smith_normal_form", lambda A: snf_calls.append(A) or snf(A))
    seen = set()
    for rows in _random_sparse_matrices(random.Random(29), 400):
        want = (_checker_torsion([r[1:] for r in rows]), _checker_torsion(rows))
        del snf_calls[:]
        assert unit_pivot_torsion(_sparse(rows), side=(0,)) == want, rows
        seen |= _sparse_shapes(rows, bool(snf_calls))
        assert unit_pivot_torsion(_sparse(rows)) == (want[1], want[1]), rows
    assert seen == {
        "no unit",
        "only units",
        "negative unit",
        "zero row",
        "unit only in the side column",
        "remainder for the Smith form",
    }


def test_reduced_lattices_are_frozen(monkeypatch, full_lattice):
    # what the callers receive, the oracle and half-sum H1Reports and the
    # abelian invariants, on the full-mode classes at ranks 4 and 5, the 48
    # smallest family instances and the 46 table rows.  The digest was
    # recorded while the half-sum read dim W/F off a Smith form of W's
    # coordinates in F.  None of them builds a Hermite basis: the Hermite
    # form is reached only inside the Smith form of a torsion remainder
    groups = full_lattice(4)[0] + full_lattice(5)[0] + catalog_and_table_groups()
    assert len(groups) == 98 + 197 + 94
    depth, outside = [0], []
    snf, hnf = intlinalg.smith_normal_form, intlinalg._hnf_reduce

    def smith(A):
        depth[0] += 1
        try:
            return snf(A)
        finally:
            depth[0] -= 1

    def hermite(rows, dim):
        if not depth[0]:
            outside.append(dim)
        return hnf(rows, dim)

    monkeypatch.setattr(intlinalg, "smith_normal_form", smith)
    monkeypatch.setattr(intlinalg, "_hnf_reduce", hermite)
    reports = [reduce(grp) for reduce in (h1_oracle, h1_halfsum) for grp in groups]
    reports += [abelian_invariants(grp) for grp in groups]
    assert outside == []
    assert depth == [0]
    assert hashlib.sha256(repr(reports).encode()).hexdigest() == "9256caef3af3f9239e0162cec0220e0853e62b2a98e31dc2a6b3296b98071e88"


def _random_hermite_bases(rng, count):
    """Seeded random lattices in Hermite form, among them the zero lattice,
    Z^d, unit-pivot rows with nonzero entries after the pivot and rows
    with negative entries."""
    cases = [LatticeBasis.from_vectors(3, []), LatticeBasis.full(4)]
    for _ in range(count):
        d = rng.randint(1, 6)
        vecs = [[rng.randint(-6, 6) for _ in range(d)] for _ in range(rng.randint(1, d + 1))]
        if rng.random() < 0.5:
            # a unit pivot at a random column, with a random tail after it
            c = rng.randrange(d)
            vecs.append([0] * c + [1] + [rng.randint(-6, 6) for _ in range(d - c - 1)])
        cases.append(LatticeBasis.from_vectors(d, vecs))
    return cases


def _shapes(L):
    """Which of the shapes _random_hermite_bases promises L has."""
    seen = set()
    if L.rank == 0:
        seen.add("zero")
    if L.rows == LatticeBasis.full(L.ambient_dim).rows:
        seen.add("full")
    for r in L.rows:
        c = next(j for j, x in enumerate(r) if x)
        if r[c] == 1 and any(r[c + 1 :]):
            seen.add("unit pivot with tail")
        if min(r) < 0:
            seen.add("negative")
    return seen


def test_from_vectors_gives_the_hermite_form_of_the_span():
    # the Hermite rows depend on the span alone: a lattice's own rows give
    # it back, and added vectors give the same rows in any order and after
    # unimodular row operations; one vector leaves the rows unchanged
    # exactly when it is a member
    rng = random.Random(27)
    seen = set()
    for L in _random_hermite_bases(rng, 400):
        d = L.ambient_dim
        seen |= _shapes(L)
        assert LatticeBasis.from_vectors(d, L.rows) == L
        for k in (0, 1, 2, 3):
            vs = [tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(k)]
            want = LatticeBasis.from_vectors(d, L.rows + tuple(vs))
            mixed = [list(v) for v in L.rows + tuple(vs)]
            rng.shuffle(mixed)
            for i in range(1, len(mixed)):
                q = rng.randint(-3, 3)
                mixed[i] = [x + q * y for x, y in zip(mixed[i], mixed[i - 1])]
            assert LatticeBasis.from_vectors(d, mixed) == want, (L, vs)
        coeffs = [[rng.randint(-2, 2) for _ in L.rows] for _ in range(2)]
        members = [tuple(sum(a * r[j] for a, r in zip(cs, L.rows)) for j in range(d)) for cs in coeffs]
        others = [tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(3)]
        for v in members + others:
            assert (LatticeBasis.from_vectors(d, L.rows + (v,)) == L) == L.member(v), (L, v)
        assert all(L.member(v) for v in members)
    assert seen == {"zero", "full", "unit pivot with tail", "negative"}
    with pytest.raises(ValueError):
        LatticeBasis.from_vectors(2, [(1, 0), (1, 2, 3)])


def test_snf_2x2_coprime_diagonal():
    # hand elementary ops: diag(2,3) has invariant factors of Z/2 + Z/3 = Z/6
    S = snf_postconditions(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert S.diagonal() == (1, 6)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_snf_identity(k):
    S = snf_postconditions(IntMatrix.identity(k))
    assert S == IntMatrix.identity(k)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_snf_random_postconditions(m, n, data):
    entries = data.draw(st.lists(st.integers(-9, 9), min_size=m * n, max_size=m * n))
    snf_postconditions(IntMatrix(m, n, entries))


def brute_kernel(A, bound=3):
    """Independent kernel oracle: scan a coefficient box."""
    sols = []
    for v in itertools.product(range(-bound, bound + 1), repeat=A.cols):
        if any(v) and all(x == 0 for x in A.apply(v)):
            sols.append(v)
    return sols


def test_kernel_forced_up_to_sign():
    K = integer_kernel(IntMatrix.from_rows([[1, 1]]))
    assert K.rows == ((1, -1),)


def test_kernel_of_identity_empty():
    assert integer_kernel(IntMatrix.identity(3)).rows == ()


def test_kernel_2_4():
    # over Z: 2x + 4y = 0 has primitive solution (2, -1)
    A = IntMatrix.from_rows([[2, 4]])
    K = integer_kernel(A)
    assert K.rows == ((2, -1),)
    for v in brute_kernel(A):
        assert K.member(v)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(2, 4), st.data())
def test_kernel_complete_and_saturated(m, n, data):
    entries = data.draw(st.lists(st.integers(-4, 4), min_size=m * n, max_size=m * n))
    A = IntMatrix(m, n, entries)
    K = integer_kernel(A)
    for v in K.rows:
        assert all(x == 0 for x in A.apply(v))
    # completeness doubles as saturation: every box solution is a member,
    # including those divisible by primes
    for v in brute_kernel(A):
        assert K.member(v)


def test_lattice_member_examples():
    L = LatticeBasis.from_vectors(2, [(2, 0), (0, 2)])
    assert L.coefficients((1, 1)) is None
    full = LatticeBasis.from_vectors(2, [(1, 0), (0, 1)])
    assert full.coefficients((7, -3)) == (7, -3)
    L2 = LatticeBasis.from_vectors(2, [(2, 1)])
    assert L2.coefficients((4, 2)) == (2,)
    with pytest.raises(ValueError):
        L2.coefficients((1, 2, 3))


def test_lattice_equal_examples():
    a = LatticeBasis.from_vectors(2, [(1, 0)])
    b = LatticeBasis.from_vectors(2, [(-1, 0)])
    assert lattice_equal(a, b)
    assert not lattice_equal(
        LatticeBasis.from_vectors(2, [(2, 0)]), LatticeBasis.from_vectors(2, [(1, 0)])
    )
    c = LatticeBasis.from_vectors(2, [(1, 1), (0, 2)])
    d = LatticeBasis.from_vectors(2, [(1, -1), (0, 2)])
    assert c.rows == ((1, 1), (0, 2))
    assert lattice_equal(c, d)
    with pytest.raises(ValueError):
        lattice_equal(a, LatticeBasis.from_vectors(3, [(1, 0, 0)]))


def unimodular_2x2(rng):
    a = rng.randint(-3, 3)
    return [[1, a], [0, 1]] if rng.random() < 0.5 else [[1, 0], [a, 1]]


def test_lattice_equal_is_equivalence():
    rng = random.Random(7)
    for _ in range(50):
        dim = rng.randint(2, 4)
        vecs = [[rng.randint(-5, 5) for _ in range(dim)] for _ in range(rng.randint(1, 4))]
        L = LatticeBasis.from_vectors(dim, vecs)
        assert lattice_equal(L, L)  # reflexive
        # symmetric/transitive through re-generated spans of the same lattice
        rows = [list(r) for r in L.rows]
        shuffled = rows[::-1] + [
            [a + b for a, b in zip(rows[0], rows[-1])]
        ]
        M = LatticeBasis.from_vectors(dim, shuffled)
        assert lattice_equal(L, M) and lattice_equal(M, L)
        N = LatticeBasis.from_vectors(dim, shuffled[::-1])
        assert lattice_equal(M, N) and lattice_equal(L, N)


def coset_count(Z, B, limit=100000):
    """Independent quotient-size oracle: BFS over coset representatives."""
    reps = [tuple([0] * Z.ambient_dim)]
    frontier = [reps[0]]
    while frontier:
        nxt = []
        for r in frontier:
            for g in list(Z.rows) + [tuple(-x for x in row) for row in Z.rows]:
                cand = tuple(a + b for a, b in zip(r, g))
                if not any(B.member(tuple(a - b for a, b in zip(cand, rep))) for rep in reps):
                    reps.append(cand)
                    nxt.append(cand)
                    if len(reps) > limit:
                        raise AssertionError("quotient not finite within limit")
        frontier = nxt
    return len(reps)


def test_quotient_invariants_examples():
    Z = LatticeBasis.from_vectors(2, [(1, 0), (0, 1)])
    assert quotient_invariants(Z, Z) == ((), 0)
    B = LatticeBasis.from_vectors(2, [(2, 0), (0, 2)])
    assert quotient_invariants(Z, B) == ((2, 2), 0)
    B2 = LatticeBasis.from_vectors(2, [(1, 1), (1, -1)])
    factors, free = quotient_invariants(Z, B2)
    assert factors == (2,) and free == 0
    assert coset_count(Z, B2) == 2


def test_quotient_invariants_rejects_non_sublattice():
    Z = LatticeBasis.from_vectors(2, [(2, 0), (0, 2)])
    B = LatticeBasis.from_vectors(2, [(1, 0)])
    with pytest.raises(ValueError):
        quotient_invariants(Z, B)


def test_quotient_matches_brute_coset_count():
    rng = random.Random(3)
    trials = 0
    while trials < 25:
        dim = rng.randint(1, 3)
        Z = LatticeBasis.full(dim)
        vecs = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
        B = LatticeBasis.from_vectors(dim, vecs)
        if B.rank < dim:
            continue
        factors, free = quotient_invariants(Z, B)
        assert free == 0
        index = 1
        for d in factors:
            index *= d
        if index > 64:
            continue
        trials += 1
        assert coset_count(Z, B) == index


def test_kernel_of_rows_matches_integer_kernel():
    rng = random.Random(11)
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        A = IntMatrix.from_rows(rows)
        K1 = integer_kernel(A)
        K2 = LatticeBasis.from_vectors(n, kernel_of_rows(rows, n))
        assert lattice_equal(K1, K2)
