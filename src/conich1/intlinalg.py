"""Exact integer linear algebra: Smith/Hermite normal forms, kernels, lattices.

Everything here works over plain Python ints (arbitrary precision); no
floating point is used anywhere.  The Hermite form, the Smith form and
the kernel all eliminate with one extended-gcd step on a pair of rows.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, NamedTuple, Sequence


Vector = tuple[int, ...]


class IntMatrix:
    """Dense integer matrix, row-major, immutable after construction."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        self.rows = rows
        self.cols = cols
        self.entries = tuple(map(int, entries))
        if rows < 0 or cols < 0 or rows * cols != len(self.entries):
            raise ValueError("entry count inconsistent with shape")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = [list(r) for r in rows]
        m = len(rows)
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return cls(m, n, [x for r in rows for x in r])

    @classmethod
    def identity(cls, k: int) -> "IntMatrix":
        return cls(k, k, [1 if i == j else 0 for i in range(k) for j in range(k)])

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def column(self, j: int) -> Vector:
        return self.entries[j :: self.cols]

    def transpose(self) -> "IntMatrix":
        return IntMatrix.from_rows([list(self.column(j)) for j in range(self.cols)])

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        ocols = other.cols
        orows = other.to_rows()
        out = []
        for i in range(self.rows):
            srow = self.row(i)
            acc = [0] * ocols
            for k, a in enumerate(srow):
                if a:
                    brow = orows[k]
                    for j in range(ocols):
                        acc[j] += a * brow[j]
            out.append(acc)
        return IntMatrix.from_rows(out) if out else IntMatrix(0, ocols, [])

    def apply(self, v: Sequence[int]) -> Vector:
        """Matrix-vector product on a column vector."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * x for a, x in zip(self.row(i), v)) for i in range(self.rows))

    def diagonal(self) -> Vector:
        return tuple(self[i, i] for i in range(min(self.rows, self.cols)))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"IntMatrix({self.rows}x{self.cols}: {body})"


def _gcd_step(u: Sequence[int], v: Sequence[int], k: int) -> tuple[Sequence[int], Sequence[int]]:
    """The unimodular pair of rows u, v whose entries at position k are
    gcd(u[k], v[k]) (up to sign) and 0: the extended Euclidean algorithm,
    run on the rows themselves.  The one elimination step behind the
    Hermite form, the Smith form and the kernel.
    """
    while v[k]:
        q = u[k] // v[k]
        u, v = v, [x - q * y for x, y in zip(u, v)]
    return u, v


def smith_normal_form(A: IntMatrix) -> IntMatrix:
    """The Smith form S = U A V of A: diagonal with d_1 | d_2 | ..., for
    unimodular U and V that are not built.  Alternating Hermite forms of the
    columns and of the rows (Kannan and Bachem, SIAM J. Comput. 8, 1979)
    leave at most one nonzero entry in each row and column; one gcd/lcm pass
    over those entries then orders them into the divisor chain.  Total
    function: the zero and empty matrices are their own Smith forms.
    """
    m = _hnf_reduce([A.column(j) for j in range(A.cols)], A.rows)
    while any(len(r) - r.count(0) > 1 for r in m):
        m = _hnf_reduce(zip(*m), len(m))
    d = [sum(r) for r in m]  # the one nonzero entry of each row
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    entries = [0] * (A.rows * A.cols)
    for i, x in enumerate(d):
        entries[i * A.cols + i] = x
    return IntMatrix(A.rows, A.cols, entries)


def invariant_factors(A: IntMatrix) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form (including 1s)."""
    return tuple(d for d in smith_normal_form(A).diagonal() if d != 0)


def _hnf_reduce(rows: Iterable[Sequence[int]], dim: int) -> list[Vector]:
    """Row-style Hermite normal form of the span of ``rows``.

    Each row is inserted into a running echelon basis: while the basis has
    a row with the same leading column, one extended-gcd step keeps their
    gcd there and passes the remainder, zero in that column, on.  Pivots
    are then made positive and entries above each pivot are reduced into
    [0, pivot).  The output depends only on the row span, which makes
    lattice equality a tuple comparison.
    """
    at: dict[int, Sequence[int]] = {}  # the basis row of each pivot column
    for v in rows:
        c = next((j for j, x in enumerate(v) if x), dim)
        while c in at:
            at[c], v = _gcd_step(v, at[c], c)
            c = next((j for j in range(c + 1, dim) if v[j]), dim)
        if c < dim:
            at[c] = v
    pivots = sorted(at)
    basis = [at[c] for c in pivots]
    for i, c in enumerate(pivots):
        if basis[i][c] < 0:
            basis[i] = [-x for x in basis[i]]
        b = basis[i]
        for j in range(i):
            q = basis[j][c] // b[c]
            if q:
                basis[j] = [x - q * y for x, y in zip(basis[j], b)]
    return [tuple(b) for b in basis]


class LatticeBasis(NamedTuple):
    """A sublattice of Z^d, stored as the rows of its canonical HNF."""

    ambient_dim: int
    rows: tuple[Vector, ...]

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence[int]]) -> "LatticeBasis":
        vecs = [tuple(int(x) for x in v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        return cls(ambient_dim, tuple(_hnf_reduce(vecs, ambient_dim)))

    @classmethod
    def full(cls, ambient_dim: int) -> "LatticeBasis":
        return cls.from_vectors(ambient_dim, IntMatrix.identity(ambient_dim).to_rows())

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _pivots(self) -> list[int]:
        return [next(c for c in range(self.ambient_dim) if r[c] != 0) for r in self.rows]

    def coefficients(self, v: Sequence[int]) -> tuple[int, ...] | None:
        """Integer coordinates of v in the stored basis, or None if v is outside."""
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        residue = [int(x) for x in v]
        coeffs = []
        for r, pc in zip(self.rows, self._pivots()):
            if residue[pc] % r[pc]:
                return None
            q = residue[pc] // r[pc]
            coeffs.append(q)
            if q:
                for c in range(self.ambient_dim):
                    residue[c] -= q * r[c]
        if any(residue):
            return None
        return tuple(coeffs)

    def member(self, v: Sequence[int]) -> bool:
        return self.coefficients(v) is not None

    def sum_with(self, vectors: Iterable[Sequence[int]]) -> "LatticeBasis":
        return LatticeBasis.from_vectors(self.ambient_dim, list(self.rows) + [tuple(v) for v in vectors])


def integer_kernel(A: IntMatrix) -> LatticeBasis:
    """Saturated basis of {v in Z^cols : A v = 0}."""
    vecs = kernel_of_rows([A.row(i) for i in range(A.rows)], A.cols)
    return LatticeBasis.from_vectors(A.cols, vecs)


def kernel_of_rows(rows: Iterable[Sequence[int]], dim: int) -> list[Vector]:
    """Saturated integer kernel of a (possibly huge) stack of constraint rows.

    Processes rows incrementally: keeps a basis of the current solution
    lattice and refines it per constraint.  The basis stays unimodularly
    complementable, so the final span is the full (saturated) kernel.
    """
    # each basis vector carries its dot product with the current row at
    # position dim, so the step sweeps the dots like any other entry
    basis = [[1 if i == j else 0 for j in range(dim + 1)] for i in range(dim)]
    for row in rows:
        if not basis:
            break
        support = [c for c, x in enumerate(row) if x]
        for b in basis:
            b[dim] = sum(row[c] * b[c] for c in support)
        live = [i for i, b in enumerate(basis) if b[dim]]
        if not live:
            continue
        # Sweep to a single nonzero dot by unimodular column-style ops.
        anchor = live[0]
        for i in live[1:]:
            basis[anchor], basis[i] = _gcd_step(basis[anchor], basis[i], dim)
        basis.pop(anchor)
    return [tuple(b[:dim]) for b in basis]


def quotient_invariants(Z: LatticeBasis, B: LatticeBasis) -> tuple[tuple[int, ...], int]:
    """Invariant factors (> 1) and free rank of the quotient Z/B.

    Raises ValueError when B is not contained in Z.
    """
    if Z.ambient_dim != B.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    coeff_rows = []
    for brow in B.rows:
        coeffs = Z.coefficients(brow)
        if coeffs is None:
            raise ValueError("B is not a sublattice of Z")
        coeff_rows.append(list(coeffs))
    if not coeff_rows:
        return (), Z.rank
    C = IntMatrix.from_rows(coeff_rows)
    divisors = invariant_factors(C)
    factors = tuple(d for d in divisors if d > 1)
    free_rank = Z.rank - len(divisors)
    return factors, free_rank
