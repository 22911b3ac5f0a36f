"""Exact integer linear algebra: Smith/Hermite normal forms, kernels, lattices.

Everything here works over plain Python ints (arbitrary precision); no
floating point is used anywhere.  Matrices are small and dense, so the
classical pivoting algorithms are fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


Vector = tuple[int, ...]


class IntMatrix:
    """Dense integer matrix, row-major, immutable after construction."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        self.rows = rows
        self.cols = cols
        self.entries = tuple(int(x) for x in entries)
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
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

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


def _pivot_min_abs(m: list[list[int]], k: int, rows: int, cols: int) -> tuple[int, int] | None:
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


def smith_normal_form(A: IntMatrix) -> IntMatrix:
    """The Smith form S = U A V of A: diagonal with d_1 | d_2 | ..., for
    unimodular U and V that are not built (tests/helpers.py runs the same
    elimination with them as the checker).  Total function: the zero and
    empty matrices are their own Smith forms.
    """
    rows, cols = A.rows, A.cols
    m = A.to_rows()

    def row_op(i: int, j: int, q: int) -> None:
        # row_i -= q * row_j
        mi, mj = m[i], m[j]
        for c in range(cols):
            mi[c] -= q * mj[c]

    k = 0
    limit = min(rows, cols)
    while k < limit:
        loc = _pivot_min_abs(m, k, rows, cols)
        if loc is None:
            break
        i, j = loc
        if i != k:
            m[k], m[i] = m[i], m[k]
        if j != k:
            for r in m:
                r[k], r[j] = r[j], r[k]
        if m[k][k] < 0:
            m[k] = [-x for x in m[k]]

        dirty = False
        for i in range(k + 1, rows):
            if m[i][k]:
                q = m[i][k] // m[k][k]
                if q:
                    row_op(i, k, q)
                if m[i][k]:
                    dirty = True
        for j in range(k + 1, cols):
            if m[k][j]:
                q = m[k][j] // m[k][k]
                if q:
                    # col_j -= q * col_k
                    for r in m:
                        r[j] -= q * r[k]
                if m[k][j]:
                    dirty = True
        if dirty:
            continue

        # Pivot divides everything in its row/column; enforce divisibility
        # of the remaining block so the diagonal chain d_k | d_{k+1} holds.
        p = m[k][k]
        fix = None
        for i in range(k + 1, rows):
            mi = m[i]
            for j in range(k + 1, cols):
                if mi[j] % p:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            row_op(k, fix, -1)  # add offending row onto the pivot row
            continue
        k += 1

    return IntMatrix.from_rows(m) if rows else IntMatrix(0, cols, [])


def invariant_factors(A: IntMatrix) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form (including 1s)."""
    return tuple(d for d in smith_normal_form(A).diagonal() if d != 0)


def _hnf_reduce(rows: list[list[int]], dim: int) -> list[Vector]:
    """Row-style Hermite normal form of the span of ``rows``.

    Pivots are positive and strictly right-down; entries above each pivot
    are reduced into [0, pivot).  The output depends only on the row span,
    which makes lattice equality a tuple comparison.
    """
    work = [list(r) for r in rows if any(r)]
    result: list[list[int]] = []
    for col in range(dim):
        live = [r for r in work if r[col] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            base = live[0]
            rest = []
            for r in live[1:]:
                q = r[col] // base[col]
                if q:
                    for c in range(col, dim):
                        r[c] -= q * base[c]
                if r[col]:
                    rest.append(r)
            live = [base] + rest
        pivot_row = live[0]
        if pivot_row[col] < 0:
            for c in range(dim):
                pivot_row[c] = -pivot_row[c]
        work = [r for r in work if r is not pivot_row and any(r)]
        result.append(pivot_row)
    # reduce entries above each pivot
    pivots = []
    for r in result:
        pc = next(c for c in range(dim) if r[c] != 0)
        pivots.append(pc)
    for idx in range(len(result)):
        for jdx in range(idx):
            pc = pivots[idx]
            q = result[jdx][pc] // result[idx][pc]
            if q:
                for c in range(dim):
                    result[jdx][c] -= q * result[idx][c]
    return [tuple(r) for r in result]


@dataclass(frozen=True)
class LatticeBasis:
    """A sublattice of Z^d, stored as the rows of its canonical HNF."""

    ambient_dim: int
    rows: tuple[Vector, ...]

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence[int]]) -> "LatticeBasis":
        vecs = [tuple(int(x) for x in v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        return cls(ambient_dim, tuple(_hnf_reduce([list(v) for v in vecs], ambient_dim)))

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
    basis: list[list[int]] = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for row in rows:
        if not basis:
            break
        if not any(row):
            continue
        support = [c for c, x in enumerate(row) if x]
        dots = []
        for b in basis:
            dots.append(sum(row[c] * b[c] for c in support))
        if not any(dots):
            continue
        # Sweep to a single nonzero dot by unimodular column-style ops.
        live = [i for i, d in enumerate(dots) if d]
        anchor = live[0]
        for i in live[1:]:
            a, b = dots[anchor], dots[i]
            # extended gcd combination of basis[anchor], basis[i]
            x0, y0, x1, y1 = 1, 0, 0, 1
            while b:
                q = a // b
                a, b = b, a - q * b
                x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
            va, vb = basis[anchor], basis[i]
            new_a = [x0 * p + y0 * q_ for p, q_ in zip(va, vb)]
            new_b = [x1 * p + y1 * q_ for p, q_ in zip(va, vb)]
            basis[anchor], basis[i] = new_a, new_b
            dots[anchor], dots[i] = a, 0
        basis.pop(anchor)
    return [tuple(b) for b in basis]


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
