"""Picard lattice of a conic bundle and the integral representation of W(D_n).

Coordinates are ordered (l_{-1}, l_0, l_1, ..., l_n); the lattice index i
lives at position i+1.  The block construction follows the sign data of
the n x n signed permutation matrix: matrices act on column vectors and
phi(a*b) = phi(a) phi(b) with b applied first.

The geometric picture requires n >= 4, but the formulas are well defined
for any n >= 1 and orbit projections can land in small rank, so phi
accepts n >= 1.
"""

from __future__ import annotations

from .intlinalg import IntMatrix, LatticeBasis, integer_kernel
from .signedperm import SignedPerm, sigma


class PicLattice:
    """Rank n+2 lattice with the conic-bundle intersection form."""

    __slots__ = ("n", "dim", "gram", "K", "l0")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one degenerate fiber pair")
        self.n = n
        self.dim = n + 2
        rows = [[0] * self.dim for _ in range(self.dim)]
        rows[0][1] = rows[1][0] = 1
        for i in range(2, self.dim):
            rows[i][i] = -1
        self.gram = IntMatrix.from_rows(rows)
        self.K = (-2, -2) + (1,) * n
        self.l0 = (0, 1) + (0,) * n

    @property
    def degree(self) -> int:
        return 8 - self.n

    def basis_vector(self, i: int) -> tuple[int, ...]:
        """e_i for i in {-1, 0, 1..n}."""
        if not -1 <= i <= self.n:
            raise ValueError(f"basis index {i} out of range")
        v = [0] * self.dim
        v[i + 1] = 1
        return tuple(v)

    def pairing(self, v, w) -> int:
        gv = self.gram.apply(v)
        return sum(a * b for a, b in zip(gv, w))


def psi(a: SignedPerm) -> IntMatrix:
    """Signed permutation matrix: column j is s(tau(j)) e_{tau(j)}."""
    rows = [[0] * a.n for _ in range(a.n)]
    for j, s in enumerate(a.enc):
        rows[s >> 1][j] = -1 if s & 1 else 1
    return IntMatrix.from_rows(rows)


def phi(a: SignedPerm) -> IntMatrix:
    """The (n+2)x(n+2) action on Pic, defined for elements of W(D_n) only.

    Blocks: [[A, B], [C, Psi]] with b'(j) = 1 iff column j of Psi holds -1,
    c'(i) = -1 iff row i of Psi holds -1, and A lower-left = sum(b')/2.
    """
    if sigma(a) != 1:
        raise ValueError("element is not in W(D_n) (odd number of sign flips)")
    return phi_of_enc(a.enc)


def phi_of_enc(a: tuple[int, ...]) -> IntMatrix:
    """phi of the W(D_n) element with encoding ``a`` (SignedPerm.enc), unchecked."""
    dim = len(a) + 2
    m = [0] * (dim * dim)
    m[0] = m[dim + 1] = 1
    m[dim] = sum(s & 1 for s in a) // 2
    for j, s in enumerate(a):
        row = ((s >> 1) + 2) * dim  # the row of l_{tau(j)}
        if s & 1:
            m[dim + j + 2] = 1           # b'(j)
            m[row + j + 2] = -1
            m[row] = -1                  # c'(tau(j))
        else:
            m[row + j + 2] = 1
    return IntMatrix(dim, dim, m)


def verify_aut0(M: IntMatrix) -> bool:
    """True iff M preserves the intersection form and fixes K."""
    if M.rows != M.cols or M.rows < 3:
        return False
    n = M.rows - 2
    lat = PicLattice(n)
    G = lat.gram
    if M.transpose() @ G @ M != G:
        return False
    return M.apply(lat.K) == lat.K


def fixed_sublattice(mats: list[IntMatrix]) -> LatticeBasis:
    """Saturated basis of the common fixed lattice of the given matrices."""
    if not mats:
        raise ValueError("fixed_sublattice of an empty list has no ambient rank")
    dim = mats[0].cols
    rows = []
    for M in mats:
        if M.rows != dim or M.cols != dim:
            raise ValueError("rank mismatch among matrices")
        for i in range(dim):
            r = list(M.row(i))
            r[i] -= 1
            rows.append(r)
    if not rows:
        return LatticeBasis.full(dim)
    return integer_kernel(IntMatrix.from_rows(rows))


def fixed_sublattice_of(n: int, elements: list[SignedPerm]) -> LatticeBasis:
    """Fixed lattice of a set of W(D_n) elements acting through phi."""
    if not elements:
        return LatticeBasis.full(n + 2)
    return fixed_sublattice([phi(a) for a in elements])
