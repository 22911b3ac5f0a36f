import itertools
import random

import pytest

from conich1.intlinalg import IntMatrix
from conich1.picard import PicLattice, fixed_sublattice, fixed_sublattice_of, phi, psi, verify_aut0
from helpers import act_symbol, lattice_equal, minimal_lattice
from conich1.signedperm import SignedPerm, parse_element
from helpers import determinant


def rand_wdn(rng, n):
    img = list(range(1, n + 1))
    rng.shuffle(img)
    while True:
        minus = [j for j in range(1, n + 1) if rng.random() < 0.4]
        if len(minus) % 2 == 0:
            return SignedPerm(n, img, minus)


def test_gram_and_distinguished_classes():
    lat = PicLattice(4)
    assert lat.pairing(lat.basis_vector(-1), lat.basis_vector(0)) == 1
    assert lat.pairing(lat.basis_vector(-1), lat.basis_vector(-1)) == 0
    for i in range(1, 5):
        for j in range(1, 5):
            assert lat.pairing(lat.basis_vector(i), lat.basis_vector(j)) == (-1 if i == j else 0)
    assert lat.K == (-2, -2, 1, 1, 1, 1)
    assert lat.l0 == (0, 1, 0, 0, 0, 0)
    assert lat.degree == 4


def test_psi_examples():
    assert psi(SignedPerm.identity(3)) == IntMatrix.identity(3)
    assert psi(parse_element("c1 c2", 4)).to_rows() == [
        [-1, 0, 0, 0],
        [0, -1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    assert psi(parse_element("(1,2)", 2)).to_rows() == [[0, 1], [1, 0]]


def test_phi_identity_and_c1c2():
    assert phi(SignedPerm.identity(4)) == IntMatrix.identity(6)
    g = parse_element("c1 c2", 4)
    M = phi(g)
    lat = PicLattice(4)
    # second row (the l_0 row) carries the b' data
    assert M.row(1) == (1, 1, 1, 1, 0, 0)
    assert M.apply(lat.basis_vector(1)) == (0, 1, -1, 0, 0, 0)  # l_0 - l_1
    assert M.apply(lat.l0) == lat.l0
    assert M.apply(lat.K) == lat.K


def test_phi_with_swap():
    g = parse_element("c1 c2 (1,2)", 4)
    lat = PicLattice(4)
    assert phi(g).apply(lat.basis_vector(1)) == (0, 1, 0, -1, 0, 0)  # l_0 - l_2
    # cross-check against the symbol action: q_1^+ goes to q_2^-
    assert act_symbol(g, (1, 1)) == (2, -1)


def test_phi_rejects_odd_elements():
    with pytest.raises(ValueError):
        phi(parse_element("c1", 4))


def test_phi_homomorphism_and_aut0():
    rng = random.Random(0)
    for _ in range(400):
        n = rng.choice([4, 5, 6, 7, 8, 9])
        a, b = rand_wdn(rng, n), rand_wdn(rng, n)
        assert phi(a * b) == phi(a) @ phi(b)
        assert verify_aut0(phi(a))
        assert abs(determinant(phi(a))) == 1


def test_phi_lower_right_block_is_psi():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.choice([4, 5, 6])
        a = rand_wdn(rng, n)
        M, P = phi(a), psi(a)
        assert all(M[i + 2, j + 2] == P[i, j] for i in range(n) for j in range(n))


def test_verify_aut0_detects_corruption():
    M = phi(parse_element("c1 c2", 4))
    rows = M.to_rows()
    rows[2][3] += 1
    assert not verify_aut0(IntMatrix.from_rows(rows))
    assert verify_aut0(IntMatrix.identity(6))


def test_fixed_sublattice_empty_is_full():
    L = fixed_sublattice_of(3, [])
    assert L.rank == 5


def test_fixed_sublattice_d41_is_minimal():
    gens = [parse_element("c1 c2 c3 c4 (2,3)", 4), parse_element("(1,2,3)", 4)]
    L = fixed_sublattice_of(4, gens)
    assert L.rank == 2
    assert lattice_equal(L, minimal_lattice(4))


def brute_fixed(M, bound=2):
    dim = M.cols
    out = []
    for v in itertools.product(range(-bound, bound + 1), repeat=dim):
        if any(v) and M.apply(v) == tuple(v):
            out.append(v)
    return out


def test_fixed_sublattice_c1c2():
    # phi(c1c2) is an involution with trace 2, so its fixed space has rank
    # (6 + 2)/2 = 4; the box-scan oracle below confirms the lattice.
    g = parse_element("c1 c2", 4)
    M = phi(g)
    assert M @ M == IntMatrix.identity(6)
    assert sum(M[i, i] for i in range(6)) == 2
    L = fixed_sublattice([M])
    assert L.rank == 4
    lat = PicLattice(4)
    assert L.member(lat.l0) and L.member(lat.K)
    assert L.member(lat.basis_vector(3)) and L.member(lat.basis_vector(4))
    assert not L.member(lat.basis_vector(-1))
    for v in brute_fixed(M):
        assert L.member(v)


def test_fixed_sublattice_rank_mismatch():
    with pytest.raises(ValueError):
        fixed_sublattice([IntMatrix.identity(5), IntMatrix.identity(6)])
