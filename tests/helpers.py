"""Test-only helpers: independent constructions the library itself does not need."""

from itertools import combinations, permutations

from conich1.groups import closure
from conich1.signedperm import SignedPerm


def iter_wdn(n):
    """All elements of W(D_n), lazily (2^(n-1) n! of them): every permutation
    with every even set of sign flips, independent of wdn_generators."""
    indices = list(range(1, n + 1))
    evens = [c for k in range(0, n + 1, 2) for c in combinations(indices, k)]
    for img in permutations(indices):
        for minus in evens:
            yield SignedPerm(n, img, minus)


def random_subgroup(G, rng, max_gens=2):
    """The subgroup generated by one to ``max_gens`` elements of G drawn by ``rng``."""
    k = rng.randint(1, max_gens)
    gens = [G.elements[rng.randrange(G.order)] for _ in range(k)]
    return closure(gens, n=G.n)
