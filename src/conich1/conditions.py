"""Geometric side conditions: orbit structure, minimality tests, and the
projection of a group onto one orbit of its index action.
"""

from __future__ import annotations

from typing import NamedTuple

from .cohomology import h1_condition
from .groups import Enc, FiniteGroup, enc_closure, enc_mul, index_orbits, pair_orbits


class OrbitDecomposition(NamedTuple):
    """Orbits on the indices {1..n} and on the 2n fiber-component symbols."""

    n: int
    orbits: tuple[tuple[int, ...], ...]
    pair_orbits: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def profile(self) -> tuple[int, ...]:
        return tuple(sorted((len(o) for o in self.orbits), reverse=True))

    @property
    def pair_profile(self) -> tuple[int, ...]:
        return tuple(sorted((len(o) for o in self.pair_orbits), reverse=True))


def _symbol(code: int) -> tuple[int, int]:
    return ((code >> 1) + 1, -1 if code & 1 else 1)


def orbits(G: FiniteGroup) -> OrbitDecomposition:
    """Both orbit partitions, deterministically ordered by smallest member."""
    span = G.spanning_encs
    idx = tuple(index_orbits(G.n, span))
    pairs = tuple(tuple(_symbol(c) for c in orb) for orb in pair_orbits(G.n, span))
    return OrbitDecomposition(G.n, idx, pairs)


def fiber_pair_condition(G: FiniteGroup) -> bool:
    """True iff q_j^+ and q_j^- lie in one orbit for every j."""
    for orb in pair_orbits(G.n, G.spanning_encs):
        members = set(orb)
        for c in orb:
            if (c ^ 1) not in members:
                return False
    return True


def relative_minimality(G: FiniteGroup) -> bool:
    """True iff the fixed sublattice Pic^G is exactly Z l_0 + Z K_X, which
    holds iff q_j^+ and q_j^- lie in one orbit for every j (Iskovskikh's
    criterion), so this is fiber_pair_condition.

    Pic^G always holds Z l_0 + Z K_X, which is saturated of rank 2, and
    Pic^G is saturated, so they are equal iff rk Pic^G = 2.  Over Q,
    l_{-1} = (sum l_i - 2 l_0 - K_X) / 2 lies in Q l_0 + Q K_X + span(l_i),
    so q_j^+ -> l_j, q_j^- -> l_0 - l_j maps the permutation module of the
    2n symbols onto Pic_Q / (Q l_0 + Q K_X), G-equivariantly, with kernel
    spanned by the q_j^+ + q_j^-, the permutation module of the n indices.
    Taking invariants is exact over Q and the invariants of a permutation
    module have one dimension per orbit, so
    rk Pic^G = 2 + #symbol orbits - #index orbits.  Each index orbit carries
    one or two symbol orbits, one exactly when its pairs are joined, so the
    rank is 2 iff every pair is joined.  The tests check this against the
    lattice computation, fixed_sublattice and Z l_0 + Z K_X.
    """
    return fiber_pair_condition(G)


def orbit_count_filter(G: FiniteGroup) -> bool:
    """True iff the symbol action has at most three orbits."""
    return len(pair_orbits(G.n, G.spanning_encs)) <= 3


class ProjectedGroup(NamedTuple):
    """Image of a group under the restriction to one index orbit."""

    source_orbit: tuple[int, ...]
    rank: int
    group: FiniteGroup
    appended_flag: bool


def _orbit_images(G: FiniteGroup, orbit: tuple[int, ...]) -> tuple[dict[Enc, Enc], bool]:
    """Each element's image under P_O, by encoding, and whether a flip was appended.

    The restriction to the sorted orbit is relabelled to 1..n'; when some
    restriction has sigma = -1, every image gains index n'+1, flipped exactly
    where sigma = -1.
    """
    pos = {a - 1: i for i, a in enumerate(orbit)}
    restricted = {}
    for e in G.enc_set:
        r = [2 * pos[e[a] >> 1] ^ (e[a] & 1) for a in pos]
        restricted[e] = (r, sum(r) & 1)  # the parity of the flips on O
    appended = any(odd for _, odd in restricted.values())
    if not appended:
        return {e: tuple(r) for e, (r, _) in restricted.items()}, False
    fixed = 2 * len(orbit)
    return {e: (*r, fixed ^ odd) for e, (r, odd) in restricted.items()}, True


def _check_homomorphism(images: dict[Enc, Enc], gens: list[Enc]) -> None:
    """Raise unless images[a*s] == images[a] * images[s] for every a and every s in gens."""
    for s in gens:
        fs = images[s]
        for a, fa in images.items():
            if images[enc_mul(a, s)] != enc_mul(fa, fs):
                raise RuntimeError("projection failed the homomorphism identity")


def project(G: FiniteGroup, orbit: tuple[int, ...] | frozenset[int]) -> ProjectedGroup:
    """The orbit projection P_O: restrict to O, appending a fresh flip when
    the restriction has sigma = -1 so the image stays inside a W(D_*).

    Always verified: P_O(a*s) = P_O(a) P_O(s) for every a in G and every
    generator s, which gives the identity on all pairs by induction on
    word length, so the check costs |G| |S| products; and the generator
    images must close to exactly the image set.
    """
    O = tuple(sorted(orbit))
    if O not in index_orbits(G.n, G.spanning_encs):
        raise ValueError(f"{list(O)} is not an orbit of the index action")
    images, appended = _orbit_images(G, O)
    rank = len(O) + 1 if appended else len(O)
    gens = G.spanning_encs
    _check_homomorphism(images, gens)
    image_set = frozenset(images.values())
    gen_images = list(dict.fromkeys(images[g] for g in gens))
    if enc_closure(gen_images, rank, cap=len(image_set)) != image_set:
        raise RuntimeError("projection image is not the closed group it must be")
    H = FiniteGroup.from_enc_set(rank, image_set, gen_images)
    return ProjectedGroup(O, rank, H, appended)


class ConditionReport(NamedTuple):
    order: int
    degree: int
    h1_ok: bool
    h1_witness_order: int | None
    relatively_minimal: bool
    fiber_pairs_joined: bool
    orbit_profile: tuple[int, ...]
    pair_orbit_count: int
    at_most_three_orbits: bool


def check_conditions(G: FiniteGroup) -> ConditionReport:
    """The full obstruction panel for one group."""
    dec = orbits(G)
    cond = h1_condition(G)
    # each index orbit carries one or two symbol orbits, one exactly when
    # its fiber pairs are joined (relative_minimality)
    joined = len(dec.pair_orbits) == len(dec.orbits)
    return ConditionReport(
        order=G.order,
        degree=8 - G.n,
        h1_ok=cond.ok,
        h1_witness_order=cond.witness.order if cond.witness is not None else None,
        relatively_minimal=joined,
        fiber_pairs_joined=joined,
        orbit_profile=dec.profile,
        pair_orbit_count=len(dec.pair_orbits),
        at_most_three_orbits=len(dec.pair_orbits) <= 3,
    )
