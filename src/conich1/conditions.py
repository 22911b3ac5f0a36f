"""Geometric side conditions: orbit structure, minimality tests, and the
projection of a group onto one orbit of its index action.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import FiniteGroup, enc_closure, index_orbits, pair_orbits
from .intlinalg import lattice_equal
from .picard import fixed_sublattice_of, minimal_lattice
from .signedperm import SignedPerm, signed_cycles


@dataclass(frozen=True)
class OrbitDecomposition:
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
    idx = tuple(index_orbits(G.n, G.enc_set))
    pairs = tuple(
        tuple(_symbol(c) for c in orb) for orb in pair_orbits(G.n, G.enc_set)
    )
    return OrbitDecomposition(G.n, idx, pairs)


def fiber_pair_condition(G: FiniteGroup) -> bool:
    """True iff q_j^+ and q_j^- lie in one orbit for every j."""
    for orb in pair_orbits(G.n, G.enc_set):
        members = set(orb)
        for c in orb:
            if (c ^ 1) not in members:
                return False
    return True


def relative_minimality(G: FiniteGroup) -> bool:
    """True iff the fixed sublattice of Pic is exactly Z l_0 + Z K_X."""
    gens = list(G.generators) or list(G.elements)
    fixed = fixed_sublattice_of(G.n, [g for g in gens if not g.is_identity()])
    return lattice_equal(fixed, minimal_lattice(G.n))


def orbit_count_filter(G: FiniteGroup) -> bool:
    """True iff the symbol action has at most three orbits."""
    return len(pair_orbits(G.n, G.enc_set)) <= 3


@dataclass(frozen=True)
class ProjectedGroup:
    """Image of a group under the restriction to one index orbit."""

    source_orbit: tuple[int, ...]
    rank: int
    group: FiniteGroup
    appended_flag: bool


def _restrict(g: SignedPerm, orbit: set[int], relabel: dict[int, int], target_rank: int) -> tuple[SignedPerm, int]:
    """Restriction of g to the cycles supported on the orbit, relabelled.

    Returns (restricted element without the appended flip, its sigma).
    """
    image = list(range(1, target_rank + 1))
    minus = []
    sig = 1
    for cyc in signed_cycles(g):
        if cyc.support[0] not in orbit:
            continue
        for a in cyc.support:
            image[relabel[a] - 1] = relabel[g.act_index(a)]
        for a in cyc.minus_indices:
            minus.append(relabel[a])
            sig = -sig
    return SignedPerm(target_rank, image, minus), sig


def project(G: FiniteGroup, orbit: tuple[int, ...] | frozenset[int], verify: bool = True) -> ProjectedGroup:
    """The orbit projection P_O: restrict to O, appending a fresh flip when
    the restriction has sigma = -1 so the image stays inside a W(D_*).
    """
    O = set(orbit)
    idx_orbits = index_orbits(G.n, G.enc_set)
    if tuple(sorted(O)) not in {tuple(o) for o in idx_orbits}:
        raise ValueError(f"{sorted(O)} is not an orbit of the index action")
    n_prime = len(O)
    relabel = {a: i + 1 for i, a in enumerate(sorted(O))}

    sigmas = {}
    for g in G.elements:
        _, sig = _restrict(g, O, relabel, n_prime)
        sigmas[g.enc] = sig
    appended = any(s == -1 for s in sigmas.values())
    rank = n_prime + 1 if appended else n_prime

    images = {}
    for g in G.elements:
        r, sig = _restrict(g, O, relabel, rank)
        if sig == -1:
            r = r * SignedPerm(rank, range(1, rank + 1), (rank,))
        images[g.enc] = r
    image_set = set(images.values())
    gen_images = [images[g.enc] for g in (G.generators or G.elements)]

    if verify:
        # closure of the generator images must reproduce the image set exactly
        closed = enc_closure([h.enc for h in gen_images], rank, cap=len(image_set))
        if closed is None or closed != frozenset(h.enc for h in image_set):
            raise RuntimeError("projection image is not the closed group it must be")
        pairs = (
            [(a, b) for a in G.elements for b in G.elements]
            if G.order <= 400
            else [(a, b) for a in G.elements for b in G.generators]
        )
        for a, b in pairs:
            if images[(a * b).enc] != images[a.enc] * images[b.enc]:
                raise RuntimeError("projection failed the homomorphism identity")

    H = FiniteGroup(rank, tuple(dict.fromkeys(gen_images)), image_set)
    return ProjectedGroup(tuple(sorted(O)), rank, H, appended)


@dataclass(frozen=True)
class ConditionReport:
    order: int
    degree: int
    h1_ok: bool | None
    h1_witness_order: int | None
    relatively_minimal: bool
    fiber_pairs_joined: bool
    orbit_profile: tuple[int, ...]
    pair_orbit_count: int
    at_most_three_orbits: bool


def check_conditions(G: FiniteGroup, route: str = "sylow2") -> ConditionReport:
    """The full obstruction panel for one group."""
    from .cohomology import h1_condition

    dec = orbits(G)
    cond = h1_condition(G, route=route)
    return ConditionReport(
        order=G.order,
        degree=8 - G.n,
        h1_ok=cond.ok,
        h1_witness_order=cond.witness.order if cond.witness is not None else None,
        relatively_minimal=relative_minimality(G),
        fiber_pairs_joined=fiber_pair_condition(G),
        orbit_profile=dec.profile,
        pair_orbit_count=len(dec.pair_orbits),
        at_most_three_orbits=len(dec.pair_orbits) <= 3,
    )
