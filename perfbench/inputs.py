"""Seeded workload inputs, made in the runner before anything is timed.

Nothing here imports conich1: the library only ever sees the generated
inputs.  Group orders for the stratification come from a small signed
permutation closure of our own, and the worker checks them against the
orders the library reports.

An element of W(D_n) is a tuple ``e`` of signed images: ``e[j-1] = +-k``
sends index j to index k, negated when the sign is minus.  Its text is the
library's normal form: flips ``cK`` at the negated targets, ascending, then
the cycles of the underlying permutation ordered by smallest member.
"""

from __future__ import annotations

import random

RANKS = range(4, 10)

# One catalog round: verify_class on each family's two smallest parameter
# tuples, the orbit projections of the instances up to this order (larger
# ones spend almost all their time in project's all-pairs homomorphism check
# and would hide the h1_condition share), and verify_tables for every rank.
CATALOG_TUPLES = 2
CATALOG_PROJECT_MAX_ORDER = 72
TABLE_RANKS = range(4, 10)

# (command, ((low, high, quota), ...)): group-order bands and the number of
# queries drawn in each per round.  The one-generator commands band on the
# element order.  Bands are narrow where cost grows fast with order (project
# checks the homomorphism on all pairs of elements), so that the draw within
# a band moves a round's time little.  The quotas put each reported
# percentile inside one cost cluster rather than on the edge between two,
# where a new draw would move it far: the median falls among the order 1-8
# h1/check/project queries (the cheaper eval and cyclic queries are 31% of a
# round, those bands the next 33%), and the 95th percentile among the order
# 33-64 projections (9%, the costliest cell).  check and project also cap
# the 2-part of the order at 16: their cost grows with the Sylow 2-subgroup
# lattice, and a single order-128 2-group draw takes 10 s or more, which
# would set the tail alone.
CLI_STRATA = (
    ("eval", ((1, 4, 14), (5, 8, 14), (9, 60, 14))),
    ("h1-cyclic", ((1, 4, 14), (5, 8, 14), (9, 60, 14))),
    ("h1-cross", ((1, 8, 30), (9, 32, 10), (33, 96, 10), (97, 192, 10))),
    ("check", ((1, 8, 30), (9, 32, 10), (33, 64, 10), (65, 120, 10))),
    ("project", ((1, 8, 30), (9, 16, 8), (17, 32, 8), (33, 64, 24))),
)
CLI_MAX_TWO_PART = 16
ONE_GENERATOR = ("eval", "h1-cyclic")


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a * b with b applied first."""
    return tuple(a[x - 1] if x > 0 else -a[-x - 1] for x in b)


def closure_order(gens: list[tuple[int, ...]], cap: int) -> int | None:
    """Order of the generated group, or None once it exceeds ``cap``."""
    ident = tuple(range(1, len(gens[0]) + 1))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    if len(seen) > cap:
                        return None
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def random_element(rng: random.Random, n: int) -> tuple[int, ...]:
    """A non-identity element of W(D_n) moving a random set of indices."""
    while True:
        support = rng.sample(range(1, n + 1), rng.randint(2, n))
        targets = support[:]
        rng.shuffle(targets)
        image = list(range(1, n + 1))
        for a, b in zip(support, targets):
            image[a - 1] = b
        flips = set(rng.sample(support, 2 * rng.randint(0, len(support) // 2)))
        e = tuple(-k if k in flips else k for k in image)
        if e != tuple(range(1, n + 1)):
            return e


def element_text(e: tuple[int, ...]) -> str:
    parts = [f"c{k}" for k in sorted(-x for x in e if x < 0)]
    seen: set[int] = set()
    for i in range(1, len(e) + 1):
        if i in seen:
            continue
        cycle = [i]
        seen.add(i)
        j = abs(e[i - 1])
        while j != i:
            cycle.append(j)
            seen.add(j)
            j = abs(e[j - 1])
        if len(cycle) > 1:
            parts.append("(" + ",".join(map(str, cycle)) + ")")
    return " ".join(parts)


def _argv(command: str, n: int, gens: list[str], rng: random.Random) -> list[str]:
    if command == "eval":
        return ["eval", "-n", str(n), gens[0]]
    if command == "h1-cyclic":
        return ["h1", "-n", str(n), "--method", "cyclic", gens[0]]
    if command == "h1-cross":
        return ["h1", "-n", str(n), "--method", "cross", *gens]
    if command == "check":
        return ["check", "-n", str(n), *gens]
    return ["project", "-n", str(n), "--orbit", str(rng.randint(1, n)), *gens]


def cli_queries(seed: int, round_index: int) -> list[dict]:
    """One round of stratified ``conich1`` CLI queries, in seeded order.

    Each round of a run draws its own queries, so no query repeats within a
    run except by chance.
    """
    rng = random.Random(f"cli-queries:{seed}:{round_index}")
    queries = []
    for command, bands in CLI_STRATA:
        need = {(lo, hi): quota for lo, hi, quota in bands}
        cap = max(hi for _, hi, _ in bands)
        while any(need.values()):
            n = rng.choice(RANKS)
            count = 1 if command in ONE_GENERATOR else rng.randint(1, 3)
            gens = [random_element(rng, n) for _ in range(count)]
            order = closure_order(gens, cap)
            if order is None:
                continue
            if command in ("check", "project") and order & -order > CLI_MAX_TWO_PART:
                continue
            band = next((lo, hi) for lo, hi, _ in bands if lo <= order <= hi)
            if not need[band]:
                continue
            need[band] -= 1
            texts = [element_text(g) for g in gens]
            queries.append(
                {"command": command, "band": f"{band[0]}-{band[1]}", "order": order, "argv": _argv(command, n, texts, rng)}
            )
    rng.shuffle(queries)
    return queries


def catalog_items(seed: int, round_index: int, orbit_counts: dict[str, int]) -> list[dict]:
    """One catalog round in seeded order.

    ``orbit_counts`` maps ``"<family>:<tuple index>"`` of each projected
    instance to its number of index orbits (frozen in expected.json); the
    worker looks the parameters up with the library's smallest_param_tuples.
    """
    items: list[dict] = [{"kind": "verify_class", "family": cid, "tuple": t} for cid in range(1, 25) for t in range(CATALOG_TUPLES)]
    for key, count in orbit_counts.items():
        cid, t = (int(x) for x in key.split(":"))
        items += [{"kind": "project", "family": cid, "tuple": t, "orbit": k, "orbit_count": count} for k in range(count)]
    items += [{"kind": "verify_tables", "n": n} for n in TABLE_RANKS]
    random.Random(f"catalog:{seed}:{round_index}").shuffle(items)
    return items
