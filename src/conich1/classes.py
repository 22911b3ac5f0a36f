"""The 24 parametric families of groups satisfying the cohomological and
minimality conditions, with the finite-field labeling used to write the
Frobenius-type generators as signed permutations.

Catalog conventions the verifier depends on: family 21 is parametrized by
(n1, n2) throughout, the long cycles are always the standard (2m+1)-cycle
(o+1, o+2, o+4, ..., o+2m, o+2m+1, o+2m-1, ..., o+3), and family 15's g1
carries flips on {1..2n+1, 4n+3} so it lies in W(D_{4n+3}).  Every family
instance must pass verify_class; a reading that fails is a bug here.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import product as iproduct
from types import MappingProxyType
from typing import NamedTuple

from .conditions import relative_minimality
from .cohomology import h1_condition
from .groups import FiniteGroup, closure, index_orbits
from .signedperm import SignedPerm, sigma

Poly = tuple[int, ...]

MAX_RANK = 64  # well above every rank the tables (<= 9) and the families' smallest instances (<= 15) use


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class FieldLabeling(NamedTuple):
    """F_{p^r} as (Z/p)[x]/(h) with the base-p labeling of residues.

    lab(0) = p^r and lab(a0 + a1 x + ...) = a0 + a1 p + ... otherwise, so
    the nonzero elements are labelled 1..p^r-1 and zero gets p^r.
    """

    p: int
    r: int
    modulus: Poly  # ascending coefficients of h minus the leading x^r term
    gamma: Poly

    @property
    def q(self) -> int:
        return self.p**self.r

    def lab(self, a: Poly) -> int:
        if not any(a):
            return self.q
        return sum(c * self.p**i for i, c in enumerate(a))

    def elem(self, label: int) -> Poly:
        if label == self.q:
            return (0,) * self.r
        if not 1 <= label <= self.q - 1:
            raise ValueError(f"label {label} out of range")
        out = []
        for _ in range(self.r):
            out.append(label % self.p)
            label //= self.p
        return tuple(out)

    def mul(self, a: Poly, b: Poly) -> Poly:
        p, r = self.p, self.r
        prod = [0] * (2 * r - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo h = x^r + modulus
        for d in range(2 * r - 2, r - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for i, m in enumerate(self.modulus):
                    prod[d - r + i] = (prod[d - r + i] - c * m) % p
        return tuple(prod[:r])

    @property
    def one(self) -> Poly:
        return (1,) + (0,) * (self.r - 1)

    def gamma_labels(self) -> list[int]:
        """Labels of 1, gamma, gamma^2, ..., gamma^(q-2)."""
        out = []
        x = self.one
        for _ in range(self.q - 1):
            out.append(self.lab(x))
            x = self.mul(x, self.gamma)
        if x != self.one:
            raise RuntimeError(f"gamma^{self.q - 1} is not 1")
        return out

    def addition_cycles(self) -> list[list[int]]:
        """Cycles of the label permutation x -> x + 1.

        Adding 1 steps the lowest base-p digit, so each block of p labels
        sharing the higher digits is one cycle; zero (label q) closes the
        block of 1..p-1.
        """
        p, q = self.p, self.q
        return [[*range(1, p), q]] + [list(range(b, b + p)) for b in range(p, q, p)]


def _poly_divisible(num: list[int], den: list[int], p: int) -> bool:
    num = num[:]
    inv_lead = pow(den[-1], p - 2, p)
    while len(num) >= len(den):
        c = num[-1] * inv_lead % p
        if c:
            off = len(num) - len(den)
            for i, d in enumerate(den):
                num[off + i] = (num[off + i] - c * d) % p
        num.pop()
    return not any(num)


def _irreducible(coeffs: list[int], p: int) -> bool:
    """coeffs = full ascending coefficient list of a monic polynomial."""
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for tail in iproduct(range(p), repeat=d):
            den = list(tail) + [1]
            if _poly_divisible(coeffs, den, p):
                return False
    return True


def field_labeling(p: int, r: int) -> FieldLabeling:
    """Deterministic field model: lexicographically first irreducible h and
    the multiplicative generator with the smallest label.
    """
    if not _is_prime(p) or p == 2:
        raise ValueError(f"p = {p} is not an odd prime")
    if r < 1:
        raise ValueError("r must be >= 1")
    modulus = None
    for tail in iproduct(range(p), repeat=r):
        if _irreducible(list(tail) + [1], p):
            modulus = tuple(tail)
            break
    if modulus is None:
        raise RuntimeError(f"no monic irreducible polynomial of degree {r} over F_{p}")
    lab = FieldLabeling(p, r, modulus, (0,) * r)
    one, q = lab.one, lab.q
    # F_q^* is cyclic of order q - 1, so the first label whose powers first
    # return to 1 after q - 1 steps is the generator with the smallest label
    for label in range(1, q):
        g = x = lab.elem(label)
        order = 1
        while x != one:
            x = lab.mul(x, g)
            order += 1
        if order == q - 1:
            return lab._replace(gamma=g)
    raise RuntimeError("no multiplicative generator found")


class ClassSpec(NamedTuple("ClassSpec", [("id", int), ("params", Mapping[str, int])])):
    """One of the 24 families, instantiated at concrete parameters.

    Validated on construction and immutable: ``params`` is a read-only copy
    of the caller's dict, which still compares equal to a dict.  It hashes
    by key(), so equal specs hash alike whatever the order of ``params``.
    """

    __slots__ = ()

    def __new__(cls, id: int, params: dict | None = None) -> ClassSpec:
        params = {} if params is None else params
        if not 1 <= id <= 24:
            raise ValueError("class id must be 1..24")
        required = PARAM_KINDS[id]
        if set(params) != set(required):
            raise ValueError(f"class {id} needs parameters {required}, got {sorted(params)}")
        for key, val in params.items():
            if not isinstance(val, int) or val < 1:
                raise ValueError(f"parameter {key} must be a positive integer")
            # every family's rank exceeds each of its parameters, so this
            # bound keeps a huge p from reaching the primality test
            if val > MAX_RANK:
                raise ValueError(f"parameter {key} must be at most MAX_RANK = {MAX_RANK}, got {val}")
        if "p" in params:
            if not _is_prime(params["p"]) or params["p"] == 2:
                raise ValueError("p must be an odd prime")
        spec = super().__new__(cls, id, MappingProxyType(dict(params)))
        if spec.rank > MAX_RANK:
            raise ValueError(f"rank n must be at most {MAX_RANK}, got {spec.rank}")
        return spec

    def __getnewargs__(self) -> tuple:  # pickle and copy rebuild from a plain dict
        return self.id, dict(self.params)

    def key(self) -> tuple:
        return (self.id, tuple(sorted(self.params.items())))

    @property
    def rank(self) -> int:
        """The rank N of the ambient W(D_N), from the parameters alone."""
        P = self.params
        return _RANKS[self.id](P, P["p"] ** P["r"] if "p" in P else 0)

    def __hash__(self):
        return hash(self.key())


PARAM_KINDS: dict[int, tuple[str, ...]] = {
    1: ("n",), 2: ("p", "r"), 3: ("n1", "n2"), 4: ("n", "p", "r"),
    5: ("n1", "n2"), 6: ("n", "p", "r"), 7: ("n1", "n2"), 8: ("n", "p", "r"),
    9: ("n",), 10: ("n",), 11: ("n",), 12: ("n",), 13: ("n",), 14: ("p", "r"),
    15: ("n",), 16: ("p", "r"), 17: ("p", "r"), 18: ("n",), 19: ("p", "r"),
    20: ("n1", "n2", "n3"), 21: ("n1", "n2"), 22: ("n1", "n2"), 23: ("n",), 24: ("n",),
}

# family ids -> the rank N, from the parameters P and q = p^r
_RANK_FORMULAS = (
    ((1,), lambda P, q: 2 * P["n"] + 2),
    ((2,), lambda P, q: q + 1),
    ((3,), lambda P, q: 2 * P["n1"] + 2 * P["n2"] + 3),
    ((4,), lambda P, q: 2 * P["n"] + q + 2),
    ((5, 7), lambda P, q: 2 * P["n1"] + 2 * P["n2"] + 2),
    ((6, 8), lambda P, q: 2 * P["n"] + q + 1),
    ((9, 10, 11), lambda P, q: 2 * P["n"] + 3),
    ((12, 13), lambda P, q: 4 * P["n"] + 2),
    ((14, 16, 17, 19), lambda P, q: q + 2),
    ((15, 18), lambda P, q: 4 * P["n"] + 3),
    ((20,), lambda P, q: 2 * (P["n1"] + P["n2"] + P["n3"]) + 3),
    ((21, 22), lambda P, q: 4 * P["n1"] + 2 * P["n2"] + 3),
    ((23, 24), lambda P, q: 6 * P["n"] + 3),
)
_RANKS = {cid: formula for ids, formula in _RANK_FORMULAS for cid in ids}


def _el(N: int, minus, cycles) -> SignedPerm:
    return SignedPerm.from_cycles(N, [list(c) for c in cycles], minus)


def _std_cycle(offset: int, m: int) -> list[int]:
    seq = [1, 2] + list(range(4, 2 * m + 1, 2)) + [2 * m + 1] + list(range(2 * m - 1, 2, -2))
    return [offset + j for j in seq]


def _trans_chain(offset: int, m: int) -> list[tuple[int, int]]:
    return [(offset + 2 * k, offset + 2 * k + 1) for k in range(1, m + 1)]


def _block_swap(o1: int, o2: int, m: int) -> list[tuple[int, int]]:
    return [(o1 + k, o2 + k) for k in range(1, m + 1)]


def _four_cycles(o2: int, m: int) -> list[tuple[int, int, int, int]]:
    return [(2 * k, o2 + 2 * k, 2 * k + 1, o2 + 2 * k + 1) for k in range(1, m + 1)]


def _rot3(o1: int, o2: int, o3: int, m: int) -> list[tuple[int, int, int]]:
    return [(o1 + k, o2 + k, o3 + k) for k in range(1, m + 1)]


def _shift(cycle, offset: int) -> list[int]:
    return [offset + j for j in cycle]


def class_generators(spec: ClassSpec) -> tuple[list[SignedPerm], int, tuple[int, ...]]:
    """Generators, ambient rank, and the expected index-orbit length profile."""
    P = spec.params
    cid = spec.id
    N = spec.rank

    if cid in (2, 4, 6, 8, 14, 16, 17, 19):
        L = field_labeling(P["p"], P["r"])
        q = L.q
        gcyc = L.gamma_labels()
        addc = L.addition_cycles()

    if cid == 1:
        n = P["n"]
        gens = [
            _el(N, range(1, N + 1), _trans_chain(0, n)),
            _el(N, (), [_std_cycle(0, n)]),
        ]
        return gens, N, (2 * n + 1, 1)
    if cid == 2:
        gens = [
            _el(N, range(1, N + 1), [gcyc]),
            _el(N, (), addc),
        ]
        return gens, N, (q, 1)
    if cid == 3:
        n1, n2 = P["n1"], P["n2"]
        o2 = 2 * n1 + 1
        gens = [
            _el(N, list(range(1, 2 * n1 + 2)) + [N], _trans_chain(0, n1)),
            _el(N, (), [_std_cycle(0, n1)]),
            _el(N, list(range(o2 + 1, o2 + 2 * n2 + 2)) + [N], _trans_chain(o2, n2)),
            _el(N, (), [_std_cycle(o2, n2)]),
        ]
        return gens, N, tuple(sorted((2 * n1 + 1, 2 * n2 + 1, 1), reverse=True))
    if cid == 4:
        n = P["n"]
        o2 = 2 * n + 1
        gens = [
            _el(N, list(range(1, 2 * n + 2)) + [N], _trans_chain(0, n)),
            _el(N, (), [_std_cycle(0, n)]),
            _el(N, list(range(o2 + 1, o2 + q + 1)) + [N], [_shift(gcyc, o2)]),
            _el(N, (), [_shift(c, o2) for c in addc]),
        ]
        return gens, N, tuple(sorted((2 * n + 1, q, 1), reverse=True))
    if cid in (5, 7):
        n1, n2 = P["n1"], P["n2"]
        o2 = 2 * n1 + 1
        g1 = _el(N, range(1, N + 1), _trans_chain(0, n1) + _trans_chain(o2, n2))
        if cid == 5:
            gens = [g1, _el(N, (), [_std_cycle(0, n1)]), _el(N, (), [_std_cycle(o2, n2)])]
        else:
            gens = [g1, _el(N, (), [_std_cycle(0, n1), _std_cycle(o2, n2)])]
        return gens, N, tuple(sorted((2 * n1 + 1, 2 * n2 + 1), reverse=True))
    if cid in (6, 8):
        n = P["n"]
        o2 = 2 * n + 1
        g1 = _el(N, range(1, N + 1), _trans_chain(0, n) + [_shift(gcyc, o2)])
        if cid == 6:
            gens = [g1, _el(N, (), [_std_cycle(0, n)]), _el(N, (), [_shift(c, o2) for c in addc])]
        else:
            gens = [g1, _el(N, (), [_std_cycle(0, n)] + [_shift(c, o2) for c in addc])]
        return gens, N, tuple(sorted((2 * n + 1, q), reverse=True))
    if cid == 9:
        n = P["n"]
        gens = [
            _el(N, range(1, 2 * n + 3), _trans_chain(0, n)),
            _el(N, (), [_std_cycle(0, n)]),
            _el(N, (2 * n + 2, 2 * n + 3), []),
        ]
        return gens, N, (2 * n + 1, 1, 1)
    if cid in (10, 11):
        n = P["n"]
        gens = [
            _el(N, range(1, 2 * n + 3), _trans_chain(0, n) + [(2 * n + 2, 2 * n + 3)]),
            _el(N, (), [_std_cycle(0, n)]),
        ]
        if cid == 11:
            gens.append(_el(N, (), [(2 * n + 2, 2 * n + 3)]))
        return gens, N, (2 * n + 1, 2)
    if cid in (12, 13):
        n = P["n"]
        o2 = 2 * n + 1
        g1 = _el(N, range(1, N + 1), _trans_chain(0, n) + _trans_chain(o2, n))
        swap = _el(N, (), _block_swap(0, o2, 2 * n + 1))
        if cid == 12:
            gens = [g1, _el(N, (), [_std_cycle(0, n), _std_cycle(o2, n)]), swap]
        else:
            gens = [g1, _el(N, (), [_std_cycle(0, n)]), _el(N, (), [_std_cycle(o2, n)]), swap]
        return gens, N, (4 * n + 2,)
    if cid in (14, 16):
        gens = [
            _el(N, range(1, q + 2), [gcyc, (q + 1, q + 2)]),
            _el(N, (), addc),
        ]
        if cid == 16:
            gens.append(_el(N, (q + 1, q + 2), []))
        return gens, N, (q, 2)
    if cid == 15:
        n = P["n"]
        o2 = 2 * n + 1
        gens = [
            _el(N, list(range(1, 2 * n + 2)) + [N], [(1, o2 + 1)] + _four_cycles(o2, n)),
            _el(N, (), [_std_cycle(0, n)]),
            _el(N, (), [_std_cycle(o2, n)]),
        ]
        return gens, N, (4 * n + 2, 1)
    if cid == 17:
        gens = [
            _el(N, range(1, q + 2), [gcyc]),
            _el(N, (), addc),
            _el(N, (q + 1, q + 2), []),
        ]
        return gens, N, (q, 1, 1)
    if cid == 18:
        n = P["n"]
        o2 = 2 * n + 1
        gens = [
            _el(N, list(range(1, 2 * n + 2)) + [N], _trans_chain(0, n)),
            _el(N, list(range(o2 + 1, o2 + 2 * n + 2)) + [N], _trans_chain(o2, n)),
            _el(N, (), _block_swap(0, o2, 2 * n + 1)),
            _el(N, (), [_std_cycle(0, n)]),
            _el(N, (), [_std_cycle(o2, n)]),
        ]
        return gens, N, (4 * n + 2, 1)
    if cid == 19:
        gens = [
            _el(N, range(1, q + 2), [gcyc, (q + 1, q + 2)]),
            _el(N, (), addc),
            _el(N, (), [(q + 1, q + 2)]),
            _el(N, (q + 1, q + 2), []),
        ]
        return gens, N, (q, 2)
    if cid == 20:
        n1, n2, n3 = P["n1"], P["n2"], P["n3"]
        o2 = 2 * n1 + 1
        o3 = 2 * n1 + 2 * n2 + 2
        gens = [
            _el(N, range(1, o3 + 1), _trans_chain(0, n1) + _trans_chain(o2, n2)),
            _el(N, range(o2 + 1, N + 1), _trans_chain(o2, n2) + _trans_chain(o3, n3)),
            _el(N, (), [_std_cycle(0, n1)]),
            _el(N, (), [_std_cycle(o2, n2)]),
            _el(N, (), [_std_cycle(o3, n3)]),
        ]
        return gens, N, tuple(sorted((2 * n1 + 1, 2 * n2 + 1, 2 * n3 + 1), reverse=True))
    if cid == 21:
        n1, n2 = P["n1"], P["n2"]
        o2 = 2 * n1 + 1
        o3 = 4 * n1 + 2
        gens = [
            _el(N, range(o2 + 1, N + 1), [(1, o2 + 1)] + _four_cycles(o2, n1) + _trans_chain(o3, n2)),
            _el(N, (), [_std_cycle(0, n1)]),
            _el(N, (), [_std_cycle(o2, n1)]),
            _el(N, (), [_std_cycle(o3, n2)]),
        ]
        return gens, N, tuple(sorted((4 * n1 + 2, 2 * n2 + 1), reverse=True))
    if cid == 22:
        n1, n2 = P["n1"], P["n2"]
        o2 = 2 * n1 + 1
        o3 = 4 * n1 + 2
        gens = [
            _el(N, range(1, o3 + 1), _trans_chain(0, n1) + _trans_chain(o2, n1)),
            _el(N, range(o2 + 1, N + 1), _trans_chain(o2, n1) + _trans_chain(o3, n2)),
            _el(N, (), _block_swap(0, o2, 2 * n1 + 1)),
            _el(N, (), [_std_cycle(0, n1)]),
            _el(N, (), [_std_cycle(o2, n1)]),
            _el(N, (), [_std_cycle(o3, n2)]),
        ]
        return gens, N, tuple(sorted((4 * n1 + 2, 2 * n2 + 1), reverse=True))
    if cid in (23, 24):
        n = P["n"]
        o2 = 2 * n + 1
        o3 = 4 * n + 2
        gens = [
            _el(N, range(1, o3 + 1), _trans_chain(0, n) + _trans_chain(o2, n)),
            _el(N, range(o2 + 1, N + 1), _trans_chain(o2, n) + _trans_chain(o3, n)),
        ]
        if cid == 24:
            gens.append(_el(N, (), _block_swap(0, o2, 2 * n + 1)))
        gens.extend(
            [
                _el(N, (), [_std_cycle(0, n)]),
                _el(N, (), [_std_cycle(o2, n)]),
                _el(N, (), [_std_cycle(o3, n)]),
                _el(N, (), _rot3(0, o2, o3, 2 * n + 1)),
            ]
        )
        return gens, N, (6 * n + 3,)
    raise RuntimeError(f"unhandled class id {cid}")


def build_group(spec: ClassSpec) -> FiniteGroup:
    gens, N, _ = class_generators(spec)
    for g in gens:
        if sigma(g) != 1:
            raise RuntimeError(f"class {spec.id} generator left W(D_n)")
    return closure(gens, n=N)


class ClassReport(NamedTuple):
    spec: ClassSpec
    rank: int
    order: int
    orbit_profile: tuple[int, ...]
    expected_profile: tuple[int, ...]
    orbit_profile_ok: bool
    h1_ok: bool
    relmin_ok: bool
    sylow2_order: int

    @property
    def all_ok(self) -> bool:
        return self.h1_ok and self.relmin_ok and self.orbit_profile_ok


def verify_class(spec: ClassSpec) -> ClassReport:
    """Build the family instance and run the full condition panel on it."""
    gens, N, expected = class_generators(spec)
    G = closure(gens, n=N)
    profile = tuple(sorted((len(o) for o in index_orbits(N, G.spanning_encs)), reverse=True))
    cond = h1_condition(G)
    return ClassReport(
        spec=spec,
        rank=N,
        order=G.order,
        orbit_profile=profile,
        expected_profile=tuple(sorted(expected, reverse=True)),
        orbit_profile_ok=profile == tuple(sorted(expected, reverse=True)),
        h1_ok=cond.ok,
        relmin_ok=relative_minimality(G),
        # h1_condition(G) ran the Sylow climb, which raises short of the 2-part
        sylow2_order=G.order & -G.order,
    )


def smallest_param_tuples(cid: int, count: int = 2) -> list[ClassSpec]:
    """The ``count`` smallest parameter choices, ordered by total size."""
    kind = PARAM_KINDS[cid]
    npart = [k for k in kind if k.startswith("n")]
    cands: list[tuple[int, tuple, dict]] = []
    if "p" in kind:
        for p, r in [(3, 1), (5, 1), (7, 1), (3, 2)]:  # every q = p^r <= 9
            q = p**r
            for ns in iproduct(range(1, 4), repeat=len(npart)):
                cands.append((q + sum(ns), ns + (q,), dict(zip(npart, ns)) | {"p": p, "r": r}))
    else:
        for ns in iproduct(range(1, 5), repeat=len(npart)):
            cands.append((sum(ns), ns, dict(zip(npart, ns))))
    cands.sort(key=lambda t: (t[0], t[1]))
    return [ClassSpec(cid, params) for _, _, params in cands[:count]]
