"""Signed permutations: the group W(B_n) and its index-2 subgroup W(D_n).

An element is kept in the normal form (sign flips) * (permutation), i.e.
c_{j_1}...c_{j_t} tau with tau applied first.  Products compose right to
left: (a * b) means b acts first, so matrix representations satisfy
Phi(a*b) = Phi(a) Phi(b) on column vectors.

W(B_n) permutes the 2n symbols j^+ / j^-.  A SignedPerm stores its
encoding (Enc), the images of 1^+..n^+.  Product, inverse, order, signed
cycle type and W(D_n)-class are the Enc functions below, which groups,
cohomology and enumeration call directly on their hot paths; elements
order as their encodings do.
"""

from __future__ import annotations

import re
from functools import cache
from math import factorial, lcm
from typing import Iterable, NamedTuple, Sequence

# An element's encoding: entry j-1 is the image of the symbol j^+, where
# symbol k^+ is 2(k-1) and k^- is 2(k-1)+1, so pairing is XOR 1.
Enc = tuple[int, ...]


def identity_enc(n: int) -> Enc:
    return tuple(range(0, 2 * n, 2))


def enc_mul(a: Enc, b: Enc) -> Enc:
    """Product with b applied first."""
    return tuple([a[s >> 1] ^ (s & 1) for s in b])


def enc_inv(a: Enc) -> Enc:
    out = [0] * len(a)
    for j, s in enumerate(a):
        out[s >> 1] = 2 * j ^ (s & 1)
    return tuple(out)


def enc_cycle_type(a: Enc) -> tuple[tuple[int, int], ...]:
    """Conjugation invariant: sorted (length, flip parity) over signed cycles."""
    n = len(a)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        w = 0
        flips = 0
        j = start
        while not seen[j]:
            seen[j] = True
            s = a[j]
            flips += s & 1
            j = s >> 1
            w += 1
        out.append((w, flips % 2))
    return tuple(sorted(out))


@cache  # one entry per signed cycle type met, so each type is checked once
def _splits(cycle_type: tuple[tuple[int, int], ...]) -> bool:
    """Whether W(D_n) splits this W(B_n)-class: every signed cycle has even
    length and an even number of flips."""
    return all(w % 2 == 0 and not odd for w, odd in cycle_type)


def enc_dn_class(a: Enc) -> tuple[tuple[int, int], ...]:
    """W(D_n)-conjugation invariant: the signed cycle type, which names the
    W(B_n)-class, plus a trailing pair (0, bit) when that class splits.

    In W(D_n) the W(B_n)-class of a splits into two classes exactly when
    every signed cycle has even length and an even number of flips (Carter,
    "Conjugacy classes in the Weyl group", Compositio Math. 25, 1972); that
    needs n even.  Such an a fixes a sign vector v (a v = v), unique up to
    negation on each cycle, and the cycles have even length, so the parity
    of v's minus count is defined: that is the bit.  t a t^-1 fixes t v,
    whose minus count has the parity of v's plus the number of flips of t:
    even conjugators keep the bit and odd ones, such as c1, swap the two
    classes.  So the key names the W(D_n)-class exactly.
    """
    ctype = enc_cycle_type(a)
    if not _splits(ctype):
        return ctype
    seen = [False] * len(a)
    minus = 0
    for start in range(len(a)):
        sign = 0  # v_start = +1, then v_{a(j)} = (-1)^flip v_j along the cycle
        j = start
        while not seen[j]:
            seen[j] = True
            minus += sign
            s = a[j]
            sign ^= s & 1
            j = s >> 1
    return ctype + ((0, minus & 1),)


def enc_order(a: Enc) -> int:
    """A signed cycle of length w has order 2w with an odd number of flips, else w."""
    order = 1
    for w, odd in enc_cycle_type(a):
        order = lcm(order, 2 * w if odd else w)
    return order


class SignedPerm:
    """Element of W(B_n): a permutation of {1..n} plus a set of sign flips,
    stored as its encoding ``enc``."""

    __slots__ = ("n", "enc")

    def __init__(self, n: int, image: Sequence[int], minus: Iterable[int]):
        image = tuple(image)
        minus = frozenset(minus)
        if sorted(image) != list(range(1, n + 1)):
            raise ValueError(f"image is not a bijection of 1..{n}")
        if not all(1 <= j <= n for j in minus):
            raise ValueError("sign index out of range")
        self.n = n
        self.enc = tuple(2 * (t - 1) + (t in minus) for t in image)

    @classmethod
    def identity(cls, n: int) -> "SignedPerm":
        return cls.from_enc(n, identity_enc(n))

    @classmethod
    def from_cycles(cls, n: int, cycles: Sequence[Sequence[int]], minus: Iterable[int] = ()) -> "SignedPerm":
        image = list(range(1, n + 1))
        seen: set[int] = set()
        for cyc in cycles:
            if len(set(cyc)) != len(cyc):
                raise ValueError(f"repeated index inside cycle {tuple(cyc)}")
            if seen & set(cyc):
                raise ValueError("cycles are not disjoint")
            seen |= set(cyc)
            for a, b in zip(cyc, list(cyc[1:]) + [cyc[0]]):
                if not (1 <= a <= n):
                    raise ValueError(f"index {a} out of range 1..{n}")
                image[a - 1] = b
        return cls(n, image, minus)

    @classmethod
    def from_enc(cls, n: int, enc: Sequence[int]) -> "SignedPerm":
        enc = tuple(enc)
        if len(enc) != n or sorted(s >> 1 for s in enc) != list(range(n)):
            raise ValueError(f"not the encoding of an element of W(B_{n})")
        g = cls.__new__(cls)
        g.n, g.enc = n, enc
        return g

    @property
    def minus(self) -> frozenset[int]:
        """The flipped indices: the targets of the odd entries of ``enc``."""
        return frozenset((s >> 1) + 1 for s in self.enc if s & 1)

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        """Composition with ``other`` applied first."""
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return SignedPerm.from_enc(self.n, enc_mul(self.enc, other.enc))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SignedPerm) and self.enc == other.enc

    def __hash__(self) -> int:
        return hash(self.enc)

    def order(self) -> int:
        return enc_order(self.enc)

    def __repr__(self) -> str:
        return f"SignedPerm({self.n}, {format_element(self)!r})"


def sigma(a: SignedPerm) -> int:
    """The character (-1)^(number of sign flips); W(D_n) is its kernel."""
    return -1 if sum(s & 1 for s in a.enc) % 2 else 1


class SignedCycle(NamedTuple):
    """One cycle of the underlying permutation plus the flips it carries."""

    support: tuple[int, ...]
    minus_indices: frozenset[int]

    @property
    def trivial(self) -> bool:
        return len(self.support) == 1 and not self.minus_indices


def signed_cycles(a: SignedPerm) -> list[SignedCycle]:
    """Disjoint signed cycles covering {1..n}, sorted by smallest support."""
    enc = a.enc
    seen: set[int] = set()
    out: list[SignedCycle] = []
    for start in range(a.n):
        if start in seen:
            continue
        cyc = []
        j = start
        while j not in seen:
            seen.add(j)
            cyc.append(j)
            j = enc[j] >> 1
        flipped = frozenset((enc[k] >> 1) + 1 for k in cyc if enc[k] & 1)
        out.append(SignedCycle(tuple(k + 1 for k in cyc), flipped))
    return out


def lambda_count(a: SignedPerm) -> int:
    """Number of signed cycles with an odd number of flips (always even on W(D_n))."""
    return sum(odd for _, odd in enc_cycle_type(a.enc))


_TOKEN = re.compile(r"\s*(c\s*(\d+)|\(\s*\d+\s*(?:,\s*\d+\s*)+\))")
_CYCLE_INT = re.compile(r"\d+")


def parse_element(text: str, n: int) -> SignedPerm:
    """Parse the element grammar: factors are c<int> or (i,j,...), product
    right-first, multiplied as encodings into one SignedPerm."""
    pos = 0
    out = identity_enc(n)
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"syntax error at position {pos}: {text[pos:]!r}")
        tok = m.group(1)
        factor = list(identity_enc(n))
        if tok.startswith("c"):
            j = int(m.group(2))
            if not 1 <= j <= n:
                raise ValueError(f"index {j} out of range 1..{n}")
            factor[j - 1] |= 1
        else:
            idx = [int(s) for s in _CYCLE_INT.findall(tok)]
            for j in idx:
                if not 1 <= j <= n:
                    raise ValueError(f"index {j} out of range 1..{n}")
            if len(set(idx)) != len(idx):
                raise ValueError(f"repeated index inside cycle {tok}")
            for a, b in zip(idx, idx[1:] + idx[:1]):
                factor[a - 1] = 2 * (b - 1)
        out = enc_mul(out, factor)
        pos = m.end()
    return SignedPerm.from_enc(n, out)


def format_element(a: SignedPerm) -> str:
    """Normal form text: flips ascending, then cycles sorted by smallest member."""
    parts = [f"c{j}" for j in sorted(a.minus)]
    for cyc in signed_cycles(a):
        if len(cyc.support) > 1:
            parts.append("(" + ",".join(str(j) for j in cyc.support) + ")")
    return " ".join(parts)


def wdn_order(n: int) -> int:
    return factorial(n) * 2 ** (n - 1)
