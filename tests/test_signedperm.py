import random
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from conich1.groups import enc_conjugation
from conich1.signedperm import (
    SignedPerm,
    enc_cycle_type,
    enc_dn_class,
    enc_inv,
    enc_mul,
    enc_order,
    format_element,
    identity_enc,
    lambda_count,
    paired_enc,
    parse_element,
    sigma,
    signed_cycles,
)
from helpers import (
    act_symbol,
    as_tuple,
    parse_element_by_factors,
    tuple_conjugation,
    tuple_cycle_type,
    tuple_dn_class,
    tuple_inv,
    tuple_mul,
    tuple_order,
)


def reassemble(n, cycles):
    # product of disjoint signed cycles; inverse of signed_cycles
    factors = (SignedPerm.from_cycles(n, [c.support] if len(c.support) > 1 else [], c.minus_indices) for c in cycles)
    return reduce(mul, factors, SignedPerm.identity(n))


def rand_elem(rng, n, even=False):
    img = list(range(1, n + 1))
    rng.shuffle(img)
    while True:
        minus = [j for j in range(1, n + 1) if rng.random() < 0.4]
        if not even or len(minus) % 2 == 0:
            return SignedPerm(n, img, minus)


def test_parse_normal_form():
    g = parse_element("c1 c2 (1,2)", 4)
    assert g.minus == {1, 2}
    assert g == SignedPerm(4, (2, 1, 3, 4), (1, 2))


def test_parse_commutation():
    # tau c_j = c_{tau(j)} tau with tau = (1,2), j = 1
    assert parse_element("(1,2) c1", 4) == parse_element("c2 (1,2)", 4)


def test_parse_identity_and_errors():
    assert parse_element("", 4) == SignedPerm.identity(4)
    with pytest.raises(ValueError):
        parse_element("(1,2", 4)
    with pytest.raises(ValueError):
        parse_element("c5", 4)
    with pytest.raises(ValueError):
        parse_element("(1,5)", 4)
    with pytest.raises(ValueError):
        parse_element("(1,2,1)", 4)
    with pytest.raises(ValueError):
        parse_element("x3", 4)


def _random_element_text(rng, n):
    """A seeded element text: flips and cycles with indices up to n + 1
    (0 and n + 1 out of range), cycles that may repeat an index, stray
    characters that break the grammar, and random spacing."""
    def idx():
        return str(rng.choice([0, n + 1]) if rng.random() < 0.05 else rng.randint(1, n))

    def space():
        return rng.choice(["", "", " ", "  "])

    def factor():
        roll = rng.random()
        if roll < 0.4:
            return "c" + space() + idx()
        if roll < 0.9:
            body = (space() + "," + space()).join(idx() for _ in range(rng.randint(2, 4)))
            return "(" + space() + body + space() + ")"
        return rng.choice(["x", "(1)", "(1,", ",", "c", "c-1", "()", "7", "(2,3"])

    return space() + space().join(factor() + rng.choice(["", " "]) for _ in range(rng.randint(0, 5))) + space()


def test_parse_element_matches_the_factor_products():
    # the parser multiplies factor encodings and builds one SignedPerm; the
    # checker builds every factor as a SignedPerm and multiplies them
    rng = random.Random(27)
    outcomes = {}
    for _ in range(20000):
        n = rng.randint(1, 7)
        text = _random_element_text(rng, n)
        try:
            want = parse_element_by_factors(text, n).enc
        except ValueError as exc:
            want = str(exc)
        try:
            got = parse_element(text, n).enc
        except ValueError as exc:
            got = str(exc)
        assert got == want, (text, n)
        kind = "parsed" if isinstance(want, bytes) else want.split(" ")[0]
        outcomes[kind] = outcomes.get(kind, 0) + 1
    assert set(outcomes) == {"parsed", "index", "repeated", "syntax"}
    assert min(outcomes.values()) >= 1000, outcomes


def test_multiply_examples():
    c1 = parse_element("c1", 4)
    assert c1 * c1 == SignedPerm.identity(4)
    t = parse_element("(1,2)", 4)
    assert t * c1 == parse_element("c2 (1,2)", 4)
    rng = random.Random(0)
    for _ in range(50):
        g = rand_elem(rng, 5).enc
        assert enc_mul(g, enc_inv(g)) == enc_mul(enc_inv(g), g) == identity_enc(5)


def test_multiply_rank_mismatch():
    with pytest.raises(ValueError):
        parse_element("c1", 3) * parse_element("c1", 4)


def test_sigma_examples():
    assert sigma(parse_element("c1 c2", 4)) == 1
    assert sigma(parse_element("c1 (1,2)", 4)) == -1  # outside W(D_n)
    assert sigma(SignedPerm.identity(4)) == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 7), st.randoms(use_true_random=False))
def test_sigma_homomorphism(n, rng):
    a, b = rand_elem(rng, n), rand_elem(rng, n)
    assert sigma(a * b) == sigma(a) * sigma(b)


def test_signed_cycles_examples():
    cyc = signed_cycles(parse_element("c1 c2 (1,2) (3,4)", 4))
    assert [(c.support, set(c.minus_indices)) for c in cyc] == [((1, 2), {1, 2}), ((3, 4), set())]
    cyc = signed_cycles(parse_element("c1 c2 c3 c4", 4))
    assert all(len(c.support) == 1 and len(c.minus_indices) == 1 for c in cyc)
    g = parse_element("c1 c2 c3 c4 c5 c6 c7 c8 (1,3,2,6,4,5)", 8)
    cyc = signed_cycles(g)
    assert cyc[0].support == (1, 3, 2, 6, 4, 5) and len(cyc[0].minus_indices) == 6
    assert [(c.support, len(c.minus_indices)) for c in cyc[1:]] == [((7,), 1), ((8,), 1)]


def test_signed_cycles_partition_and_reassemble():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 9)
        g = rand_elem(rng, n)
        cyc = signed_cycles(g)
        support = sorted(j for c in cyc for j in c.support)
        assert support == list(range(1, n + 1))
        assert reassemble(n, cyc) == g
        trivial_flags = [c.trivial for c in cyc]
        assert all(
            (len(c.support) == 1 and not c.minus_indices) == f for c, f in zip(cyc, trivial_flags)
        )


def test_lambda_examples():
    assert lambda_count(parse_element("c1 c2 c3 c4", 4)) == 4
    assert lambda_count(parse_element("c1 c2 (1,2)", 4)) == 0
    assert lambda_count(parse_element("c1 c2", 4)) == 2


def test_lambda_even_on_wdn():
    rng = random.Random(6)
    for _ in range(300):
        g = rand_elem(rng, rng.randint(2, 9), even=True)
        assert lambda_count(g) % 2 == 0


def test_conjugate_examples():
    c1 = parse_element("c1", 4).enc
    conj = enc_conjugation(parse_element("(1,2)", 4).enc)
    assert conj(c1) == parse_element("c2", 4).enc
    g = parse_element("c1 c2 (2,3)", 4).enc
    assert enc_conjugation(identity_enc(4))(g) == g
    assert conj(identity_enc(4)) == identity_enc(4)
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(3, 8)
        a, tt = rand_elem(rng, n), rand_elem(rng, n)
        b = SignedPerm.from_enc(n, enc_conjugation(tt.enc)(a.enc))
        assert b == tt * a * SignedPerm.from_enc(n, enc_inv(tt.enc))
        assert sigma(b) == sigma(a)
        assert lambda_count(b) == lambda_count(a)
        shape = lambda x: sorted(
            (len(c.support), len(c.minus_indices) % 2) for c in signed_cycles(x)
        )
        assert shape(a) == shape(b)


def test_act_symbol_examples():
    # the test-side symbol action, which other tests read as their reference
    assert act_symbol(parse_element("c1", 4), (1, 1)) == (1, -1)
    assert act_symbol(parse_element("(1,2)", 4), (1, 1)) == (2, 1)
    assert act_symbol(parse_element("c2 (1,2)", 4), (1, 1)) == (2, -1)


def test_act_symbol_respects_multiplication():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(2, 7)
        a, b = rand_elem(rng, n), rand_elem(rng, n)
        for j in range(1, n + 1):
            for s in (1, -1):
                assert act_symbol(a * b, (j, s)) == act_symbol(a, act_symbol(b, (j, s)))


def test_roundtrip_parse_format():
    rng = random.Random(10)
    for _ in range(10000):
        n = rng.randint(1, 10)
        g = rand_elem(rng, n)
        assert parse_element(format_element(g), n) == g


def test_enc_roundtrip():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 9)
        g = rand_elem(rng, n)
        h = SignedPerm.from_enc(n, g.enc)
        assert h == g and hash(h) == hash(g)
        assert SignedPerm(n, [(s >> 1) + 1 for s in g.enc[::2]], g.minus) == g
        assert g.enc == paired_enc(bytes(as_tuple(g.enc)))


@pytest.mark.parametrize(
    "enc",
    [
        (0, 1, 2, 3, 4, 5), (0, 2, 4, 6),  # wrong length: a table has 2n entries
        (0, 1, 0, 1, 4, 5, 6, 7), (0, 1, 3, 2, 3, 2, 6, 7),  # a repeated symbol
        (0, 1, 2, 4, 3, 5, 6, 7), (1, 1, 2, 3, 4, 5, 6, 7),  # a broken pairing
        (0, 1, 2, 3, 4, 5, 8, 9), (0, 1, 2, 3, 4, 5, 6, 255),  # a symbol >= 2n
        (0, 1, 2, 3, 4, 5, 6, -1),  # not a symbol at all
    ],
)
def test_from_enc_rejects_malformed_input(enc):
    with pytest.raises(ValueError):
        SignedPerm.from_enc(4, enc)


def rand_split(rng, n):
    """An element of W(D_n), n even, whose W(B_n)-class W(D_n) splits:
    signed cycles of length 2 or 4, each with an even number of flips."""
    idx = list(range(1, n + 1))
    rng.shuffle(idx)
    cycles, minus = [], []
    while idx:
        w = 4 if len(idx) % 4 == 0 and rng.random() < 0.5 else 2
        cyc, idx = idx[:w], idx[w:]
        cycles.append(cyc)
        minus += rng.sample(cyc, rng.choice([0, 2]))
    return SignedPerm.from_cycles(n, cycles, minus)


@pytest.mark.parametrize("n", [1, 2, 5, 9, 64])
def test_table_kernels_match_the_tuple_reference(n):
    # the bytes kernels against the tuple kernels they replaced, on seeded
    # random elements of W(B_n); at n = 64 a table holds 128 symbols
    rng = random.Random(n)
    for _ in range(300 if n < 64 else 60):
        a, b, t = rand_elem(rng, n), rand_elem(rng, n), rand_elem(rng, n)
        if n % 2 == 0 and rng.random() < 0.3:
            a = rand_split(rng, n)
        A, B, T = as_tuple(a.enc), as_tuple(b.enc), as_tuple(t.enc)
        assert as_tuple(enc_mul(a.enc, b.enc)) == tuple_mul(A, B)
        assert as_tuple(enc_inv(a.enc)) == tuple_inv(A)
        assert as_tuple(enc_conjugation(t.enc)(a.enc)) == tuple_conjugation(T)(A)
        assert enc_cycle_type(a.enc) == tuple_cycle_type(A)
        assert enc_dn_class(a.enc) == tuple_dn_class(A)
        assert enc_order(a.enc) == tuple_order(A)
        assert sigma(a) == (-1) ** sum(s & 1 for s in A)
        # tables order as their tuple encodings do
        assert (a.enc < b.enc) == (A < B) and (a.enc == b.enc) == (A == B)
    assert identity_enc(n) == paired_enc(bytes(range(0, 2 * n, 2)))


@pytest.mark.parametrize(
    "image, minus",
    [
        ((1, 2, 3), ()), ((1, 2, 3, 4, 5), ()),  # wrong length
        ((1, 1, 3, 4), ()),  # a repeated target
        ((1, 2, 3, 5), ()), ((1, 2, 3, 4), (5,)), ((1, 2, 3, 4), (0,)),  # an index out of range
    ],
)
def test_constructor_rejects_malformed_input(image, minus):
    with pytest.raises(ValueError):
        SignedPerm(4, image, minus)


def test_order():
    assert parse_element("c1", 3).order() == 2
    assert parse_element("c1 (1,2)", 3).order() == 4
    assert parse_element("(1,2,3)", 3).order() == 3
    rng = random.Random(12)
    for _ in range(100):
        g = rand_elem(rng, rng.randint(2, 8))
        k = g.order()
        power = g.enc
        for i in range(1, k):
            assert power != identity_enc(g.n)
            power = enc_mul(power, g.enc)
        assert power == identity_enc(g.n)
