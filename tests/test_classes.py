import ast
import math
import re
from pathlib import Path

import pytest

from conich1.classes import (
    PARAM_KINDS,
    ClassSpec,
    build_group,
    class_generators,
    field_labeling,
    smallest_param_tuples,
    verify_class,
)
from conich1.conditions import relative_minimality
from conich1.groups import abelian_invariants, all_subgroups, are_conjugate, closure, enc_mul, enc_order, sylow2
from conich1.signedperm import format_element, parse_element

CATALOG_DOC = Path(__file__).resolve().parent.parent / "docs" / "class_catalog.md"


def test_field_labeling_f5():
    L = field_labeling(5, 1)
    assert L.lab((0,)) == 5
    assert [L.lab((a,)) for a in range(1, 5)] == [1, 2, 3, 4]
    assert L.gamma == (2,)  # smallest generator of F_5^*


def test_field_labeling_f7_generator_cycle():
    L = field_labeling(7, 1)
    assert L.elem(L.gamma_labels()[1]) == L.gamma == (3,)
    assert L.gamma_labels() == [1, 3, 2, 6, 4, 5]


def test_field_labeling_f9():
    L = field_labeling(3, 2)
    assert L.q == 9
    assert L.lab((0, 1)) == 3  # the class of x
    assert L.lab((1, 1)) == 4  # the class of 1 + x
    labels = sorted(L.lab(L.elem(k)) for k in range(1, 10))
    assert labels == list(range(1, 10))


def test_field_labeling_rejects_bad_p():
    with pytest.raises(ValueError):
        field_labeling(2, 1)
    with pytest.raises(ValueError):
        field_labeling(9, 1)
    with pytest.raises(ValueError):
        field_labeling(5, 0)


def test_class_spec_validation():
    for args, message in (
        ((25, {"n": 1}), "class id must be 1..24"),
        ((0,), "class id must be 1..24"),
        ((1, {"p": 3}), "class 1 needs parameters ('n',), got ['p']"),
        ((1,), "class 1 needs parameters ('n',), got []"),
        ((2, {"p": 4, "r": 1}), "p must be an odd prime"),
        ((2, {"p": 2, "r": 1}), "p must be an odd prime"),
        ((1, {"n": 0}), "parameter n must be a positive integer"),
        ((2, {"p": 3, "r": "1"}), "parameter r must be a positive integer"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ClassSpec(*args)


def test_class_spec_is_immutable_and_hashes_by_key():
    a = ClassSpec(4, {"n": 1, "p": 3, "r": 1})
    b = ClassSpec(4, {"r": 1, "p": 3, "n": 1})
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a.key() == (4, (("n", 1), ("p", 3), ("r", 1)))
    assert a != ClassSpec(4, {"n": 2, "p": 3, "r": 1}) and a != ClassSpec(6, {"n": 1, "p": 3, "r": 1})
    for name, value in (("id", 6), ("params", {})):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
    assert (a.id, a.params) == (4, {"n": 1, "p": 3, "r": 1})


def test_class1_generators_catalog_form():
    gens, N, profile = class_generators(ClassSpec(1, {"n": 1}))
    assert N == 4 and profile == (3, 1)
    assert gens[0] == parse_element("c1 c2 c3 c4 (2,3)", 4)
    assert gens[1] == parse_element("(1,2,3)", 4)


def test_class2_f5_and_f7():
    gens, N, profile = class_generators(ClassSpec(2, {"p": 5, "r": 1}))
    assert N == 6 and profile == (5, 1)
    assert closure(gens).order == 20
    gens, N, _ = class_generators(ClassSpec(2, {"p": 7, "r": 1}))
    assert gens[0] == parse_element("c1 c2 c3 c4 c5 c6 c7 c8 (1,3,2,6,4,5)", 8)
    assert gens[1] == parse_element("(1,2,3,4,5,6,7)", 8)


def test_class11_shape():
    gens, N, profile = class_generators(ClassSpec(11, {"n": 1}))
    assert N == 5 and len(gens) == 3 and profile == (3, 2)


def test_verify_class_18_sylow_is_dihedral():
    rep = verify_class(ClassSpec(18, {"n": 1}))
    assert rep.all_ok and rep.sylow2_order == 8
    P = sylow2(build_group(ClassSpec(18, {"n": 1})))
    orders = sorted(map(enc_order, P.enc_set))
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]  # D_4, not Q_8 or C_8


def test_verify_class_19():
    assert verify_class(ClassSpec(19, {"p": 3, "r": 1})).all_ok


def test_class7_divisibility_remark():
    # 2n2+1 | 2n1+1 collapses the group to D_{2n1+1}
    grp = build_group(ClassSpec(7, {"n1": 4, "n2": 1}))
    assert grp.order == 18  # D_9
    # coprime block sizes give the class-5 group
    a = build_group(ClassSpec(7, {"n1": 1, "n2": 2}))
    b = build_group(ClassSpec(5, {"n1": 1, "n2": 2}))
    assert a.order == b.order == 30
    assert are_conjugate(a, b)


def test_class5_order_formula():
    for n1, n2 in [(1, 1), (1, 2), (2, 2)]:
        grp = build_group(ClassSpec(5, {"n1": n1, "n2": n2}))
        assert grp.order == (2 * n1 + 1) * (2 * n2 + 1) * 2


def test_class14_class16_identification():
    # 4 | p^r - 1: class 14 is the plain Frobenius group and class 16 adds a
    # central flip; otherwise both close to the same C_{p^r} : C_{2(p^r-1)}
    for p, r in [(3, 1), (5, 1), (7, 1), (3, 2)]:
        q = p**r
        g14 = build_group(ClassSpec(14, {"p": p, "r": r}))
        g16 = build_group(ClassSpec(16, {"p": p, "r": r}))
        if (q - 1) % 4 == 0:
            assert g14.order == q * (q - 1)
            assert g16.order == 2 * q * (q - 1)
            # central flip with a Frobenius complement
            gens = g16.spanning_encs
            center = {e for e in g16.enc_set if all(enc_mul(e, g) == enc_mul(g, e) for g in gens)}
            assert len(center) == 2
            assert any(
                H.order == q * (q - 1) and len(H.enc_set & center) == 1
                for H in all_subgroups(g16).subgroups
            )
        else:
            assert g14.enc_set == g16.enc_set
            assert g14.order == 2 * q * (q - 1)


def test_remark_trivial_summand_elimination():
    # inside the class-3 ambient the three-generator subgroup fixes the shared
    # index, so relative minimality fails; dropping it (class 5) repairs it
    gens, N, _ = class_generators(ClassSpec(3, {"n1": 1, "n2": 1}))
    a, b, a2, b2 = gens
    sub = closure([a * a2, b, b2], n=N)
    assert not relative_minimality(sub)
    assert relative_minimality(build_group(ClassSpec(5, {"n1": 1, "n2": 1})))


def test_building_block_products_pass():
    for spec in (ClassSpec(3, {"n1": 1, "n2": 2}), ClassSpec(4, {"n": 1, "p": 3, "r": 1})):
        rep = verify_class(spec)
        assert rep.all_ok


def test_smallest_param_tuples_deterministic():
    assert [s.params for s in smallest_param_tuples(1)] == [{"n": 1}, {"n": 2}]
    assert [s.params for s in smallest_param_tuples(2)] == [
        {"p": 3, "r": 1},
        {"p": 5, "r": 1},
    ]
    assert [s.params for s in smallest_param_tuples(3)] == [
        {"n1": 1, "n2": 1},
        {"n1": 1, "n2": 2},
    ]
    specs = smallest_param_tuples(4)
    assert [s.params for s in specs] == [
        {"n": 1, "p": 3, "r": 1},
        {"n": 2, "p": 3, "r": 1},
    ]


def test_all_generators_stay_in_wdn():
    from conich1.signedperm import sigma

    for cid in range(1, 25):
        for spec in smallest_param_tuples(cid, count=2):
            gens, N, _ = class_generators(spec)
            assert all(g.n == N and sigma(g) == 1 for g in gens)


def _catalog_entries():
    # id -> {"parameters": ..., "ambient rank": ..., ..., "example": ..., "generators": [...]}
    entries = {}
    for section in CATALOG_DOC.read_text().split("\n## Class ")[1:]:
        head, *lines = section.splitlines()
        cid, name = head.split(": ", 1)
        entry = entries[int(cid)] = {"name": name, "generators": []}
        for line in lines:
            if line.startswith("  - `"):
                entry["generators"].append(line.strip()[3:-1])
            elif line.startswith("- example at "):
                entry["example"] = line[len("- example at "):]
            elif line.startswith("- "):
                key, value = line[2:].split(": ", 1)
                entry[key] = value
    return entries


def _eval_formula(text, params):
    # "2n1+1" -> 2*n1+1, "p^r" -> p**r
    expr = re.sub(r"(\d)(?=[a-z(])", r"\1*", text).replace("^", "**")
    return eval(expr, {"__builtins__": {}, "lcm": math.lcm, "factorial": math.factorial}, dict(params))


# the order of each named group, with its subscript as "{}"
_NAMED_ORDERS = {"C": "({})", "D": "(2*({}))", "F": "(({0})*({0}-1))", "S": "factorial({})"}


def _name_orders(name, params):
    """The orders a catalog name implies at ``params``, one per alternative
    of "or": C_{m} = m, D_{m} = 2m, F_{q} = q(q-1), S_k = k!, "x" and ":"
    multiply, ^k is a power and A wr C_2 = 2|A|^2; the remarks "(one
    orbit)" and "(two generators)" are ignored."""
    name = name.replace(" (one orbit)", "").replace(" (two generators)", "")
    name = re.sub(r"(\w_(?:\{[^{}]*\}|\d+)) wr C_2", r"2*\1^2", name)
    orders = []
    for alternative in name.split(" or "):
        expr = re.sub(
            r"([CDFS])_(?:\{([^{}]*)\}|(\d+))", lambda m: _NAMED_ORDERS[m[1]].format(m[2] or m[3]), alternative
        )
        orders.append(_eval_formula(expr.replace(" x ", "*").replace(" : ", "*"), params))
    return orders


def _sylow2_matches(shape, P):
    invariants = abelian_invariants(P)
    if shape == "D_4":
        return P.order == 8 and math.prod(invariants) < P.order
    if math.prod(invariants) != P.order:
        return False
    return {
        "C_2": invariants == (2,),
        "C_4": invariants == (4,),
        "C_2 x C_2": invariants == (2, 2),
        "C_2 x cyclic": invariants == (2, P.order // 2),
        "cyclic": invariants == (P.order,),
    }[shape]


def test_class_catalog_doc_matches_the_code():
    # docs/class_catalog.md is the only copy of the catalog
    entries = _catalog_entries()
    assert sorted(entries) == list(range(1, 25))
    named_shapes = named_orders = 0
    for cid, entry in entries.items():
        assert entry["parameters"] == ", ".join(PARAM_KINDS[cid]), cid
        spec = smallest_param_tuples(cid, 1)[0]
        gens, N, _ = class_generators(spec)
        assert entry["example"] == f"{spec.params} (rank {N}):", cid
        assert entry["generators"] == [format_element(g) for g in gens], cid
        shape = entry["Sylow 2-subgroup"].split(" (inside")[0]
        for spec in smallest_param_tuples(cid, 2):
            _, N, profile = class_generators(spec)
            assert _eval_formula(entry["ambient rank"], spec.params) == N, (cid, spec.params)
            orbits = sorted((_eval_formula(t, spec.params) for t in entry["orbit profile"].split(", ")), reverse=True)
            assert orbits == sorted(profile, reverse=True), (cid, spec.params)
            grp = build_group(spec)
            if not entry["name"].startswith("*"):  # class 8's name is text only
                assert grp.order in _name_orders(entry["name"], spec.params), (cid, spec.params, entry["name"])
                named_orders += 1
            if not shape.startswith("inside"):
                assert _sylow2_matches(shape, sylow2(grp)), (cid, spec.params, shape)
                named_shapes += 1
    assert (named_orders, named_shapes) == (46, 42)


def test_d4_sylow_classes_11_18_22_24():
    # the four families whose Sylow 2-subgroup is the dihedral group of
    # order 8; its H^1 vanishes even though it is nonabelian
    from conich1.cohomology import h1_oracle

    for cid in (11, 18, 22, 24):
        spec = smallest_param_tuples(cid, count=1)[0]
        P = sylow2(build_group(spec))
        assert P.order == 8
        assert sorted(map(enc_order, P.enc_set)) == [1, 2, 2, 2, 2, 2, 4, 4]
        assert h1_oracle(P).f2_rank == 0
