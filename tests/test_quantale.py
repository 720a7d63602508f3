"""Finite quantales and V-valued relations, the oracle model for the valued instance."""

import itertools
import random

import pytest

from qlab.finrel import BoolRelation, fset
from qlab.lawcheck import run_suite
from qlab.matr import vrel_instance
from qlab.quantale import (
    BUILTIN_QUANTALES,
    QuantaleError,
    VRelation,
    all_vrelations,
    allegory_witness,
    boolean_quantale,
    chain_min_quantale,
    circ_embed,
    fset_one,
    lukasiewicz3_quantale,
    matr_to_vrelation,
    quantale_from_tables,
    v_power_adjoint,
    v_power_transpose,
    validate_quantale,
    vrelation_to_matr,
)

L3 = lukasiewicz3_quantale()
B = boolean_quantale()


def test_builtin_quantales_validate():
    for name, q in BUILTIN_QUANTALES.items():
        report = validate_quantale(q)
        assert report.ok, (name, report)


def test_lukasiewicz_facts():
    assert L3.is_affine()
    assert L3.is_commutative()
    assert not L3.is_idempotent()
    assert not L3.is_frame()
    assert L3.mul("1/2", "1/2") == "0"
    assert L3.meet("1/2", "1") == "1/2"


# The chain 0 < m < 1 with unit m (not integral), and the four-element Boolean
# algebra with mul = meet, whose meets are not read off a chain.
_C3 = ("0", "m", "1")
C3_NON_INTEGRAL = quantale_from_tables(
    _C3,
    {(a, b): "0" if "0" in (a, b) else b if a == "m" else a if b == "m" else "1"
     for a in _C3 for b in _C3},
    "m",
    join={(a, b): max(a, b, key=_C3.index) for a in _C3 for b in _C3},
)
_SUBSETS = ("", "a", "b", "ab")
DIAMOND = quantale_from_tables(
    _SUBSETS,
    {(x, y): "".join(c for c in "ab" if c in x and c in y) for x in _SUBSETS for y in _SUBSETS},
    "ab",
    join={(x, y): "".join(c for c in "ab" if c in x + y) for x in _SUBSETS for y in _SUBSETS},
)
MEET_QUANTALES = {**BUILTIN_QUANTALES, "c3-non-integral": C3_NON_INTEGRAL, "diamond": DIAMOND}


def reference_meet(q, a, b):
    """The join of every common lower bound, straight from the definition."""
    return q.sup([x for x in q.elements if q.leq(x, a) and q.leq(x, b)])


@pytest.mark.parametrize("name", list(MEET_QUANTALES))
def test_meet_table_is_the_join_of_common_lower_bounds(name):
    q = MEET_QUANTALES[name]
    assert validate_quantale(q).ok
    for a in q.elements:
        for b in q.elements:
            assert q.meet(a, b) == reference_meet(q, a, b), (a, b)
            assert q.leq(q.meet(a, b), a) and q.leq(q.meet(a, b), b)


@pytest.mark.parametrize("name", list(MEET_QUANTALES))
def test_validation_frame_flag_follows_the_meet_definition(name):
    q = MEET_QUANTALES[name]
    flags = validate_quantale(q).flags
    assert flags["frame"] == all(
        q.mul(a, b) == reference_meet(q, a, b) for a in q.elements for b in q.elements
    )
    assert flags["frame"] == (name in ("bool", "chain3", "chain4", "diamond"))


def test_frame_flags():
    for name in ("bool", "chain3", "chain4"):
        assert BUILTIN_QUANTALES[name].is_frame(), name


def test_allegory_witness():
    got = allegory_witness(L3)
    assert got is not None
    v, r = got
    assert not L3.leq(v, L3.mul(v, L3.mul(v, v)))
    assert not r.leq(r.compose(r.dagger().compose(r)))
    for name in ("bool", "chain3", "chain4"):
        assert allegory_witness(BUILTIN_QUANTALES[name]) is None


def test_vrelation_composition_uses_mul_and_sup():
    one = fset_one()
    x = fset("x", "y")
    r = VRelation(L3, one, x, {("*", "x"): "1/2", ("*", "y"): "1/2"})
    s = VRelation(L3, x, one, {("x", "*"): "1/2", ("y", "*"): "1"})
    c = s.compose(r)
    # sup(1/2 . 1/2, 1 . 1/2) = sup(0, 1/2) = 1/2
    assert c.at("*", "*") == "1/2"


def test_vrelation_dagger_and_lattice():
    x = fset("x", "y")
    r = VRelation(L3, x, x, {("x", "y"): "1/2"})
    assert r.dagger().at("y", "x") == "1/2"
    assert r.dagger().dagger() == r
    top = VRelation.top(L3, x, x)
    assert r.leq(top)
    assert r.join(r) == r


def test_circ_embed_functorial():
    a = fset("a", "b")
    x = fset("x", "y")
    r = BoolRelation(a, x, frozenset([("a", "x"), ("b", "y")]))
    s = BoolRelation(x, a, frozenset([("x", "b")]))
    lhs = circ_embed(L3, s.compose(r))
    rhs = circ_embed(L3, s).compose(circ_embed(L3, r))
    assert lhs == rhs
    assert circ_embed(L3, r).dagger() == circ_embed(L3, r.dagger())


def test_all_vrelations_count():
    a = fset("a")
    x = fset("x", "y")
    assert len(list(all_vrelations(L3, a, x))) == 3 ** 2


def test_v_power_adjunction():
    x = fset("x", "y")
    a = fset("a")
    data = v_power_adjoint(L3, x)
    assert len(data.power) == 3 ** 2
    for v in all_vrelations(L3, a, x):
        f = v_power_transpose(data, v)
        assert f.is_function()
        assert data.counit.compose(circ_embed(L3, f)) == v


def test_quantale_from_tables_requires_order_data():
    els = ("0", "1")
    mul = {(a, b): "1" if a == b == "1" else "0" for a in els for b in els}
    with pytest.raises(QuantaleError):
        quantale_from_tables(els, mul, "1")
    leq = {("0", "0"), ("0", "1"), ("1", "1")}
    q = quantale_from_tables(els, mul, "1", leq=leq)
    assert q.join("0", "1") == "1"
    assert validate_quantale(q).ok


@pytest.mark.parametrize("elements, unit, failure", [
    ((), "0", ("no elements", ())),
    (("0",), "1", ("unit outside elements", ("1",))),
], ids=["no-elements", "unit-outside"])
def test_validation_reports_no_elements_and_a_stray_unit(elements, unit, failure):
    table = {(a, b): a for a in elements for b in elements}
    report = validate_quantale(quantale_from_tables(elements, table, unit, join=table))
    assert not report.ok and report.failures == (failure,)


def test_chain_quantale_structure():
    c4 = chain_min_quantale(4)
    assert c4.top == "3"
    assert c4.bottom == "0"
    assert c4.mul("2", "3") == "2"
    assert c4.sup(["1", "3", "0"]) == "3"


# -- the table-reading operations against references through join and mul ----------
#
# VRelation, FiniteQuantale.leq/sup and QuantaleBase read the join and mul
# tables directly; the references below go through q.join and q.mul calls only.
# TABLE_QUANTALES is the four builtins and the non-integral chain.

TABLE_QUANTALES = {**BUILTIN_QUANTALES, "c3-non-integral": C3_NON_INTEGRAL}


def reference_bottom(q):
    return next(x for x in q.elements if all(q.join(x, y) == y for y in q.elements))


def reference_sup(q, items):
    acc = reference_bottom(q)
    for x in items:
        acc = q.join(acc, x)
    return acc


def reference_leq(q, a, b):
    return q.join(a, b) == b


def _sampled_vrelations(q, a, b, rng, n=12):
    rels = list(all_vrelations(q, a, b))
    return rels if len(rels) <= n else rng.sample(rels, n)


@pytest.mark.parametrize("name", list(TABLE_QUANTALES))
def test_quantale_leq_and_sup_match_the_join_calls(name):
    q = TABLE_QUANTALES[name]
    es = q.elements
    assert q.bottom == reference_bottom(q)
    for a, b in itertools.product(es, repeat=2):
        assert q.leq(a, b) == reference_leq(q, a, b)
    for n in range(4):
        for items in itertools.product(es, repeat=n):
            assert q.sup(list(items)) == reference_sup(q, items)


@pytest.mark.parametrize("name", list(TABLE_QUANTALES))
def test_quantale_base_reads_the_tables_like_the_quantale_calls(name):
    q = TABLE_QUANTALES[name]
    base = vrel_instance(q).base
    es = q.elements
    for a, b in itertools.product(es, repeat=2):
        assert base.leq(a, b) == reference_leq(q, a, b)
        assert base.tensor_mor(a, b) == q.mul(a, b)
    for n in range(1, 4):
        for items in itertools.product(es, repeat=n):
            assert base.sup(list(items)) == reference_sup(q, items)


@pytest.mark.parametrize("name", list(TABLE_QUANTALES))
def test_vrelation_operations_match_the_quantale_calls(name):
    q = TABLE_QUANTALES[name]
    rng = random.Random(name)
    one, a, b = fset("*"), fset("1", "0"), fset("y", "x", "z")
    shapes = [(a, b), (b, a), (a, a), (one, a), (b, one)]
    rels = {shape: _sampled_vrelations(q, *shape, rng) for shape in shapes}

    def same(got, src, tgt, values):
        # Equal, and in the order the validating constructor writes.
        want = VRelation(q, src, tgt, values)
        assert got == want and repr(got) == repr(want)

    for (x, y), rs in rels.items():
        for r in rs:
            same(r, x, y, dict(r.values))
            same(r.dagger(), y, x, {(v, u): r.at(u, v) for u in x for v in y})
            for s in rels.get((y, a), []) + rels.get((y, one), []):
                same(s.compose(r), x, s.target, {
                    (u, w): reference_sup(q, [q.mul(r.at(u, v), s.at(v, w)) for v in y])
                    for u in x for w in s.target})
            for s in rs:
                same(r.join(s), x, y, {k: q.join(r.at(*k), s.at(*k)) for k in r.values})
                assert r.leq(s) == all(reference_leq(q, r.at(*k), s.at(*k)) for k in r.values)
            for s in rels[(one, a)][:3]:
                t = r.times(s)
                same(t, t.source, t.target, {
                    ((u1, u2), (v1, v2)): q.mul(r.at(u1, v1), s.at(u2, v2))
                    for u1 in x for u2 in s.source for v1 in y for v2 in s.target})


def test_vrelation_validation_fill_and_stored_hash():
    q = BUILTIN_QUANTALES["chain3"]
    a, b = fset("1", "0"), fset("y", "x")
    with pytest.raises(QuantaleError, match=r"^value 'z' not in quantale$"):
        VRelation(q, a, b, {("1", "x"): "z"})
    r = VRelation(q, a, b, {("0", "y"): "2"})
    assert r.values == {("1", "y"): "0", ("1", "x"): "0", ("0", "y"): "2", ("0", "x"): "0"}
    assert list(r.values) == [("1", "y"), ("1", "x"), ("0", "y"), ("0", "x")]
    # Built by an operation and by the constructor: equal, with equal hashes,
    # also after the first hash has been stored.
    s = r.dagger().dagger()
    assert s is not r and s == r
    assert hash(s) == hash(r) == hash(s) == hash(r)
    assert s == r and len({r, s}) == 1
    other = r.join(VRelation(q, a, b, {("1", "y"): "1"}))
    assert other != r and hash(other) == hash(VRelation(q, a, b, dict(other.values)))


# The chain 0 < a < b < 1 with unit 1, a a = a b = 0, b a = a and b b = b:
# associative, unital and distributive, but not commutative, so a composite
# shows the order of its factors.  quantale_from_tables does not validate it;
# the CLI, which does, refuses it.
_NC = ("0", "a", "b", "1")
_NC_PRODUCTS = {("a", "a"): "0", ("a", "b"): "0", ("b", "a"): "a", ("b", "b"): "b"}
NON_COMMUTATIVE = quantale_from_tables(
    _NC,
    {(x, y): _NC_PRODUCTS.get((x, y), "0" if "0" in (x, y) else y if x == "1" else x)
     for x in _NC for y in _NC},
    "1",
    join={(x, y): max(x, y, key=_NC.index) for x in _NC for y in _NC},
)


def test_composition_multiplies_in_the_kernels_order():
    q = NON_COMMUTATIVE
    assert validate_quantale(q).failures[0][0] == "mul commutative"
    one = fset("*")
    f = VRelation(q, one, one, {("*", "*"): "a"})
    g = VRelation(q, one, one, {("*", "*"): "b"})
    inst = vrel_instance(q)
    mf, mg = vrelation_to_matr(inst, f), vrelation_to_matr(inst, g)
    # g o f multiplies g f = b a = a, the later factor on the left.
    assert g.compose(f).at("*", "*") == "a"
    assert matr_to_vrelation(inst, inst.compose(mg, mf)) == g.compose(f)
    assert f.compose(g).at("*", "*") == "0"
    assert matr_to_vrelation(inst, inst.compose(mf, mg)) == f.compose(g)
    # f (x) g multiplies f g = a b = 0 in both.
    assert inst.tensor_mor(mf, mg) == vrelation_to_matr(inst, f.times(g))
    assert run_suite("vrel-oracle", "vrel", 0, q).ok
