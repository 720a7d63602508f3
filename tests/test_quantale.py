"""Finite quantales and V-valued relations, the oracle model for the valued instance."""

import pytest

from qlab.finrel import BoolRelation, fset
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
    quantale_from_tables,
    v_power_adjoint,
    v_power_transpose,
    validate_quantale,
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


def test_chain_quantale_structure():
    c4 = chain_min_quantale(4)
    assert c4.top == "3"
    assert c4.bottom == "0"
    assert c4.mul("2", "3") == "2"
    assert c4.sup(["1", "3", "0"]) == "3"
