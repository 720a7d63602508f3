"""Biproduct calculus, distributors, and quoting of finite sets."""

import pytest

from qlab.calculus import (
    biproduct_data,
    cotuple_from,
    delta,
    direct_sum,
    distributor,
    matrix_element,
    nabla,
    omega_data,
    quote_is_full,
    quote_product_cell,
    superposition_sum,
    tuple_into,
)
from qlab import core
from qlab.core import StructureError, is_dagger_iso, star_of
from qlab.finrel import (
    BoolRelation,
    all_relations,
    fset,
    matr_to_relation,
    product_set,
    relation_to_matr,
)
from qlab.matr import (
    MatrError,
    qrel_instance,
    rel_instance,
    set_to_object,
)
from qlab.quantale import lukasiewicz3_quantale
from qlab.matr import vrel_instance

REL = rel_instance()
QREL = qrel_instance()
VREL = vrel_instance(lukasiewicz3_quantale())

A = fset("a", "b")
X = fset("x", "y", "z")


def test_tupling_and_cotupling():
    xa = set_to_object(REL, A)
    xx = set_to_object(REL, X)
    data = biproduct_data(REL, [xa, xx])
    f = relation_to_matr(REL, BoolRelation(A, A, frozenset([("a", "b")])))
    g = relation_to_matr(REL, BoolRelation(A, X, frozenset([("b", "x")])))
    t = tuple_into(REL, data, [f, g])
    assert REL.equal(REL.compose(data.projections[0], t), f)
    assert REL.equal(REL.compose(data.projections[1], t), g)
    h = relation_to_matr(REL, BoolRelation(X, A, frozenset([("y", "a")])))
    c = cotuple_from(REL, data, [REL.dagger(f), h])
    assert REL.equal(REL.compose(c, data.injections[1]), h)


@pytest.mark.parametrize("inst", [REL, QREL], ids=["rel", "qrel"])
def test_empty_tuple_and_cotuple_are_refused(inst):
    # Zero summands: there is no component to read the source or target from.
    data = biproduct_data(inst, [])
    with pytest.raises(StructureError, match="at least one summand"):
        tuple_into(inst, data, [])
    with pytest.raises(StructureError, match="at least one summand"):
        cotuple_from(inst, data, [])


@pytest.mark.parametrize("inst", [REL, VREL, QREL], ids=["rel", "vrel", "qrel"])
def test_empty_distributor_is_the_zero_iso(inst):
    # X (x) 0 is 0: the distributor of the empty family has no blocks.
    x = inst.obj([("u", 2)]) if inst is QREL else set_to_object(inst, A)
    d, outer, inner = distributor(inst, x, [])
    assert d.blocks == ()
    assert inst.source(d) == outer.total
    assert inst.target(d) == inst.tensor_obj(x, inner.total)
    assert is_dagger_iso(inst, d)


def test_superposition_is_join_in_rel():
    xa = set_to_object(REL, A)
    for r in all_relations(A, A):
        for s in all_relations(A, A):
            f = relation_to_matr(REL, r)
            g = relation_to_matr(REL, s)
            assert REL.equal(superposition_sum(REL, f, g), REL.join2(f, g))


def test_delta_nabla_dagger():
    xa = set_to_object(REL, A)
    d, data = delta(REL, xa)
    n, _ = nabla(REL, xa)
    assert REL.equal(REL.dagger(d), n)


def test_direct_sum_blocks():
    xa = set_to_object(REL, A)
    f = relation_to_matr(REL, BoolRelation(A, A, frozenset([("a", "a")])))
    g = relation_to_matr(REL, BoolRelation(A, A, frozenset([("b", "a")])))
    s, src_data, tgt_data = direct_sum(REL, [f, g])
    for k, h in enumerate((f, g)):
        got = REL.compose(
            REL.dagger(tgt_data.injections[k]),
            REL.compose(s, src_data.injections[k]),
        )
        assert REL.equal(got, h)
    off = REL.compose(
        REL.dagger(tgt_data.injections[0]),
        REL.compose(s, src_data.injections[1]),
    )
    assert REL.equal(off, REL.bottom(xa, xa))


def test_matrix_element():
    xa = set_to_object(REL, A)
    data = biproduct_data(REL, [xa, xa])
    f = relation_to_matr(REL, BoolRelation(A, A, frozenset([("a", "b")])))
    g = relation_to_matr(REL, BoolRelation(A, A, frozenset([("b", "b")])))
    t = tuple_into(REL, data, [f, g])
    assert REL.equal(matrix_element(REL, t, data.projections[0], REL.identity(xa)), f)


def test_distributor_is_dagger_iso():
    for inst in (REL, QREL):
        x = (
            set_to_object(inst, A)
            if inst is REL
            else inst.obj([("u", 2)])
        )
        ys = [x, x]
        d, outer, inner = distributor(inst, x, ys)
        assert is_dagger_iso(inst, d)


def test_quote_roundtrip_and_functoriality():
    for inst in (REL, VREL, QREL):
        for r in all_relations(A, A):
            m = relation_to_matr(inst, r)
            assert matr_to_relation(m) == r
        for r in all_relations(A, A):
            for s in all_relations(A, A):
                lhs = relation_to_matr(inst, s.compose(r))
                rhs = inst.compose(relation_to_matr(inst, s), relation_to_matr(inst, r))
                assert inst.equal(lhs, rhs)
            assert inst.equal(
                relation_to_matr(inst, r.dagger()), inst.dagger(relation_to_matr(inst, r))
            )


@pytest.mark.parametrize("m, n, injections, surjections", [(2, 3, 6, 0), (3, 2, 0, 6), (2, 2, 2, 2)])
def test_map_predicates_match_the_boolean_oracle(m, n, injections, surjections):
    a, b = fset(*range(m)), fset(*"xyz"[:n])
    found = [0, 0]
    for r in all_relations(a, b):
        f = relation_to_matr(REL, r)
        image = [y for _, y in r.pairs]
        injective = r.is_function() and len(set(image)) == m
        surjective = r.is_function() and set(image) == set(b)
        assert core.is_injective(REL, f) == injective
        assert core.is_surjective(REL, f) == surjective
        assert core.is_bijective(REL, f) == (injective and surjective)
        found[0] += injective
        found[1] += surjective
    assert found == [injections, surjections]


def test_is_projection_matches_the_endorelation_flag():
    a = fset(0, 1)
    found = 0
    for r in all_relations(a, a):
        f = relation_to_matr(REL, r)
        projection = r.dagger() == r and r.compose(r) == r
        assert core.is_projection(REL, f) == projection
        assert ("projection" in core.endorelation_class(REL, f)) == projection
        found += projection
    # empty, {00}, {11}, {00, 11} and the full relation
    assert found == 5


def test_quote_product_cell_iso():
    for inst in (REL, QREL):
        cell = quote_product_cell(inst, A, X)
        assert is_dagger_iso(inst, cell)
        assert cell.target == set_to_object(inst, product_set(A, X))


def test_quote_fullness_flags():
    assert quote_is_full(REL)
    assert quote_is_full(QREL)
    assert not quote_is_full(VREL)


def test_omega_data_shape():
    data = omega_data(REL)
    assert len(data.injections) == 2
    assert len(data.total.components) == 2


def _full_relation(n):
    a = fset(*range(n))
    return relation_to_matr(REL, BoolRelation(a, a, frozenset((i, j) for i in a for j in a)))


def test_star_refuses_oversized_rel_cells():
    # Each rel cell costs 12 scalars: the full relation on 32 elements would
    # need 12 * 32 * 32 * (32 + 32 * 32) > 2**20 of them.
    with pytest.raises(MatrError, match="12976128 scalars .* above the bound 1048576"):
        star_of(REL, _full_relation(32))


def test_star_bound_on_rel_lies_between_16_and_17_elements():
    # On 16 elements (835,584 charged) star runs in about 0.3 s and 45 MB.
    assert core._star_scalars(REL, _full_relation(16)) == 12 * 16 * 16 * (16 + 16 * 16)
    assert core._star_scalars(REL, _full_relation(16)) <= core._STAR_BOUND
    with pytest.raises(MatrError, match="1061208 scalars .* above the bound"):
        star_of(REL, _full_relation(17))
