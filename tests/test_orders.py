"""Preordered objects, monotone relations, and the ordered truth-value object."""

import pytest

from qlab.finrel import BoolRelation, all_functions, all_relations, fset, relation_to_matr
from qlab.matr import rel_instance, set_to_object
from qlab.orders import (
    OrderError,
    diamond_adjunction_check,
    diamond_lower,
    diamond_upper,
    discrete,
    downset_to_monotone_map,
    is_downset_relation,
    is_monotone_map,
    is_monotone_relation,
    monotone_map_conditions,
    monotone_map_to_downset,
    monrel_biproduct,
    monrel_compact,
    monrel_identity,
    monotone_saturate,
    omega_eval_identities,
    omega_order,
    preorder_tensor,
    preordered,
)

REL = rel_instance()
X = fset("x", "y", "z")
A = fset("a", "b")


def _chain(s):
    labels = sorted(s.labels, key=repr)
    pairs = frozenset(
        (labels[i], labels[j]) for i in range(len(labels)) for j in range(i, len(labels))
    )
    return relation_to_matr(REL, BoolRelation(s, s, pairs))


def _rel(src, tgt, pairs):
    return relation_to_matr(REL, BoolRelation(src, tgt, frozenset(pairs)))


PX = preordered(REL, set_to_object(REL, X), _chain(X))
PA = preordered(REL, set_to_object(REL, A), _chain(A))


def test_preordered_validates():
    not_reflexive = _rel(X, X, [("x", "y")])
    with pytest.raises(OrderError):
        preordered(REL, set_to_object(REL, X), not_reflexive)
    not_transitive = _rel(X, X, [(l, l) for l in X] + [("x", "y"), ("y", "z")])
    with pytest.raises(OrderError):
        preordered(REL, set_to_object(REL, X), not_transitive)


def test_monotone_map_conditions_agree():
    for f in all_functions(X, A):
        m = relation_to_matr(REL, f)
        conds = monotone_map_conditions(REL, PX, PA, m)
        assert len(set(conds)) == 1
        assert is_monotone_map(REL, PX, PA, m) == conds[0]


def test_monotone_relation_saturation():
    for r in all_relations(A, X):
        m = relation_to_matr(REL, r)
        sat = monotone_saturate(REL, PA, PX, m)
        assert is_monotone_relation(REL, PA, PX, sat)
        if is_monotone_relation(REL, PA, PX, m):
            assert REL.equal(sat, m)


def test_monrel_identity_absorbs():
    idx = monrel_identity(REL, PX)
    for r in all_relations(A, X):
        m = monotone_saturate(REL, PA, PX, relation_to_matr(REL, r))
        assert REL.equal(REL.compose(idx, m), m)


def test_diamond_adjunction_for_monotone_maps():
    count = 0
    for f in all_functions(X, A):
        m = relation_to_matr(REL, f)
        if not is_monotone_map(REL, PX, PA, m):
            continue
        count += 1
        assert diamond_adjunction_check(REL, PX, PA, m)
        lo = diamond_lower(REL, PA, m)
        up = diamond_upper(REL, PA, m)
        assert is_monotone_relation(REL, PX, PA, lo)
        assert is_monotone_relation(REL, PA, PX, up)
    assert count > 0


def test_monrel_biproduct_laws():
    bp = monrel_biproduct(REL, [PX, PA])
    ids = [monrel_identity(REL, p) for p in (PX, PA)]
    id_total = monrel_identity(REL, bp.ordered)
    for k in range(2):
        got = REL.compose(bp.projections[k], bp.injections[k])
        assert REL.equal(got, ids[k])
    cross = REL.compose(bp.projections[0], bp.injections[1])
    assert REL.equal(cross, REL.bottom(PA.obj, PX.obj))
    glued = REL.sup(
        [REL.compose(i, p) for i, p in zip(bp.injections, bp.projections)],
        bp.ordered.obj,
        bp.ordered.obj,
    )
    assert REL.equal(glued, id_total)


def test_monrel_compact_snake_equals_identity_order():
    mc = monrel_compact(REL, PX)
    x = PX.obj
    ge = monrel_identity(REL, PX)
    lhs = REL.compose(
        REL.tensor_mor(mc.epsilon, ge),
        REL.compose(
            REL.dagger(REL.assoc(x, REL.dual_obj(x), x)),
            REL.compose(REL.tensor_mor(ge, mc.eta), REL.dagger(REL.runit(x))),
        ),
    )
    lhs = REL.compose(REL.lunit(x), lhs)
    # the snake composite equals the monotone-relation identity, which is the
    # converse order, not the ambient identity
    assert REL.equal(lhs, ge)
    assert not REL.equal(lhs, REL.identity(x))


def test_preorder_tensor_is_preorder():
    t = preorder_tensor(REL, PX, PA)
    # construction went through the validating constructor
    assert t.obj == REL.tensor_obj(PX.obj, PA.obj)


def test_omega_eval_identities():
    om = omega_order(REL)
    for name, ok in omega_eval_identities(REL, om):
        assert ok, name


def test_downset_correspondence_counts():
    om = omega_order(REL)
    unit = REL.unit_obj()

    def complement(r):
        top = REL.top(REL.source(r), unit)
        keys = set(k for k, _ in top.blocks) - set(k for k, _ in r.blocks)
        return REL.mor(REL.source(r), unit, {k: REL.base.quantale.unit for k in keys})

    down = 0
    for r in REL.enum_hom(PX.obj, unit):
        if not is_downset_relation(REL, PX, r):
            continue
        down += 1
        f = downset_to_monotone_map(REL, om.data, r, complement)
        assert is_monotone_map(REL, PX, om.ordered, f)
        assert REL.equal(monotone_map_to_downset(REL, om.data, f), r)
    # a 3-chain has 4 downsets
    assert down == 4


def test_discrete_order_is_identity():
    d = discrete(REL, set_to_object(REL, X))
    assert REL.equal(d.order, REL.identity(d.obj))
