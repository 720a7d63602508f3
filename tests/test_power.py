"""Power objects: the powerset adjunction and its valued and quoted forms."""

import pytest

from qlab import core, finrel
from qlab.finrel import (
    BoolRelation,
    all_relations,
    curry,
    exponential_via_power,
    fset,
    function_graph,
    power_counit_check,
    power_functor_check,
    power_transpose,
    power_uniqueness_check,
    powerset_adjoint,
    relation_to_matr,
)
from qlab.matr import qrel_instance, rel_instance, set_to_object, vrel_instance
from qlab.quantale import (
    BUILTIN_QUANTALES,
    all_vrelations,
    fset_one,
    lukasiewicz3_quantale,
    quantale_from_tables,
    v_power_adjoint,
    v_power_counit_check,
    validate_quantale,
    vrelation_to_matr,
)

REL = rel_instance()
QREL = qrel_instance()

A = fset("a", "b")
X = fset("x", "y")


def test_power_adjunction_exhaustive():
    data = powerset_adjoint(X)
    data_a = powerset_adjoint(A)
    for v in all_relations(A, X):
        assert power_counit_check(data, v)
        assert power_uniqueness_check(data, v)
        assert power_functor_check(data_a, data, v)


def test_power_functor_check_sees_a_broken_transpose(monkeypatch):
    """With every transpose the constant-empty graph, P(g) stays a function
    but membership is natural along it only for the empty relation."""
    def empty_graph(data, v):
        return function_graph(v.source, data.power, lambda a: ())

    monkeypatch.setattr(finrel, "power_transpose", empty_graph)
    data, data_a = powerset_adjoint(X), powerset_adjoint(A)
    holds = [v for v in all_relations(A, X) if power_functor_check(data_a, data, v)]
    assert holds == [BoolRelation(A, X, frozenset())]


def test_quoted_power_in_both_instances():
    # The factorization survives quoting: the transpose quotes to a map f
    # with member o f = quote(v).
    data = powerset_adjoint(X)
    for inst in (REL, QREL):
        member = relation_to_matr(inst, data.membership)
        for v in all_relations(A, X):
            f = relation_to_matr(inst, power_transpose(data, v))
            assert core.is_map(inst, f)
            assert inst.equal(inst.compose(member, f), relation_to_matr(inst, v))


def test_v_power_counit_exhaustive_small():
    q = lukasiewicz3_quantale()
    a = fset("a")
    data = v_power_adjoint(q, X)
    assert len(data.power) == len(q.elements) ** len(X)
    for v in all_vrelations(q, a, X):
        assert v_power_counit_check(data, v)


# Two quantales on the subsets of Z2 = {0, 1}, joined by union: P(Z2), with
# the Minkowski sum as multiplication and unit {0}, and the Boolean frame 2x2,
# with intersection and unit {0, 1}.
_SUBSETS = {"0": frozenset(), "e": frozenset({0}), "u": frozenset({1}), "T": frozenset({0, 1})}


def _on_subsets_of_z2(mul, unit):
    name = {s: k for k, s in _SUBSETS.items()}
    pairs = [(a, s, b, t) for a, s in _SUBSETS.items() for b, t in _SUBSETS.items()]
    return quantale_from_tables(list(_SUBSETS), {(a, b): name[mul(s, t)] for a, s, b, t in pairs},
                                unit, join={(a, b): name[s | t] for a, s, b, t in pairs})


def v_power_factorization_counts(q):
    """For each v : 1 -> {x}, the number of maps g : 1 -> V^{x} with
    counit o g = v."""
    inst = vrel_instance(q)
    x = fset("x")
    data = v_power_adjoint(q, x)
    counit = vrelation_to_matr(inst, data.counit)
    maps = [g for g in inst.enum_hom(set_to_object(inst, fset_one()), counit.source)
            if core.is_map(inst, g)]
    return [sum(inst.compose(counit, g) == vrelation_to_matr(inst, v) for g in maps)
            for v in all_vrelations(q, fset_one(), x)]


@pytest.mark.parametrize("q, counts", [
    pytest.param(_on_subsets_of_z2(lambda s, t: frozenset((a + b) % 2 for a in s for b in t), "e"),
                 [2, 2, 2, 2], id="P(Z2)"),
    pytest.param(_on_subsets_of_z2(frozenset.intersection, "T"), [4, 4, 4, 4], id="2x2"),
] + [pytest.param(q, [1] * len(q.elements), id=name) for name, q in BUILTIN_QUANTALES.items()])
def test_v_power_factors_uniquely_only_on_the_builtins(q, counts):
    # V^X is not a power object on P(Z2) or on 2x2: the transpose of a
    # V-relation is not the only map through which it factors.
    assert validate_quantale(q).ok
    assert v_power_factorization_counts(q) == counts


def test_exponential_curry():
    from qlab.finrel import all_functions, product_set

    Y = fset(0, 1)
    Z = fset("z", "w")
    ed = exponential_via_power(X, Y)
    for g in all_functions(product_set(Z, X), Y):
        cg = curry(ed, g)
        assert cg.is_function()
        for z in Z:
            for x in X:
                lam = cg.apply(z)
                assert ed.evaluation.apply((lam, x)) == g.apply((z, x))
