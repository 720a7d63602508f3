"""Power objects: the powerset adjunction and its valued and quoted forms."""

from qlab import finrel, power
from qlab.finrel import (
    BoolRelation,
    all_relations,
    curry,
    exponential_via_power,
    fset,
    function_graph,
    powerset_adjoint,
)
from qlab.matr import qrel_instance, rel_instance
from qlab.power import (
    power_counit_check,
    power_functor_check,
    power_uniqueness_check,
    quoted_power,
    quoted_power_check,
    v_power_counit_check,
)
from qlab.quantale import all_vrelations, lukasiewicz3_quantale, v_power_adjoint

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
    monkeypatch.setattr(power, "power_transpose", empty_graph)
    data, data_a = powerset_adjoint(X), powerset_adjoint(A)
    holds = [v for v in all_relations(A, X) if power_functor_check(data_a, data, v)]
    assert holds == [BoolRelation(A, X, frozenset())]


def test_quoted_power_in_both_instances():
    for inst in (REL, QREL):
        qp = quoted_power(inst, X)
        for v in all_relations(A, X):
            assert quoted_power_check(inst, qp, v)


def test_v_power_counit_exhaustive_small():
    q = lukasiewicz3_quantale()
    a = fset("a")
    data = v_power_adjoint(q, X)
    assert len(data.power) == len(q.elements) ** len(X)
    for v in all_vrelations(q, a, X):
        assert v_power_counit_check(data, v)


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
