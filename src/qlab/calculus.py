"""Biproduct calculus: tuples, cotuples, direct sums, matrix elements,
superposition sums, the distributor, the coherence and fullness of quoting
(the quoting maps themselves are matr.set_to_object and
finrel.relation_to_matr), and classical structure through biproducts of the
tensor unit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, NamedTuple, Sequence

from .core import StructureError, is_perp
from .matr import MatrInstance, MatrMorphism, quote_pairs, set_to_object

if TYPE_CHECKING:
    from .finrel import FiniteSet


class BiproductData(NamedTuple):
    total: Any
    injections: tuple
    projections: tuple


def biproduct_data(inst: MatrInstance, objs: Sequence[Any]) -> BiproductData:
    total, injections, projections = inst.biproduct(objs)
    return BiproductData(total, tuple(injections), tuple(projections))


def tuple_into(inst: MatrInstance, data: BiproductData, fs: Sequence[Any]) -> Any:
    """<f_k> : X -> (+) Y_k, the sup of i_k o f_k."""
    if len(fs) != len(data.injections):
        raise StructureError("one component morphism per summand")
    src = inst.source(fs[0])
    parts = [inst.compose(i, f) for i, f in zip(data.injections, fs)]
    return inst.sup(parts, src, data.total)


def cotuple_from(inst: MatrInstance, data: BiproductData, fs: Sequence[Any]) -> Any:
    """[f_k] : (+) X_k -> Y, the sup of f_k o p_k."""
    if len(fs) != len(data.projections):
        raise StructureError("one component morphism per summand")
    tgt = inst.target(fs[0])
    parts = [inst.compose(f, p) for f, p in zip(fs, data.projections)]
    return inst.sup(parts, data.total, tgt)


def delta(inst: MatrInstance, x: Any) -> tuple[Any, BiproductData]:
    """The diagonal <id, id> : X -> X (+) X."""
    data = biproduct_data(inst, [x, x])
    one = inst.identity(x)
    return tuple_into(inst, data, [one, one]), data


def nabla(inst: MatrInstance, x: Any) -> tuple[Any, BiproductData]:
    """The codiagonal [id, id] : X (+) X -> X."""
    data = biproduct_data(inst, [x, x])
    one = inst.identity(x)
    return cotuple_from(inst, data, [one, one]), data


def direct_sum(
    inst: MatrInstance, fs: Sequence[Any]
) -> tuple[Any, BiproductData, BiproductData]:
    """(+) f_k together with the source and target biproduct data."""
    src = biproduct_data(inst, [inst.source(f) for f in fs])
    tgt = biproduct_data(inst, [inst.target(f) for f in fs])
    parts = [
        inst.compose(i, inst.compose(f, p))
        for i, f, p in zip(tgt.injections, fs, src.projections)
    ]
    return inst.sup(parts, src.total, tgt.total), src, tgt


def matrix_element(inst: MatrInstance, f: Any, p: Any, i: Any) -> Any:
    """p_l o f o i_k, the (k, l) entry of f against biproduct data."""
    return inst.compose(p, inst.compose(f, i))


def superposition_sum(inst: MatrInstance, f: Any, g: Any) -> Any:
    """nabla o (f (+) g) o delta, which coincides with the join f v g."""
    d, _ = delta(inst, inst.source(f))
    n, _ = nabla(inst, inst.target(f))
    s, _, _ = direct_sum(inst, [f, g])
    return inst.compose(n, inst.compose(s, d))


def distributor(
    inst: MatrInstance, x: Any, ys: Sequence[Any]
) -> tuple[Any, BiproductData, BiproductData]:
    """The canonical iso (+) (X (x) Y_k) -> X (x) ((+) Y_k).

    Its dagger is the inverse, exhibiting the tensor as distributing over
    biproducts.
    """
    inner = biproduct_data(inst, list(ys))
    outer = biproduct_data(inst, [inst.tensor_obj(x, y) for y in ys])
    idx = inst.identity(x)
    comps = [inst.tensor_mor(idx, i) for i in inner.injections]
    return cotuple_from(inst, outer, comps), outer, inner


# -- quoting: coherence and fullness ---------------------------------------------

def quote_product_cell(inst: MatrInstance, a: FiniteSet, b: FiniteSet) -> MatrMorphism:
    """The coherence iso quote(A) (x) quote(B) -> quote(A x B)."""
    pairs = [(x, y) for x in a.labels for y in b.labels]
    unit = inst.base.unit_obj()
    src = inst.tensor_obj(set_to_object(inst, a), set_to_object(inst, b))
    tgt = inst.obj([(p, unit) for p in pairs])
    return quote_pairs(inst, src, tgt, [(p, p) for p in pairs])


def quote_is_full(inst: MatrInstance) -> bool:
    """Quoting is full exactly when the instance has just the two trivial scalars."""
    return len(inst.scalars()) == 2


# -- classical structure through biproducts of the unit -------------------------

def is_map_onto_quoted_set(
    inst: MatrInstance, f: MatrMorphism, data: BiproductData
) -> bool:
    """f : X -> quote(A) is a map iff its components X -> I are pairwise
    trace-orthogonal and their sup is the top morphism X -> I."""
    unit = inst.unit_obj()
    comps = []
    for p in data.projections:
        summand = inst.target(p)
        if len(summand.components) != 1:
            raise StructureError("summands of a quoted set are single unit components")
        iso = quote_pairs(inst, summand, unit, [(summand.components[0][0], "*")])
        comps.append(inst.compose(iso, inst.compose(p, f)))
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            if not is_perp(inst, comps[i], comps[j]):
                return False
    src = inst.source(f)
    total = inst.sup(comps, src, unit)
    return inst.equal(total, inst.top(src, unit))


def omega_data(inst: MatrInstance) -> BiproductData:
    """The classical truth-value object I (+) I."""
    unit = inst.unit_obj()
    return biproduct_data(inst, [unit, unit])
