"""Internal order structure: preorders on objects, monotone maps and
monotone relations, the adjoint diamond operations, and the structure the
category of preordered objects inherits (tensor, biproducts, compacts, the
ordered truth-value object, and the downset correspondence).

Everything is generic over the three instances of `MatrInstance`.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Sequence

from .calculus import BiproductData, biproduct_data, omega_data, tuple_into
from .core import is_preorder, star_of
from .errors import QlabError
from .matr import MatrInstance


class OrderError(QlabError):
    pass


class PreorderedObject(NamedTuple):
    obj: Any
    order: Any  # an endomorphism, reflexive and transitive


def preordered(inst: MatrInstance, obj: Any, order: Any) -> PreorderedObject:
    if inst.source(order) != obj or inst.target(order) != obj:
        raise OrderError("the order must be an endomorphism of the object")
    if not is_preorder(inst, order):
        raise OrderError("the order is not a preorder: id <= r and r o r <= r")
    return PreorderedObject(obj, order)


def discrete(inst: MatrInstance, obj: Any) -> PreorderedObject:
    return PreorderedObject(obj, inst.identity(obj))


def converse(inst: MatrInstance, p: PreorderedObject) -> Any:
    """The converse order, written >= below."""
    return inst.dagger(p.order)


# -- monotone maps -----------------------------------------------------------

def monotone_map_conditions(
    inst: MatrInstance, p: PreorderedObject, q: PreorderedObject, f: Any
) -> tuple[bool, bool, bool]:
    """Three equivalent ways to say a map f : X -> Y is monotone."""
    fd = inst.dagger(f)
    fp = inst.compose(f, p.order)
    qf = inst.compose(q.order, f)
    c1 = inst.leq(fp, qf)
    c2 = inst.composite_leq(fp, fd, q.order)
    c3 = inst.leq(p.order, inst.compose(fd, qf))
    return c1, c2, c3


def is_monotone_map(
    inst: MatrInstance, p: PreorderedObject, q: PreorderedObject, f: Any
) -> bool:
    """The first condition, f o <=_X <= <=_Y o f, without building f o <=_X."""
    return inst.composite_leq(f, p.order, inst.compose(q.order, f))


# -- monotone relations and their category ---------------------------------------

def is_monotone_relation(
    inst: MatrInstance, p: PreorderedObject, q: PreorderedObject, v: Any
) -> bool:
    """v : X -> Y is monotone when absorbing the converse orders fixes it."""
    left = inst.compose(converse(inst, q), v)
    right = inst.compose(v, converse(inst, p))
    return inst.equal(left, v) and inst.equal(right, v)


def monotone_saturate(
    inst: MatrInstance, p: PreorderedObject, q: PreorderedObject, v: Any
) -> Any:
    """The least monotone relation above v."""
    return inst.compose(converse(inst, q), inst.compose(v, converse(inst, p)))


def monrel_identity(inst: MatrInstance, p: PreorderedObject) -> Any:
    """The identity of the category of monotone relations: the converse order."""
    return converse(inst, p)


def diamond_lower(inst: MatrInstance, q: PreorderedObject, r: Any) -> Any:
    """r with codomain preordered by q, saturated downward: >=_Y o r."""
    return inst.compose(converse(inst, q), r)


def diamond_upper(inst: MatrInstance, q: PreorderedObject, r: Any) -> Any:
    """The upper companion Y -> X: the dagger composed with the converse order."""
    return inst.compose(inst.dagger(r), converse(inst, q))


def diamond_adjunction_check(
    inst: MatrInstance, p: PreorderedObject, q: PreorderedObject, f: Any
) -> bool:
    """For a monotone map f, the lower and upper companions are adjoint in
    the category of monotone relations."""
    lo = diamond_lower(inst, q, f)
    up = diamond_upper(inst, q, f)
    idp = monrel_identity(inst, p)
    idq = monrel_identity(inst, q)
    return inst.composite_leq(lo, up, idq) and inst.leq(idp, inst.compose(up, lo))


# -- inherited structure ---------------------------------------------------------

def preorder_tensor(
    inst: MatrInstance, p: PreorderedObject, q: PreorderedObject
) -> PreorderedObject:
    return preordered(
        inst, inst.tensor_obj(p.obj, q.obj), inst.tensor_mor(p.order, q.order)
    )


class MonRelBiproduct(NamedTuple):
    ordered: PreorderedObject
    data: BiproductData
    injections: tuple
    projections: tuple


def monrel_biproduct(inst: MatrInstance, ps: Sequence[PreorderedObject]) -> MonRelBiproduct:
    """Biproducts of preordered objects: the order is the direct sum of the
    orders, the structural maps are the plain ones saturated by the converse
    orders."""
    data = biproduct_data(inst, [p.obj for p in ps])
    order_parts = [
        inst.compose(i, inst.compose(p.order, inst.dagger(i)))
        for i, p in zip(data.injections, ps)
    ]
    order = inst.sup(order_parts, data.total, data.total)
    total = preordered(inst, data.total, order)
    ge_total = converse(inst, total)
    injections = tuple(inst.compose(ge_total, i) for i in data.injections)
    projections = tuple(
        inst.compose(converse(inst, p), pr) for p, pr in zip(ps, data.projections)
    )
    return MonRelBiproduct(total, data, injections, projections)


class MonRelCompact(NamedTuple):
    dual: PreorderedObject
    eta: Any
    epsilon: Any


def monrel_compact(inst: MatrInstance, p: PreorderedObject) -> MonRelCompact:
    """Compact structure on a preordered object: the dual carries the
    transposed order; the unit and counit absorb the converse orders."""
    x = p.obj
    xd = inst.dual_obj(x)
    ge = converse(inst, p)
    le_star = star_of(inst, p.order)
    # The transpose commutes with the dagger: (>=)* = dagger((<=)*).
    ge_star = inst.dagger(le_star)
    dual = preordered(inst, xd, le_star)
    eta = inst.compose(inst.tensor_mor(ge_star, ge), inst.eta(x))
    epsilon = inst.compose(inst.epsilon(x), inst.tensor_mor(ge, ge_star))
    return MonRelCompact(dual, eta, epsilon)


# -- the ordered truth-value object ------------------------------------------------

class OmegaOrder(NamedTuple):
    data: BiproductData
    ordered: PreorderedObject


def omega_order(inst: MatrInstance) -> OmegaOrder:
    """I (+) I ordered with 'false' below 'true'."""
    data = omega_data(inst)
    p_false, p_true = data.projections
    i_false, i_true = data.injections
    bump = inst.compose(i_true, p_false)
    order = inst.join2(inst.identity(data.total), bump)
    return OmegaOrder(data, preordered(inst, data.total, order))


def omega_eval_identities(inst: MatrInstance, om: OmegaOrder) -> list[tuple[str, bool]]:
    """The projection identities that make the ordered truth values tick.

    p_true o le and p_false o ge have the unit of V in both entries, so they
    equal p_false v p_true, which is the top morphism only when V is integral
    (its unit is top).
    """
    p_false, p_true = om.data.projections
    le = om.ordered.order
    ge = inst.dagger(le)
    both = inst.join2(p_false, p_true)
    return [
        ("p_false o le = p_false", inst.equal(inst.compose(p_false, le), p_false)),
        ("p_true o le = p_false v p_true", inst.equal(inst.compose(p_true, le), both)),
        ("p_true o ge = p_true", inst.equal(inst.compose(p_true, ge), p_true)),
        ("p_false o ge = p_false v p_true", inst.equal(inst.compose(p_false, ge), both)),
    ]


def monotone_map_to_downset(inst: MatrInstance, data: BiproductData, f: Any) -> Any:
    """A monotone map X -> Omega becomes a relation X -> I by projecting on
    'true' of `data`, the biproduct I (+) I; the result absorbs the converse
    order of X."""
    return inst.compose(data.projections[1], f)


def downset_to_monotone_map(
    inst: MatrInstance,
    data: BiproductData,
    r: Any,
    complement: Callable[[Any], Any],
) -> Any:
    """The inverse correspondence: pair the complement of r (boolean on rel,
    `qrel.orthocomplement` on qrel) with r."""
    return tuple_into(inst, data, [complement(r), r])


def is_downset_relation(inst: MatrInstance, p: PreorderedObject, r: Any) -> bool:
    """r : X -> I stands for a downset when it absorbs the converse order."""
    return inst.equal(inst.compose(r, converse(inst, p)), r)
