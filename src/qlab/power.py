"""Power objects and the adjunctions they witness.

For boolean relations the power object is the powerset: relations A -> X
correspond to functions A -> P(X), with the membership relation as counit.
For quantale-valued relations the power object of a one-point set is the
quantale itself, and in general the set of V-valued predicates.  For quantum
relations the classical truth-value object I (+) I classifies effects.

The direct constructions live in finrel/quantale; this module lifts them to
the matrix instances and packages the universal-property checks.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from .core import is_map
from .finrel import (
    BoolRelation,
    FiniteSet,
    PowersetData,
    power_on_morphisms,
    power_transpose,
    powerset_adjoint,
)
from .matr import MatrInstance, relation_to_matr, set_to_object
from .quantale import VPowerData, VRelation, v_power_transpose


def power_counit_check(data: PowersetData, v: BoolRelation) -> bool:
    """v : A -> X factors as membership after the graph of its transpose."""
    f = power_transpose(data, v)
    return data.membership.compose(f) == v


def power_uniqueness_check(data: PowersetData, v: BoolRelation) -> bool:
    """The transpose is the only function with that factorization."""
    from .finrel import all_functions

    f = power_transpose(data, v)
    count = 0
    for g in all_functions(v.source, data.power):
        if data.membership.compose(g) == v:
            count += 1
            if g != f:
                return False
    return count == 1


def power_functor_check(
    data_x: PowersetData, data_y: PowersetData, g: BoolRelation
) -> bool:
    """P(g) is a function, and membership is natural along it:
    membership_Y o P(g) = g o membership_X."""
    pg = power_on_morphisms(data_x, data_y, g)
    return pg.is_function() and data_y.membership.compose(pg) == g.compose(data_x.membership)


def v_power_counit_check(data: VPowerData, v: VRelation) -> bool:
    """A V-valued relation A -> X factors as the counit after its transpose."""
    from .quantale import circ_embed

    f = circ_embed(data.quantale, v_power_transpose(data, v))
    return data.counit.compose(f) == v


class QuotedPower(NamedTuple):
    """The powerset adjunction transported into a matrix instance."""

    data: PowersetData
    base_obj: Any
    power_obj: Any
    membership: Any


def quoted_power(inst: MatrInstance, a: FiniteSet) -> QuotedPower:
    data = powerset_adjoint(a)
    return QuotedPower(
        data,
        set_to_object(inst, a),
        set_to_object(inst, data.power),
        relation_to_matr(inst, data.membership),
    )


def quoted_power_check(inst: MatrInstance, qp: QuotedPower, v: BoolRelation) -> bool:
    """The factorization survives quoting: member o quote(transpose) = quote(v),
    and the transpose quotes to a map."""
    f = power_transpose(qp.data, v)
    fq = relation_to_matr(inst, f)
    if not is_map(inst, fq):
        return False
    return inst.equal(inst.compose(qp.membership, fq), relation_to_matr(inst, v))

