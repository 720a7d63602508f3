"""The field-only records: value equality and hash, immutability, and a
`Name(field=...)` repr.  Each is built twice from the same inputs, so the two
values share no object but their inputs."""

import pytest

from qlab import calculus, lawcheck, orders, power
from qlab.finrel import (
    BoolRelation,
    DownsetData,
    ExponentialData,
    PowersetData,
    downset_adjoint,
    exponential_via_power,
    fset,
    powerset_adjoint,
)
from qlab.matr import rel_instance, relation_to_matr, set_to_object
from qlab.quantale import (
    BUILTIN_QUANTALES,
    ValidationReport,
    VPowerData,
    v_power_adjoint,
    validate_quantale,
)

REL = rel_instance()
X = fset("x", "y")
CHAIN = BoolRelation(X, X, frozenset({("x", "x"), ("x", "y"), ("y", "y")}))


def _preordered():
    return orders.preordered(REL, set_to_object(REL, X), relation_to_matr(REL, CHAIN))


# name -> (class, a function building one value, hashable?)
RECORDS = {
    "BiproductData": (calculus.BiproductData,
                      lambda: calculus.biproduct_data(REL, [set_to_object(REL, X)] * 2), True),
    "PowersetData": (PowersetData, lambda: powerset_adjoint(X), True),
    "DownsetData": (DownsetData, lambda: downset_adjoint(X, CHAIN), True),
    "ExponentialData": (ExponentialData, lambda: exponential_via_power(X, fset(0, 1)), True),
    "PreorderedObject": (orders.PreorderedObject, _preordered, True),
    "MonRelBiproduct": (orders.MonRelBiproduct,
                        lambda: orders.monrel_biproduct(REL, [_preordered()] * 2), True),
    "MonRelCompact": (orders.MonRelCompact, lambda: orders.monrel_compact(REL, _preordered()), True),
    "OmegaOrder": (orders.OmegaOrder, lambda: orders.omega_order(REL), True),
    "QuotedPower": (power.QuotedPower, lambda: power.quoted_power(REL, X), True),
    # Its flags are a dict and a suite report's results a list, so neither
    # hashes: the same as before they became records.
    "ValidationReport": (ValidationReport,
                         lambda: validate_quantale(BUILTIN_QUANTALES["chain3"]), False),
    "VPowerData": (VPowerData, lambda: v_power_adjoint(BUILTIN_QUANTALES["chain3"], X), True),
    "SuiteReport": (lawcheck.SuiteReport, lambda: lawcheck.run_suite("dagger", "rel"), False),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_give_equal_values_and_hashes(name):
    cls, build, hashable = RECORDS[name]
    a, b = build(), build()
    assert type(a) is cls and a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    first = cls._fields[0]
    assert a._replace(**{first: "other"}) != a


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    cls, build, _ = RECORDS[name]
    value = build()
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_the_class_and_each_field(name):
    cls, build, _ = RECORDS[name]
    value = build()
    fields = ", ".join(f"{f}={getattr(value, f)!r}" for f in cls._fields)
    assert repr(value) == f"{name}({fields})"
