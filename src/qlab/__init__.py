"""Exact-arithmetic dagger compact quantaloids.

Three instances of one matrix-completion kernel: boolean relations,
quantale-valued relations, and quantum relations over operator subspaces
with Gaussian rational entries.

The names of the classical models (`finrel`, `quantale`) resolve on first
use, so `import qlab` loads only the kernel and the qrel path.
"""

import importlib

from .core import (
    StructureError,
    coname_of,
    coname_inverse,
    dimension_of,
    endorelation_class,
    is_affine,
    is_bijective,
    is_dagger_epi,
    is_dagger_iso,
    is_dagger_mono,
    is_injective,
    is_map,
    is_nondegenerate,
    is_perp,
    is_projection,
    is_surjective,
    name_inverse,
    name_of,
    scalar_mul,
    star_of,
    trace_of,
)
from .exact import (
    ExactMatrix,
    GaussianRational,
    OperatorSubspace,
    format_scalar,
    gq,
    parse_scalar,
    span_of,
)
from .matr import (
    MatrInstance,
    MatrMorphism,
    MatrObject,
    qrel_instance,
    rel_instance,
    vrel_instance,
)

__version__ = "0.1.0"

# name -> the module that defines it, imported when the name is first read
_LAZY = {
    "BoolRelation": "finrel",
    "FiniteSet": "finrel",
    "fset": "finrel",
    "BUILTIN_QUANTALES": "quantale",
    "FiniteQuantale": "quantale",
    "VRelation": "quantale",
    "validate_quantale": "quantale",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
