"""Exact-arithmetic dagger compact quantaloids.

Three instances of one matrix-completion kernel: boolean relations,
quantale-valued relations, and quantum relations over operator subspaces
with Gaussian rational entries.
"""

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
from .finrel import BoolRelation, FiniteSet, fset
from .matr import (
    MatrInstance,
    MatrMorphism,
    MatrObject,
    qrel_instance,
    rel_instance,
    vrel_instance,
)
from .quantale import BUILTIN_QUANTALES, FiniteQuantale, VRelation, validate_quantale

__version__ = "0.1.0"
