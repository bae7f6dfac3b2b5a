"""Exact linear codes over finite chain rings.

Construction and duality of ring-linear codes, exhaustive weight
distributions, the MacWilliams transform, subset-count identities, power
moments, and exact recovery of full distributions from partial data.
"""

from .code import (
    CodeProfile,
    LinearCode,
    classify,
    code_from_generators,
    dual,
    kernel_code,
)
from .enumeration import (
    WeightDistribution,
    enumeration_cap,
    min_distance,
    render_enumerator,
    weight_distribution,
)
from .errors import CapExceededError, InvariantError
from .identities import (
    DoubleCountCheck,
    IdentityContext,
    PascalSystem,
    RelationCheck,
    check_new_relation,
    double_count_check,
    macwilliams_transform,
    mds_distribution,
    new_relation_report,
    power_moment,
    solve_distribution,
    solve_distribution_pless,
)
from .matrix import (
    RingMatrix,
    StandardForm,
    TypeProfile,
    count_submatrix_types,
    standard_form,
    submatrix,
)
from .ring import ChainRing

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "ChainRing",
    "CodeProfile",
    "DoubleCountCheck",
    "IdentityContext",
    "InvariantError",
    "LinearCode",
    "PascalSystem",
    "RelationCheck",
    "RingMatrix",
    "StandardForm",
    "TypeProfile",
    "WeightDistribution",
    "check_new_relation",
    "classify",
    "code_from_generators",
    "count_submatrix_types",
    "double_count_check",
    "dual",
    "enumeration_cap",
    "kernel_code",
    "macwilliams_transform",
    "mds_distribution",
    "min_distance",
    "new_relation_report",
    "power_moment",
    "render_enumerator",
    "solve_distribution",
    "solve_distribution_pless",
    "standard_form",
    "submatrix",
    "weight_distribution",
]
