"""Rational-curve counts on K3 surfaces.

The coefficient e(g) of the reciprocal 24th-power Euler product predicts
the number of rational curves in a g-dimensional linear system, each
curve weighted by the product of the epsilon invariants of its singular
points.  This package computes every number in that story exactly: the
e(g) sequence, epsilon by enumeration, by closed form, and by the ADE
table, and the resulting curve multiplicities.
"""

import types as _types

from .invariants import (
    Ade,
    CurveRecord,
    CurveSpecError,
    GenusSumReport,
    MultiBranch,
    NODE,
    PlanarPQ,
    Route,
    SemigroupPoint,
    Singularity,
    branches_of_ade,
    check_genus_sum,
    epsilon_ade,
    epsilon_pq,
    epsilon_semigroup,
    multiplicity,
    parse_curve,
    parse_curve_file,
    parse_singularity,
)
from .numsg import (
    InfiniteComplementError,
    NumericalSemigroup,
    semigroup_from_generators,
)
from .qseries import (
    NonInvertibleError,
    TruncatedSeries,
    euler_product,
    series_inv,
    series_mul,
    series_one,
    yau_zaslow_coefficients,
)
from .semimodule import (
    GammaModule,
    InvalidModuleError,
    NecklaceProfile,
    count_necklaces,
    delta_to_necklace,
    enumerate_delta_sets,
    minimal_generators,
    necklace_to_delta,
)

__version__ = "0.1.0"

# the public API is what the imports above bind, less the submodules that
# importing them binds too (invariants, numsg, qseries, semimodule)
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
