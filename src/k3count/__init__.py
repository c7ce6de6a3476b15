"""Rational-curve counts on K3 surfaces.

The coefficient e(g) of the reciprocal 24th-power Euler product predicts
the number of rational curves in a g-dimensional linear system, each
curve weighted by the product of the epsilon invariants of its singular
points.  This package computes every number in that story exactly: the
e(g) sequence, epsilon by enumeration, by closed form, and by the ADE
table, and the resulting curve multiplicities.

``import k3count`` imports no submodule: each public name below imports
the submodule that owns it on first access (PEP 562), so a caller pays
start-up only for the layers it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the public API, by the submodule that owns each name
_EXPORTS = {
    "invariants": (
        "Ade", "CurveRecord", "CurveSpecError", "GenusSumReport", "MultiBranch",
        "NODE", "PlanarPQ", "Route", "SemigroupPoint", "Singularity",
        "branches_of_ade", "check_genus_sum", "epsilon_ade", "epsilon_pq",
        "epsilon_semigroup", "multiplicity", "parse_curve", "parse_curve_file",
        "parse_singularity",
    ),
    "numsg": ("InfiniteComplementError", "NumericalSemigroup", "count_necklaces",
              "semigroup_from_generators"),
    "qseries": (
        "NonInvertibleError", "TruncatedSeries", "euler_product", "series_inv",
        "series_mul", "series_one", "yau_zaslow_coefficients",
    ),
    "semimodule": (
        "GammaModule", "InvalidModuleError", "NecklaceProfile", "delta_to_necklace",
        "enumerate_delta_sets", "minimal_generators", "necklace_to_delta",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__():
    return sorted(globals().keys() | _OWNER.keys())
