"""Rational-curve counts on K3 surfaces.

The coefficient e(g) of the reciprocal 24th-power Euler product predicts
the number of rational curves in a g-dimensional linear system, each
curve weighted by the product of the epsilon invariants of its singular
points.  This package computes every number in that story exactly: the
e(g) sequence, epsilon by enumeration, by closed form, and by the ADE
table, and the resulting curve multiplicities.

``import k3count`` imports no submodule: each public name below imports
the submodule that owns it on first access (PEP 562), so a caller pays
start-up only for the layers it uses.  The root itself holds what every
layer shares: ``Record``, the immutable base of the value classes;
``CurveSpecError``; and the mini-language's integer syntax, ``_INTEGER``,
and its comma-separated list, ``_int_values``, which ``cli`` reads for
``modules`` and ``invariants`` for ``pq(…)`` and ``sg(…)``.
"""

import re as _re
from importlib import import_module as _import_module

__version__ = "0.1.0"

# the integer syntax of sg(…) and of CLI integers: int() would also take
# '+3', '1_0' and '٣'
_INTEGER = _re.compile(r"-?[0-9]+")


class CurveSpecError(ValueError):
    """A singularity or curve description failed to parse."""


def _int_values(body: str, token: str) -> list[int]:
    items = [piece.strip() for piece in body.split(",")]
    if not all(_INTEGER.fullmatch(piece) for piece in items):
        raise CurveSpecError(f"expected a comma-separated integer list in {token!r}")
    return [int(piece) for piece in items]


class Record:
    """A value compared, hashed and printed over the attributes in ``_fields``.

    A subclass's ``__init__`` checks its arguments and stores every
    attribute with ``vars(self).update(...)``, as ``functools.cached_property``
    does; afterwards assigning or deleting an attribute raises.  An attribute
    derived from the fields may be stored outside ``_fields``.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# the public API, by the submodule that owns each name; CurveSpecError,
# defined above, is listed under invariants, which re-exports it
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
