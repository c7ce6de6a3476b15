"""What the package needs before it computes anything, with no dependencies.

``Record``, the immutable base of the value classes; ``CurveSpecError``; and the
mini-language's integer syntax, ``_INTEGER``, and its comma-separated list, ``_int_values``,
which ``cli`` reads for ``modules`` and ``invariants`` for ``pq(…)`` and ``sg(…)``.
"""

import re

# the integer syntax of sg(…) and of CLI integers: int() would also take
# '+3', '1_0' and '٣'
_INTEGER = re.compile(r"-?[0-9]+")


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
