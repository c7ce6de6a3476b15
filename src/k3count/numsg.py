"""Numerical semigroups: additive submonoids of N with finite complement.

The finite complement (the gap set) is a complete description: its size
is the genus, its maximum is the Frobenius number, and every larger
integer is a member.  For the monomial curve singularity with value
semigroup Gamma, the genus equals the local delta invariant.

A semigroup stores ``apery``, the least member of each class mod its
smallest generator m, found in O(m^2 + m*|gens|) steps however large
the Frobenius number is.  Selmer's formulas read the genus, sum(w // m),
and the Frobenius number, max(w) - m, off this Apéry set; ``gap_set`` is
built on first read.  ``semigroup_from_generators`` returns one shared
immutable instance per distinct generator set.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from math import gcd
from operator import index

from ._record import Record


class InfiniteComplementError(ValueError):
    """The generators have gcd > 1, so the complement in N is infinite."""


def _normalized_generators(gens) -> tuple[int, ...]:
    gen_list = sorted({index(g) for g in gens})
    if not gen_list:
        raise ValueError("at least one generator is required")
    if gen_list[0] < 1:
        raise ValueError(f"generators must be positive, got {gen_list[0]}")
    if reduce(gcd, gen_list) != 1:
        raise InfiniteComplementError(
            f"gcd of generators {gen_list} exceeds 1; the complement is infinite"
        )
    return tuple(gen_list)


def _apery(gen_list: tuple[int, ...]) -> tuple[int, ...]:
    # least[r] is the least member congruent to r mod m = gen_list[0].
    # Classes are settled in increasing order of their least member
    # (Dijkstra over the m classes, scanning for the next one).
    m = gen_list[0]
    least = [None] * m
    tentative = {0: 0}
    while tentative:
        r = min(tentative, key=tentative.__getitem__)
        w = least[r] = tentative.pop(r)
        for g in gen_list[1:]:
            c = (w + g) % m
            if least[c] is None and (c not in tentative or w + g < tentative[c]):
                tentative[c] = w + g
    return tuple(least)


def gaps_below(least, m: int) -> tuple[int, ...]:
    """Sorted gaps of the union of w + m*N over ``least``, one w per class mod m."""
    return tuple(sorted(n for w in least for n in range(w % m, w, m)))


class NumericalSemigroup(Record):
    """A semigroup given by its generators; ``apery`` is computed, ``gap_set`` when read."""

    _fields = ("generators", "gap_set")

    def __init__(self, generators) -> None:
        generators = tuple(generators)
        gens = _normalized_generators(generators)
        if gens != generators:
            raise ValueError("generators must be a sorted set of positive ints")
        vars(self).update(generators=gens, apery=_apery(gens))

    @cached_property
    def gap_set(self) -> tuple[int, ...]:
        return gaps_below(self.apery, self.generators[0])

    @cached_property
    def genus(self) -> int:
        """Number of gaps (Selmer); the delta invariant of the monomial curve."""
        return sum(w // self.generators[0] for w in self.apery)

    @property
    def frobenius(self) -> int:
        """Largest gap (Selmer); -1 for <1>, whose Apéry set is (0,)."""
        return max(self.apery) - self.generators[0]

    @property
    def minimal_generators(self) -> tuple[int, ...]:
        """The least generating set, however the generators were given.

        It holds the smallest generator m and each class minimum w with no
        generator g < w such that w - g is a member; any other nonzero
        member is m or such a g plus a nonzero member.
        """
        gens = self.generators
        return (gens[0],) + tuple(sorted(
            w for w in self.apery[1:]
            if not any(g < w and w - g in self for g in gens)
        ))

    def __contains__(self, n: int) -> bool:
        # a negative n falls below the least member of its class
        return n >= self.apery[n % len(self.apery)]

    def __str__(self) -> str:
        return "⟨" + ",".join(str(g) for g in self.generators) + "⟩"


def semigroup_from_generators(gens) -> NumericalSemigroup:
    """Build the semigroup generated by ``gens``.

    The generators are kept as given (deduplicated and sorted); minimality
    is not required.  Raises ``InfiniteComplementError`` when their gcd
    exceeds 1, ``ValueError`` for an empty or non-positive input and
    ``TypeError`` for a generator that is not an integer.
    Every call with the same generator set returns one shared instance.
    """
    return _semigroup(_normalized_generators(gens))


@lru_cache(maxsize=1024)
def _semigroup(gen_list: tuple[int, ...]) -> NumericalSemigroup:
    return NumericalSemigroup(gen_list)
