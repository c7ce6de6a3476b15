"""Numerical semigroups: additive submonoids of N with finite complement.

The finite complement (the gap set) is a complete description: its size
is the genus, its maximum is the Frobenius number, and every larger
integer is a member.  For the monomial curve singularity with value
semigroup Gamma, the genus equals the local delta invariant.

A semigroup stores ``apery``, the least member of each class mod its
smallest generator m, found in O(m^2 + m*|gens|) steps however large
the Frobenius number is.  Selmer's formulas read the genus, ``cogenus``,
and the Frobenius number, max(w) - m, off this Apéry set, as do the
membership test and the generator rule, ``module_generators``, that
``GammaModule`` shares; ``gap_set`` is built on each read, for both.  ``cogenus``
is the package's one sum(w // m), taken in closed form as
(sum(w) - m(m-1)/2) / m: that holds for any m integers with one in each
class mod m, in any order and negative ones included, since their residues
are then 0, 1, ..., m-1.  The pair rule ``require_coprime`` lives here with
the lookup that trusts it: unchecked for a pair that ``require_coprime``
accepted, ``pair_semigroup`` shares the cache of ``semigroup_from_generators``.
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


def gaps_below(least) -> tuple[int, ...]:
    """Sorted gaps of the union of w + m*N over ``least``, one w per class mod m = len(least)."""
    m = len(least)
    return tuple(sorted([n for w in least for n in range(w % m, w, m)]))


def cogenus(least) -> int:
    """Selmer's sum(w // m) over one w per class mod m = len(least): the gaps below them.

    The residues w % m are then 0, ..., m-1, so the sum is the closed form
    (sum(least) - m*(m-1)/2) / m, exact for negative w too.  Other input
    gives a meaningless number.
    """
    m = len(least)
    return (sum(least) - m * (m - 1) // 2) // m


def module_generators(least, gens) -> tuple[int, ...]:
    """Sorted minimal generators, over the semigroup of ``gens``, of the set with minima ``least``.

    With m = len(least) in ``gens``, a generator is the least member w of
    its class, and is one exactly when no w - g is a member: any other
    member of the semigroup is g plus a member.
    """
    m = len(least)
    return tuple(sorted(w for w in least if all(w - g < least[(w - g) % m] for g in gens)))


class NumericalSemigroup(Record):
    """A semigroup given by its generators; ``apery`` is computed, ``gap_set`` on each read."""

    _fields = ("generators",)

    def __init__(self, generators) -> None:
        generators = tuple(generators)
        gens = _normalized_generators(generators)
        if gens != generators:
            raise ValueError("generators must be a sorted set of positive ints")
        vars(self).update(generators=gens, apery=_apery(gens))

    @property
    def gap_set(self) -> tuple[int, ...]:
        return gaps_below(self.apery)

    @cached_property
    def genus(self) -> int:
        """Number of gaps (Selmer); the delta invariant of the monomial curve."""
        return cogenus(self.apery)

    @property
    def frobenius(self) -> int:
        """Largest gap (Selmer); -1 for <1>, whose Apéry set is (0,)."""
        return max(self.apery) - self.generators[0]

    @property
    def minimal_generators(self) -> tuple[int, ...]:
        """The least generating set, however the generators were given.

        They generate the ideal Gamma minus {0} as a module: its least
        member in class 0 mod m is m, and in the others Gamma's.
        """
        return module_generators((self.generators[0],) + self.apery[1:], self.generators)

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
    A generator set among the 1024 most recently built returns the same
    instance; an older one is built again, equal but not identical.
    """
    return _semigroup(_normalized_generators(gens))


def require_coprime(p: int, q: int) -> tuple[int, int]:
    """Return (p, q) as ints; raise ValueError unless positive and coprime."""
    p, q = index(p), index(q)
    if p < 1 or q < 1:
        raise ValueError(f"p and q must be positive, got ({p}, {q})")
    if gcd(p, q) != 1:
        raise ValueError(f"p and q must be coprime, got gcd({p}, {q}) = {gcd(p, q)}")
    return p, q


def pair_semigroup(p: int, q: int) -> NumericalSemigroup:
    """<p,q> for a pair ``require_coprime`` accepted, from ``semigroup_from_generators``' cache."""
    return _semigroup((p, q) if p < q else (q, p) if q < p else (p,))


@lru_cache(maxsize=1024)
def _semigroup(gen_list: tuple[int, ...]) -> NumericalSemigroup:
    return NumericalSemigroup(gen_list)
