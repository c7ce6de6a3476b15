"""Delta-sets over a numerical semigroup and their necklace classification.

A Delta-set for Gamma is a subset D of N with Gamma + D inside D whose
complement has exactly genus(Gamma) elements.  The number of these sets
is the local multiplicity invariant epsilon of the monomial curve
singularity with value semigroup Gamma.

For a two-generator semigroup <p,q> the Delta-sets biject with p-element
subsets of {1..p+q} taken up to cyclic rotation.  Each subset S drives
the offset recurrence

    a(i+1) = a(i) + q   if i is in S,
    a(i+1) = a(i) - p   otherwise,

and D is recovered as the union of the arithmetic progressions
a(s) + p*N over s in S.  Rotating S shifts the sequence a and leaves D
unchanged, so rotation classes count the sets: binomial(p+q,p)/(p+q)
exactly, the rotation action being free because gcd(p, p+q) = 1.

A Delta-set closed under +p, p the smallest generator of Gamma, is fixed
by ``apery``, its least member w in each class mod p; it is closed under
another generator g exactly when each w + g is a member (Kunz's
inequality).  Translation shifts these p numbers and keeps closure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, compress
from math import comb, gcd
from operator import add, index

from .numsg import NumericalSemigroup, _semigroup, gaps_below


class InvalidModuleError(ValueError):
    """The proposed set is not closed under adding semigroup members."""


@dataclass(frozen=True)
class GammaModule:
    """A Delta-set, stored as its finite gap set N minus Delta and ``apery``."""

    semigroup: NumericalSemigroup
    gap_set: tuple[int, ...]
    apery: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "gap_set", tuple(self.gap_set))
        gaps = self.gap_set
        if list(gaps) != sorted(set(gaps)) or (gaps and gaps[0] < 0):
            raise ValueError("gap set must be sorted distinct non-negative ints")
        if len(gaps) != self.semigroup.genus:
            raise InvalidModuleError(
                f"cogenus {len(gaps)} differs from the semigroup genus "
                f"{self.semigroup.genus}"
            )
        p, *others = self.semigroup.generators
        least = _class_minima(gaps, p)
        for w in least:
            for g in others:
                if w + g < least[(w + g) % p]:
                    raise InvalidModuleError(
                        f"not closed: {w} is a member but {w} + {g} is a gap"
                    )
        object.__setattr__(self, "apery", tuple(least))

    @property
    def min_element(self) -> int:
        """Smallest member of Delta; at most genus, since all below are gaps."""
        return min(self.apery)

    def __contains__(self, n: int) -> bool:
        # a negative n falls below the least member of its class
        return n >= self.apery[n % len(self.apery)]

    def __str__(self) -> str:
        return "gaps={" + ",".join(str(g) for g in self.gap_set) + "}"


def _class_minima(gaps, p: int) -> list[int]:
    """Least member of N minus sorted ``gaps`` in each residue class mod p.

    With w the largest gap of a class plus p (its residue if none), the class
    has at most w // p gaps, and exactly that many iff it is closed under +p.
    """
    least = list(range(p))
    for g in gaps:
        least[g % p] = g + p
    if len(gaps) != sum(w // p for w in least):
        raise InvalidModuleError(f"not closed under adding {p}")
    return least


def _translate(least, p: int, s: NumericalSemigroup) -> GammaModule:
    # The class of w holds w // p gaps.  A closed set holds w0 + Gamma, w0
    # its least member, so it has at most w0 + genus gaps and no w - shift
    # is negative; an open one fails the module's own checks.
    shift = sum(w // p for w in least) - s.genus
    return GammaModule(s, gaps_below([w - shift for w in least], p))


def normalize_translate(gaps_of_raw_delta, s: NumericalSemigroup) -> GammaModule:
    """Slide a closed set Delta' to the unique translate with full cogenus.

    Shifting Delta' by one changes its gap count by exactly one, so among
    all translates inside N exactly one has genus(Gamma) gaps.  The input
    is given by its gap set; anything not Gamma-closed is rejected.
    """
    gaps = sorted({index(g) for g in gaps_of_raw_delta})
    if gaps and gaps[0] < 0:
        raise ValueError("gap values must be non-negative")
    p = s.generators[0]
    return _translate(_class_minima(gaps, p), p, s)


def enumerate_delta_sets(s: NumericalSemigroup) -> list[GammaModule]:
    """All Delta-sets for ``s``, sorted by gap set.

    Every gap of a Delta-set is at most frobenius + genus: the minimal
    element m satisfies m <= genus (everything below it is a gap) and
    m + Gamma is contained in Delta, so no gap exceeds m + frobenius.
    The search walks positions 0..bound deciding gap or member, pruning
    when a gap would sit above member + generator, when the gap budget is
    spent, or when too few positions remain to spend it.
    """
    genus = s.genus
    bound = s.frobenius + genus
    gens = s.generators
    member = [False] * (bound + 1)
    chosen: list[int] = []
    found: list[tuple[int, ...]] = []

    def walk(pos: int, budget: int) -> None:
        if budget == 0:
            found.append(tuple(chosen))
            return
        if pos > bound or budget > bound - pos + 1:
            return
        if not any(pos >= g and member[pos - g] for g in gens):
            chosen.append(pos)
            walk(pos + 1, budget - 1)
            chosen.pop()
        member[pos] = True
        walk(pos + 1, budget)
        member[pos] = False

    walk(0, genus)
    return [GammaModule(s, gaps) for gaps in sorted(found)]


def minimal_generators(m: GammaModule) -> tuple[int, ...]:
    """Smallest G with Delta equal to the union of g + Gamma over g in G.

    With p the smallest generator of Gamma, a generator of Delta is the
    least member of its residue class mod p (else subtracting p stays in
    Delta), and such a least member w is a generator exactly when no
    w - g, for g a generator of Gamma, lies in Delta: any other member
    of Gamma is g plus a member, and Delta is closed under adding those.
    """
    gens = m.semigroup.generators
    return tuple(sorted(w for w in m.apery if all(w - g not in m for g in gens)))


def count_necklaces(p: int, q: int) -> int:
    """Rotation classes of p-subsets of {1..p+q}: binomial(p+q,p)/(p+q)."""
    require_coprime(p, q)
    total, rem = divmod(comb(p + q, p), p + q)
    assert rem == 0  # rotation acts freely when gcd(p, p+q) = 1
    return total


def require_coprime(p: int, q: int) -> None:
    """Raise ValueError unless p and q are positive and coprime."""
    if p < 1 or q < 1:
        raise ValueError(f"p and q must be positive, got ({p}, {q})")
    if gcd(p, q) != 1:
        raise ValueError(f"p and q must be coprime, got gcd({p}, {q}) = {gcd(p, q)}")


def _pq_semigroup(p: int, q: int) -> NumericalSemigroup:
    # require_coprime makes every check semigroup_from_generators would
    # repeat, so the shared instance is read straight from numsg's memo
    require_coprime(p, q)
    return _semigroup((p, q) if p < q else (q, p) if q < p else (p,))


@dataclass(frozen=True)
class NecklaceProfile:
    """A rotation class of p-subsets of {1..p+q} with its offset sequence.

    ``members`` is the lexicographically smallest rotation of the class
    (as a 0/1 characteristic word).  ``a_seq`` holds a(1..p+q) for that
    rotation, translated so that the progressions a(s) + p*N over
    s in members form the cogenus-normalized Delta directly.
    """

    p: int
    q: int
    members: tuple[int, ...]
    a_seq: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "a_seq", tuple(self.a_seq))
        p, q, members, a_seq = self.p, self.q, self.members, self.a_seq
        require_coprime(p, q)
        n = p + q
        if len(members) != p:
            raise ValueError(f"member set must have exactly {p} elements")
        if list(members) != sorted(set(members)):
            raise ValueError("members must be sorted and distinct")
        if members and not (1 <= members[0] and members[-1] <= n):
            raise ValueError(f"members must lie in 1..{n}")
        word = _word(members, n)
        if _least_rotation(word) != 0:
            raise ValueError("members must be the least rotation of the class")
        if len(a_seq) != n:
            raise ValueError(f"a_seq must have length {n}")
        if len(set(a_seq)) != n or min(a_seq) < 0:
            raise ValueError("a_seq values must be distinct non-negative ints")
        # a(i) + step(i), position i = 1..n, against a(i+1) read cyclically
        stepped = list(map(add, a_seq, map((-p, q).__getitem__, word)))
        if stepped != list(a_seq[1:] + a_seq[:1]):
            i = next(i for i in range(1, n + 1) if stepped[i - 1] != a_seq[i % n])
            raise ValueError(f"offset recurrence fails at position {i}")
        # the members' offsets are Delta's least members mod p, and each
        # such w sits above w // p gaps: the normalized Delta has genus many
        if sum(a_seq[i - 1] // p for i in members) != (p - 1) * (q - 1) // 2:
            raise ValueError("a_seq is not the cogenus-normalized translate")


def _word(members, n: int) -> bytes:
    """Characteristic word of a subset of {1..n}: byte i-1 is 1 iff i is in it."""
    word = bytearray(n)
    for i in members:
        word[i - 1] = 1
    return bytes(word)


def _least_rotation(word: bytes) -> int:
    """First start index of the lexicographically least rotation of ``word``.

    ``word`` is a 0/1 bytes string.  If it has both letters, its least
    rotation begins with 0, and at the start of a maximal (cyclic) run of
    0s: when the letter before j is 0 too, the rotation from j reads
    0^k 1 ... for some k >= 1, and the one from j - 1 reads 0^(k+1) ...,
    which is smaller.  So only the run starts, the positions just after
    each cyclic "10", are compared; there are as many as runs of 1s, at
    most min(#0, #1).  Each rotation is a slice of the doubled word, and
    the starts are tried in increasing order, so ties (periodic words)
    keep the first.  A word with a single letter returns 0.
    """
    n = len(word)
    doubled = word + word
    starts = []
    # a "10" at j in n-1..2n-2 puts a run start at j + 1 - n in 0..n-1
    j = doubled.find(b"\x01\x00", n - 1, 2 * n)
    while j >= 0:
        starts.append(j + 1 - n)
        j = doubled.find(b"\x01\x00", j + 2, 2 * n)
    if not starts:
        return 0
    return min(starts, key=lambda i: doubled[i:i + n])


def necklace_to_delta(members, p: int, q: int) -> GammaModule:
    """Run the offset recurrence on a p-subset of {1..p+q} and read off Delta.

    The start value p*q keeps every intermediate offset non-negative (at
    most q downward steps of size p can precede anything).  The offsets
    a(s), s in the subset, fill each class mod p once, so they are the
    least members of the union of progressions; translating them gives
    the unique cogenus-correct representative, so any rotation of the
    same subset lands on the same module.
    """
    gamma = _pq_semigroup(p, q)
    chosen = sorted({index(i) for i in members})
    n = p + q
    if len(chosen) != p:
        raise ValueError(f"need exactly {p} members, got {len(chosen)}")
    if chosen and not (1 <= chosen[0] and chosen[-1] <= n):
        raise ValueError(f"members must lie in 1..{n}")
    # a(1..n): a(1) = p*q, then +q after a member position, -p elsewhere
    steps = map((-p, q).__getitem__, _word(chosen, n)[:-1])
    a = list(accumulate(steps, initial=p * q))
    starts = [a[s - 1] for s in chosen]
    assert min(a) >= 0 and len({v % p for v in starts}) == p
    return _translate(starts, p, gamma)


def delta_to_necklace(m: GammaModule, p: int, q: int) -> NecklaceProfile:
    """Recover the rotation class of a module over <p,q>.

    The p smallest members in each residue class mod p and, shifted up by
    p, the q smallest members in each class mod q form p+q distinct
    offsets.  Following "+q from the first group, -p from the second"
    traverses them in a single cycle; the positions of first-group visits
    along that cycle are the subset, read in its least rotation.
    """
    gamma = _pq_semigroup(p, q)
    if m.semigroup is not gamma and m.semigroup.gap_set != gamma.gap_set:
        raise ValueError(
            f"module lives over {m.semigroup}, not over {gamma}"
        )
    p_offsets = _class_minima(m.gap_set, p)
    q_offsets = [v + p for v in _class_minima(m.gap_set, q)]
    values = p_offsets + q_offsets
    value_set = set(values)
    n = p + q
    assert len(value_set) == n
    p_set = set(p_offsets)

    v = values[0]
    walk = [v]
    for _ in range(n - 1):
        v = v + q if v in p_set else v - p
        walk.append(v)
    # the successor map is a single (p+q)-cycle through the offsets
    assert set(walk) == value_set
    word = bytes(map(p_set.__contains__, walk))
    start = _least_rotation(word)
    members = tuple(compress(range(1, n + 1), word[start:] + word[:start]))
    return NecklaceProfile(p, q, members, walk[start:] + walk[:start])
