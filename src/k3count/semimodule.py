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

Both steps are +q modulo p+q, so a(k+1) = a(1) + k*q (mod p+q): the
offsets run once through Z/(p+q) at stride q, and the members' offsets
are the least members of D in each class mod p.  The inverse map puts
each least member w at step w * q^-1 mod p+q of the word.

A Delta-set closed under +p, p the smallest generator of Gamma, is fixed
by ``apery``, its least member w in each class mod p; it is closed under
another generator g exactly when each w + g is a member (Kunz's
inequality).  Translation shifts these p numbers and keeps closure.
"""

from __future__ import annotations

from itertools import accumulate, compress
from math import comb, gcd
from operator import index

from ._record import Record
from .numsg import NumericalSemigroup, gaps_below, semigroup_from_generators


class InvalidModuleError(ValueError):
    """The proposed set is not closed under adding semigroup members."""


class GammaModule(Record):
    """A Delta-set, stored as its finite gap set N minus Delta and ``apery``."""

    _fields = ("semigroup", "gap_set")

    def __init__(self, semigroup: NumericalSemigroup, gap_set) -> None:
        gaps = tuple(map(index, gap_set))
        if list(gaps) != sorted(set(gaps)) or (gaps and gaps[0] < 0):
            raise ValueError("gap set must be sorted distinct non-negative ints")
        if len(gaps) != semigroup.genus:
            raise InvalidModuleError(
                f"cogenus {len(gaps)} differs from the semigroup genus "
                f"{semigroup.genus}"
            )
        p, *others = semigroup.generators
        least = _class_minima(gaps, p)
        for w in least:
            for g in others:
                if w + g < least[(w + g) % p]:
                    raise InvalidModuleError(
                        f"not closed: {w} is a member but {w} + {g} is a gap"
                    )
        vars(self).update(semigroup=semigroup, gap_set=gaps, apery=tuple(least))

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
    p, q = require_coprime(p, q)
    total, rem = divmod(comb(p + q, p), p + q)
    assert rem == 0  # rotation acts freely when gcd(p, p+q) = 1
    return total


def require_coprime(p: int, q: int) -> tuple[int, int]:
    """Return (p, q) as ints; raise ValueError unless positive and coprime."""
    p, q = index(p), index(q)
    if p < 1 or q < 1:
        raise ValueError(f"p and q must be positive, got ({p}, {q})")
    if gcd(p, q) != 1:
        raise ValueError(f"p and q must be coprime, got gcd({p}, {q}) = {gcd(p, q)}")
    return p, q


class NecklaceProfile(Record):
    """A rotation class of p-subsets of {1..p+q} with its offset sequence.

    ``members`` is the lexicographically smallest rotation of the class
    (as a 0/1 characteristic word).  ``a_seq`` is computed from it: a(1..p+q)
    for that rotation, translated so that the progressions a(s) + p*N over
    s in members form the cogenus-normalized Delta directly.
    """

    _fields = ("p", "q", "members", "a_seq")

    def __init__(self, p: int, q: int, members) -> None:
        p, q = require_coprime(p, q)
        members = tuple(map(index, members))
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
        a = _offsets(word, p, q)
        # the members' offsets are Delta's least members mod p, and each
        # such w sits above w // p gaps: the normalized Delta has genus many
        shift = sum(a[i - 1] // p for i in members) - (p - 1) * (q - 1) // 2
        a_seq = tuple([v - shift for v in a])
        vars(self).update(p=p, q=q, members=members, a_seq=a_seq)


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


def _offsets(word: bytes, p: int, q: int) -> list[int]:
    """a(1..p+q) from a(1) = p*q, stepping +q after a 1 of ``word``, -p after a 0."""
    return list(accumulate(map((-p, q).__getitem__, word[:-1]), initial=p * q))


def necklace_to_delta(members, p: int, q: int) -> GammaModule:
    """Run the offset recurrence on a p-subset of {1..p+q} and read off Delta.

    The start value p*q keeps every intermediate offset non-negative (at
    most q downward steps of size p can precede anything).  The offsets
    a(s), s in the subset, fill each class mod p once, so they are the
    least members of the union of progressions; translating them gives
    the unique cogenus-correct representative, so any rotation of the
    same subset lands on the same module.
    """
    p, q = require_coprime(p, q)
    gamma = semigroup_from_generators((p, q))
    chosen = sorted({index(i) for i in members})
    n = p + q
    if len(chosen) != p:
        raise ValueError(f"need exactly {p} members, got {len(chosen)}")
    if chosen and not (1 <= chosen[0] and chosen[-1] <= n):
        raise ValueError(f"members must lie in 1..{n}")
    a = _offsets(_word(chosen, n), p, q)
    starts = [a[s - 1] for s in chosen]
    assert min(a) >= 0 and len({v % p for v in starts}) == p
    return _translate(starts, p, gamma)


def delta_to_necklace(m: GammaModule, p: int, q: int) -> NecklaceProfile:
    """Recover the rotation class of a module over <p,q>.

    The offsets of a class are Z/(p+q) read at stride q, and its members'
    offsets are Delta's least members mod p.  Step k reads residue k*q mod
    p+q, so the word is 1 at step w * q^-1 mod p+q for each least member w:
    a rotation of the class, whose least rotation gives the subset.
    """
    p, q = require_coprime(p, q)
    gamma = semigroup_from_generators((p, q))
    if m.semigroup is not gamma and m.semigroup.apery != gamma.apery:
        raise ValueError(
            f"module lives over {m.semigroup}, not over {gamma}"
        )
    least = _class_minima(m.gap_set, p)
    n = p + q
    inv = pow(q, -1, n)
    word = _word({w * inv % n + 1 for w in least}, n)
    assert sum(word) == p  # the least members are offsets, distinct mod p+q
    start = _least_rotation(word)
    members = tuple(compress(range(1, n + 1), word[start:] + word[:start]))
    profile = NecklaceProfile(p, q, members)  # a_seq by the forward recurrence
    # the forward map sends members back to m: their offsets are m's minima
    assert {profile.a_seq[i - 1] for i in members} == set(least)
    return profile
