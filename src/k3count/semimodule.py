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
exactly (``numsg.count_necklaces``), as rotation acts freely when gcd(p, p+q) = 1.

Both steps are +q modulo p+q, so a(k+1) = a(1) + k*q (mod p+q): the
offsets run once through Z/(p+q) at stride q.  In either order, the least
members of D mod min(p, q) are the offsets at the steps of max(p, q): the
forward map reads them in closed form, and the inverse writes the letter
of those steps at w * q^-1 mod p+q for each least member w through
``NecklaceProfile``'s unchecked path, which stores its least rotation.
Neither runs the recurrence.

A Delta-set closed under +p, p the smallest generator of Gamma, is fixed
by ``apery``, its least member w in each class mod p, as Gamma is: a
module stores these p numbers alone, and membership and ``gap_set`` are
Gamma's methods.  It is closed under another generator g
exactly when each w + g is a member (Kunz's inequality), and has
``cogenus(apery)`` gaps (Selmer).  Translation by s adds s to these p
numbers and to their cogenus and keeps closure, so the forward map takes
its offsets to genus(Gamma) gaps with one shift, ``_shifted_to_genus``.
One checked store builds every module: ``GammaModule._of_apery`` takes
the minima as given, the public constructor finds them in a gap set,
and ``enumerate_delta_sets`` records them as it places gaps.
"""

from __future__ import annotations

from itertools import compress
from operator import index

from . import Record
from .numsg import NumericalSemigroup, cogenus, module_generators, pair_semigroup, require_coprime
from .numsg import count_necklaces  # the closed form the bijection counts, re-exported


class InvalidModuleError(ValueError):
    """The proposed set is not closed under adding semigroup members."""


class GammaModule(Record):
    """A Delta-set, stored as ``apery``; its finite gap set N minus Delta is read on demand."""

    _fields = ("semigroup", "apery")

    def __init__(self, semigroup: NumericalSemigroup, gap_set) -> None:
        gaps = tuple(map(index, gap_set))
        if list(gaps) != sorted(set(gaps)) or (gaps and gaps[0] < 0):
            raise ValueError("gap set must be sorted distinct non-negative ints")
        self._store(semigroup, _class_minima(gaps, semigroup.generators[0]))

    @classmethod
    def _of_apery(cls, semigroup: NumericalSemigroup, least) -> GammaModule:
        """The module with least member ``least[r]`` in class r mod p, the smallest generator."""
        return cls.__new__(cls)._store(semigroup, least)

    def _store(self, semigroup: NumericalSemigroup, least) -> GammaModule:
        """Both constructors end here: check ``least`` with ``_checked_apery``, set every field."""
        vars(self).update(semigroup=semigroup, apery=_checked_apery(least, semigroup))
        return self

    __contains__ = NumericalSemigroup.__contains__
    gap_set = NumericalSemigroup.gap_set


def _checked_apery(least, semigroup: NumericalSemigroup) -> tuple[int, ...]:
    """``least`` as a tuple, if it is the Apéry tuple of a module over ``semigroup``.

    One minimum per class mod p in order, none negative, cogenus by Selmer's
    formula sum(w // p) = genus, and Kunz's inequalities: each w + g a member.
    """
    p, *others = semigroup.generators
    least = tuple(least)
    if [w % p for w in least] != list(range(p)):
        raise InvalidModuleError(f"need one least member per class mod {p}, in order")
    # implied by the next two checks (a closed set holding a negative w0 holds
    # w0 + Gamma, so it has too few gaps), but it names the fault
    if min(least) < 0:
        raise InvalidModuleError(f"least members must be non-negative, got {least}")
    if cogenus(least) != semigroup.genus:
        raise InvalidModuleError(
            f"cogenus {cogenus(least)} differs from the semigroup genus {semigroup.genus}"
        )
    for w in least:
        for g in others:
            if w + g < least[(w + g) % p]:
                raise InvalidModuleError(
                    f"not closed: {w} is a member but {w} + {g} is a gap"
                )
    return least


def _class_minima(gaps, p: int) -> list[int]:
    """Least member of N minus sorted ``gaps`` in each residue class mod p.

    With w the largest gap of a class plus p (its residue if none), the class
    has at most w // p gaps, and exactly that many iff it is closed under +p.
    """
    least = list(range(p))
    for g in gaps:
        least[g % p] = g + p
    if len(gaps) != cogenus(least):
        raise InvalidModuleError(f"not closed under adding {p}")
    return least


def _shifted_to_genus(least, genus: int) -> tuple[int, ...]:
    """``least``, one w per class mod len(least), any order, moved to ``genus`` gaps, by class."""
    m = len(least)
    shift = cogenus(least) - genus
    placed = [0] * m
    for w in least:
        w -= shift
        placed[w % m] = w
    return tuple(placed)


def enumerate_delta_sets(s: NumericalSemigroup) -> list[GammaModule]:
    """All Delta-sets for ``s``, sorted by gap set, as ``walk`` tries gap before member.

    Every gap x of a Delta-set is at most 2*genus - 1: x - t is a gap for
    each t in Gamma with t <= x, at least x + 1 - genus of them, and there
    are only genus gaps.  A translate of the canonical ideal reaches it.
    The search walks positions 0..bound deciding gap or member, pruning
    when a gap would sit above member + generator, when the gap budget is
    spent, or when too few positions remain to spend it.  A gap at pos sets
    its class's least member mod p to pos + p, so a leaf holds the Apéry tuple.
    """
    genus = s.genus
    bound = 2 * genus - 1
    gens = s.generators
    p = gens[0]
    member = [False] * (bound + 1)
    least = list(range(p))
    found: list[tuple[int, ...]] = []

    def walk(pos: int, budget: int) -> None:
        if budget == 0:
            found.append(tuple(least))
            return
        if pos > bound or budget > bound - pos + 1:
            return
        if not any(pos >= g and member[pos - g] for g in gens):
            least[pos % p] = pos + p
            walk(pos + 1, budget - 1)
            # pos - p is a gap or negative, so the minimum was pos
            least[pos % p] = pos
        member[pos] = True
        walk(pos + 1, budget)
        member[pos] = False

    walk(0, genus)
    return [GammaModule._of_apery(s, apery) for apery in found]


def minimal_generators(m: GammaModule) -> tuple[int, ...]:
    """Smallest G with Delta the union of g + Gamma over g in G, read off ``apery``."""
    return module_generators(m.apery, m.semigroup.generators)


class NecklaceProfile(Record):
    """A rotation class of p-subsets of {1..p+q}.

    ``members`` may be any rotation of the class; the profile stores the
    lexicographically smallest one, so two rotations give equal profiles.
    """

    _fields = ("p", "q", "members")

    def __init__(self, p: int, q: int, members) -> None:
        p, q = require_coprime(p, q)
        members = list(map(index, members))
        _require_members(members, p, q)
        self._read(p, q, [i - 1 for i in members], 1)

    def _read(self, p: int, q: int, steps, letter: int) -> NecklaceProfile:
        """Store the least rotation of the word with ``letter`` at just ``steps``, unchecked."""
        n = p + q
        word = bytearray([not letter]) * n
        for k in steps:
            word[k] = letter
        start = _least_rotation(word)
        word = word[start:] + word[:start]
        members = tuple(compress(range(1, n + 1), word))
        vars(self).update(p=p, q=q, members=members)
        return self


def _require_members(members: list[int], p: int, q: int) -> None:
    """Raise ValueError unless the list ``members`` is a sorted p-subset of {1..p+q}, p >= 1."""
    if len(members) != p:
        raise ValueError(f"member set must have exactly {p} elements")
    if members != sorted(set(members)):
        raise ValueError("members must be sorted and distinct")
    if not (1 <= members[0] and members[-1] <= p + q):
        raise ValueError(f"members must lie in 1..{p + q}")


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
    best, least = 0, None
    for i in range(n):
        if word[i - 1] > word[i]:
            rotation = doubled[i:i + n]
            if least is None or rotation < least:
                best, least = i, rotation
    return best


def _least_offsets(members, p: int, q: int, genus: int) -> tuple[int, ...]:
    """Least members mod min(p, q) of the module of sorted ``members``, by class.

    Up to one shift to cogenus ``genus`` they are a(i) = (p+q)*j - p*i, j
    members before step i, at the steps of max(p, q): members if p < q, else the
    others, read run by run between consecutive members.
    """
    n = p + q
    if p < q:
        a = [n * j - p * i for j, i in enumerate(members)]
    else:
        bounds = [0, *members, n + 1]
        a = [n * j - p * i for j in range(p + 1) for i in range(bounds[j] + 1, bounds[j + 1])]
    return _shifted_to_genus(a, genus)


def necklace_to_delta(members, p: int, q: int) -> GammaModule:
    """The module of a p-subset of {1..p+q}, given in any order.

    Its least members mod min(p, q) are offsets of the subset, the same
    for every rotation of it.
    """
    p, q = require_coprime(p, q)
    members = sorted(map(index, members))
    _require_members(members, p, q)
    gamma = pair_semigroup(p, q)
    return GammaModule._of_apery(gamma, _least_offsets(members, p, q, gamma.genus))


def delta_to_necklace(m: GammaModule, p: int, q: int) -> NecklaceProfile:
    """Recover the rotation class of a module over <p,q>.

    Step k of the offsets reads residue k*q mod p+q, so the word has the
    letter of the steps of max(p, q), 1 if p < q and 0 if p > q, at just
    w * q^-1 mod p+q for each of m's least members w mod min(p, q): a
    rotation of the class, which names its profile with no member check.
    """
    p, q = require_coprime(p, q)
    gamma = pair_semigroup(p, q)
    if m.semigroup is not gamma and m.semigroup.apery != gamma.apery:
        raise ValueError(f"module lives over {m.semigroup}, not over {gamma}")
    n = p + q
    inv = pow(q, -1, n)
    steps = [w * inv % n for w in m.apery]  # m's minima were checked when it was built
    profile = NecklaceProfile.__new__(NecklaceProfile)._read(p, q, steps, p < q)
    # the forward map sends the members back to m; it gives one minimum per
    # offset it reads, so a word without p members gives a tuple too long or short
    assert _least_offsets(profile.members, p, q, gamma.genus) == m.apery
    return profile
