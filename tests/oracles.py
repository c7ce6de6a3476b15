"""Independent oracles used to freeze expected values.

Everything here is deliberately naive and shares no code with the
package: coin-change dynamic programming, plain convolution loops, the
Euler product built factor by factor, the pentagonal-number sign series,
a straightforward reachability sieve, the semigroup tree built on it,
member-by-member scans, necklace Delta-sets and offset cycles run off the
offset recurrence, a least rotation found by trying every start, and
Selmer's count and the gap list taken one class at a time.
"""

from __future__ import annotations


def partition_numbers(nmax: int) -> list[int]:
    """p(0..nmax) by coin-change over parts 1..nmax."""
    dp = [1] + [0] * nmax
    for part in range(1, nmax + 1):
        for total in range(part, nmax + 1):
            dp[total] += dp[total - part]
    return dp


def convolve(a: list[int], b: list[int]) -> list[int]:
    """Truncated product of coefficient lists, same length as the inputs."""
    n = min(len(a), len(b))
    return [sum(a[k] * b[i - k] for k in range(i + 1)) for i in range(n)]


def colored_partition_counts(gmax: int, colors: int = 24) -> list[int]:
    """Number of multisets of (part, color) pairs with part sum g.

    Coin change where every part size exists once per color; this counts
    partitions of g into parts of ``colors`` colours.
    """
    dp = [1] + [0] * gmax
    for part in range(1, gmax + 1):
        for _color in range(colors):
            for total in range(part, gmax + 1):
                dp[total] += dp[total - part]
    return dp


def euler_power(exponent: int, order: int) -> list[int]:
    """prod (1 - q^n)^exponent to ``order`` terms, factor by factor.

    The base is the product of the factors (1 - q^n) for n < order; a
    negative exponent inverts it by the triangular recurrence, then the
    result is the |exponent|-fold convolution.
    """
    base = [1] + [0] * (order - 1)
    for n in range(1, order):
        factor = [1] + [0] * (order - 1)
        factor[n] = -1
        base = convolve(base, factor)
    if exponent < 0:
        inv = [1] + [0] * (order - 1)
        for n in range(1, order):
            inv[n] = -sum(base[k] * inv[n - k] for k in range(1, n + 1))
        base = inv
    acc = [1] + [0] * (order - 1)
    for _ in range(abs(exponent)):
        acc = convolve(acc, base)
    return acc


def pentagonal_series(order: int) -> list[int]:
    """Coefficients of prod (1 - q^n) from the pentagonal-number theorem."""
    out = [0] * order
    out[0] = 1
    k = 1
    while True:
        placed = False
        for exponent in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if exponent < order:
                out[exponent] = -1 if k % 2 else 1
                placed = True
        if not placed:
            return out
        k += 1


def naive_members(gens, bound: int) -> set[int]:
    """All sums of the generators up to ``bound`` by plain reachability."""
    reachable = {0}
    frontier = {0}
    while frontier:
        nxt = set()
        for base in frontier:
            for g in gens:
                value = base + g
                if value <= bound and value not in reachable:
                    reachable.add(value)
                    nxt.add(value)
        frontier = nxt
    return reachable


def reachability_gap_sieve(gens) -> tuple[int, ...]:
    """Gaps of the semigroup generated by ``gens``, sieving n = 1, 2, ...

    Each n is a member when n - g is one for some generator g; once
    min(gens) consecutive members appear, every larger integer is a
    member, so the sieve stops there.
    """
    gen_list = sorted(set(gens))
    smallest = gen_list[0]
    member = [True]
    run = 1
    n = 0
    while run < smallest:
        n += 1
        reachable = any(n >= g and member[n - g] for g in gen_list)
        member.append(reachable)
        run = run + 1 if reachable else 0
    return tuple(i for i, ok in enumerate(member) if not ok)


def semigroup_tree(max_genus: int) -> list[list[tuple[int, ...]]]:
    """Minimal generators of every numerical semigroup, one list per genus 0..max_genus.

    The tree starts at N = <1>.  The children of S are S minus one minimal
    generator x above the Frobenius number; each is generated by the other
    minimal generators, x plus each of them, 2x and 3x.  Every semigroup
    of genus g sits once at depth g: its parent adds back its Frobenius
    number.
    """
    levels = [[(1,)]]
    for _ in range(max_genus):
        children = []
        for gens in levels[-1]:
            frobenius = max(reachability_gap_sieve(gens), default=-1)
            for x in [g for g in gens if g > frobenius]:
                others = [g for g in gens if g != x]
                children.append(_scan_minimal([*others, *(x + g for g in others), 2 * x, 3 * x]))
        levels.append(children)
    return levels


def _scan_minimal(gens) -> tuple[int, ...]:
    """The generators that are not a sum of two nonzero members."""
    gaps = set(reachability_gap_sieve(gens))
    return tuple(sorted(
        g for g in set(gens)
        if not any(s not in gaps and g - s not in gaps for s in range(1, g))
    ))


def scan_minimal_generators(semigroup_gaps, module_gaps) -> tuple[int, ...]:
    """Minimal generators of a module by scanning every member.

    A member d of Delta is a generator when no d - s, for s a nonzero
    member of Gamma, is in Delta.  Elements above max gap + least nonzero
    member of Gamma are never generators, which bounds the scan.
    """
    s_gaps, gaps = set(semigroup_gaps), set(module_gaps)
    top = max(gaps, default=-1)
    least = 1
    while least in s_gaps:
        least += 1
    return tuple(
        d
        for d in range(top + least + 1)
        if d not in gaps
        and not any(g not in s_gaps and (d - g) not in gaps for g in range(1, d + 1))
    )


def scan_closure(gens, module_gaps) -> bool:
    """Whether N minus ``module_gaps`` is closed under adding each generator.

    Members beyond the largest gap stay members after adding a generator,
    so checking d + g for the members d up to that gap is complete.
    """
    gaps = set(module_gaps)
    top = max(gaps, default=-1)
    return not any(
        d + g in gaps for d in range(top + 1) if d not in gaps for g in gens
    )


def necklace_gaps(members, p: int, q: int) -> tuple[int, ...]:
    """Gaps of the Delta-set of a p-subset of {1..p+q}, from its definition.

    The offsets start at a(1) = 0 and step a(i+1) = a(i) + q after a member
    i, a(i) - p after another position; Delta is the union of the
    progressions a(s) + p*N over the members s, slid so that its least
    member is 0 and then up until it has as many gaps as <p,q>.
    """
    a = [0]
    for i in range(1, p + q):
        a.append(a[-1] + (q if i in members else -p))
    starts = [a[s - 1] for s in members]
    low = min(starts)
    starts = [s - low for s in starts]
    top = max(starts)
    gaps = [x for x in range(top) if not any(x >= s and (x - s) % p == 0 for s in starts)]
    shift = len(reachability_gap_sieve((p, q))) - len(gaps)
    return tuple(range(shift)) + tuple(g + shift for g in gaps)


def offset_cycle(members, p: int, q: int) -> tuple[int, ...]:
    """a(1..p+q) of a p-subset of {1..p+q} by the offset recurrence, shifted to genus gaps.

    a(1) = p*q, and a(i+1) = a(i) + q after a member i, a(i) - p after
    another position.  The members' offsets, one per class mod p, are the
    least members of a translate of the subset's Delta-set, so every
    offset moves by the one amount that leaves (p-1)(q-1)/2 gaps below them.
    """
    a = [p * q]
    for i in range(1, p + q):
        a.append(a[-1] + (q if i in members else -p))
    shift = cogenus_by_classes([a[i - 1] for i in members]) - (p - 1) * (q - 1) // 2
    return tuple(v - shift for v in a)


def least_rotation_start(word) -> int:
    """First start of the least rotation of ``word``, trying all n starts."""
    n = len(word)
    return min(range(n), key=lambda i: word[i:] + word[:i])


def cogenus_by_classes(least) -> int:
    """Selmer's sum of w // m over one w per class mod m = len(least), term by term."""
    m = len(least)
    return sum(w // m for w in least)


def gaps_by_classes(least) -> tuple[int, ...]:
    """The n below the least w of their class mod m = len(least), class by class, sorted."""
    m = len(least)
    return tuple(sorted(n for w in least for n in range(w % m, w, m)))
