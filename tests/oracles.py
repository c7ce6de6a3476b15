"""Independent oracles used to freeze expected values.

Everything here is deliberately naive and shares no code with the
package: coin-change dynamic programming, plain convolution loops, the
pentagonal-number sign series, and a straightforward reachability sieve.
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


def colored_by_convolution(gmax: int, colors: int = 24) -> list[int]:
    """The same counts via a ``colors``-fold convolution of p(n)."""
    p = partition_numbers(gmax)
    acc = [1] + [0] * gmax
    for _ in range(colors):
        acc = convolve(acc, p)
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
