"""Reference routes the benchmark checks k3count's outputs against.

Nothing here imports k3count.  Each function reaches its answer by a
different method from the package, so a value both agree on is unlikely
to be wrong in the same way twice:

* e(g) from the divisor-sum recurrence n e(n) = 24 sum_k sigma(k) e(n-k),
  not from truncated series products;
* Delta-sets from Apery (Kunz) coordinates -- one least member per
  residue class of the smallest generator -- not from the bit-by-bit
  ``walk`` search;
* minimal generators from the semigroup's generators only, not from a
  scan over all of its members;
* the necklace module by a fresh offset-recurrence implementation, and
  necklace classes by least rotation of the characteristic word.
"""

from __future__ import annotations

from functools import reduce
from math import comb, gcd, prod


def yau_zaslow_reference(gmax: int) -> list[int]:
    """e(0..gmax) by n e(n) = 24 sum_{k=1..n} sigma(k) e(n-k)."""
    sigma = [0] * (gmax + 1)
    for d in range(1, gmax + 1):
        for multiple in range(d, gmax + 1, d):
            sigma[multiple] += d
    e = [1] + [0] * gmax
    for n in range(1, gmax + 1):
        total = 24 * sum(sigma[k] * e[n - k] for k in range(1, n + 1))
        quotient, rem = divmod(total, n)
        if rem:
            raise ArithmeticError(f"divisor-sum recurrence not integral at n={n}")
        e[n] = quotient
    return e


class Semigroup:
    """Gap set, genus and minimal generators of <gens> by plain reachability."""

    def __init__(self, gens) -> None:
        gens = sorted(set(gens))
        if gens[0] < 1 or reduce(gcd, gens) != 1:
            raise ValueError(f"not a numerical semigroup: {gens}")
        m = gens[0]
        member = [True]
        run = 1
        while run < m:
            n = len(member)
            ok = any(n >= g and member[n - g] for g in gens)
            member.append(ok)
            run = run + 1 if ok else 0
        self.gens = tuple(gens)
        self.multiplicity = m
        self.gaps = tuple(n for n, ok in enumerate(member) if not ok)
        self._gap_lookup = frozenset(self.gaps)
        self.genus = len(self.gaps)
        self.frobenius = self.gaps[-1] if self.gaps else -1
        self.minimal = tuple(
            g for g in gens if not any(self.contains(a) and self.contains(g - a) for a in range(1, g))
        )

    def contains(self, n: int) -> bool:
        return n >= 0 and n not in self._gap_lookup


def _kunz_bounds(s: Semigroup) -> list[list[float]]:
    # bound[r][t]: k_t <= k_r + bound[r][t], from w_r + g being a member
    m = s.multiplicity
    inf = float("inf")
    bound = [[inf] * m for _ in range(m)]
    for g in s.minimal:
        if g == m:
            continue
        for r in range(m):
            t = (r + g) % m
            bound[r][t] = min(bound[r][t], (r + g) // m)
    return bound


def kunz_delta_sets(s: Semigroup, count_only: bool = False):
    """Delta-sets of ``s`` in Apery coordinates.

    A Delta-set is fixed by its least member r + m k_r in each residue
    class r mod m (m the smallest generator).  Closure under a generator
    g reads k_{(r+g) mod m} <= k_r + (r+g)//m, and full cogenus reads
    sum k_r = genus.  Returns the count, or the sorted list of gap sets.
    """
    m = s.multiplicity
    bound = _kunz_bounds(s)
    k = [0] * m
    found = []
    count = 0

    def place(j: int, left: int) -> None:
        nonlocal count
        # bounds on every unplaced k_t from the placed ones; prune when the
        # unplaced residues cannot take exactly `left` more gaps
        lows, highs = [], []
        for t in range(j, m):
            lo, hi = 0, left
            for i in range(j):
                hi = min(hi, k[i] + bound[i][t])
                lo = max(lo, k[i] - bound[t][i])
            lows.append(lo)
            highs.append(hi)
        if sum(lows) > left or sum(highs) < left:
            return
        lo, hi = lows[0], highs[0]
        if j == m - 1:
            if lo <= left <= hi:
                k[j] = left
                count += 1
                if not count_only:
                    found.append(tuple(sorted(r + m * i for r in range(m) for i in range(k[r]))))
            return
        for v in range(int(lo), int(hi) + 1):
            k[j] = v
            place(j + 1, left - v)

    place(0, s.genus)
    return count if count_only else sorted(found)


def module_problem(s: Semigroup, gaps) -> str | None:
    """Why ``gaps`` is not the gap set of a Delta-set of ``s``; None if it is."""
    gaps = tuple(gaps)
    if list(gaps) != sorted(set(gaps)) or (gaps and gaps[0] < 0):
        return "gaps not sorted, distinct and non-negative"
    if len(gaps) != s.genus:
        return f"cogenus {len(gaps)} != genus {s.genus}"
    lookup = set(gaps)
    for x in gaps:
        for g in s.minimal:
            if x - g >= 0 and x - g not in lookup:
                return f"not closed: {x - g} + {g} = {x} is a gap"
    return None


def module_generators(s: Semigroup, gaps) -> tuple[int, ...]:
    """Members d of Delta with d - g outside Delta for every generator g."""
    lookup = set(gaps)
    top = max(gaps) if gaps else -1
    return tuple(
        d
        for d in range(top + s.multiplicity + 1)
        if d not in lookup and all(d - g < 0 or d - g in lookup for g in s.minimal)
    )


def least_rotation(members, n: int) -> tuple[int, ...]:
    """The lexicographically least rotation of a subset of {1..n}, as a subset."""
    word = [0] * n
    for i in members:
        word[i - 1] = 1
    best = min(tuple(word[i:] + word[:i]) for i in range(n))
    return tuple(i + 1 for i, bit in enumerate(best) if bit)


def necklace_gaps(members, p: int, q: int) -> tuple[int, ...]:
    """Gap set of the Delta-set of a p-subset of {1..p+q}.

    Runs a(i+1) = a(i) + q on members and a(i) - p elsewhere, takes the
    union of a(s) + pN over members s, and translates it to cogenus
    (p-1)(q-1)/2.
    """
    chosen = set(members)
    a = [0]
    for i in range(1, p + q):
        a.append(a[-1] + q if i in chosen else a[-1] - p)
    low = min(a)
    starts = [a[s - 1] - low for s in sorted(chosen)]
    raw = sorted(x for start in starts for x in range(start % p, start, p))
    shift = len(raw) - (p - 1) * (q - 1) // 2
    if shift >= 0:
        if raw[:shift] != list(range(shift)):
            raise ArithmeticError("necklace module cannot be translated to full cogenus")
        return tuple(x - shift for x in raw[shift:])
    return tuple(range(-shift)) + tuple(x - shift for x in raw)


def necklace_count(p: int, q: int) -> int:
    """binomial(p+q, p)/(p+q), the number of necklace classes."""
    total, rem = divmod(comb(p + q, p), p + q)
    if rem:
        raise ArithmeticError(f"binomial({p + q},{p}) not divisible by {p + q}")
    return total


def epsilon_of(token) -> int:
    """epsilon of a structured token (see ``render``) without any table."""
    kind = token[0]
    if kind == "pq":
        return necklace_count(token[1], token[2])
    if kind == "sg":
        return kunz_delta_sets(Semigroup(token[1]), count_only=True)
    if kind in ("A", "D", "E", "node", "br"):
        return prod(epsilon_of(b) for b in branches(token))
    raise ValueError(f"unknown token kind {kind!r}")


def branches(token) -> list:
    """Planar branches of an ADE, node or branches[...] token."""
    kind = token[0]
    if kind == "node":
        return [("pq", 1, 1), ("pq", 1, 1)]
    if kind == "br":
        return list(token[1])
    n = token[1]
    if kind == "A":
        return [("pq", 2, n + 1)] if n % 2 == 0 else [("pq", 1, 1), ("pq", 1, 1)]
    if kind == "D":
        return branches(("A", n - 3)) + [("pq", 1, 1)]
    return {6: [("pq", 3, 4)], 7: [("pq", 2, 3), ("pq", 1, 1)], 8: [("pq", 3, 5)]}[n]


def render(token, canonical: bool = False) -> str:
    """Mini-language text of a structured token; canonical spells out nodes."""
    kind = token[0]
    if kind == "pq":
        return f"pq({token[1]},{token[2]})"
    if kind == "sg":
        return "sg(" + ",".join(map(str, token[1])) + ")"
    if kind in ("A", "D", "E"):
        return f"{kind}{token[1]}"
    if kind == "node" and not canonical:
        return "node"
    return "branches[" + ";".join(render(b, canonical) for b in branches(token)) + "]"
