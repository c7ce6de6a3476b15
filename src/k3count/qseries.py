"""Exact truncated power series over the integers.

A series of order n knows the coefficients of q^0 .. q^(n-1); everything
past the truncation is discarded.  Coefficients are plain Python ints, so
all arithmetic is exact at any size.

The expansion this module exists for is the reciprocal 24th-power Euler
product prod_{n>=1} (1 - q^n)^(-24).  Its q^g coefficient e(g) counts the
partitions of g into parts of 24 colours and is the predicted number of
rational curves in a g-dimensional linear system on a K3 surface, with
e(0) = 1.  ``yau_zaslow_coefficients`` returns that sequence.

``euler_product`` gets any power of the Euler product from one exact
recurrence over the sparse pentagonal series; the dense ring below is
public API and its independent cross-check, not part of that path.
"""

from __future__ import annotations

from math import isqrt
from operator import index

from ._record import Record


class NonInvertibleError(ValueError):
    """The constant term is not a unit of Z, so no integer inverse exists."""


class TruncatedSeries(Record):
    """An integer series known modulo q^order, order = len(coeffs)."""

    _fields = ("coeffs",)

    def __init__(self, coeffs) -> None:
        coeffs = tuple(coeffs)
        if len(coeffs) == 0:
            raise ValueError("a truncated series needs at least its constant term")
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"coefficients must be ints, got {type(c).__name__}")
        vars(self).update(coeffs=tuple(map(index, coeffs)))

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return series_mul(self, other)

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"


def series_one(order: int) -> TruncatedSeries:
    """The multiplicative identity 1 + O(q^order)."""
    if order < 1:
        raise ValueError("order must be at least 1")
    return TruncatedSeries((1,) + (0,) * (order - 1))


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated to the smaller of the two orders."""
    order = min(a.order, b.order)
    out = [0] * order
    for i in range(order):
        for j in range(order - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return TruncatedSeries(tuple(out))


def series_inv(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse at the same order.

    Only series with constant term +1 or -1 are invertible over Z.  The
    coefficients come from the triangular recurrence
    b(n) = -(1/a0) * sum_{k=1..n} a(k) b(n-k), and 1/a0 = a0 for a unit.
    """
    c0 = a.coeffs[0]
    if c0 not in (1, -1):
        raise NonInvertibleError(
            f"constant term {c0} is not a unit of Z; cannot invert"
        )
    inv = [c0] + [0] * (a.order - 1)
    for n in range(1, a.order):
        inv[n] = -c0 * sum(a.coeffs[k] * inv[n - k] for k in range(1, n + 1))
    return TruncatedSeries(tuple(inv))


def euler_product(exponent: int, order: int) -> TruncatedSeries:
    """prod_{n>=1} (1 - q^n)^exponent, truncated at ``order``.

    By Euler's pentagonal number theorem a = prod (1 - q^n) is sparse:
    a(j) = (-1)^k at j = k(3k -+ 1)/2.  J. C. P. Miller's recurrence
    (Knuth, TAOCP Vol. 2, 4.7) gives b = a^exponent for any integer
    exponent since a(0) = 1: n b(n) = sum_j ((exponent+1) j - n) a(j) b(n-j),
    and the division by n is exact because b has integer coefficients.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    coeffs = [1] + [0] * (order - 1)
    # (j, a(j)) for the nonzero a(j), 0 < j < order, by increasing j; k*k <= j
    terms = [(k * (3 * k + s) // 2, (-1) ** k) for k in range(1, isqrt(order) + 1)
             for s in (-1, 1) if k * (3 * k + s) // 2 < order]
    for n in range(1, order):
        acc = 0
        for j, sign in terms:
            if j > n:
                break
            acc += sign * ((exponent + 1) * j - n) * coeffs[n - j]
        coeffs[n], rem = divmod(acc, n)
        assert rem == 0, "power recurrence left a remainder"
    return TruncatedSeries(tuple(coeffs))


def yau_zaslow_coefficients(gmax: int) -> list[int]:
    """The curve counts e(0..gmax), e(g) = [q^g] prod (1 - q^n)^(-24).

    Equivalently e(g) is the coefficient of q^(g+1) in q over the modular
    discriminant q*prod(1-q^n)^24; the curve-free form used here avoids
    the removable q = 0 singularity.  e(0) = 1 and e(1) = 24.
    """
    if gmax < 0:
        raise ValueError("gmax must be non-negative")
    return list(euler_product(-24, gmax + 1).coeffs)
