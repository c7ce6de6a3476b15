"""The epsilon invariant of curve singularities and curve multiplicities.

epsilon counts the rank-1 torsion-free module classes of a singular
point; a rational curve contributes the product of epsilon over its
singular points to the count of rational curves in its linear system.
Three routes compute it; each descriptor's ``epsilon`` calls the one named
``method`` and its ``verify`` calls an independent one, returning a ``Route``:

* ``PlanarPQ``, the planar unibranch point u^p = v^q with p and q
  coprime: ``numsg``'s closed form binomial(p+q,p)/(p+q), checked by
  Delta-set enumeration over <p,q>;
* ``SemigroupPoint``: exhaustive Delta-set enumeration for any value
  semigroup (``epsilon_semigroup``, which alone loads ``semimodule``),
  checked by the closed form when it has two minimal generators;
* ``Ade``: a lookup table for the simple singularities, checked by the
  product over the planar branches each decomposes into;
* ``MultiBranch``: the product over its branches, checked by verifying
  each branch in turn; the first skipped branch ends the check.

A smooth branch is the degenerate planar point with p = q = 1 and has
epsilon 1; a node is two transversal smooth branches and also counts 1.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import accumulate
from math import prod
from operator import index as _index

from . import CurveSpecError, Record, _int_values
from .numsg import NumericalSemigroup, semigroup_from_generators
from .numsg import count_necklaces, pair_semigroup, require_coprime


class Route(Record):
    """One route's outcome: ``Route(method, value)``, or ``Route(reason=...)`` if skipped;
    each is one direct call, and tests/test_design_rules.py checks that two share no function."""

    _fields = ("method", "value", "reason")

    def __init__(self, method=None, value=None, reason=None) -> None:
        vars(self).update(method=method, value=value, reason=reason)


class Singularity:
    """Base for the singular-point descriptors below.

    ``epsilon`` is one direct call into the route named ``method``, and
    ``verify(max_window=None)`` one into an independent route; its ``Route`` is
    skipped when none exists or an enumeration window exceeds ``max_window``.
    """

    method: str  # the route that computes ``epsilon``

    @property
    def delta(self) -> int | None:
        """Local delta invariant, when the descriptor determines it."""
        return None


class PlanarPQ(Singularity, Record):
    """Unibranch planar point u^p = v^q with p, q coprime; smooth is (1,1)."""

    _fields = ("p", "q")
    method = "closed-form"

    def __init__(self, p: int, q: int) -> None:
        p, q = require_coprime(p, q)
        vars(self).update(p=p, q=q)

    @cached_property
    def epsilon(self) -> int:
        return epsilon_pq(self.p, self.q)

    def verify(self, max_window: int | None = None) -> Route:
        s = pair_semigroup(self.p, self.q)
        window = s.frobenius + s.genus
        if max_window is not None and window > max_window:
            return Route(reason=f"enumeration window {window} exceeds max-window {max_window}")
        return Route("enumeration", epsilon_semigroup(s))

    @property
    def delta(self) -> int:
        return (self.p - 1) * (self.q - 1) // 2

    def __str__(self) -> str:
        return f"pq({self.p},{self.q})"


_ADE_INDEX_FLOOR = {"A": 1, "D": 4, "E": 6}


class Ade(Singularity, Record):
    """A simple singularity A_n (n>=1), D_n (n>=4), or E_6, E_7, E_8."""

    _fields = ("family", "index")
    method = "ade-table"

    def __init__(self, family: str, index: int) -> None:
        index = _index(index)
        if family not in _ADE_INDEX_FLOOR:
            raise ValueError(f"family must be A, D, or E, got {family!r}")
        if index < _ADE_INDEX_FLOOR[family]:
            raise ValueError(f"{family}_{index} is not a valid simple singularity")
        if family == "E" and index not in (6, 7, 8):
            raise ValueError(f"E_{index} is not a simple curve singularity")
        vars(self).update(family=family, index=index)

    @cached_property
    def epsilon(self) -> int:
        return epsilon_ade(self)

    def verify(self, max_window: int | None = None) -> Route:
        value = prod(epsilon_pq(b.p, b.q) for b in branches_of_ade(self))
        return Route("branch-product", value)

    @property
    def delta(self) -> int:
        # Milnor relation for simple singularities: index = 2*delta - r + 1
        return (self.index + len(branches_of_ade(self)) - 1) // 2

    def __str__(self) -> str:
        return f"{self.family}{self.index}"


class SemigroupPoint(Singularity, Record):
    """A monomial unibranch point given by its value semigroup."""

    _fields = ("semigroup",)
    method = "enumeration"

    def __init__(self, semigroup: NumericalSemigroup) -> None:
        vars(self).update(semigroup=semigroup)

    @cached_property
    def epsilon(self) -> int:
        return epsilon_semigroup(self.semigroup)

    def verify(self, max_window: int | None = None) -> Route:
        # two minimal generators of a numerical semigroup are coprime, and
        # <1> is the smooth point pq(1,1)
        gens = self.semigroup.minimal_generators
        if len(gens) <= 2:
            return Route("closed-form", epsilon_pq(gens[0], gens[-1]))
        return Route(reason="no independent closed form for this semigroup")

    @property
    def delta(self) -> int:
        return self.semigroup.genus

    def __str__(self) -> str:
        return "sg(" + ",".join(str(g) for g in self.semigroup.generators) + ")"


class MultiBranch(Singularity, Record):
    """A point with several branches; epsilon multiplies over them."""

    _fields = ("branches",)
    method = "branch-product"

    def __init__(self, branches) -> None:
        branches = tuple(branches)
        if not branches:
            raise ValueError("a multibranch point needs at least one branch")
        vars(self).update(branches=branches)

    @cached_property
    def epsilon(self) -> int:
        return prod(b.epsilon for b in self.branches)

    def verify(self, max_window: int | None = None) -> Route:
        value = 1
        for b in self.branches:
            route = b.verify(max_window)
            if route.reason is not None:
                return route
            value *= route.value
        return Route("per-branch", value)

    def __str__(self) -> str:
        return "branches[" + ";".join(str(b) for b in self.branches) + "]"


NODE = MultiBranch((PlanarPQ(1, 1), PlanarPQ(1, 1)))


def epsilon_pq(p: int, q: int) -> int:
    """Closed form binomial(p+q,p)/(p+q) for the point u^p = v^q."""
    return count_necklaces(p, q)


def epsilon_semigroup(s: NumericalSemigroup) -> int:
    """epsilon by exhaustive count of the Delta-sets of ``s``."""
    from .semimodule import enumerate_delta_sets  # only an enumerating route loads it
    return len(enumerate_delta_sets(s))


def epsilon_ade(sing: Ade) -> int:
    """Table of epsilon for the simple singularities."""
    fam, n = sing.family, sing.index
    if fam == "A":
        return n // 2 + 1 if n % 2 == 0 else 1
    if fam == "D":
        return 1 if n % 2 == 0 else (n - 1) // 2
    return {6: 5, 7: 2, 8: 7}[n]


def branches_of_ade(sing: Ade) -> list[PlanarPQ]:
    """Decompose a simple singularity into planar unibranch leaves.

    A_even is already unibranch of type (2, n+1); A_odd is two smooth
    branches; D_n is an A_(n-3) point plus a transversal smooth branch;
    E_7 is a cusp plus its tangent line.
    """
    fam, n = sing.family, sing.index
    smooth = PlanarPQ(1, 1)
    if fam in ("A", "D"):
        k, extra = (n, []) if fam == "A" else (n - 3, [smooth])
        return ([PlanarPQ(2, k + 1)] if k % 2 == 0 else [smooth, smooth]) + extra
    if n == 6:
        return [PlanarPQ(3, 4)]
    if n == 7:
        return [PlanarPQ(2, 3), smooth]
    return [PlanarPQ(3, 5)]


class CurveRecord(Record):
    """A rational curve as its list of singular points."""

    _fields = ("label", "singularities")

    def __init__(self, label: str, singularities) -> None:
        vars(self).update(label=label, singularities=tuple(singularities))

    @cached_property
    def multiplicity(self) -> int:
        return prod(s.epsilon for s in self.singularities)


def multiplicity(curve: CurveRecord) -> int:
    """Product of epsilon over the curve's singular points; 1 when smooth."""
    return curve.multiplicity


class GenusSumReport(Record):
    """Outcome of comparing a curve list with the predicted count; ``equal`` is derived."""

    _fields = ("sum", "expected", "equal")

    def __init__(self, sum: int, expected: int) -> None:
        vars(self).update(sum=sum, expected=expected, equal=sum == expected)


def check_genus_sum(curves, g: int) -> GenusSumReport:
    """Compare the total multiplicity of ``curves`` with e(g).

    A mismatch is a reported outcome, not an error: the caller supplies
    the curve list, and this artifact has no surface model to derive it
    from.
    """
    from .qseries import yau_zaslow_coefficients  # only check reads e(g)

    if g < 0:
        raise ValueError("g must be non-negative")
    total = sum(c.multiplicity for c in curves)
    expected = yau_zaslow_coefficients(g)[g]
    return GenusSumReport(total, expected)


# --- singularity mini-language -------------------------------------------
#
# token    := "node" | ADE | PQ | SG | BRANCHES
# ADE      := ("A" | "D" | "E") integer
# PQ       := "pq(" integer "," integer ")"
# SG       := "sg(" integer ("," integer)* ")"
# BRANCHES := "branches[" token (";" token)* "]"
#
# A curve is a comma-separated token list; "node" abbreviates
# branches[pq(1,1);pq(1,1)].  Spaces may surround tokens and separators.
# Syntax problems raise CurveSpecError; well-formed tokens with impossible
# numbers (gcd > 1, bad ADE index) raise plain ValueError from the
# descriptor constructors.  Bracket balance is checked once over the whole
# text; after that, errors come in reading order.

_HEAD = re.compile(r"\s*(?:(node)|([ADE])([0-9]+)|(pq|sg)\(([^()\[\]]*)\)|(branches)\[)")
_SPACE = re.compile(r"\s*")


def _parse(text: str, pos: int, ends: tuple[str, ...]) -> tuple[Singularity, int]:
    """Parse the token at ``pos``; return it and the index past its separator.

    Past any spaces the token must be followed by one of ``ends`` ("" for the
    end of ``text``), checked before it is built.  One frame per nesting level.
    """
    m = _HEAD.match(text, pos)
    if not m:
        raise CurveSpecError(f"unrecognized singularity token at {text[pos:]!r}")
    node, family, digits, kind, body, group = m.groups()
    end, branches = m.end(), []
    while group and text[end - 1] in "[;":
        branch, end = _parse(text, end, (";", "]"))
        branches.append(branch)
    end = _SPACE.match(text, end).end()
    if text[end:end + 1] not in ends:
        raise CurveSpecError(f"unexpected {text[end:]!r} after {text[pos:end].strip()!r}")
    if node:
        return NODE, end + 1
    if family:
        return Ade(family, int(digits)), end + 1
    if group:
        return MultiBranch(branches), end + 1
    token = m.group(0).strip()
    values = _int_values(body, token)
    if kind == "sg":
        return SemigroupPoint(semigroup_from_generators(values)), end + 1
    if len(values) != 2:
        raise CurveSpecError(f"pq takes exactly two integers, got {token!r}")
    return PlanarPQ(*values), end + 1


def _parse_all(text: str, sep: str):
    """Check bracket balance, then yield the ``sep``-separated tokens in order."""
    depth = list(accumulate(((ch in "([") - (ch in ")]") for ch in text), initial=0))
    if min(depth) < 0 or depth[-1]:
        raise CurveSpecError(f"unbalanced brackets in {text!r}")
    end = 0
    while end <= len(text):
        sing, end = _parse(text, end, ("", sep))
        yield sing


def parse_singularity(token: str) -> Singularity:
    """Parse one token of the singularity mini-language."""
    return next(_parse_all(token, ""))


def parse_curve(text: str, label: str = "curve") -> CurveRecord:
    """Parse a comma-separated singularity list into a curve record."""
    if not text.strip():
        raise CurveSpecError("empty curve description; a smooth curve is written pq(1,1)")
    return CurveRecord(label, _parse_all(text, ","))


def parse_curve_file(text: str) -> list[CurveRecord]:
    """One curve per line; blank lines and text after ``#`` are ignored.

    A line's parse error is raised again as its class, prefixed ``line N: ``.
    """
    curves = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        label = f"line {lineno}"
        try:
            curves.append(parse_curve(line, label=label))
        except ValueError as exc:
            raise type(exc)(f"{label}: {exc}") from exc
    return curves
