"""Epsilon routes, ADE table, branch decompositions, and the parser."""

import sys
import tracemalloc
from collections import Counter
from functools import cached_property
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from k3count import numsg
from k3count.invariants import (
    NODE,
    Ade,
    CurveRecord,
    CurveSpecError,
    MultiBranch,
    PlanarPQ,
    Route,
    SemigroupPoint,
    Singularity,
    branches_of_ade,
    check_genus_sum,
    epsilon_ade,
    epsilon_pq,
    epsilon_semigroup,
    multiplicity,
    parse_curve,
    parse_curve_file,
    parse_singularity,
)
from k3count.numsg import (
    InfiniteComplementError,
    count_necklaces,
    pair_semigroup,
    semigroup_from_generators,
)

DESK_PAIRS = [
    (p, q)
    for p in range(2, 13)
    for q in range(p + 1, 13)
    if p + q <= 14 and gcd(p, q) == 1
]

ADE_TABLE = {
    ("A", 2): 2, ("A", 4): 3, ("A", 6): 4, ("A", 8): 5,  # A_2l -> l+1
    ("A", 1): 1, ("A", 3): 1, ("A", 5): 1, ("A", 7): 1,  # A_2l+1 -> 1
    ("D", 4): 1, ("D", 6): 1, ("D", 8): 1,               # D_2l -> 1
    ("D", 5): 2, ("D", 7): 3, ("D", 9): 4,               # D_2l+1 -> l
    ("E", 6): 5, ("E", 7): 2, ("E", 8): 7,
}


class TestEpsilonPQ:
    def test_known_values(self):
        assert epsilon_pq(2, 3) == 2
        assert epsilon_pq(2, 5) == 3
        assert epsilon_pq(3, 5) == 7

    def test_smooth_point(self):
        assert epsilon_pq(1, 1) == 1
        assert all(epsilon_pq(1, q) == 1 for q in range(1, 20))

    def test_gcd_failure(self):
        with pytest.raises(ValueError):
            epsilon_pq(4, 6)

    @pytest.mark.parametrize("p,q", [(2.0, 3), (2, "3"), (3.5, 5)])
    def test_non_integer_exponent_rejected(self, p, q):
        with pytest.raises(TypeError):
            PlanarPQ(p, q)

    def test_non_positive_exponent_rejected(self):
        with pytest.raises(ValueError, match="must be positive"):
            PlanarPQ(0, 1)

    def test_bool_exponent_becomes_int(self):
        point = PlanarPQ(True, 2)
        assert str(point) == "pq(1,2)" and point == PlanarPQ(1, 2)

    def test_symmetry(self):
        for p, q in DESK_PAIRS:
            assert epsilon_pq(p, q) == epsilon_pq(q, p)


class TestEpsilonSemigroup:
    def test_trivial(self):
        assert epsilon_semigroup(semigroup_from_generators({1})) == 1

    def test_cusp(self):
        assert epsilon_semigroup(semigroup_from_generators({2, 3})) == 2

    def test_four_five(self):
        assert epsilon_semigroup(semigroup_from_generators({4, 5})) == 14

    @pytest.mark.parametrize("p,q", DESK_PAIRS)
    def test_three_way_agreement(self, p, q):
        enumerated = epsilon_semigroup(semigroup_from_generators({p, q}))
        assert enumerated == epsilon_pq(p, q) == count_necklaces(p, q)


class TestEpsilonAde:
    @pytest.mark.parametrize("family,index,expected", [
        (f, i, e) for (f, i), e in ADE_TABLE.items()
    ])
    def test_table(self, family, index, expected):
        assert epsilon_ade(Ade(family, index)) == expected

    def test_spotchecks(self):
        assert epsilon_ade(Ade("A", 4)) == 3
        assert epsilon_ade(Ade("D", 7)) == 3
        assert epsilon_ade(Ade("E", 7)) == 2
        assert epsilon_ade(Ade("A", 3)) == 1

    @pytest.mark.parametrize("family,index", [
        ("A", 0), ("A", -2), ("D", 3), ("D", 2), ("E", 5), ("E", 9), ("F", 4),
    ])
    def test_invalid_labels(self, family, index):
        with pytest.raises(ValueError):
            Ade(family, index)

    @pytest.mark.parametrize("family,index", [("A", 2.0), ("E", 6.0), ("D", "5")])
    def test_non_integer_index_rejected(self, family, index):
        with pytest.raises(TypeError):
            Ade(family, index)

    def test_bool_index_becomes_int(self):
        point = Ade("A", True)
        assert str(point) == "A1" and point == Ade("A", 1)


class TestBranchesOfAde:
    def test_e7_is_cusp_plus_tangent(self):
        branches = branches_of_ade(Ade("E", 7))
        assert [(b.p, b.q) for b in branches] == [(2, 3), (1, 1)]
        assert prod(b.epsilon for b in branches) == 2

    def test_d9(self):
        branches = branches_of_ade(Ade("D", 9))
        assert [(b.p, b.q) for b in branches] == [(2, 7), (1, 1)]
        assert prod(b.epsilon for b in branches) == 4 == epsilon_ade(Ade("D", 9))

    def test_a5_is_two_smooth_branches(self):
        assert [(b.p, b.q) for b in branches_of_ade(Ade("A", 5))] == [(1, 1), (1, 1)]

    def test_d4_is_three_smooth_branches(self):
        assert [(b.p, b.q) for b in branches_of_ade(Ade("D", 4))] == [
            (1, 1), (1, 1), (1, 1),
        ]

    @pytest.mark.parametrize("family,index", [
        ("A", n) for n in range(1, 14)
    ] + [
        ("D", n) for n in range(4, 14)
    ] + [
        ("E", n) for n in (6, 7, 8)
    ])
    def test_branch_product_matches_table(self, family, index):
        sing = Ade(family, index)
        assert prod(b.epsilon for b in branches_of_ade(sing)) == epsilon_ade(sing)

    @pytest.mark.parametrize("family,index,p,q", [
        ("A", 2, 2, 3), ("A", 4, 2, 5), ("A", 6, 2, 7), ("A", 12, 2, 13),
        ("E", 6, 3, 4), ("E", 8, 3, 5),
    ])
    def test_unibranch_cases_match_the_pq_route(self, family, index, p, q):
        branches = branches_of_ade(Ade(family, index))
        assert [(b.p, b.q) for b in branches] == [(p, q)]
        assert epsilon_ade(Ade(family, index)) == epsilon_pq(p, q)


class TestDeltaInvariant:
    def test_planar_formula(self):
        assert PlanarPQ(3, 5).delta == 4
        assert PlanarPQ(1, 1).delta == 0
        assert PlanarPQ(2, 3).delta == 1

    def test_semigroup_genus(self):
        assert SemigroupPoint(semigroup_from_generators({3, 5})).delta == 4

    def test_unibranch_ade_matches_planar(self):
        for sing, planar in [
            (Ade("A", 2), PlanarPQ(2, 3)),
            (Ade("A", 6), PlanarPQ(2, 7)),
            (Ade("E", 6), PlanarPQ(3, 4)),
            (Ade("E", 8), PlanarPQ(3, 5)),
        ]:
            assert sing.delta == planar.delta

    def test_node_and_tacnode(self):
        assert Ade("A", 1).delta == 1
        assert Ade("A", 3).delta == 2
        assert Ade("D", 4).delta == 3

    def test_multibranch_delta_is_unknown(self):
        assert NODE.delta is None


class TestMultiplicity:
    def test_nodal_curve_counts_once(self):
        curve = CurveRecord("nodal", (NODE, NODE, NODE))
        assert multiplicity(curve) == 1

    def test_a3_counts_once(self):
        assert multiplicity(CurveRecord("bitangent", (Ade("A", 3),))) == 1

    def test_e8_plus_nodes(self):
        curve = CurveRecord("mixed", (Ade("E", 8), NODE, NODE))
        assert multiplicity(curve) == 7

    def test_smooth_curve(self):
        assert multiplicity(CurveRecord("smooth", ())) == 1

    @given(
        st.lists(
            st.sampled_from([NODE, Ade("A", 2), Ade("E", 8), PlanarPQ(2, 5)]),
            max_size=5,
        ),
        st.lists(
            st.sampled_from([NODE, Ade("A", 4), Ade("D", 5), PlanarPQ(3, 4)]),
            max_size=5,
        ),
    )
    def test_multiplicative_over_concatenation(self, first, second):
        m1 = multiplicity(CurveRecord("a", tuple(first)))
        m2 = multiplicity(CurveRecord("b", tuple(second)))
        joined = multiplicity(CurveRecord("ab", tuple(first) + tuple(second)))
        assert joined == m1 * m2

    @given(
        st.sampled_from(
            [NODE, Ade("A", 2), Ade("A", 9), Ade("D", 8), Ade("E", 6),
             PlanarPQ(2, 9), PlanarPQ(4, 5),
             MultiBranch((PlanarPQ(2, 3), PlanarPQ(1, 1), PlanarPQ(1, 1)))]
        )
    )
    @settings(deadline=None)
    def test_epsilon_at_least_one(self, sing):
        assert sing.epsilon >= 1


class TestCheckGenusSum:
    def test_twenty_four_nodal_curves_at_genus_one(self):
        curves = [CurveRecord(f"c{i}", (NODE,)) for i in range(24)]
        report = check_genus_sum(curves, 1)
        assert (report.sum, report.expected, report.equal) == (24, 24, True)

    def test_one_smooth_member_at_genus_zero(self):
        report = check_genus_sum([CurveRecord("smooth", ())], 0)
        assert (report.sum, report.expected, report.equal) == (1, 1, True)

    def test_mismatch_is_reported_not_raised(self):
        curves = [CurveRecord(f"c{i}", (NODE,)) for i in range(323)]
        report = check_genus_sum(curves, 2)
        assert (report.sum, report.expected, report.equal) == (323, 324, False)

    def test_negative_genus_rejected(self):
        # the check's own message, not that of e(g) for gmax = -1
        with pytest.raises(ValueError, match="^g must be non-negative"):
            check_genus_sum([], -1)


SPACES = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def _leaves(draw):
    """A descriptor without branches and a spaced rendering of it."""
    kind = draw(st.sampled_from(["ade", "pq", "sg", "node"]))
    if kind == "node":
        return NODE, "node"
    if kind == "ade":
        family, index = draw(st.one_of(
            st.tuples(st.just("A"), st.integers(1, 30)),
            st.tuples(st.just("D"), st.integers(4, 30)),
            st.tuples(st.just("E"), st.integers(6, 8)),
        ))
        return Ade(family, index), f"{family}{index}"
    if kind == "pq":
        values = draw(st.tuples(st.integers(1, 12), st.integers(1, 12))
                      .filter(lambda pq: gcd(*pq) == 1))
        sing = PlanarPQ(*values)
    else:
        values = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4)
                      .filter(lambda gens: gcd(*gens) == 1))
        sing = SemigroupPoint(semigroup_from_generators(values))
    inner = ",".join(draw(SPACES) + str(v) + draw(SPACES) for v in values)
    return sing, f"{kind}({inner})"


@st.composite
def _groups(draw, branches):
    parts = draw(st.lists(branches, min_size=1, max_size=3))
    inner = ";".join(draw(SPACES) + text + draw(SPACES) for _, text in parts)
    return MultiBranch(sing for sing, _ in parts), f"branches[{inner}]"


# (descriptor, text) pairs nested up to 5 levels deep
TREES = _leaves()
for _ in range(5):
    TREES = st.one_of(_leaves(), _groups(TREES))


class TestParser:
    def test_ade_tokens(self):
        assert parse_singularity("A3") == Ade("A", 3)
        assert parse_singularity(" E8 ") == Ade("E", 8)

    def test_pq_token(self):
        assert parse_singularity("pq(3,5)") == PlanarPQ(3, 5)
        assert parse_singularity("pq(2, 7)") == PlanarPQ(2, 7)

    def test_sg_token(self):
        sing = parse_singularity("sg(4,6,9)")
        assert isinstance(sing, SemigroupPoint)
        assert sing.semigroup.generators == (4, 6, 9)

    def test_node_alias(self):
        assert parse_singularity("node") == MultiBranch(
            (PlanarPQ(1, 1), PlanarPQ(1, 1))
        )

    def test_branches_token(self):
        sing = parse_singularity("branches[pq(2,3);pq(1,1)]")
        assert sing == MultiBranch((PlanarPQ(2, 3), PlanarPQ(1, 1)))

    def test_nested_branches(self):
        sing = parse_singularity("branches[node;branches[A2;pq(1,1)]]")
        assert sing.epsilon == 2

    def test_curve_splitting_respects_brackets(self):
        curve = parse_curve("E8,branches[pq(2,3);pq(1,1)],pq(2,5)")
        assert len(curve.singularities) == 3
        assert curve.multiplicity == 7 * 2 * 3

    @pytest.mark.parametrize("bad", [
        "", "  ", "Q3", "A", "3", "pq(2)", "pq(2,3,5)", "pq(2,x)",
        "sg()", "branches[]", "branches[pq(2,3)", "pq(2,3))", "nodes",
        "pq (2,3)", "A 3", "A1,A2", "branches[A1;]", "branches[A1 A2]",
        "branches[A1)", "pq(2,[3])", "branches[A1]]",
        # the text after a token is read before the token is built
        "pq(4,6)x", "A0 A1", "branches[D3 A1]",
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(CurveSpecError):
            parse_singularity(bad)

    def test_domain_errors_are_not_syntax_errors(self):
        with pytest.raises(ValueError) as err:
            parse_singularity("pq(4,6)")
        assert not isinstance(err.value, CurveSpecError)
        with pytest.raises(InfiniteComplementError):
            parse_singularity("sg(4,6)")
        with pytest.raises(ValueError):
            parse_singularity("D3")

    def test_curve_file(self):
        text = "node,node\n# pure comment\n\nE8 # inline comment\npq(1,1)\n"
        curves = parse_curve_file(text)
        assert [c.multiplicity for c in curves] == [1, 7, 1]
        assert curves[1].label == "line 4"

    def test_empty_curve_rejected(self):
        with pytest.raises(CurveSpecError, match="empty curve description"):
            parse_curve("   ")

    def test_format_roundtrip(self):
        for token in ["A3", "E8", "pq(3,5)", "sg(4,6,9)",
                      "branches[pq(2,3);pq(1,1)]"]:
            sing = parse_singularity(token)
            assert parse_singularity(str(sing)) == sing

    def test_deep_nesting_parses(self):
        sing = parse_singularity("branches[" * 700 + "A1" + "]" * 700)
        depth = 0
        while isinstance(sing, MultiBranch):
            (sing,) = sing.branches
            depth += 1
        assert depth == 700 and sing == Ade("A", 1)

    @pytest.mark.parametrize("text", ["pq(4,6),branches[A1", "pq(4,6),)A1("])
    def test_bracket_balance_is_checked_first(self, text):
        with pytest.raises(CurveSpecError, match="unbalanced"):
            parse_curve(text)

    def test_other_errors_come_in_reading_order(self):
        with pytest.raises(ValueError) as err:
            parse_curve("pq(4,6),Q3")
        assert not isinstance(err.value, CurveSpecError)
        # the impossible semigroup is read before the text after the group
        with pytest.raises(InfiniteComplementError):
            parse_singularity("branches[sg(4,6)]x")

    @given(TREES, SPACES, SPACES)
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_rendered_tree_round_trips(self, tree, before, after):
        sing, text = tree
        assert parse_singularity(before + text + after) == sing
        assert parse_singularity(str(sing)) == sing

    @given(st.lists(st.tuples(SPACES, TREES, SPACES), min_size=1, max_size=4))
    @settings(derandomize=True, max_examples=50, deadline=None)
    def test_rendered_curve_round_trips(self, items):
        text = ",".join(before + tree[1] + after for before, tree, after in items)
        assert parse_curve(text).singularities == tuple(tree[0] for _, tree, _ in items)


class TestDescriptorContract:
    """Each descriptor names its route and checks it; the CLI relies on both."""

    @pytest.mark.parametrize("cls", [PlanarPQ, Ade, SemigroupPoint, MultiBranch])
    def test_defines_method_verify_and_epsilon(self, cls):
        assert isinstance(cls.__dict__["method"], str)
        assert callable(cls.__dict__["verify"])
        assert isinstance(cls.__dict__["epsilon"], cached_property)

    def test_base_leaves_epsilon_and_verify_to_each_descriptor(self):
        assert "epsilon" not in vars(Singularity) and "verify" not in vars(Singularity)

    def test_methods_are_distinct(self):
        methods = {cls.method for cls in Singularity.__subclasses__()}
        assert methods == {"closed-form", "ade-table", "enumeration", "branch-product"}

    def test_multibranch_needs_a_branch(self):
        with pytest.raises(ValueError, match="at least one branch"):
            MultiBranch(())

    @pytest.mark.parametrize("token", ["pq(3,5)", "sg(4,5)", "sg(1)", "E7", "D9", "branches[A2;node]"])
    def test_verify_agrees_with_epsilon(self, token):
        sing = parse_singularity(token)
        result = sing.verify()
        assert isinstance(result, Route)
        assert result.reason is None
        assert result.value == sing.epsilon
        assert result.method != sing.method

    @pytest.mark.parametrize("typed,minimal", [
        ((2, 4, 5), (2, 5)),
        ((3, 5, 10), (3, 5)),
        ((1, 2), (1,)),
        ((4, 6, 9, 12), (4, 6, 9)),
    ])
    def test_semigroup_verify_depends_on_the_semigroup_only(self, typed, minimal):
        point = SemigroupPoint(semigroup_from_generators(typed))
        same = SemigroupPoint(semigroup_from_generators(minimal))
        assert point.verify() == same.verify()
        assert str(point) == "sg(" + ",".join(map(str, typed)) + ")"

    def test_window_skip_names_the_window(self):
        assert PlanarPQ(3, 5).verify(max_window=5) == Route(
            reason="enumeration window 11 exceeds max-window 5"
        )
        assert PlanarPQ(3, 5).verify(max_window=10) == Route(
            reason="enumeration window 11 exceeds max-window 10"
        )
        assert PlanarPQ(3, 5).verify(max_window=11) == Route("enumeration", 7)

    def test_multibranch_verify_stops_at_first_skip(self, monkeypatch):
        # the first skipped branch is the answer, so no later branch is verified
        def refuse(self, max_window=None):
            raise AssertionError(f"{self} verified after a skipped branch")

        monkeypatch.setattr(Ade, "verify", refuse)
        assert MultiBranch((PlanarPQ(3, 5), Ade("E", 8))).verify(max_window=5) == Route(
            reason="enumeration window 11 exceeds max-window 5"
        )

    def test_verify_looks_the_checked_pair_up(self):
        # PlanarPQ checked p and q when built, so verify reads the cached
        # <3,5> through pair_semigroup and normalizes no generators again
        pair_semigroup(3, 5)
        counted = Counter()

        def profile(frame, event, arg):
            if event == "call":
                counted[frame.f_code.co_name] += 1

        point = PlanarPQ(3, 5)
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            result = point.verify()
        finally:
            sys.setprofile(previous)
        assert result == Route("enumeration", 7)
        assert counted["_normalized_generators"] == 0

    def test_window_skip_builds_no_gap_list(self):
        # the window is frobenius + genus, read off the 1000 Apéry members
        # of <1000,1001>; its 499500 gaps would take about 23 MiB
        numsg._semigroup.cache_clear()
        tracemalloc.start()
        try:
            result = PlanarPQ(1000, 1001).verify(max_window=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == Route(reason="enumeration window 1498499 exceeds max-window 3")
        assert peak < 2 ** 20
