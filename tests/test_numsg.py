"""Semigroup construction against the classical two-generator facts."""

from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from k3count import numsg
from k3count.numsg import (
    InfiniteComplementError,
    NumericalSemigroup,
    cogenus,
    gaps_below,
    semigroup_from_generators,
)
from k3count.semimodule import count_necklaces, delta_to_necklace, necklace_to_delta

from oracles import cogenus_by_classes, gaps_by_classes, naive_members, reachability_gap_sieve

coprime_pairs = [
    (p, q) for p in range(2, 12) for q in range(p + 1, 13) if gcd(p, q) == 1
]


def generator_sets():
    return st.lists(
        st.integers(min_value=1, max_value=15), min_size=1, max_size=4
    ).filter(lambda gs: gcd(*gs) == 1 if len(gs) > 1 else gs[0] == 1)


class TestConstruction:
    def test_all_of_n(self):
        s = semigroup_from_generators({1})
        assert s.gap_set == ()
        assert s.genus == 0
        assert s.frobenius == -1

    def test_two_three(self):
        s = semigroup_from_generators({2, 3})
        assert s.gap_set == (1,)
        assert s.genus == 1
        assert s.frobenius == 1

    def test_three_five(self):
        s = semigroup_from_generators({3, 5})
        assert s.gap_set == (1, 2, 4, 7)
        assert s.genus == 4
        assert s.frobenius == 7

    def test_gcd_failure(self):
        with pytest.raises(InfiniteComplementError):
            semigroup_from_generators({4, 6})

    def test_empty_generators(self):
        with pytest.raises(ValueError):
            semigroup_from_generators(set())

    def test_non_positive_generator(self):
        with pytest.raises(ValueError):
            semigroup_from_generators({0, 3})

    @pytest.mark.parametrize("gens", [[3.7, 5], ["3", 5], [3.0, 5]])
    def test_non_integer_generator_is_not_truncated(self, gens):
        with pytest.raises(TypeError):
            semigroup_from_generators(gens)

    def test_bool_generators_are_stored_as_ints(self):
        s = NumericalSemigroup((True, 2))
        assert [type(g) for g in s.generators] == [int, int]
        assert str(s) == "⟨1,2⟩"

    def test_duplicates_collapse(self):
        s = semigroup_from_generators([3, 3, 5, 5])
        assert s.generators == (3, 5)

    def test_no_coprime_pair_among_generators(self):
        # pairwise gcds are 2, 3, 5 but the overall gcd is 1
        s = semigroup_from_generators({6, 10, 15})
        members = naive_members((6, 10, 15), 200)
        assert s.gap_set == tuple(n for n in range(200) if n not in members)
        assert s.frobenius == 29

    def test_dataclass_rejects_wrong_gap_set(self):
        # the gap set is computed from the generators, never taken as input
        with pytest.raises(TypeError):
            NumericalSemigroup((3, 5), (1, 2, 4, 7))

    def test_display_form(self):
        assert str(semigroup_from_generators({5, 3})) == "⟨3,5⟩"


class TestMembership:
    def test_examples(self):
        s = semigroup_from_generators({3, 5})
        assert 8 in s
        assert 7 not in s
        assert -1 not in s

    def test_zero_is_always_a_member(self):
        for p, q in coprime_pairs:
            assert 0 in semigroup_from_generators({p, q})


class TestClassicalFacts:
    @pytest.mark.parametrize("p,q", coprime_pairs)
    def test_sylvester_genus_and_frobenius(self, p, q):
        s = semigroup_from_generators({p, q})
        assert s.genus == (p - 1) * (q - 1) // 2
        assert s.frobenius == p * q - p - q

    @pytest.mark.parametrize("p,q", [(2, 1001), (100, 101)])
    def test_sylvester_at_scale(self, p, q):
        s = semigroup_from_generators({p, q})
        assert s.genus == (p - 1) * (q - 1) // 2
        assert s.frobenius == p * q - p - q
        assert s.gap_set == reachability_gap_sieve((p, q))

    @pytest.mark.parametrize("p,q", coprime_pairs)
    def test_sieve_matches_naive_reachability(self, p, q):
        s = semigroup_from_generators({p, q})
        bound = s.frobenius + 2
        members = naive_members((p, q), bound)
        assert set(s.gap_set) == set(range(bound)) - members
        assert s.gap_set == reachability_gap_sieve((p, q))

    @given(generator_sets())
    @example([1])
    @example([1, 4, 6])
    @example([6, 10, 15])
    @example([3, 5, 8, 9])
    @example([4, 5, 11, 20])
    def test_gap_set_matches_naive_reachability(self, gens):
        # any number of generators, non-minimal sets and sets holding 1
        s = semigroup_from_generators(gens)
        bound = s.frobenius + 2
        members = naive_members(gens, bound)
        assert set(s.gap_set) == set(range(bound)) - members
        gaps = reachability_gap_sieve(gens)
        assert s.gap_set == gaps
        # Selmer's formulas read both off the Apéry set, not off the gap list
        assert s.genus == len(gaps)
        assert s.frobenius == max(gaps, default=-1)


class TestAperyForm:
    @given(generator_sets())
    @example([1])
    @example([4, 6, 9])
    def test_apery_is_the_least_member_of_each_class(self, gens):
        s = semigroup_from_generators(gens)
        m = min(gens)
        members = naive_members(gens, s.frobenius + m)
        assert s.apery == tuple(
            min(n for n in members if n % m == r) for r in range(m)
        )
        window = range(-m, s.frobenius + m + 1)
        assert [n in s for n in window] == [n in members for n in window]

    @given(generator_sets())
    @example([1, 2])
    @example([2, 4, 5])
    @example([3, 5, 10])
    @example([4, 5, 8, 9])
    def test_minimal_generators_are_the_irreducible_members(self, gens):
        s = semigroup_from_generators(gens)
        nonzero = naive_members(gens, max(gens)) - {0}
        irreducible = sorted(
            n for n in nonzero if not any(n - a in nonzero for a in nonzero)
        )
        assert s.minimal_generators == tuple(irreducible)
        assert semigroup_from_generators(irreducible).gap_set == s.gap_set

    @given(generator_sets(), st.integers(min_value=-40, max_value=40))
    @example([1], -3)
    @example([4, 6, 9], -9)
    def test_cogenus_moves_with_every_translate(self, gens, shift):
        # Selmer's count over a translate of the Apéry set, in any order,
        # moves by the shift, also once some least members are negative
        s = semigroup_from_generators(gens)
        assert cogenus(s.apery) == s.genus == len(s.gap_set)
        assert cogenus([w + shift for w in reversed(s.apery)]) == s.genus + shift

    def test_minimal_generators_drop_redundant_ones(self):
        assert semigroup_from_generators({2, 4, 5}).minimal_generators == (2, 5)
        assert semigroup_from_generators({3, 5, 10}).minimal_generators == (3, 5)
        assert semigroup_from_generators({1, 2}).minimal_generators == (1,)


def one_per_class():
    """One w per class mod m, 1 <= m <= 12, in any order; some w may be negative."""
    return st.integers(min_value=1, max_value=12).flatmap(
        lambda m: st.lists(st.integers(min_value=-6, max_value=12), min_size=m, max_size=m)
        .map(lambda ks: [r + m * k for r, k in enumerate(ks)])
        .flatmap(st.permutations)
    )


class TestSelmerClosedForm:
    # such tuples reach cogenus from _shifted_to_genus, whose raw offsets may be negative
    @given(one_per_class())
    @example([-3])
    @example([5, -2, 0])
    def test_cogenus_is_the_per_class_sum(self, least):
        assert cogenus(least) == cogenus_by_classes(least)

    @given(one_per_class())
    @example([7, -3, 2])
    def test_gaps_below_lists_each_class(self, least):
        assert gaps_below(least) == gaps_by_classes(least)


class TestClosureProperties:
    @given(generator_sets())
    def test_members_closed_under_addition(self, gens):
        s = semigroup_from_generators(gens)
        bound = s.frobenius + 2 * max(s.generators)
        members = [n for n in range(bound + 1) if n in s]
        for a in members:
            for b in members:
                if a + b <= bound:
                    assert (a + b) in s

    @given(generator_sets())
    def test_regenerating_from_members_is_idempotent(self, gens):
        s = semigroup_from_generators(gens)
        least = min(s.generators)
        full = [n for n in range(1, s.frobenius + least + 2) if n in s]
        assert semigroup_from_generators(full).gap_set == s.gap_set

    @given(generator_sets())
    def test_no_gap_is_a_sum_of_two_members(self, gens):
        s = semigroup_from_generators(gens)
        for gap in s.gap_set:
            for a in range(gap + 1):
                assert not (a in s and (gap - a) in s)


class TestSharedInstances:
    def test_same_generator_set_gives_one_instance(self):
        assert semigroup_from_generators({5, 3}) is semigroup_from_generators([3, 5, 5])

    def test_invalid_generators_raise_on_every_call(self):
        for _ in range(2):
            with pytest.raises(InfiniteComplementError):
                semigroup_from_generators({4, 6})

    def test_direct_construction_is_checked_after_caching(self):
        semigroup_from_generators({3, 5})
        assert NumericalSemigroup((3, 5)) == semigroup_from_generators({3, 5})
        with pytest.raises(ValueError, match="sorted set"):
            NumericalSemigroup((5, 3))
        with pytest.raises(InfiniteComplementError):
            NumericalSemigroup((4, 6))

    @staticmethod
    def count_apery_calls(monkeypatch):
        calls = []
        original = numsg._apery

        def counting(gen_list):
            calls.append(gen_list)
            return original(gen_list)

        monkeypatch.setattr(numsg, "_apery", counting)
        numsg._semigroup.cache_clear()
        return calls

    def test_a_new_semigroup_computes_one_apery_set(self, monkeypatch):
        calls = self.count_apery_calls(monkeypatch)
        s = semigroup_from_generators((7, 9))
        assert (s.genus, s.frobenius, len(s.gap_set)) == (24, 47, 24)
        assert s.minimal_generators == (7, 9) and 47 not in s
        assert calls == [(7, 9)]

    def test_necklace_roundtrip_computes_no_gap_set(self, monkeypatch):
        calls = self.count_apery_calls(monkeypatch)
        semigroup_from_generators((7, 9))
        assert calls  # the warm-up call built <7,9> through the counter
        calls.clear()

        p, q = 7, 9
        n = p + q
        classes = set()
        for members in combinations(range(1, n + 1), p):
            word = tuple(1 if i + 1 in members else 0 for i in range(n))
            if word != min(word[i:] + word[:i] for i in range(n)):
                continue
            module = necklace_to_delta(members, p, q)
            profile = delta_to_necklace(module, p, q)
            assert profile.members == members
            classes.add(members)
        assert len(classes) == count_necklaces(p, q)
        assert calls == []
