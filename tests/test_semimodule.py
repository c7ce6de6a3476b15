"""Delta-set enumeration and the necklace bijection, both directions."""

import hashlib
import random
import sys
from collections import Counter
from itertools import combinations, compress, product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from k3count import numsg, semimodule
from k3count.numsg import NumericalSemigroup, semigroup_from_generators
from k3count.semimodule import (
    GammaModule,
    InvalidModuleError,
    NecklaceProfile,
    _class_minima,
    _least_rotation,
    _shifted_to_genus,
    count_necklaces,
    delta_to_necklace,
    enumerate_delta_sets,
    minimal_generators,
    necklace_to_delta,
)

from oracles import (
    least_rotation_start,
    necklace_gaps,
    offset_cycle,
    scan_closure,
    scan_minimal_generators,
)

SMALL_PAIRS = [
    (p, q)
    for p in range(1, 12)
    for q in range(p + 1, 12)
    if p + q <= 12 and gcd(p, q) == 1
]
# p > q: the bijection's p is then not the smallest generator of <p,q>;
# q = 1: the inverse of q mod p+q is 1
BIJECTION_PAIRS = SMALL_PAIRS + [(3, 2), (5, 2), (5, 3), (7, 4), (1, 1), (2, 1), (3, 1)]
# every coprime (p, q) with p + q <= 40, both orders: past the frozen digest
WIDE_PAIRS = [(p, n - p) for n in range(2, 41) for p in range(1, n) if gcd(p, n - p) == 1]


def rotated(members, shift, n):
    return tuple(sorted((m - 1 + shift) % n + 1 for m in members))


class TestEnumerateDeltaSets:
    def test_trivial_semigroup_has_one_module(self):
        mods = enumerate_delta_sets(semigroup_from_generators({1}))
        assert len(mods) == 1
        assert mods[0].gap_set == ()

    def test_two_three(self):
        mods = enumerate_delta_sets(semigroup_from_generators({2, 3}))
        assert [m.gap_set for m in mods] == [(0,), (1,)]

    def test_three_four_count(self):
        mods = enumerate_delta_sets(semigroup_from_generators({3, 4}))
        assert len(mods) == 5 == count_necklaces(3, 4)

    def test_three_five_golden_listing(self):
        mods = enumerate_delta_sets(semigroup_from_generators({3, 5}))
        assert [(m.gap_set, minimal_generators(m)) for m in mods] == [
            ((0, 1, 2, 3), (4, 5, 6)),
            ((0, 1, 2, 4), (3, 5, 7)),
            ((0, 1, 2, 5), (3, 4)),
            ((0, 1, 3, 4), (2, 6)),
            ((0, 1, 3, 6), (2, 4)),
            ((0, 2, 3, 5), (1, 8)),
            ((1, 2, 4, 7), (0,)),
        ]

    def test_listing_is_sorted_and_duplicate_free(self):
        for p, q in SMALL_PAIRS:
            gap_sets = [m.gap_set for m in
                        enumerate_delta_sets(semigroup_from_generators({p, q}))]
            assert gap_sets == sorted(set(gap_sets))

    def test_semigroup_itself_always_appears(self):
        for gens in ({1}, {2, 3}, {3, 5}, {4, 5}, {4, 6, 9}, {6, 10, 15}):
            s = semigroup_from_generators(gens)
            assert any(m.gap_set == s.gap_set for m in enumerate_delta_sets(s))

    def test_three_generator_semigroup(self):
        s = semigroup_from_generators({4, 6, 9})
        mods = enumerate_delta_sets(s)
        assert len(mods) >= 1
        assert len({m.gap_set for m in mods}) == len(mods)

    def test_distinct_modules_are_unequal(self):
        # == and hash read the stored Apéry tuple, not the semigroup alone
        for gens in [*SMALL_PAIRS, (4, 6, 9)]:
            mods = enumerate_delta_sets(semigroup_from_generators(gens))
            assert len(set(mods)) == len(mods)
            assert all(a != b for a, b in combinations(mods, 2))

    def test_every_module_revalidates(self):
        for p, q in SMALL_PAIRS:
            s = semigroup_from_generators({p, q})
            for m in enumerate_delta_sets(s):
                GammaModule(s, m.gap_set)  # closure and cogenus re-checked


class TestClosureCheck:
    @pytest.mark.parametrize("gens", [
        (1,), (2, 3), (2, 5), (3, 4), (3, 5), (3, 4, 5), (4, 5, 6, 7),
    ], ids=lambda gens: ",".join(map(str, gens)))
    def test_matches_the_member_scan(self, gens):
        s = semigroup_from_generators(gens)
        accepted = set()
        for gaps in combinations(range(s.frobenius + s.genus + 3), s.genus):
            try:
                GammaModule(s, gaps)
            except InvalidModuleError:
                assert not scan_closure(gens, gaps), gaps
            else:
                assert scan_closure(gens, gaps), gaps
                accepted.add(gaps)
        assert accepted == {m.gap_set for m in enumerate_delta_sets(s)}

    def test_open_only_under_the_smallest_generator(self):
        s = semigroup_from_generators({3, 5})
        gaps = (0, 1, 2, 6)  # 3 is a member, 3 + 3 a gap
        assert scan_closure((5,), gaps) and not scan_closure((3,), gaps)
        with pytest.raises(InvalidModuleError, match="adding 3"):
            GammaModule(s, gaps)

    def test_open_only_under_another_generator(self):
        s = semigroup_from_generators({3, 5})
        gaps = (0, 3, 6, 9)  # 1 is a member, 1 + 5 a gap
        assert scan_closure((3,), gaps) and not scan_closure((5,), gaps)
        with pytest.raises(InvalidModuleError, match=r"1 \+ 5"):
            GammaModule(s, gaps)

    def test_bool_gaps_are_stored_as_ints(self):
        m = GammaModule(semigroup_from_generators((2, 3)), (True,))
        assert type(m.apery[1]) is int and type(m.gap_set[0]) is int
        assert repr(m).endswith("apery=(0, 3))")

    def test_float_gap_is_a_type_error(self):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
            GammaModule(semigroup_from_generators((2, 3)), (1.0,))

    @pytest.mark.parametrize("gaps", [(1, 0, 2, 3), (-1, 0, 1, 2)])
    def test_gap_set_must_be_sorted_and_non_negative(self, gaps):
        # as a set, (1, 0, 2, 3) is a module over <3,5>
        with pytest.raises(ValueError, match="sorted distinct non-negative"):
            GammaModule(semigroup_from_generators((3, 5)), gaps)


class TestAperyForm:
    @pytest.mark.parametrize("gens", [*SMALL_PAIRS, (4, 6, 9)],
                             ids=lambda gens: ",".join(map(str, gens)))
    def test_class_minima_and_membership(self, gens):
        s = semigroup_from_generators(gens)
        p = s.generators[0]
        for m in enumerate_delta_sets(s):
            gaps = set(m.gap_set)
            window = range(max(gaps, default=-1) + p + 1)
            members = [n for n in window if n not in gaps]
            assert m.apery == tuple(
                min(n for n in members if n % p == r) for r in range(p)
            )
            assert [n in m for n in window] == [n not in gaps for n in window]
            assert -1 not in m


class TestOfApery:
    """``GammaModule._of_apery`` against the public constructor, on boxes of tuples."""

    @pytest.mark.parametrize("gens", [(2, 3), (3, 5), (3, 4, 5), (4, 6, 9)],
                             ids=lambda gens: ",".join(map(str, gens)))
    def test_agrees_with_the_gap_set_constructor(self, gens):
        s = semigroup_from_generators(gens)
        p = s.generators[0]
        modules = {m.apery: m for m in enumerate_delta_sets(s)}
        # each minimum moved by -p, -1, 0, 1 or p: negatives, repeated
        # classes, translates and open sets around every module
        box = {
            tuple([w + d for w, d in zip(apery, ds)])
            for apery in modules
            for ds in product((-p, -1, 0, 1, p), repeat=p)
        }
        for least in box:
            if least in modules:
                m = GammaModule._of_apery(s, least)
                assert m == modules[least] and m.apery == least
                continue
            if [w % p for w in least] != list(range(p)):
                message = "one least member per class"
            elif min(least) < 0:
                message = "must be non-negative"
            else:
                message = "cogenus|not closed"
            with pytest.raises(InvalidModuleError, match=message):
                GammaModule._of_apery(s, least)
        assert any(min(least) < 0 for least in box)
        assert any(len({w % p for w in least}) < p for least in box)


def slid_to_genus(gaps, s):
    """The module over ``s`` of which N minus sorted ``gaps`` is a translate.

    Its class minima go through the forward map's shift to genus(Γ) gaps.
    """
    least = _class_minima(gaps, s.generators[0])
    return GammaModule._of_apery(s, _shifted_to_genus(least, s.genus))


class TestTranslateSlidesBackToGenus:
    """A translate of a module, given by its gap set, slides back to genus(Γ) gaps."""

    def test_all_of_n_over_two_three(self):
        s = semigroup_from_generators({2, 3})
        assert slid_to_genus((), s).gap_set == (0,)

    def test_semigroup_is_already_normalized(self):
        for gens in ({2, 3}, {3, 5}, {4, 6, 9}):
            s = semigroup_from_generators(gens)
            assert slid_to_genus(s.gap_set, s).gap_set == s.gap_set

    def test_translated_semigroup_comes_back(self):
        s = semigroup_from_generators({2, 3})
        shifted_gaps = [0, 1, 2, 3, 4, 6]  # the complement of 5 + <2,3>
        assert slid_to_genus(shifted_gaps, s).gap_set == s.gap_set

    def test_not_closed_is_rejected(self):
        s = semigroup_from_generators({2, 3})
        with pytest.raises(InvalidModuleError):
            slid_to_genus((2,), s)  # 0 in Delta but 0 + 2 is a gap

    def test_open_set_needing_negative_positions_is_rejected(self):
        s = semigroup_from_generators({2, 3})
        with pytest.raises(InvalidModuleError, match="non-negative"):
            slid_to_genus((1, 3), s)  # 0 in Delta but 0 + 3 is a gap

    @pytest.mark.parametrize("gens", [*SMALL_PAIRS, (3, 4, 5), (4, 6, 9)],
                             ids=lambda gens: ",".join(map(str, gens)))
    def test_every_translate_comes_back(self, gens):
        s = semigroup_from_generators(gens)
        for m in enumerate_delta_sets(s):
            for n in range(1, 2 * s.generators[0] + 2):
                shifted = tuple(range(n)) + tuple(g + n for g in m.gap_set)
                assert slid_to_genus(shifted, s) == m

    def test_translation_uniqueness(self):
        # shifting a normalized module by any n >= 1 breaks the cogenus,
        # which the gap-set constructor refuses, e.g. (0, 2) over <2,3>
        for p, q in SMALL_PAIRS:
            s = semigroup_from_generators({p, q})
            for m in enumerate_delta_sets(s):
                for n in range(1, s.genus + 1):
                    shifted = tuple(range(n)) + tuple(g + n for g in m.gap_set)
                    assert len(shifted) != s.genus
                    with pytest.raises(InvalidModuleError, match="cogenus"):
                        GammaModule(s, shifted)


class TestShiftedToGenus:
    @pytest.mark.parametrize("gens", [*SMALL_PAIRS, (4, 6, 9)],
                             ids=lambda gens: ",".join(map(str, gens)))
    def test_shuffled_translates_come_back(self, gens):
        s = semigroup_from_generators(gens)
        p = s.generators[0]
        rng = random.Random(p)
        for m in enumerate_delta_sets(s):
            for shift in range(-2 * p, 2 * p + 1):
                least = [w + shift for w in m.apery]
                for _ in range(3):
                    rng.shuffle(least)
                    assert _shifted_to_genus(least, s.genus) == m.apery


class TestMinimalGenerators:
    def test_semigroup_module_is_generated_by_zero(self):
        s = semigroup_from_generators({3, 5})
        assert minimal_generators(GammaModule(s, s.gap_set)) == (0,)

    def test_two_generator_module(self):
        s = semigroup_from_generators({3, 5})
        assert minimal_generators(GammaModule(s, (0, 2, 3, 5))) == (1, 8)

    def test_shifted_copy_of_n(self):
        s = semigroup_from_generators({3, 5})
        assert minimal_generators(GammaModule(s, (0, 1, 2, 3))) == (4, 5, 6)

    @pytest.mark.parametrize("gens", [
        *SMALL_PAIRS, (4, 6, 9), (3, 5, 7), (6, 7, 8, 9, 10, 11), (2, 3, 4), (3, 4, 5, 6),
    ], ids=lambda gens: ",".join(map(str, gens)))
    def test_matches_the_full_scan(self, gens):
        s = semigroup_from_generators(gens)
        for m in enumerate_delta_sets(s):
            assert minimal_generators(m) == scan_minimal_generators(s.gap_set, m.gap_set)

    def test_generators_regenerate_the_module(self):
        for p, q in SMALL_PAIRS:
            s = semigroup_from_generators({p, q})
            for m in enumerate_delta_sets(s):
                gens = minimal_generators(m)
                top = max(m.gap_set, default=-1)
                window = range(top + 2)
                generated = {
                    g + member
                    for g in gens
                    for member in window
                    if member in s and g + member <= top + 1
                }
                assert generated == {n for n in window if n in m}
                # smallest such set: no generator is covered by the others
                for dropped in gens:
                    rest = [g for g in gens if g != dropped]
                    partial = {
                        g + member for g in rest for member in window if member in s
                    }
                    assert dropped not in partial


class TestCountNecklaces:
    def test_known_values(self):
        assert count_necklaces(2, 3) == 2
        assert count_necklaces(3, 4) == 5
        assert count_necklaces(3, 5) == 7
        assert count_necklaces(4, 5) == 14
        assert count_necklaces(2, 11) == 6

    def test_smooth_case(self):
        for q in range(1, 12):
            assert count_necklaces(1, q) == 1

    def test_gcd_failure(self):
        with pytest.raises(ValueError):
            count_necklaces(4, 6)

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError, match="must be positive"):
            count_necklaces(1, 0)

    def test_matches_direct_orbit_count(self):
        for p, q in BIJECTION_PAIRS:
            n = p + q
            orbits = {
                min(
                    tuple(sorted((x - 1 + r) % n + 1 for x in S))
                    for r in range(n)
                )
                for S in combinations(range(1, n + 1), p)
            }
            assert len(orbits) == count_necklaces(p, q)


class TestNecklaceToDelta:
    def test_consecutive_block_gives_the_semigroup(self):
        s = semigroup_from_generators({2, 3})
        assert necklace_to_delta({1, 2}, 2, 3).gap_set == s.gap_set

    def test_other_class_gives_shifted_n(self):
        assert necklace_to_delta({1, 3}, 2, 3).gap_set == (0,)

    def test_rotation_leaves_the_module_unchanged(self):
        for p, q in BIJECTION_PAIRS:
            n = p + q
            for S in combinations(range(1, n + 1), p):
                base = necklace_to_delta(S, p, q).gap_set
                assert necklace_to_delta(rotated(S, 1, n), p, q).gap_set == base

    @pytest.mark.parametrize("members,p,q", [
        ({1, 2, 3}, 2, 3), ([1, 1, 2, 4], 3, 5), ([1, 1, 2], 3, 5),
    ], ids=["three-of-two", "four-with-a-repeat", "three-with-a-repeat"])
    def test_wrong_size_rejected(self, members, p, q):
        with pytest.raises(ValueError):
            necklace_to_delta(members, p, q)

    def test_any_order_accepted(self):
        assert necklace_to_delta([4, 1, 2], 3, 5) == necklace_to_delta((1, 2, 4), 3, 5)

    def test_gcd_failure(self):
        with pytest.raises(ValueError):
            necklace_to_delta({1, 2}, 2, 4)

    def test_out_of_range_members_rejected(self):
        with pytest.raises(ValueError):
            necklace_to_delta({0, 1}, 2, 3)

    def test_non_integer_members_are_not_truncated(self):
        with pytest.raises(TypeError):
            necklace_to_delta((1.9, 2, "4"), 3, 5)


class TestDeltaToNecklace:
    def test_roundtrip_on_every_module(self):
        for p, q in BIJECTION_PAIRS:
            s = semigroup_from_generators({p, q})
            profiles = set()
            for m in enumerate_delta_sets(s):
                prof = delta_to_necklace(m, p, q)
                profiles.add(prof.members)
                back = necklace_to_delta(prof.members, p, q)
                assert back.gap_set == m.gap_set
            assert len(profiles) == count_necklaces(p, q)

    def test_reverse_roundtrip_on_every_subset(self):
        for p, q in BIJECTION_PAIRS:
            n = p + q
            for S in combinations(range(1, n + 1), p):
                module = necklace_to_delta(S, p, q)
                prof = delta_to_necklace(module, p, q)
                canonical = min(
                    tuple(sorted((x - 1 + r) % n + 1 for x in S)) for r in range(n)
                )
                # least rotation of the characteristic word, as member set
                word = tuple(1 if i + 1 in set(S) else 0 for i in range(n))
                least = min(word[i:] + word[:i] for i in range(n))
                expected = tuple(i + 1 for i, b in enumerate(least) if b)
                assert prof.members == expected
                assert expected in {
                    tuple(sorted((x - 1 + r) % n + 1 for x in S)) for r in range(n)
                }

    def test_offset_identity_as_multisets(self):
        # every offset reappears shifted by +q from a member position or
        # by -p from a non-member position
        for p, q in BIJECTION_PAIRS:
            s = semigroup_from_generators({p, q})
            for m in enumerate_delta_sets(s):
                prof = delta_to_necklace(m, p, q)
                in_s = set(prof.members)
                shifted = Counter()
                a = offset_cycle(prof.members, p, q)
                for i in range(1, p + q + 1):
                    value = a[i - 1]
                    shifted[value + q if i in in_s else value - p] += 1
                assert shifted == Counter(a)

    def test_offsets_are_residues_at_stride_q(self):
        # a(k+1) = a(k) + q or a(k) - p, both + q mod p+q: the inverse map
        # reads the word off the residues k*q mod p+q
        for p, q in BIJECTION_PAIRS:
            n = p + q
            for m in enumerate_delta_sets(semigroup_from_generators({p, q})):
                a = offset_cycle(delta_to_necklace(m, p, q).members, p, q)
                assert len({v % n for v in a}) == n
                assert all((v - a[0] - k * q) % n == 0 for k, v in enumerate(a))

    def test_wide_pair_round_trips_in_linear_space(self):
        # the word has p+q letters; nothing of size (p+q)*q may be built
        p, q = 2, 100001
        members = (p + q - 1, p + q)
        module = necklace_to_delta(members, p, q)
        assert len(module.gap_set) == (q - 1) // 2
        assert delta_to_necklace(module, p, q).members == members

    def test_round_trip_digest_is_frozen(self):
        # sha256 over one repr line (p, q, S, gap_set, members, offsets) per
        # p-subset S, for every coprime (p, q) with p + q <= 13 in both
        # orders, 12758 round trips: any change to either direction's
        # output changes it; the offsets are the oracle's offset_cycle(members)
        digest = hashlib.sha256()
        for n in range(2, 14):
            for p in range(1, n):
                q = n - p
                if gcd(p, q) != 1:
                    continue
                for S in combinations(range(1, n + 1), p):
                    m = necklace_to_delta(S, p, q)
                    prof = delta_to_necklace(m, p, q)
                    line = (p, q, S, m.gap_set, prof.members, offset_cycle(prof.members, p, q))
                    digest.update(f"{line!r}\n".encode())
        assert digest.hexdigest() == (
            "ec55970455432fd04ea208e5c47da8ccada2653474ea8dfd4428f428d5f1bb9a"
        )

    @given(st.sampled_from(WIDE_PAIRS).flatmap(lambda pq: st.tuples(
        st.just(pq), st.permutations(range(1, sum(pq) + 1)))))
    @settings(derandomize=True, max_examples=500, deadline=None)
    def test_round_trip_matches_the_definition(self, case):
        (p, q), order = case
        members = sorted(order[:p])
        module = necklace_to_delta(members, p, q)
        assert module.gap_set == necklace_gaps(members, p, q)
        word = bytes(i in members for i in range(1, p + q + 1))
        r = least_rotation_start(word)
        least = tuple(compress(range(1, p + q + 1), word[r:] + word[:r]))
        assert delta_to_necklace(module, p, q).members == least

    def test_forward_map_matches_the_profile(self):
        # the offset recurrence is the oracle for the closed-form offsets: the
        # module's least members mod p are the member offsets of the profile's
        # rotation, for every p-subset, both orders
        for n in range(2, 14):
            for p in range(1, n):
                q = n - p
                if gcd(p, q) != 1:
                    continue
                for S in combinations(range(1, n + 1), p):
                    gaps = set(necklace_to_delta(S, p, q).gap_set)
                    least = set()
                    for r in range(p):
                        while r in gaps:
                            r += p
                        least.add(r)
                    prof = NecklaceProfile(p, q, S)
                    a = offset_cycle(prof.members, p, q)
                    assert least == {a[i - 1] for i in prof.members}, (p, q, S)

    def test_forward_map_assertion_counts_the_members(self):
        # a module over <3,5> forged past its checks, with two minima at one
        # step mod 8, writes one letter of the steps of max(p, q) too few; the
        # offsets of the letters it has are the other minima, and the class
        # left empty reads 0 as the forged minimum does, so only the count of
        # the minima the forward map gives back shows the lost letter
        for p, q, apery in [(3, 5, (0, -2, 0)), (5, 3, (0, 4, 8))]:
            forged = GammaModule.__new__(GammaModule)
            vars(forged).update(semigroup=semigroup_from_generators((3, 5)), apery=apery)
            with pytest.raises(AssertionError):
                delta_to_necklace(forged, p, q)

    def test_mismatched_semigroup_rejected(self):
        s = semigroup_from_generators({2, 3})
        module = GammaModule(s, s.gap_set)
        with pytest.raises(ValueError, match="lives over"):
            delta_to_necklace(module, 3, 5)

    def test_profile_offsets_describe_the_module(self):
        for p, q in [(2, 3), (3, 5), (4, 5)]:
            s = semigroup_from_generators({p, q})
            for m in enumerate_delta_sets(s):
                prof = delta_to_necklace(m, p, q)
                a = offset_cycle(prof.members, p, q)
                top = max(m.gap_set, default=-1)
                covered = set()
                for i in prof.members:
                    start = a[i - 1]
                    covered.update(range(start, top + p + 1, p))
                assert covered == {n for n in range(top + p + 1) if n in m}


class TestSharedSemigroups:
    @pytest.mark.parametrize("call", [
        lambda: necklace_to_delta((1,), True, 2),
        lambda: delta_to_necklace(GammaModule(NumericalSemigroup((1, 2)), ()), True, 2),
    ], ids=["necklace_to_delta", "delta_to_necklace"])
    def test_bool_exponent_does_not_reach_the_memo(self, call):
        # a bool equals its int as a memo key, so a semigroup built from
        # (True, 2) would be the shared instance for (1, 2)
        numsg._semigroup.cache_clear()
        try:
            call()
            assert str(semigroup_from_generators((1, 2))) == "⟨1,2⟩"
        finally:
            numsg._semigroup.cache_clear()

    @pytest.mark.parametrize("p, q", [(3, 5), (5, 3), (1, 1), (1, 4)])
    def test_forward_map_reads_the_shared_instance(self, p, q):
        module = necklace_to_delta(range(1, p + 1), p, q)
        assert module.semigroup is semigroup_from_generators({p, q})


# what a round trip or an enumeration computes, counted by name: unlike its time,
# machine-independent
COUNTED = {
    # semimodule's own reference to numsg's cogenus: a count in numsg would
    # also see a semigroup's genus, computed once per semigroup
    semimodule: (
        "_least_rotation", "_require_members", "_class_minima", "_checked_apery", "cogenus",
    ),
    # gaps_below, where the gap_set property of semigroups and modules calls it
    numsg: ("_normalized_generators", "gaps_below"),
}


@pytest.fixture
def work(monkeypatch):
    """A Counter of calls to each function named in ``COUNTED``."""
    calls = Counter()
    for module, names in COUNTED.items():
        for name in names:
            def counted(*args, _name=name, _call=getattr(module, name)):
                calls[_name] += 1
                return _call(*args)
            monkeypatch.setattr(module, name, counted)
    return calls


class TestWorkCounts:
    @pytest.mark.parametrize("p, q", [(3, 5), (4, 7), (7, 9), (5, 3), (7, 4), (9, 7)])
    def test_one_round_trip(self, work, p, q):
        # one rotation search, one member-set check and one module check, all
        # needed, and Selmer's count once per shift to genus(Γ) (forward map
        # and the inverse's closing assertion) and once in the module check;
        # no gap list, class minima or generator normalization, in either order
        necklace_to_delta(range(1, p + 1), p, q)  # fills the semigroup memo
        for S in combinations(range(1, p + q + 1), p):
            work.clear()
            delta_to_necklace(necklace_to_delta(S, p, q), p, q)
            assert work == {
                "_least_rotation": 1, "_require_members": 1, "_checked_apery": 1, "cogenus": 3,
            }, S

    @pytest.mark.parametrize("gens, count", [((3, 5), 7), ((5, 6, 9), 27)], ids=["3,5", "5,6,9"])
    def test_enumeration_builds_each_module_from_its_minima(self, work, gens, count):
        # the search records each module's class minima, so none is worked
        # out again from a gap list, none builds one, and each is checked once
        s = semigroup_from_generators(gens)
        work.clear()
        assert len(enumerate_delta_sets(s)) == count
        assert work == {"_checked_apery": count, "cogenus": count}

    @pytest.mark.parametrize("gens, calls", [((3, 5), 78), ((4, 6, 9), 340), ((5, 6), 2104)],
                             ids=["3,5", "4,6,9", "5,6"])
    def test_search_opens_no_position_past_the_largest_gap(self, gens, calls):
        # walk cuts at 2*genus - 1, the largest gap a Delta-set can have; a
        # later cut only opens subtrees that hold no module
        s = semigroup_from_generators(gens)
        counted = Counter()

        def profile(frame, event, arg):
            if event == "call":
                counted[frame.f_code.co_name] += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            enumerate_delta_sets(s)
        finally:
            sys.setprofile(previous)
        assert counted["walk"] == calls

    def test_each_gap_set_read_builds_one_list(self, work):
        # gap_set is derived from apery on every read and never stored
        module = necklace_to_delta((1, 2, 4, 8, 9, 11, 15), 7, 9)
        for value in (module, module.semigroup):
            work.clear()
            assert value.gap_set == value.gap_set
            assert work == {"gaps_below": 2}


class TestLeastRotation:
    def test_every_short_binary_word(self):
        for n in range(1, 13):
            for letters in product((0, 1), repeat=n):
                word = bytes(letters)
                assert _least_rotation(word) == least_rotation_start(word), word

    @given(st.one_of(
        st.lists(st.integers(0, 1), min_size=1, max_size=40).map(bytes),
        st.builds(lambda bit, n: bytes([bit]) * n, st.integers(0, 1), st.integers(1, 40)),
    ))
    @settings(max_examples=300, deadline=None)
    def test_matches_trying_every_start(self, word):
        assert _least_rotation(word) == least_rotation_start(word)


# includes p > q, where p is not the smallest generator of <p,q>
PROFILE_PAIRS = [(2, 3), (3, 5), (5, 2)]


def members_read_from(p, q, r):
    """Members of a valid class of (p, q), read from start r."""
    n = p + q
    prof = delta_to_necklace(necklace_to_delta(range(1, p + 1), p, q), p, q)
    word = [1 if i in prof.members else 0 for i in range(1, n + 1)]
    return tuple(i + 1 for i, bit in enumerate(word[r:] + word[:r]) if bit)


def recurrence_failure(p, q, members, offsets):
    """First position i with a(i+1) != a(i) + step(i), read cyclically, or None."""
    n = p + q
    return next(
        (i for i in range(1, n + 1)
         if offsets[i % n] != offsets[i - 1] + (q if i in members else -p)),
        None,
    )


class TestNecklaceProfile:
    def test_wrong_member_count_rejected(self):
        with pytest.raises(ValueError, match="exactly 2 elements"):
            NecklaceProfile(2, 3, (1,))

    @pytest.mark.parametrize("members", [(3.0, 5.0), ("3", "5")])
    def test_non_integer_members_rejected(self, members):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            NecklaceProfile(2, 3, members)

    @pytest.mark.parametrize("members,message", [
        ((5, 3), "members must be sorted and distinct"),
        ((3, 3), "members must be sorted and distinct"),
        ((0, 3), r"members must lie in 1\.\.5"),
        ((3, 6), r"members must lie in 1\.\.5"),
    ])
    def test_member_set_checks(self, members, message):
        with pytest.raises(ValueError, match=message):
            NecklaceProfile(2, 3, members)

    def test_bool_p_becomes_int(self):
        prof = NecklaceProfile(True, 2, (3,))
        assert prof.p == 1 and type(prof.p) is int
        assert "p=1," in repr(prof)

    @pytest.mark.parametrize("p,q", PROFILE_PAIRS)
    def test_every_rotation_names_the_same_profile(self, p, q):
        least = NecklaceProfile(p, q, members_read_from(p, q, 0))
        for r in range(p + q):
            prof = NecklaceProfile(p, q, members_read_from(p, q, r))
            assert prof.members == least.members
            assert prof == least and hash(prof) == hash(least)

    # A profile takes and stores no offsets: the first test below refuses
    # them as an argument, and the second asserts that each profile's offset
    # cycle has what the checks on passed offsets once demanded.

    @pytest.mark.parametrize("p,q", PROFILE_PAIRS + [(7, 4)])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_offsets_argument_rejected(self, p, q, k):
        # no offsets may be passed, not even the members' own cycle (k = 0)
        prof = NecklaceProfile(p, q, members_read_from(p, q, 0))
        a = offset_cycle(prof.members, p, q)
        with pytest.raises(TypeError):
            NecklaceProfile(p, q, prof.members, tuple([v + k for v in a]))

    @pytest.mark.parametrize("p,q", PROFILE_PAIRS + [(7, 4)])
    def test_each_profile_has_a_normalized_offset_cycle(self, p, q):
        n = p + q
        seen = set()
        for S in combinations(range(1, n + 1), p):
            prof = delta_to_necklace(necklace_to_delta(S, p, q), p, q)
            if prof.members in seen:
                continue
            seen.add(prof.members)
            a = offset_cycle(prof.members, p, q)
            assert len(a) == n and len(set(a)) == n and min(a) >= 0
            assert recurrence_failure(p, q, prof.members, a) is None, prof.members
            genus = (p - 1) * (q - 1) // 2
            assert sum(a[i - 1] // p for i in prof.members) == genus
        assert len(seen) == count_necklaces(p, q)


small_semigroups = st.sampled_from(
    [(2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (4, 5), (3, 7)]
)


class TestModuleInvariants:
    @given(small_semigroups)
    @settings(max_examples=20, deadline=None)
    def test_closure_and_cogenus_hold(self, pair):
        s = semigroup_from_generators(pair)
        for m in enumerate_delta_sets(s):
            assert len(m.gap_set) == s.genus
            top = max(m.gap_set, default=-1)
            for d in range(top + 1):
                if d in m:
                    for g in s.generators:
                        assert (d + g) in m
            assert min(m.apery) <= s.genus

    @given(small_semigroups)
    @settings(max_examples=20, deadline=None)
    def test_epsilon_is_positive(self, pair):
        assert len(enumerate_delta_sets(semigroup_from_generators(pair))) >= 1
