"""Every Delta-set of every numerical semigroup of genus at most 8, frozen.

The 156 semigroups come from the semigroup tree in ``oracles.py``, which
shares no code with the package; their 7740 modules are listed by
``enumerate_delta_sets``.  A sha256 over the listing and a table of each
semigroup's epsilon pin the enumerator, so that a new one must reproduce
every gap set, every module's minimal generators and every count.
"""

import hashlib

import pytest

from k3count.numsg import cogenus, semigroup_from_generators
from k3count.semimodule import enumerate_delta_sets, minimal_generators
from oracles import semigroup_tree

# numerical semigroups of genus 0..8 (OEIS A007323)
COUNTS_BY_GENUS = [1, 1, 2, 4, 7, 12, 23, 39, 67]

# epsilon, the number of Delta-sets, of each semigroup by its minimal generators
EPSILON = {
    (1,): 1, (2, 3): 2, (2, 5): 3, (2, 7): 4, (2, 9): 5, (2, 11): 6, (2, 13): 7, (2, 15): 8,
    (2, 17): 9, (3, 4): 5, (3, 4, 5): 4, (3, 5): 7, (3, 5, 7): 6, (3, 7): 12, (3, 7, 8): 9,
    (3, 7, 11): 11, (3, 8): 15, (3, 8, 10): 12, (3, 8, 13): 14, (3, 10, 11): 16,
    (3, 10, 14): 19, (3, 10, 17): 21, (3, 11, 13): 20, (3, 11, 16): 23, (3, 13, 14): 25,
    (4, 5): 14, (4, 5, 6): 9, (4, 5, 6, 7): 8, (4, 5, 7): 10, (4, 5, 11): 13, (4, 6, 7): 13,
    (4, 6, 7, 9): 12, (4, 6, 9): 17, (4, 6, 9, 11): 16, (4, 6, 11): 21, (4, 6, 11, 13): 20,
    (4, 6, 13): 25, (4, 6, 13, 15): 24, (4, 6, 15, 17): 28, (4, 7, 9): 20, (4, 7, 9, 10): 18,
    (4, 7, 10): 23, (4, 7, 10, 13): 22, (4, 7, 13): 26, (4, 7, 17): 29, (4, 9, 10): 32,
    (4, 9, 10, 11): 27, (4, 9, 10, 15): 31, (4, 9, 11): 35, (4, 9, 11, 14): 33,
    (4, 9, 14, 15): 41, (4, 10, 11, 13): 36, (4, 10, 11, 17): 40, (4, 10, 13, 15): 45,
    (4, 11, 13, 14): 48, (5, 6, 7): 21, (5, 6, 7, 8): 17, (5, 6, 7, 8, 9): 16, (5, 6, 7, 9): 18,
    (5, 6, 8): 23, (5, 6, 8, 9): 20, (5, 6, 9): 27, (5, 6, 9, 13): 26, (5, 6, 13): 36,
    (5, 6, 13, 14): 34, (5, 6, 14): 37, (5, 7, 8): 31, (5, 7, 8, 9): 25, (5, 7, 8, 9, 11): 24,
    (5, 7, 8, 11): 28, (5, 7, 9): 38, (5, 7, 9, 11): 33, (5, 7, 9, 11, 13): 32,
    (5, 7, 9, 13): 35, (5, 7, 11): 43, (5, 7, 11, 13): 40, (5, 7, 13, 16): 49, (5, 8, 9): 44,
    (5, 8, 9, 11): 38, (5, 8, 9, 11, 12): 36, (5, 8, 9, 12): 40, (5, 8, 11, 12): 50,
    (5, 8, 11, 12, 14): 48, (5, 8, 11, 14, 17): 56, (5, 8, 12, 14): 57, (5, 9, 11, 12): 58,
    (5, 9, 11, 12, 13): 54, (5, 9, 11, 13, 17): 62, (5, 9, 12, 13, 16): 66,
    (5, 11, 12, 13, 14): 81, (6, 7, 8, 9): 37, (6, 7, 8, 9, 10): 33, (6, 7, 8, 9, 10, 11): 32,
    (6, 7, 8, 9, 11): 34, (6, 7, 8, 10): 39, (6, 7, 8, 10, 11): 36, (6, 7, 8, 11): 42,
    (6, 7, 8, 17): 50, (6, 7, 9, 10): 44, (6, 7, 9, 10, 11): 40, (6, 7, 9, 11): 46,
    (6, 7, 9, 17): 54, (6, 7, 10, 11): 53, (6, 7, 10, 11, 15): 52, (6, 7, 10, 15): 60,
    (6, 7, 11, 15, 16): 68, (6, 8, 9, 10): 55, (6, 8, 9, 10, 11): 49, (6, 8, 9, 10, 11, 13): 48,
    (6, 8, 9, 10, 13): 52, (6, 8, 9, 11): 60, (6, 8, 9, 11, 13): 56, (6, 8, 9, 13): 64,
    (6, 8, 10, 11, 13): 65, (6, 8, 10, 11, 13, 15): 64, (6, 8, 10, 11, 15): 68,
    (6, 8, 10, 13, 15, 17): 80, (6, 8, 11, 13, 15): 80, (6, 9, 10, 11, 13): 74,
    (6, 9, 10, 11, 13, 14): 72, (6, 9, 10, 11, 14): 76, (6, 9, 10, 13, 14, 17): 88,
    (6, 9, 11, 13, 14, 16): 96, (6, 10, 11, 13, 14, 15): 108, (7, 8, 9, 10, 11): 69,
    (7, 8, 9, 10, 11, 12): 65, (7, 8, 9, 10, 11, 12, 13): 64, (7, 8, 9, 10, 11, 13): 66,
    (7, 8, 9, 10, 12): 71, (7, 8, 9, 10, 12, 13): 68, (7, 8, 9, 10, 13): 74,
    (7, 8, 9, 11, 12): 75, (7, 8, 9, 11, 12, 13): 72, (7, 8, 9, 11, 13): 78,
    (7, 8, 9, 12, 13): 84, (7, 8, 10, 11, 12): 84, (7, 8, 10, 11, 12, 13): 80,
    (7, 8, 10, 11, 13): 88, (7, 8, 10, 12, 13): 92, (7, 8, 11, 12, 13, 17): 104,
    (7, 9, 10, 11, 12, 13): 97, (7, 9, 10, 11, 12, 13, 15): 96, (7, 9, 10, 11, 12, 15): 100,
    (7, 9, 10, 11, 13, 15): 104, (7, 9, 10, 12, 13, 15): 112, (7, 9, 11, 12, 13, 15, 17): 128,
    (7, 10, 11, 12, 13, 15, 16): 144, (8, 9, 10, 11, 12, 13, 14): 129,
    (8, 9, 10, 11, 12, 13, 14, 15): 128, (8, 9, 10, 11, 12, 13, 15): 130,
    (8, 9, 10, 11, 12, 14, 15): 132, (8, 9, 10, 11, 13, 14, 15): 136,
    (8, 9, 10, 12, 13, 14, 15): 144, (8, 9, 11, 12, 13, 14, 15): 160,
    (8, 10, 11, 12, 13, 14, 15, 17): 192, (9, 10, 11, 12, 13, 14, 15, 16, 17): 256,
}

@pytest.fixture(scope="module")
def listings():
    """(minimal generators, modules) of each semigroup of genus <= 8, in sorted order."""
    semigroups = sorted(gens for level in semigroup_tree(8) for gens in level)
    return [(gens, enumerate_delta_sets(semigroup_from_generators(gens))) for gens in semigroups]


def test_tree_counts_semigroups_by_genus():
    levels = semigroup_tree(8)
    assert [len(level) for level in levels] == COUNTS_BY_GENUS
    for genus, level in enumerate(levels):
        assert len(set(level)) == len(level)
        assert {semigroup_from_generators(gens).genus for gens in level} == {genus}
        assert all(semigroup_from_generators(gens).minimal_generators == gens for gens in level)


def test_epsilon_table_is_frozen(listings):
    assert {gens: len(modules) for gens, modules in listings} == EPSILON


def test_cogenus_counts_the_gaps_of_every_module(listings):
    for _, modules in listings:
        assert all(cogenus(m.apery) == len(m.gap_set) for m in modules)


def test_largest_gap_of_a_module_is_twice_the_genus_less_one(listings):
    # the bound that the search cuts at, reached by a translate of the
    # canonical ideal; the epsilon table shows the cut loses no module
    checked = 0
    for gens, modules in listings:
        genus = semigroup_from_generators(gens).genus
        if genus:
            assert max(max(m.gap_set) for m in modules) == 2 * genus - 1, gens
            checked += 1
    assert checked == 155


def test_listing_digest_is_frozen(listings):
    # sha256 over one repr line (minimal generators, gap_set, minimal
    # generators of the module) per module, semigroups in sorted order and
    # modules in the enumerator's order (by gap set)
    digest = hashlib.sha256()
    for gens, modules in listings:
        for m in modules:
            digest.update(f"{(gens, m.gap_set, minimal_generators(m))!r}\n".encode())
    assert sum(len(modules) for _, modules in listings) == 7740
    assert digest.hexdigest() == (
        "cfc708a8f2b48e111012e2540a4e4144b86136483a91b05280d14c5eef471f7d"
    )
