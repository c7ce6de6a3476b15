"""Tests of the benchmark itself: the reference routes and a smoke run of
every workload, traced and untraced.

    python3 -m pytest perfbench/test_perfbench.py -q

The smoke runs use ``--smoke`` (tiny inputs, one block) and take a few
seconds each.  These tests live outside ``tests/`` and are not part of
the package's own suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_divisor_sum_route_matches_known_values():
    assert ref.yau_zaslow_reference(5) == [1, 24, 324, 3200, 25650, 176256]


@pytest.mark.parametrize("gens", [(3, 5), (4, 7), (5, 6), (2, 9)])
def test_kunz_count_matches_closed_form(gens):
    p, q = gens
    assert ref.kunz_delta_sets(ref.Semigroup(gens), count_only=True) == comb(p + q, p) // (p + q)


def test_kunz_sets_are_closed_and_generated():
    s = ref.Semigroup((3, 5))
    found = ref.kunz_delta_sets(s)
    assert len(found) == 7 and all(ref.module_problem(s, gaps) is None for gaps in found)
    assert ref.module_generators(s, (0, 1, 2, 3)) == (4, 5, 6)


def test_three_generator_count():
    # <4,6,9> is not two-generated; its count also comes from a brute-force
    # scan over all genus-sized subsets of a window that holds every gap
    s = ref.Semigroup((4, 6, 9))
    window = range(s.frobenius + s.genus + 1)
    brute = sum(ref.module_problem(s, gaps) is None for gaps in combinations(window, s.genus))
    assert ref.kunz_delta_sets(s, count_only=True) == brute


def test_necklace_route_is_rotation_invariant():
    p, q = 3, 5
    members = (1, 2, 4)
    rotated = tuple(sorted((m % (p + q)) + 1 for m in members))
    assert ref.necklace_gaps(members, p, q) == ref.necklace_gaps(rotated, p, q)
    assert ref.least_rotation(rotated, p + q) == ref.least_rotation(members, p + q)


def test_per_layer_map_covers_every_metric():
    interactions = json.loads((HERE / "interactions.json").read_text(encoding="utf-8"))
    assert set(interactions["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert set(interactions["workloads"]) == set(WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run(workload, trace):
    done = run_bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in listed)
    assert result["correct"]
    if workload == "cli-mix":
        # the three known-defect inputs of each 30-item block crash today
        assert result["failed"] == result["attempted"] // 10
    else:
        assert result["failed"] == 0


def test_refuses_to_run_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "series-eg", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
