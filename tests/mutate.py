"""Run tier-1 against each mutant listed in ``mutants.json``.

A mutant replaces one exact text (``old``, which must occur once) with
``new`` in one file of a fresh copy of ``src/``, ``tests/``,
``pyproject.toml`` and ``README.md``; the copy's tests then run with ``-x``, all but
``test_mutants.py``, which fails on any mutant by design.  The mutant is
killed when they fail.  An unmutated copy runs first and must pass.

    python3 tests/mutate.py            # every mutant
    python3 tests/mutate.py NAME ...   # the named ones

Prints one line per mutant with its time, then killed of total; exits 1
if a mutant survives, and 2, before running anything, if a name is not in
``mutants.json``.  pytest does not collect this file.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = json.loads((ROOT / "tests" / "mutants.json").read_text(encoding="utf-8"))
IGNORE = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")


def run_tests(mutant: dict | None) -> tuple[bool, float]:
    """Whether the copy's tests pass with ``mutant`` applied, and the seconds taken."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=IGNORE)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=IGNORE)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, copy)
        if mutant:
            target = copy / mutant["file"]
            text = target.read_text(encoding="utf-8")
            if text.count(mutant["old"]) != 1:
                raise SystemExit(f"{mutant['name']}: old text does not occur exactly once")
            target.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        result = subprocess.run(
            # test_mutants.py checks that each old text is still in place, so
            # it fails on every mutant and would hide whether any other test does
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        return result.returncode == 0, time.perf_counter() - start


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - {m["name"] for m in MUTANTS})
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}")
        return 2
    chosen = [m for m in MUTANTS if not names or m["name"] in names]
    passed, seconds = run_tests(None)
    if not passed:
        print(f"unmutated copy fails its tests ({seconds:.1f} s)")
        return 2
    print(f"unmutated copy passes ({seconds:.1f} s)")
    killed = 0
    for mutant in chosen:
        survived, seconds = run_tests(mutant)
        killed += not survived
        print(f"{'SURVIVED' if survived else 'killed  '} {seconds:5.1f} s  {mutant['name']}")
    print(f"{killed} of {len(chosen)} mutants killed")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
