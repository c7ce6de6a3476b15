"""Byte-identical CLI output over a fixed corpus of invocations.

``cli_golden.json`` lists each invocation as ``argv``, the curve files it
reads (``files``: name to text, written to the working directory), and the
``code`` and ``stdout`` that ``main(argv)`` gave when the corpus was
recorded.  It covers every subcommand in text and JSON, global flags
before and after the subcommand (the later one wins when both are given),
``--verify``, ``--max-window`` and exits 0, 1, 2 and 3.  The inputs that
k3count still mishandles are not in it: ``known_defects.json`` lists them.
"""

import json
from pathlib import Path

import pytest

from k3count.cli import main

CASES = json.loads(Path(__file__).with_name("cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"]) or "(none)")
def test_output_is_byte_identical(case, tmp_path, monkeypatch, capsys):
    for name, text in case.get("files", {}).items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    try:
        code = main(case["argv"])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert (code, capsys.readouterr().out) == (case["code"], case["stdout"])
