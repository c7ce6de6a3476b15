"""The README's command line and library examples, run as written."""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

from k3count.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(heading, language):
    """Body of the first ``language`` code block after ``heading``."""
    section = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def command_examples():
    """(argv, expected output lines) of each ``$ k3count`` example."""
    examples = []
    for chunk in fenced_block("## Command line", "text").split("$ k3count ")[1:]:
        command, *output = chunk.strip("\n").split("\n")
        if not command.startswith("check curves.txt"):  # needs the user's file
            examples.append(pytest.param(shlex.split(command), output, id=command))
    return examples


@pytest.mark.parametrize("argv,expected", command_examples())
def test_command_line_example(capsys, argv, expected):
    assert main(argv) == 0
    # the README shows tab-separated columns with spaces
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [line.split() for line in expected]


def test_library_example():
    source = fenced_block("## Library", "python")
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        try:
            expected = ast.literal_eval(comments.get(stmt.end_lineno, ""))
        except (ValueError, SyntaxError):
            exec(code, namespace)
            continue
        assert isinstance(stmt, ast.Expr), code
        assert eval(code, namespace) == expected, code
        checked += 1
    assert checked >= 6
