"""The README's quick tour runs as a doctest, and its command block through the CLI."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from ffdyck import counting
from ffdyck.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0


def command_lines():
    """The README's `ffdyck` lines, each a command and a comment."""
    lines = README.read_text().splitlines()
    return [line for line in lines if line.startswith("ffdyck ")]


@pytest.mark.parametrize(
    "line", command_lines(), ids=lambda line: line.partition(" #")[0].strip()
)
def test_readme_command_runs(capsys, monkeypatch, line):
    # a comment of words over 0-9, a and b, joined by ", ", is the exact output
    monkeypatch.delenv("DYCK_BRUTE_CAP", raising=False)
    command, _, comment = line.partition(" #")
    assert main(shlex.split(command)[1:]) == 0
    out = capsys.readouterr().out
    comment = comment.strip()
    if re.fullmatch(r"[0-9ab]+(, [0-9ab]+)*", comment):
        assert out == "".join(word + "\n" for word in comment.split(", "))


def test_readme_names_every_counting_route():
    # the methods in the `count` paragraph's parentheses, in table order
    text = README.read_text()
    paragraph = text[text.index("`count` picks") :]
    listed = re.findall(r"`(\w+)`", paragraph[paragraph.index("(") : paragraph.index(")")])
    assert listed == list(dict.fromkeys(method for _, method in counting.ROUTES))
