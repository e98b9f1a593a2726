"""The README's library example and CLI examples run as documented."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from spaceform.cli import EXIT_OK, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def cli_examples() -> list[list[str]]:
    (block,) = fenced_blocks("sh")[1:]  # the first block installs and tests
    lines = [line.split("#")[0] for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("spaceform ")]


def test_library_example_prints_what_its_comments_say():
    (block,) = fenced_blocks("python")
    expected = [
        line.split("#")[1].strip() for line in block.splitlines() if line.startswith("print(")
    ]
    assert expected == ["(1, 126)", "4"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_readme_has_six_cli_examples():
    assert [argv[0] for argv in cli_examples()] == [
        "monoid", "equiv", "even", "degrees", "check", "census"
    ]


@pytest.mark.parametrize("argv", cli_examples(), ids=lambda argv: argv[0])
def test_cli_example_succeeds(argv, capsys):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out
