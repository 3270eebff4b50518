"""The README's command-line examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from rotosense.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def command_line_examples():
    text = README.read_text()
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("rotosense ")
    ]


EXAMPLES = command_line_examples()


def test_examples_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("argv", EXAMPLES, ids=[a[0] for a in EXAMPLES])
def test_example_runs(argv, tmp_path, capsys):
    # --out targets land in tmp_path so nothing is written to the checkout
    argv = [
        str(tmp_path / arg) if i and argv[i - 1] == "--out" else arg
        for i, arg in enumerate(argv)
    ]
    assert main(argv) == 0, capsys.readouterr().err
