"""The examples in README.md print what the README says they print."""

from __future__ import annotations

import pathlib
import re
import shlex

import pytest

from coxbruhat.cli import main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
CONSOLE = re.findall(r"^```console\n(.*?)^```", README, re.M | re.S)
QUICK_START = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


def _split_example(block):
    """(argv, expected stdout) of one console example."""
    lines = block.splitlines()
    assert lines[0].startswith("$ coxbruhat ")
    command = lines.pop(0)[2:]
    while command.endswith("\\"):
        command = command[:-1] + lines.pop(0)
    return shlex.split(command)[1:], "".join(line + "\n" for line in lines)


def test_readme_has_its_examples():
    assert len(CONSOLE) == 5
    assert len(QUICK_START) == 1


@pytest.mark.parametrize("block", CONSOLE, ids=[f"example{i}" for i in range(len(CONSOLE))])
def test_console_example(block, capsys):
    argv, expected = _split_example(block)
    code = main(argv)
    assert (code, capsys.readouterr().out) == (0, expected)


def test_library_quick_start(capsys):
    code = QUICK_START[0]
    expected = [line.split("#")[1].strip() for line in code.splitlines() if line.startswith("print(")]
    assert expected
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
