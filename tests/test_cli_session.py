"""Several CLI calls in one process print what separate processes print."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import coxbruhat
from coxbruhat.cli import build_parser, main

SRC = str(pathlib.Path(coxbruhat.__file__).resolve().parents[1])

MJ_TABLE = ("--type", "A3", "mj-table", "--w", "s1 s2 s3 s2 s1", "--J", "s1,s2")
MAX_COSET = ("--type", "A4", "max-coset", "--w", "s3 s1 s2 s4 s3 s2 s1",
             "--x", "s4 s3", "--J", "s1,s2,s4", "--trace")


def _fresh_stdout(argv):
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    proc = subprocess.run([sys.executable, "-m", "coxbruhat.cli", *argv],
                          capture_output=True, text=True, env=env, check=False)
    return proc.returncode, proc.stdout


def test_repeated_calls_match_fresh_processes(capsys):
    for argv in (MJ_TABLE, MAX_COSET, MJ_TABLE):
        code = main(list(argv))
        out = capsys.readouterr().out
        assert (code, out) == _fresh_stdout(argv)


def test_parser_is_built_once_and_keeps_its_help(capsys, monkeypatch):
    assert build_parser() is build_parser()
    assert build_parser.__name__ == "build_parser"
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert (0, out) == _fresh_stdout(["--help"])
