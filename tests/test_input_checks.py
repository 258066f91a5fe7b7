"""Malformed matrices and caps, bad generator names, bad J and negative verify counts."""

from __future__ import annotations

import json
import re

import pytest

from coxbruhat import CoxeterSystem, InvalidMatrix, hasse_dot, load_matrix_file
from coxbruhat.cli import main
from coxbruhat.dot import hasse_graph

BAD_ENTRIES = (
    ([[1, 3.9], [3.9, 1]], "m(0,1)"),
    ([[True, 3], [3, 1]], "m(0,0)"),
    ([[1, "x"], ["x", 1]], "m(0,1)"),
    ([[1, 3], [3, None]], "m(1,1)"),
)


@pytest.mark.parametrize("matrix, where", BAD_ENTRIES)
def test_non_integer_entries_rejected(matrix, where):
    with pytest.raises(InvalidMatrix, match=rf"entry {re.escape(where)}"):
        CoxeterSystem(matrix)


@pytest.mark.parametrize("matrix, where", BAD_ENTRIES)
def test_non_integer_entries_cli(tmp_path, capsys, matrix, where):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"m": matrix}), encoding="utf-8")
    code = main(["--matrix", str(path), "len", "--w", "e"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("InvalidMatrix: ") and where in lines[0]


@pytest.mark.parametrize("name", ["a b", "a\tb", "a,b", "-", " a"])
def test_unparsable_generator_names_rejected(name):
    with pytest.raises(InvalidMatrix, match="generator name"):
        CoxeterSystem([[1, 3], [3, 1]], names=[name, "c"])


def test_parsable_generator_names_accepted():
    system = CoxeterSystem([[1, 3], [3, 1]], names=["a-1", "b_2"])
    assert str(system.element("a-1 b_2")) == "a-1 b_2"
    assert system.parse_genset("a-1,b_2") == frozenset((0, 1))


@pytest.mark.parametrize("flags", [("--max-len", "-1"), ("--samples", "-3"),
                                   ("--max-len", "-1", "--samples", "-3")])
def test_verify_rejects_negative_counts(capsys, flags):
    code = main(["--type", "A3", "verify", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flags[0]}: ")


@pytest.mark.parametrize("caps", [{"length_cap": True}, {"interval_cap": 2.5},
                                  {"length_cap": "9"}])
def test_non_integer_caps_rejected(caps):
    (name, value), = caps.items()
    with pytest.raises(InvalidMatrix, match=rf"{name} must be an integer, got {value!r}"):
        CoxeterSystem([[1, 3], [3, 1]], **caps)


@pytest.mark.parametrize("generators", ["ab", {"a": 1, "b": 2}, ["a", 2], None])
def test_matrix_file_generators_must_be_strings(tmp_path, capsys, generators):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"generators": generators, "m": [[1, 3], [3, 1]]}),
                    encoding="utf-8")
    with pytest.raises(InvalidMatrix, match=re.escape(f"matrix file {path}: 'generators'")):
        load_matrix_file(str(path))
    code = main(["--matrix", str(path), "len", "--w", "a b a"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith(f"InvalidMatrix: matrix file {path}: 'generators'")


@pytest.mark.parametrize("export", [hasse_graph, hasse_dot])
@pytest.mark.parametrize("J", [[99], [True], ["a"]])
def test_hasse_rejects_bad_J(b3, export, J):
    with pytest.raises(ValueError, match="generator index"):
        export(b3.element("s1 s2"), J)


def test_cli_hasse_rejects_unknown_J(capsys):
    code = main(["--type", "B3", "hasse", "--w", "s1 s2", "--J", "s9"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --J: unknown generator 's9'\n"
