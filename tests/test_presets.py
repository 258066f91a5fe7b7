"""Preset matrices, matrix validation, and the JSON matrix loader."""

from __future__ import annotations

import json
import pathlib

import pytest

from coxbruhat import (
    CoxeterSystem,
    InvalidMatrix,
    coxeter_matrix,
    coxeter_system,
    load_matrix_file,
)


def test_chain_presets():
    assert coxeter_matrix("A1") == [[1]]
    assert coxeter_matrix("A3") == [[1, 3, 2], [3, 1, 3], [2, 3, 1]]
    b3 = coxeter_matrix("B3")
    assert b3[1][2] == 4 and b3[0][1] == 3
    d4 = coxeter_matrix("D4")
    # fork: s4 bonds to s2, not to s3
    assert d4[1][3] == 3 and d4[2][3] == 2


def test_exceptional_presets():
    f4 = coxeter_matrix("F4")
    assert [f4[i][i + 1] for i in range(3)] == [3, 4, 3]
    h3 = coxeter_matrix("H3")
    assert h3[0][1] == 5 and h3[1][2] == 3
    h4 = coxeter_matrix("H4")
    assert len(h4) == 4 and h4[0][1] == 5


def test_dihedral_presets():
    assert coxeter_matrix("I2:5") == [[1, 5], [5, 1]]
    assert coxeter_matrix("I2:inf") == [[1, 0], [0, 1]]
    assert coxeter_matrix("I2:oo") == [[1, 0], [0, 1]]
    with pytest.raises(InvalidMatrix):
        coxeter_matrix("I2:1")


def test_affine_presets():
    assert coxeter_matrix("A~1") == [[1, 0], [0, 1]]
    a2t = coxeter_matrix("A~2")
    assert len(a2t) == 3
    assert a2t[0][1] == a2t[1][2] == a2t[0][2] == 3


def test_unknown_preset():
    for kind in ("E8", "Z3", "A0", "B1", "D2", ""):
        with pytest.raises(InvalidMatrix):
            coxeter_matrix(kind)
    # the whole string is matched, over ASCII digits, as for F4 and H3
    for kind in ("B3\n", "A~2\n", "D\u0664"):
        with pytest.raises(InvalidMatrix, match="unknown Coxeter type"):
            coxeter_matrix(kind)


#: coxeter_matrix on 131 type strings, accepted and rejected: each maps to
#: {"matrix": ...} or to {"error": <exception type>, "message": <its text>}.
PRESETS_GOLDEN = pathlib.Path(__file__).parent / "golden" / "presets.json"
PRESET_KINDS = (
    [f"{c}{n}" for c in "ABCDEabcde" for n in range(9)]
    + ["F4", "f4", "F5", "H2", "H3", "H4", "H5", "h3", "h4", "H3\n", "F4\n"]
    + ["I2:0", "I2:1", "I2:2", "I2:5", "I2:inf", "I2:oo", "I2:x", "I2:-1", "i2:7",
       "I2:05", "I2:", "I3:5", "I2:inf\n"]
    + [f"A~{n}" for n in range(6)]
    + ["a~2", "A~", "A~01", "A~-1", "B~3", "", " A3", "A3 ", "A3\n", "A\u0663", "A1.0"]
)


def _matrix_or_error(kind):
    try:
        return {"matrix": coxeter_matrix(kind)}
    except Exception as exc:  # the golden file pins the type and the message
        return {"error": type(exc).__name__, "message": str(exc)}


def test_presets_match_golden():
    golden = json.loads(PRESETS_GOLDEN.read_text(encoding="utf-8"))
    assert list(golden) == PRESET_KINDS
    for kind, want in golden.items():
        assert _matrix_or_error(kind) == want, kind


def test_group_orders():
    assert len(coxeter_system("A2").elements(3)) == 6
    assert len(coxeter_system("D4").elements(12)) == 192
    assert len(coxeter_system("I2:7").elements(7)) == 14


def test_matrix_validation():
    with pytest.raises(InvalidMatrix):
        CoxeterSystem([])
    with pytest.raises(InvalidMatrix):
        CoxeterSystem([[1, 2], [2, 1], [2, 2]])
    with pytest.raises(InvalidMatrix):
        CoxeterSystem([[2]])
    with pytest.raises(InvalidMatrix):
        CoxeterSystem([[1, 1], [1, 1]])
    with pytest.raises(InvalidMatrix):
        CoxeterSystem([[1, 3], [4, 1]])
    with pytest.raises(InvalidMatrix):
        CoxeterSystem([[1, 3], [3, 1]], names=["a"])
    with pytest.raises(InvalidMatrix):
        CoxeterSystem([[1, 3], [3, 1]], names=["a", "a"])
    with pytest.raises(InvalidMatrix):
        CoxeterSystem([[1, 3], [3, 1]], names=["e", "b"])
    with pytest.raises(InvalidMatrix):
        CoxeterSystem([[1, 3], [3, 1]], length_cap=0)


def test_load_matrix_file(tmp_path):
    path = tmp_path / "h3.json"
    path.write_text(json.dumps({
        "generators": ["a", "b", "c"],
        "m": [[1, 5, 2], [5, 1, 3], [2, 3, 1]],
    }))
    system = load_matrix_file(str(path))
    assert system.names == ("a", "b", "c")
    assert system.m(0, 1) == 5
    assert system.element("a b a b a").length == 5


def test_load_matrix_file_defaults_names(tmp_path):
    path = tmp_path / "i2.json"
    path.write_text(json.dumps({"m": [[1, 0], [0, 1]]}))
    system = load_matrix_file(str(path))
    assert system.names == ("s1", "s2")
    assert system.m(0, 1) == 0


def test_load_matrix_file_errors(tmp_path):
    with pytest.raises(InvalidMatrix):
        load_matrix_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidMatrix):
        load_matrix_file(str(bad))
    for payload in ([1, 2, 3], {"generators": ["a"]}, {"m": "nope"}, {"m": [1, 2]}):
        p = tmp_path / "case.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(InvalidMatrix):
            load_matrix_file(str(p))


def test_caps_forwarded():
    system = coxeter_system("A3", length_cap=3, interval_cap=2)
    assert system.length_cap == 3
    assert system.interval_cap == 2
