"""Command-line interface: outputs, formats, exit codes, golden files."""

from __future__ import annotations

import json
import pathlib

import pytest

from coxbruhat.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_len(capsys):
    code, out, err = run(capsys, "--type", "A3", "len", "--w", "s1 s2 s3 s2 s1")
    assert (code, out, err) == (0, "5\n", "")


def test_len_identity(capsys):
    code, out, _ = run(capsys, "--type", "A3", "len", "--w", "e")
    assert (code, out) == (0, "0\n")


def test_perm(capsys):
    code, out, _ = run(capsys, "--type", "A3", "len", "--perm", "4231")
    assert (code, out) == (0, "5\n")
    code, out, _ = run(capsys, "--type", "A4", "len", "--perm", "5,4,3,2,1")
    assert (code, out) == (0, "10\n")


def test_leq(capsys):
    code, out, _ = run(capsys, "--type", "A3", "leq", "--u", "s1 s3", "--w", "s1 s2 s3 s2 s1")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "--type", "A3", "leq", "--u", "s1 s2", "--w", "s2 s1")
    assert (code, out) == (0, "false\n")


def test_interval(capsys):
    code, out, _ = run(capsys, "--type", "A3", "interval", "--w", "s1 s2 s1")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "size: 6"
    assert lines[1] == "ranks: 1 2 2 1"
    assert lines[2:] == ["e", "s1", "s2", "s1 s2", "s2 s1", "s1 s2 s1"]


def test_covers(capsys):
    code, out, _ = run(capsys, "--type", "A3", "covers", "--w", "s1 s2 s1")
    assert (code, out) == (0, "s1 s2\ns2 s1\n")


def test_poincare(capsys):
    code, out, _ = run(capsys, "--type", "A3", "poincare", "--w", "s1 s2 s1")
    assert (code, out) == (0, "1+2t+2t^2+t^3\n")


def test_poincare_rel(capsys):
    code, out, _ = run(capsys, "--type", "A3", "poincare-rel", "--w", "s1 s2 s3", "--J", "s1,s2")
    assert (code, out) == (0, "1+t+t^2+t^3\n")


def test_decompose(capsys):
    code, out, _ = run(
        capsys, "--type", "A3", "decompose", "--w", "s1 s2 s3 s2 s1", "--J", "s1,s2")
    assert (code, out) == (0, "v: s1 s2 s3\nu: s2 s1\n")
    code, out, _ = run(
        capsys, "--type", "A3", "decompose", "--w", "s1 s2 s3 s2 s1", "--J", "s1,s2",
        "--side", "left")
    assert code == 0
    assert out.startswith("u: ")


def test_coset_rep(capsys):
    code, out, _ = run(
        capsys, "--type", "A3", "coset-rep", "--w", "s1 s2 s3 s2 s1", "--J", "s1,s2")
    assert (code, out) == (0, "s1 s2 s3\n")


def test_max_coset_trivial(capsys):
    code, out, _ = run(
        capsys, "--type", "A3", "max-coset", "--w", "s1 s2 s1", "--x", "e", "--J", "s1,s2")
    assert (code, out) == (0, "q: s1 s2 s1\nm: s1 s2 s1\n")


def test_max_coset_trace(capsys):
    code, out, _ = run(
        capsys, "--type", "A3", "max-coset", "--w", "s1 s2 s3 s2 s1",
        "--x", "s2 s3", "--J", "s1,s2", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q: s2 s3 s2 s1"
    assert lines[1] == "m: s2 s1"
    assert lines[2] == "trace:"
    assert "x=s2 s3" in lines[3] and "stab=s3" in lines[3]


def test_mj_table(capsys):
    code, out, _ = run(
        capsys, "--type", "A3", "mj-table", "--w", "s1 s2 s3 s2 s1", "--J", "s1,s2")
    assert code == 0
    assert out == (
        "x\tm\n"
        "e\ts1 s2 s1\n"
        "s3\ts1 s2 s1\n"
        "s2 s3\ts2 s1\n"
        "s1 s2 s3\ts2 s1\n"
    )


def test_max_set(capsys):
    code, out, _ = run(
        capsys, "--type", "A3", "max-set", "--w", "s1 s2 s3 s2 s1", "--J", "s1,s2")
    assert code == 0
    assert out.splitlines()[-1] == "values: s2 s1, s1 s2 s1"


def test_rel_max_and_fiber_alias(capsys):
    args = ("--type", "A3", "rel-max", "--w", "s1 s2 s3", "--x", "e",
            "--J", "s1", "--K", "s1,s2")
    code, out, _ = run(capsys, *args)
    assert (code, out) == (0, "q: s1 s2\nm: s1 s2\n")
    code2, out2, _ = run(capsys, "--type", "A3", "fiber", "--w", "s1 s2 s3", "--x", "e",
                         "--J", "s1", "--K", "s1,s2")
    assert (code2, out2) == (0, out)


@pytest.mark.parametrize("command", ["rel-max", "fiber"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_relative_commands_refuse_trace(capsys, command, fmt):
    """rel-max and fiber share max-coset's handler but not its --trace flag."""
    with pytest.raises(SystemExit) as exc:
        main(["--type", "A3", "--format", fmt, command, "--w", "s1 s2 s3", "--x", "e",
              "--J", "s1", "--K", "s1,s2", "--trace"])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "unrecognized arguments: --trace" in err


def test_bp(capsys):
    code, out, _ = run(capsys, "--type", "A3", "bp", "--w", "s1 s2 s3 s2 s1", "--J", "s1,s2")
    assert code == 0
    assert "not BP" in out
    assert "u: s2 s1" in out
    assert "u_max: s1 s2 s1" in out
    code, out, _ = run(capsys, "--type", "A3", "bp", "--w", "s3 s2 s1", "--J", "s1,s2")
    assert code == 0
    assert "\nBP\n" in out
    assert "product: 1+3t+3t^2+t^3" in out


def test_bp_scan(capsys):
    code, out, _ = run(capsys, "--type", "A3", "bp-scan", "--w", "s1 s2 s3 s2 s1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "J\tis_bp\tu\tu_max"
    assert len(lines) == 9  # header + 8 subsets
    assert lines[1].startswith("-\tyes")
    assert "s1,s2\tno\ts2 s1\ts1 s2 s1" in lines


def test_poincare_decomp_relative(capsys):
    code, out, _ = run(
        capsys, "--type", "A3", "poincare-decomp", "--w", "s1 s2 s3",
        "--J", "s1", "--K", "s1,s2")
    assert code == 0
    assert "factored: (1)(1+t+t^2) + (t+t^2+t^3)(1)" in out
    assert out.rstrip().endswith("total: 1+2t+2t^2+t^3")


def test_hasse_defaults_to_dot(capsys):
    code, out, _ = run(capsys, "--type", "A3", "hasse", "--w", "s1 s2 s1", "--J", "s1")
    assert code == 0
    assert out.startswith("graph bruhat_interval {")
    assert '"s2" [fontcolor=red];' in out


def test_hasse_text_and_json(capsys):
    code, out, _ = run(capsys, "--type", "A3", "--format", "text", "hasse", "--w", "s1 s2")
    assert code == 0
    assert "e -- s1" in out
    code, out, _ = run(capsys, "--type", "A3", "--format", "json", "hasse", "--w", "s1 s2")
    payload = json.loads(out)
    assert payload["nodes"][0] == {"w": "e", "color": None}
    assert ["s1", "s1 s2"] in payload["edges"]


def test_json_round_trip(capsys):
    for argv in (
        ("--type", "A3", "--format", "json", "len", "--w", "s1"),
        ("--type", "A3", "--format", "json", "interval", "--w", "s1 s2 s1"),
        ("--type", "A3", "--format", "json", "mj-table", "--w", "s1 s2 s3 s2 s1",
         "--J", "s1,s2"),
        ("--type", "A3", "--format", "json", "poincare-decomp", "--w", "s1 s2 s3 s2 s1",
         "--J", "s1,s2"),
        ("--type", "A3", "--format", "json", "bp", "--w", "s1 s2 s3 s2 s1", "--J", "s1,s2"),
        ("--type", "A3", "--format", "json", "max-coset", "--w", "s1 s2 s3 s2 s1",
         "--x", "s2 s3", "--J", "s1,s2", "--trace"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


def test_json_decomp_payload(capsys):
    code, out, _ = run(
        capsys, "--type", "A3", "--format", "json", "poincare-decomp",
        "--w", "s1 s2 s3 s2 s1", "--J", "s1,s2")
    payload = json.loads(out)
    assert payload["total_coeffs"] == [1, 3, 5, 6, 4, 1]
    assert payload["terms"][0]["m"] == "s1 s2 s1"


def test_matrix_file(tmp_path, capsys):
    path = tmp_path / "i27.json"
    path.write_text(json.dumps({"generators": ["a", "b"], "m": [[1, 7], [7, 1]]}))
    code, out, _ = run(capsys, "--matrix", str(path), "len", "--w", "a b a b a b a")
    assert (code, out) == (0, "7\n")


def test_domain_error_exit_1(capsys):
    code, out, err = run(
        capsys, "--type", "A3", "max-coset", "--w", "s1 s2", "--x", "s3", "--J", "s1,s2")
    assert code == 1
    assert out == ""
    assert err.startswith("EmptyIntersection: ")
    code, _, err = run(
        capsys, "--type", "A3", "max-coset", "--w", "s1 s2", "--x", "s1", "--J", "s1")
    assert code == 1
    assert err.startswith("NotMinimalRep: ")
    code, _, err = run(capsys, "--matrix", "/nonexistent/m.json", "len", "--w", "e")
    assert code == 1
    assert err.startswith("InvalidMatrix: ")
    assert run(capsys, "--type", "A3", "--interval-cap", "-1", "len", "--w", "s1") == (
        1, "", "InvalidMatrix: interval_cap must be nonnegative\n")


def test_usage_error_exit_2(capsys):
    code, _, err = run(capsys, "--type", "A3", "len", "--w", "s9")
    assert code == 2
    assert "--w" in err
    code, _, err = run(capsys, "len", "--w", "s1")
    assert code == 2
    assert "--type" in err
    code, _, err = run(capsys, "--type", "A3", "--format", "dot", "len", "--w", "s1")
    assert code == 2
    assert "--format" in err
    code, _, err = run(capsys, "--type", "A3", "len", "--w", "s1", "--perm", "4231")
    assert code == 2
    assert "--perm" in err
    code, _, err = run(capsys, "--type", "A3", "len")
    assert code == 2
    assert "--w" in err
    code, _, err = run(capsys, "--type", "B3", "len", "--perm", "321")
    assert code == 2
    assert "--perm" in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--type", "A3", "frobnicate"])
    assert exc.value.code == 2


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "--type", "A2", "verify", "--max-len", "3", "--samples", "20")
    assert code == 0
    for line in out.splitlines():
        assert ": ok (" in line


def test_empty_genset(capsys):
    code, out, _ = run(
        capsys, "--type", "A3", "mj-table", "--w", "s1 s2", "--J", "-")
    assert code == 0
    # with J empty every element is its own coset and every shift is e
    rows = out.splitlines()[1:]
    assert all(row.endswith("\te") for row in rows)


def _golden_check(capsys, name, argv):
    path = GOLDEN / name
    code, out, _ = run(capsys, *argv)
    assert code == 0
    expected = path.read_text()
    assert out == expected, f"golden mismatch for {name}"


GOLDEN_CASES = {
    "mj_table.txt": ("--type", "A3", "mj-table", "--w", "s1 s2 s3 s2 s1", "--J", "s1,s2"),
    "bp.txt": ("--type", "A3", "bp", "--w", "s1 s2 s3 s2 s1", "--J", "s1,s2"),
    "poincare_decomp.txt": (
        "--type", "A3", "poincare-decomp", "--w", "s1 s2 s3 s2 s1", "--J", "s1,s2"),
    "max_coset_trace.txt": (
        "--type", "A4", "max-coset", "--w", "s3 s1 s2 s4 s3 s2 s1",
        "--x", "s4 s3", "--J", "s1,s2,s4", "--trace"),
    "hasse.dot": ("--type", "A3", "hasse", "--w", "s1 s2 s3 s2 s1", "--J", "s1,s2"),
    "mj_table.json": (
        "--type", "A3", "--format", "json", "mj-table", "--w", "s1 s2 s3 s2 s1",
        "--J", "s1,s2"),
    "interval.txt": ("--type", "A3", "interval", "--w", "s1 s2 s3 s2 s1"),
    "rel_max.json": (
        "--type", "A4", "--format", "json", "rel-max", "--w", "s1 s2 s3 s4 s3 s2",
        "--x", "s4 s3", "--J", "s1", "--K", "s1,s2"),
    "poincare_decomp_K.json": (
        "--type", "A4", "--format", "json", "poincare-decomp", "--w", "s1 s2 s3 s4 s3 s2",
        "--J", "s1", "--K", "s1,s2"),
    # non-type-A: the m = 5 bond s1-s2 lies inside J
    "mj_table_H3.json": (
        "--type", "H3", "--format", "json", "mj-table",
        "--w", "s3 s2 s1 s2 s1 s3 s2 s1 s2 s3", "--J", "s1,s2"),
    "poincare_decomp_D4.txt": (
        "--type", "D4", "poincare-decomp", "--w", "s1 s2 s3 s4 s2 s1 s3 s2", "--J", "s1,s2,s4"),
    # 56 letters reducing to length 40, and 33 reducing to length 11
    "leq_long.json": (
        "--type", "A~3", "--format", "json", "leq",
        "--w", "s2 s1 s4 s3 s1 s2 s1 s3 s2 s4 s3 s1 s2 s3 s4 s3 s1 s4 s3 s2"
        " s1 s3 s4 s2 s1 s3 s4 s2 s3 s4 s1 s2 s4 s3 s2 s4 s1 s4 s2 s3"
        " s1 s2 s1 s4 s1 s3 s4 s2 s2 s4 s3 s1 s4 s1 s2 s1",
        "--u", "s1 s4 s3 s1 s1 s3 s2 s4 s1 s2 s3 s3 s4 s3 s2 s4 s2 s1 s3 s4"
        " s1 s3 s2 s4 s4 s2 s1 s2 s4 s1 s3 s4 s2"),
    # a False case: 56 letters reducing to length 44, 44 reducing to 38, and the
    # descent chain runs the whole length of w
    "leq_long_false.json": (
        "--type", "A~4", "--format", "json", "leq",
        "--w", "s2 s4 s3 s2 s2 s2 s5 s1 s2 s3 s4 s3 s2 s1 s5 s1 s1 s1 s2 s3"
        " s4 s3 s2 s1 s5 s1 s2 s4 s3 s2 s5 s1 s2 s4 s3 s3 s3 s1 s2 s2"
        " s1 s2 s5 s5 s5 s1 s2 s4 s3 s2 s5 s1 s2 s4 s3 s2",
        "--u", "s2 s4 s3 s2 s1 s5 s1 s2 s2 s2 s3 s4 s3 s2 s1 s5 s1 s2 s4 s3"
        " s2 s5 s1 s2 s4 s3 s2 s2 s2 s5 s4 s4 s1 s2 s4 s3 s2 s5 s1 s2"
        " s4 s3 s2 s5"),
    # the Billey-Postnikov test for every J of H3
    "bp_scan_H3.json": (
        "--type", "H3", "--format", "json", "bp-scan", "--w", "s3 s2 s1 s2 s1 s3 s2 s1"),
    # 84 nodes and 283 cover edges of a D4 interval, coloured by coset
    "hasse_D4.dot": (
        "--type", "D4", "hasse", "--w", "s1 s2 s3 s4 s2 s1 s3 s2", "--J", "s1,s2,s4"),
    # an affine lower interval of 144 elements
    "interval_A~3.txt": ("--type", "A~3", "interval", "--w", "s1 s3 s4 s1 s3 s2 s4 s1 s3 s2"),
    # seven affine levels, two with a non-empty stabiliser; left products of walked elements
    "max_coset_trace_A~3.txt": (
        "--type", "A~3", "max-coset", "--w", "s2 s1 s3 s2 s1 s4 s1 s2 s3 s2 s1 s4 s1 s3",
        "--x", "s3 s4 s1 s3 s2 s1 s4", "--J", "s1,s3", "--trace"),
    # 44 letters reducing to length 36; the left split steps from the walked w
    "decompose_left_A~4.json": (
        "--type", "A~4", "--format", "json", "decompose",
        "--w", "s2 s3 s2 s5 s1 s3 s3 s2 s3 s4 s3 s2 s2 s2 s1 s5 s1 s2 s3 s5"
        " s5 s4 s3 s2 s1 s5 s1 s2 s4 s3 s2 s5 s1 s1 s1 s2 s4 s3 s2 s5"
        " s1 s4 s3 s5",
        "--J", "s3,s4,s5", "--side", "left"),
    # 34 affine levels, two with a non-empty stabiliser, as a JSON trace
    "max_coset_trace_A~2.json": (
        "--type", "A~2", "--format", "json", "max-coset", "--trace", "--J", "s2,s3",
        "--w", "s1 s2 s1 s3 s1 s2 s1 s3 s1 s2 s1 s3 s1 s2 s1 s3 s1 s2 s1 s3"
        " s1 s2 s1 s3 s1 s2 s1 s3 s1 s2 s1 s3 s1 s2 s1 s3 s2 s1 s3 s2",
        "--x", "s1 s2 s1 s3 s1 s2 s1 s3 s1 s2 s1 s3 s1 s2 s1 s3 s1 s2 s1 s3"
        " s1 s2 s1 s3 s1 s2 s1 s3 s1 s2 s1 s3 s2 s1"),
    # (s1 s2)^15, answered past the default interval cap of 24
    "poincare_interval_cap.txt": (
        "--type", "I2:inf", "--interval-cap", "30", "poincare",
        "--w", "s1 s2 s1 s2 s1 s2 s1 s2 s1 s2 s1 s2 s1 s2 s1 s2 s1 s2 s1 s2"
        " s1 s2 s1 s2 s1 s2 s1 s2 s1 s2"),
    # one case for every subcommand and format pair, so the JSON echo of the
    # parsed flags and every text layout are locked in
    "len.txt": ("--type", "A3", "len", "--w", "s2 s1 s2 s3"),
    "len_perm.json": ("--type", "A3", "--format", "json", "len", "--perm", "4231"),
    "leq.txt": ("--type", "A3", "leq", "--u", "s1 s3", "--w", "s1 s2 s3 s2 s1"),
    "leq.json": ("--type", "A3", "--format", "json", "leq", "--u", "s3 s1", "--w", "s2 s1"),
    "interval.json": ("--type", "A3", "--format", "json", "interval", "--w", "s2 s1 s3 s2"),
    "covers.txt": ("--type", "A3", "covers", "--w", "s1 s2 s3 s2 s1"),
    "covers.json": ("--type", "A3", "--format", "json", "covers", "--w", "s1 s2 s3 s2 s1"),
    "poincare.txt": ("--type", "B3", "poincare", "--w", "s1 s2 s3 s2 s1"),
    "poincare.json": ("--type", "B3", "--format", "json", "poincare", "--w", "s1 s2 s3 s2 s1"),
    "poincare_rel.txt": (
        "--type", "A3", "poincare-rel", "--w", "s2 s1 s3 s2", "--J", "s1,s3"),
    "poincare_rel.json": (
        "--type", "A3", "--format", "json", "poincare-rel", "--w", "s2 s1 s3 s2", "--J", "s1,s3"),
    "decompose.txt": (
        "--type", "A3", "decompose", "--w", "s1 s2 s3 s2 s1", "--J", "s1,s2"),
    "decompose_left.txt": (
        "--type", "A3", "decompose", "--w", "s1 s2 s3 s2 s1", "--J", "s1,s2", "--side", "left"),
    "decompose.json": (
        "--type", "A3", "--format", "json", "decompose", "--w", "s1 s2 s3 s2 s1", "--J", "s2,s3"),
    "coset_rep.txt": ("--type", "A3", "coset-rep", "--w", "s1 s2 s3 s2 s1", "--J", "s1,s2"),
    "coset_rep.json": (
        "--type", "A3", "--format", "json", "coset-rep", "--w", "s1 s2 s3 s2 s1", "--J", "-"),
    "max_coset.txt": (
        "--type", "A4", "max-coset", "--w", "s3 s1 s2 s4 s3 s2 s1", "--x", "s4 s3",
        "--J", "s1,s2,s4"),
    "max_coset.json": (
        "--type", "A4", "--format", "json", "max-coset", "--w", "s3 s1 s2 s4 s3 s2 s1",
        "--x", "s4 s3", "--J", "s1,s2,s4"),
    "max_set.txt": ("--type", "A3", "max-set", "--w", "s1 s2 s3 s2 s1", "--J", "s1,s2"),
    "max_set.json": (
        "--type", "A3", "--format", "json", "max-set", "--w", "s1 s2 s3 s2 s1", "--J", "s1,s2"),
    "rel_max.txt": (
        "--type", "A4", "rel-max", "--w", "s1 s2 s3 s4 s3 s2", "--x", "s4 s3",
        "--J", "s1", "--K", "s1,s2"),
    "fiber.txt": (
        "--type", "A3", "fiber", "--w", "s1 s2 s3", "--x", "e", "--J", "s1", "--K", "s1,s2"),
    "fiber.json": (
        "--type", "A3", "--format", "json", "fiber", "--w", "s1 s2 s3", "--x", "e",
        "--J", "s1", "--K", "s1,s2"),
    "bp_yes.txt": ("--type", "A3", "bp", "--w", "s3 s2 s1", "--J", "s1,s2"),
    "bp.json": ("--type", "A3", "--format", "json", "bp", "--w", "s1 s2 s3 s2 s1", "--J", "s1,s2"),
    "bp_yes.json": ("--type", "A3", "--format", "json", "bp", "--w", "s3 s2 s1", "--J", "s1,s2"),
    "poincare_decomp.json": (
        "--type", "A3", "--format", "json", "poincare-decomp", "--w", "s1 s2 s3", "--J", "s1,s2"),
    # relative mode with a product P^K_v P^J_u of the relative polynomial
    "poincare_decomp_K.txt": (
        "--type", "A3", "poincare-decomp", "--w", "s1 s2 s1 s3", "--J", "s2", "--K", "s2,s3"),
    "poincare_decomp_K_product.json": (
        "--type", "A3", "--format", "json", "poincare-decomp", "--w", "s1 s2 s1 s3",
        "--J", "s2", "--K", "s2,s3"),
    "bp_scan.txt": ("--type", "A3", "bp-scan", "--w", "s1 s2 s3 s2 s1"),
    "hasse_plain.dot": ("--type", "A3", "hasse", "--w", "s2 s1 s3"),
    "hasse.txt": ("--type", "A3", "--format", "text", "hasse", "--w", "s2 s1 s3"),
    "hasse_J.txt": ("--type", "A3", "--format", "text", "hasse", "--w", "s2 s1 s3", "--J", "s1"),
    "hasse.json": ("--type", "A3", "--format", "json", "hasse", "--w", "s2 s1 s3"),
    "hasse_J.json": (
        "--type", "A3", "--format", "json", "hasse", "--w", "s2 s1 s3", "--J", "s1"),
    "verify.txt": ("--type", "A3", "verify", "--max-len", "3", "--samples", "10"),
    "verify.json": (
        "--type", "A3", "--format", "json", "verify", "--max-len", "3", "--samples", "10"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden(capsys, name):
    _golden_check(capsys, name, GOLDEN_CASES[name])


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_byte_stable_across_runs(capsys, name):
    argv = GOLDEN_CASES[name]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert (code1, code2) == (0, 0)
    assert out1 == out2


#: argv -> the exact stderr of a usage error (exit code 2, nothing on stdout).
#: Element and set flags are read in the order the subcommand declares them,
#: so with two bad flags the first declared one is reported.
USAGE_ERRORS = {
    ("len", "--w", "s9"): "--w: unknown generator 's9'",
    ("len", "--perm", "4251"): "--perm: [4, 2, 5, 1] is not a permutation of 1..4",
    ("leq", "--u", "s1 x", "--w", "s1"): "--u: unknown generator 'x'",
    ("max-coset", "--w", "s1", "--x", "s0", "--J", "s1"): "--x: unknown generator 's0'",
    ("mj-table", "--w", "s1", "--J", "s1,s7"): "--J: unknown generator 's7'",
    ("rel-max", "--w", "s1", "--x", "e", "--J", "s1", "--K", "t"): "--K: unknown generator 't'",
    ("poincare-decomp", "--w", "s1", "--J", "s1", "--K", "s4"): "--K: unknown generator 's4'",
    ("hasse", "--w", "s1", "--J", "q"): "--J: unknown generator 'q'",
    # two or three bad flags: the first declared one is reported
    ("leq", "--u", "s5", "--w", "s6"): "--u: unknown generator 's5'",
    ("max-coset", "--J", "s7", "--x", "s6", "--w", "s5"): "--w: unknown generator 's5'",
    ("max-coset", "--w", "s1", "--J", "s7", "--x", "s6"): "--x: unknown generator 's6'",
    ("rel-max", "--w", "s1", "--x", "e", "--K", "s9", "--J", "s8"): "--J: unknown generator 's8'",
    ("len", "--w", "s1", "--perm", "4231"): "--perm: give either --w or --perm, not both",
    ("leq", "--u", "s1", "--w", "s1", "--perm", "4231"):
        "--perm: give either --w or --perm, not both",
    ("len",): "--w: a word is required",
    ("bp", "--J", "s1"): "--w: a word is required",
    ("verify", "--max-len", "-1"): "--max-len: must be nonnegative, got -1",
    ("verify", "--samples", "-2", "--max-len", "-1"): "--max-len: must be nonnegative, got -1",
}


@pytest.mark.parametrize("argv", sorted(USAGE_ERRORS), ids=" ".join)
def test_usage_error_message(capsys, argv):
    assert run(capsys, "--type", "A3", *argv) == (2, "", f"error: {USAGE_ERRORS[argv]}\n")


def test_usage_errors_before_flag_values(capsys):
    # the system and the output format are checked before any element flag
    assert run(capsys, "len", "--w", "s9") == (
        2, "", "error: --type: give exactly one of --type or --matrix\n")
    assert run(capsys, "--type", "A3", "--format", "dot", "len", "--w", "s9") == (
        2, "", "error: --format: dot output is only available for the hasse command\n")
    assert run(capsys, "--type", "B3", "len", "--perm", "321") == (
        2, "", "error: --perm: permutation of 3 letters needs a type-A system of rank 2\n")
